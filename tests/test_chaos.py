"""Deterministic chaos suite: faults, failover, autoscaling.

Every test replays a *pinned* fault schedule through
:class:`~repro.cluster.faults.ChaosClusterEngine` and asserts the
resilience contract the serving stack declares:

* **bounded degradation** — under every injected fault class (crash,
  slowdown, flaky) latency (p99, miss rate) and depth quality
  (bad-pixel rate / EPE) stay inside the envelopes declared at the top
  of this file, during the fault window and after recovery;
* **exact re-key bookkeeping** — a crashed shard's streams migrate and
  their first post-migration served frame is a key frame, pinned in
  the replayed dispositions (the quality probe independently raises on
  any chain violation, so every probed run re-checks the invariant);
* **bit-identical determinism** — identical ``(fault_schedule, seed)``
  inputs render byte-identical cluster reports in two processes with
  different ``PYTHONHASHSEED`` values, so neither a seeded draw nor
  set/dict hash order can leak into a report.

The final test folds the canonical crash scenario's failover latency
and degraded-window p99 into ``benchmarks/results/BENCH_chaos.json``
(uploaded by CI next to the kernel bench artifact).

``ASV_BENCH_FRAMES`` caps the per-stream frame count so CI can smoke
the suite cheaply (see ``.github/workflows/ci.yml``).
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.cluster import (
    Autoscaler,
    AutoscalerState,
    ChaosClusterEngine,
    ClusterEngine,
    CrashFault,
    FaultSchedule,
    FlakyFault,
    RetryPolicy,
    SlowdownFault,
    format_cluster_report,
    format_resilience,
)
from repro.backends.systolic import SystolicBackend
from repro.cluster.faults import _Replica
from repro.hw.config import HWConfig
from repro.pipeline import FrameCoster, FrameStream
from repro.pipeline.quality import QualityProbe
from repro.pipeline.stream import sceneflow_stream

TINY = (68, 120)
PIXEL = (48, 64)
N_FRAMES = int(os.environ.get("ASV_BENCH_FRAMES", "12"))
RESULTS_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"
TESTS_DIR = pathlib.Path(__file__).resolve().parent

# the declared degradation envelopes the suite enforces: under any
# single injected fault the fleet may degrade, but boundedly —
# relative to the same fleet serving the same streams fault-free
ENVELOPE = {
    "p99_factor": 4.0,        # chaos p99 <= 4x the fault-free p99
    "miss_rate": 0.35,        # <= 35% of offered frames miss/drop
    "bad_px_penalty": 0.15,   # mean bad-pixel rate +15 points max
    "recovery_factor": 1.5,   # post-window p99 back within 1.5x
}


def _streams(n=4, frames=None, deadline=0.05, **kw):
    kw.setdefault("mode", "baseline")
    return [
        FrameStream(f"cam{i}", size=TINY, n_frames=frames or N_FRAMES,
                    deadline_s=deadline, **kw)
        for i in range(n)
    ]


def _pixel_streams(n=2, frames=8, deadline=0.05):
    return [
        sceneflow_stream(seed=i, size=PIXEL, n_frames=frames,
                         deadline_s=deadline)
        for i in range(n)
    ]


def _probe():
    return QualityProbe(max_disp=16)


# ----------------------------------------------------------------------
# fault model validation
# ----------------------------------------------------------------------
class TestFaultModel:
    def test_crash_rejects_negative_time(self):
        with pytest.raises(ValueError, match="crash time"):
            CrashFault("gpu:0", at_s=-1.0)

    def test_flaky_rejects_certain_failure(self):
        # rate 1.0 + never-dropped key frames would retry forever
        with pytest.raises(ValueError, match="retry forever"):
            FlakyFault("gpu:0", start_s=0.0, duration_s=1.0,
                       failure_rate=1.0)

    def test_slowdown_rejects_empty_window(self):
        with pytest.raises(ValueError, match="window"):
            SlowdownFault("gpu:0", start_s=0.0, duration_s=0.0, factor=2.0)
        with pytest.raises(ValueError, match="factor"):
            SlowdownFault("gpu:0", start_s=0.0, duration_s=1.0, factor=0.0)

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout_s=0.0)

    def test_unknown_shard_rejected_at_construction(self):
        schedule = FaultSchedule(faults=(CrashFault("gpu:7", at_s=0.1),))
        with pytest.raises(ValueError, match="unknown shards"):
            ChaosClusterEngine(["gpu", "gpu"], faults=schedule)

    def test_unknown_autoscaler_backend_rejected_at_construction(self):
        """A misspelt scale-up backend fails before the run, not at the
        first scale-up (or never, when the fleet never scales)."""
        with pytest.raises(ValueError, match="unknown backend 'gpuu'.*gpu"):
            ChaosClusterEngine(["gpu"], autoscaler=Autoscaler(backend="gpuu"))

    def test_double_crash_rejected(self):
        schedule = FaultSchedule(faults=(
            CrashFault("gpu:0", at_s=0.1),
            CrashFault("gpu:0", at_s=0.2),
        ))
        with pytest.raises(ValueError, match="crash twice"):
            ChaosClusterEngine(["gpu"], faults=schedule).run(_streams(n=1))

    def test_killing_every_replica_is_an_error(self):
        schedule = FaultSchedule(faults=(
            CrashFault("gpu:0", at_s=0.02),
            CrashFault("gpu:1", at_s=0.03),
        ))
        engine = ChaosClusterEngine(["gpu", "gpu"], faults=schedule)
        with pytest.raises(ValueError, match="killed every replica"):
            engine.run(_streams())

    def test_autoscaler_floor_does_not_outlive_a_crash(self):
        # the autoscaler retires gpu:1 at its first tick (0.1 s); the
        # crash of gpu:0 at 0.5 s then leaves no live replica, and the
        # floor of min_replicas=1 binds only the autoscaler's own
        # scale-downs, so the error must not advise attaching one
        engine = ChaosClusterEngine(
            ["gpu", "gpu"],
            faults=FaultSchedule(faults=(CrashFault("gpu:0", at_s=0.5),)),
            autoscaler=Autoscaler(interval_s=0.1, down_hold=1,
                                  low_pressure=0.5, high_pressure=0.9),
        )
        with pytest.raises(ValueError, match="killed every replica") as err:
            engine.run(_streams(n=2, frames=24, deadline=0.05))
        message = str(err.value)
        assert "t=0.5s" in message
        assert "even with an autoscaler attached" in message
        assert "attach an autoscaler" not in message

    def test_schedule_accessors(self):
        crash = CrashFault("gpu:1", at_s=0.5)
        slow = SlowdownFault("gpu:0", start_s=0.1, duration_s=0.2,
                             factor=2.0)
        flaky = FlakyFault("gpu:0", start_s=0.0, duration_s=1.0,
                           failure_rate=0.25)
        schedule = FaultSchedule(faults=(crash, slow, flaky), seed=9)
        assert schedule.shards() == {"gpu:0", "gpu:1"}
        assert schedule.crashes() == [crash]
        assert schedule.slowdowns_for("gpu:0") == [slow]
        assert schedule.flaky_for("gpu:0") == [flaky]
        assert schedule.flaky_for("gpu:1") == []


# ----------------------------------------------------------------------
# fault-free parity: the chaos loop is an extension, not a fork
# ----------------------------------------------------------------------
class TestFaultFreeParity:
    @pytest.mark.parametrize("discipline", ["fifo", "edf", "priority",
                                            "shed"])
    def test_no_faults_matches_plain_engine(self, discipline):
        streams = _streams(deadline=0.03)
        plain = ClusterEngine(["gpu", "eyeriss"],
                              scheduler=discipline).run(streams)
        chaos = ChaosClusterEngine(["gpu", "eyeriss"],
                                   scheduler=discipline).run(streams)
        assert chaos.placement == plain.placement
        assert chaos.total_frames == plain.total_frames
        assert chaos.makespan_s == plain.makespan_s
        assert chaos.stream_stats == plain.stream_stats

    def test_no_faults_empty_resilience_ledger(self):
        report = ChaosClusterEngine(["gpu"]).run(_streams(n=2))
        res = report.resilience
        assert res.events == ()
        assert res.total_migrations == 0
        assert res.total_retries == 0
        assert res.crashes == 0
        assert res.degraded_windows == ()
        assert res.degraded_p99_ms == 0.0


# ----------------------------------------------------------------------
# crash + failover
# ----------------------------------------------------------------------
class TestCrashFailover:
    SCHEDULE = FaultSchedule(faults=(CrashFault("gpu:1", at_s=0.06),))

    def _run(self, streams=None):
        engine = ChaosClusterEngine(["gpu", "gpu"], policy="round-robin",
                                    faults=self.SCHEDULE)
        return engine.run(streams or _streams())

    def test_streams_migrate_to_survivor(self):
        report = self._run()
        assert all(label == "gpu:0" for _, label in report.placement)
        # no frame is lost to the crash itself: everything offered is
        # served (fifo never drops) even though a shard died mid-run
        assert report.total_frames == 4 * N_FRAMES

    def test_failover_accounting(self):
        res = self._run().resilience
        assert res.crashes == 1
        migrated = [s for s in res.streams if s.migrations]
        untouched = [s for s in res.streams if not s.migrations]
        assert {s.stream for s in migrated} == {"cam1", "cam3"}
        for s in migrated:
            assert s.downtime_s > 0
            assert s.failover_latency_s > 0
            assert s.failover_latency_s <= 0.2  # declared failover SLO
        for s in untouched:
            assert s.downtime_s == 0
            assert s.failover_latency_s == 0
        assert res.worst_failover_latency_s == max(
            s.failover_latency_s for s in res.streams
        )

    def test_crashed_shard_stops_at_crash_instant(self):
        report = self._run()
        dead = next(s for s in report.shards if s.label == "gpu:1")
        assert dead.report.makespan_s <= 0.06
        assert dead.report.busy_s <= 0.06
        # final stats live on the survivor: the dead shard keeps the
        # frames it actually served but carries no stream's history
        assert dead.report.streams == []
        assert dead.report.total_frames > 0

    def test_migrated_streams_rekey(self):
        # the extra key frame the migration forces shows up in the
        # key counts: migrated streams serve one more key than the
        # same run without the fault
        base = ClusterEngine(["gpu", "gpu"],
                             policy="round-robin").run(_streams())
        chaos = self._run()
        base_keys = {s.stream: s.key_frames for s in base.stream_stats}
        for s in chaos.stream_stats:
            expected = base_keys[s.stream]
            if s.stream in ("cam1", "cam3"):
                expected += 1
            assert s.key_frames == expected

    def test_bounded_latency_degradation(self):
        base = ClusterEngine(["gpu", "gpu"],
                             policy="round-robin").run(_streams())
        chaos = self._run()
        assert chaos.worst_p99_ms <= ENVELOPE["p99_factor"] * base.worst_p99_ms
        offered = 4 * N_FRAMES
        missed = sum(s.missed_deadlines for s in chaos.stream_stats)
        assert missed / offered <= ENVELOPE["miss_rate"]

    def test_first_post_migration_frame_is_key_pinned(self):
        # pinned dispositions: sceneflow-0 starts on gpu:0 (pw=4, so
        # planned keys at 0 and 4); the crash at t=0.05 migrates it
        # and the next served frame — frame 2 — is forced key
        schedule = FaultSchedule(faults=(CrashFault("gpu:0", at_s=0.05),))
        engine = ChaosClusterEngine(["gpu", "gpu"], policy="round-robin",
                                    faults=schedule, quality=_probe())
        report = engine.run(_pixel_streams())
        dispositions = {
            s.stream: tuple(f.disposition for f in s.quality.frames)
            for s in report.stream_stats
        }
        assert dispositions["sceneflow-0"] == (
            "key", "nonkey", "key", "nonkey",
            "key", "nonkey", "nonkey", "nonkey",
        )
        # the co-placed stream that never migrated keeps its plan
        assert dispositions["sceneflow-1"] == (
            "key", "nonkey", "nonkey", "nonkey",
            "key", "nonkey", "nonkey", "nonkey",
        )
        events = report.resilience.events_of("migrate")
        assert [e.stream for e in events] == ["sceneflow-0"]

    def test_bounded_quality_degradation(self):
        schedule = FaultSchedule(faults=(CrashFault("gpu:0", at_s=0.05),))
        chaos = ChaosClusterEngine(["gpu", "gpu"], policy="round-robin",
                                   faults=schedule, quality=_probe())
        base = ClusterEngine(["gpu", "gpu"], policy="round-robin",
                             quality=_probe())
        streams = _pixel_streams()
        chaos_q = {s.stream: s.quality
                   for s in chaos.run(streams).stream_stats}
        base_q = {s.stream: s.quality
                  for s in base.run(_pixel_streams()).stream_stats}
        for name, quality in chaos_q.items():
            assert quality.bad_pixel_rate <= (
                base_q[name].bad_pixel_rate + ENVELOPE["bad_px_penalty"]
            )
            assert quality.epe_px <= 2.0 * base_q[name].epe_px


# ----------------------------------------------------------------------
# transient slowdown
# ----------------------------------------------------------------------
class TestSlowdown:
    SCHEDULE = FaultSchedule(faults=(
        SlowdownFault("gpu:0", start_s=0.05, duration_s=0.1, factor=4.0),
    ))

    def _run(self):
        engine = ChaosClusterEngine(["gpu"], faults=self.SCHEDULE)
        return engine.run(_streams())

    def test_window_latency_split(self):
        res = self._run().resilience
        # the fault hurts inside its (drain-extended) window and the
        # fleet recovers outside it
        assert res.degraded_p99_ms > res.steady_p99_ms
        assert len(res.degraded_windows) == 1
        start, end = res.degraded_windows[0]
        assert start == 0.05
        # the envelope outlives the fault: backlog drains after end
        assert end >= 0.15

    def test_no_frames_lost_and_bounded(self):
        base = ClusterEngine(["gpu"]).run(_streams())
        report = self._run()
        assert report.total_frames == 4 * N_FRAMES
        assert sum(s.dropped_frames for s in report.stream_stats) == 0
        assert report.worst_p99_ms <= (
            ENVELOPE["p99_factor"] * base.worst_p99_ms
        )

    def test_recovery_after_window(self):
        res = self._run().resilience
        base = ClusterEngine(["gpu"]).run(_streams())
        # steady-state frames (outside the degraded window) look like
        # the fault never happened, within the declared recovery factor
        assert res.steady_p99_ms <= (
            ENVELOPE["recovery_factor"] * base.worst_p99_ms
        )

    def test_slowdown_never_changes_key_plan(self):
        # slow frames are late, not lost: key counts match fault-free
        base = ClusterEngine(["gpu"]).run(_streams())
        report = self._run()
        assert (
            [s.key_frames for s in report.stream_stats]
            == [s.key_frames for s in base.stream_stats]
        )
        assert report.resilience.total_migrations == 0


# ----------------------------------------------------------------------
# flaky failures with retry / backoff
# ----------------------------------------------------------------------
class TestFlaky:
    def _engine(self, seed=3, rate=0.4, attempts=2):
        schedule = FaultSchedule(
            faults=(FlakyFault("gpu:0", start_s=0.0, duration_s=10.0,
                               failure_rate=rate),),
            seed=seed,
        )
        return ChaosClusterEngine(
            ["gpu"], faults=schedule,
            retry=RetryPolicy(max_attempts=attempts, backoff_s=0.001),
        )

    def test_retries_accounted(self):
        res = self._engine().run(_streams()).resilience
        assert res.total_retries > 0
        assert res.total_retries == sum(s.retries for s in res.streams)
        assert len(res.events_of("flaky-fail")) == res.total_retries

    def test_offered_equals_served_plus_dropped(self):
        report = self._engine().run(_streams())
        served = sum(s.frames for s in report.stream_stats)
        dropped = sum(s.dropped_frames for s in report.stream_stats)
        assert served == report.total_frames
        assert served + dropped == 4 * N_FRAMES
        assert len(report.resilience.events_of("retry-drop")) == dropped

    def test_key_frames_survive_heavy_flakiness(self):
        # drop-after-one-failure and a fierce failure rate: every
        # non-key frame is at risk, but key frames retry until they
        # land — the planned keys are all served
        report = self._engine(rate=0.7, attempts=1).run(_streams())
        base = ClusterEngine(["gpu"]).run(_streams())
        base_keys = {s.stream: s.key_frames for s in base.stream_stats}
        for s in report.stream_stats:
            assert s.key_frames >= base_keys[s.stream]
            assert s.frames >= s.key_frames  # sanity: keys were served

    def test_drop_rekeys_next_frame(self):
        # the quality probe hard-fails if any served frame after a
        # drop is non-key, so a clean probed run is itself the proof
        schedule = FaultSchedule(
            faults=(FlakyFault("gpu:0", start_s=0.0, duration_s=10.0,
                               failure_rate=0.5),),
            seed=5,
        )
        engine = ChaosClusterEngine(
            ["gpu"], faults=schedule,
            retry=RetryPolicy(max_attempts=1, backoff_s=0.001),
            quality=_probe(),
        )
        report = engine.run(_pixel_streams(n=1))
        quality = report.stream_stats[0].quality
        dispositions = [f.disposition for f in quality.frames]
        assert "drop" in dispositions  # the scenario actually dropped
        for i, what in enumerate(dispositions):
            if what == "drop":
                served_after = [d for d in dispositions[i + 1:]
                                if d != "drop"]
                if served_after:
                    assert served_after[0] == "key"

    def test_bounded_degradation(self):
        base = ClusterEngine(["gpu"]).run(_streams())
        report = self._engine().run(_streams())
        assert report.worst_p99_ms <= (
            ENVELOPE["p99_factor"] * base.worst_p99_ms
        )
        offered = 4 * N_FRAMES
        missed = sum(s.missed_deadlines for s in report.stream_stats)
        assert missed / offered <= ENVELOPE["miss_rate"]

    def test_seed_changes_outcomes(self):
        a = self._engine(seed=0).run(_streams()).resilience
        b = self._engine(seed=1).run(_streams()).resilience
        # a different seed redraws every per-attempt coin toss: the
        # failure pattern (which frames fail, when) must change even
        # if the total happens to coincide
        assert (
            [(e.stream, e.detail) for e in a.events_of("flaky-fail")]
            != [(e.stream, e.detail) for e in b.events_of("flaky-fail")]
        )


# ----------------------------------------------------------------------
# autoscaling
# ----------------------------------------------------------------------
class TestAutoscaler:
    def test_desired_replicas_matches_planner_sizing(self):
        scaler = Autoscaler(high_pressure=0.9, max_replicas=8)
        assert scaler.desired_replicas(0.0) == 1
        assert scaler.desired_replicas(0.9) == 1
        assert scaler.desired_replicas(2.2) == 3
        assert scaler.desired_replicas(100.0) == 8

    def test_hysteresis_holds_before_scaling(self):
        state = AutoscalerState(Autoscaler(up_hold=3))
        assert state.observe(5.0, n_replicas=1) is None
        assert state.observe(5.0, n_replicas=1) is None
        assert state.observe(5.0, n_replicas=1) == "up"
        # the decision resets the counter: the next hot interval
        # starts the hold from scratch
        assert state.observe(5.0, n_replicas=2) is None

    def test_dead_band_resets_counters(self):
        state = AutoscalerState(Autoscaler(up_hold=2, high_pressure=0.8,
                                           low_pressure=0.3))
        assert state.observe(5.0, n_replicas=1) is None
        assert state.observe(0.5, n_replicas=1) is None  # inside band
        assert state.observe(5.0, n_replicas=1) is None  # hold restarts
        assert state.observe(5.0, n_replicas=1) == "up"

    def test_fleet_bounds_bind(self):
        state = AutoscalerState(Autoscaler(up_hold=1, down_hold=1,
                                           min_replicas=1, max_replicas=2))
        assert state.observe(9.0, n_replicas=2) is None  # at the ceiling
        assert state.observe(0.0, n_replicas=1) is None  # at the floor

    def test_config_validation(self):
        with pytest.raises(ValueError, match="dead band"):
            Autoscaler(low_pressure=0.9, high_pressure=0.8)
        with pytest.raises(ValueError, match="hold counts"):
            Autoscaler(up_hold=0)
        with pytest.raises(ValueError, match="min_replicas"):
            Autoscaler(min_replicas=5, max_replicas=2)

    def test_scales_up_after_crash_overload(self):
        # losing a shard doubles the survivor's pressure past the
        # watermark; the autoscaler buys a replacement replica
        schedule = FaultSchedule(faults=(CrashFault("gpu:0", at_s=0.02),))
        engine = ChaosClusterEngine(
            ["gpu", "gpu"], faults=schedule,
            autoscaler=Autoscaler(up_hold=1, interval_s=0.03,
                                  max_replicas=4),
        )
        report = engine.run(_streams(n=8, frames=16, deadline=0.01))
        res = report.resilience
        assert res.replicas_added >= 1
        ups = res.events_of("scale-up")
        assert ups and ups[0].shard == "gpu:2"
        assert report.total_frames == 8 * 16

    def test_scale_down_drains_idle_replicas(self):
        engine = ChaosClusterEngine(
            ["gpu", "gpu", "gpu"],
            autoscaler=Autoscaler(down_hold=1, interval_s=0.02,
                                  low_pressure=0.5),
        )
        report = engine.run(_streams(n=2, frames=16))
        res = report.resilience
        assert res.replicas_removed >= 1
        assert report.total_frames == 2 * 16
        downs = res.events_of("scale-down")
        assert downs
        retired = {e.shard for e in downs}
        assert all(label not in retired for _, label in report.placement)

    def test_migrated_stream_pressure_priced_on_destination(self, monkeypatch):
        # two shards of one backend type, 16x apart in clock: once cam2
        # moves off the slow shard, the autoscaler must price its
        # pressure on the fast destination, not reuse the source's
        fast = SystolicBackend(HWConfig(frequency_hz=4e9, scalar_frequency_hz=1e9))
        slow = SystolicBackend(
            HWConfig(frequency_hz=0.25e9, scalar_frequency_hz=0.0625e9))
        priced = []
        pressure = FrameCoster.deadline_pressure

        def recorded(coster, stream, fps=None):
            priced.append((coster.backend, stream.name))
            return pressure(coster, stream, fps)

        monkeypatch.setattr(FrameCoster, "deadline_pressure", recorded)
        engine = ChaosClusterEngine(
            [fast, slow], autoscaler=Autoscaler(backend="gpu", interval_s=0.1))
        report = engine.run(_streams(frames=40, mode="ilar"))
        moves = report.resilience.events_of("migrate")
        assert [(e.stream, e.shard) for e in moves] == [("cam2", "systolic:0")]
        assert (slow, "cam2") in priced
        assert (fast, "cam2") in priced


# ----------------------------------------------------------------------
# a replay through every dispatch branch, pinned
# ----------------------------------------------------------------------
class TestDispatchBranchReplay:
    """One fault mix that drives the chaos loop through every branch a
    dispatch can take, with its outputs pinned with ``==``.

    Both crashes land inside a service (an in-flight kill), the
    slowdown window opens and closes, the flaky shard fails attempts
    that are retried and, past ``max_attempts``, dropped, the crashed
    shards' streams fail over, and the autoscaler scales up (under
    ``shed`` it also scales down).  The pins were captured before the
    loop kept per-replica state, so any rework of the loop must leave
    every placement, event, latency statistic and shard makespan
    bit-identical.  Rendered text is not pinned: it is presentation.
    """

    FLEET = ["gpu", "gpu", "systolic", "systolic"]
    SCHEDULE = FaultSchedule(
        faults=(
            CrashFault("gpu:1", at_s=0.1871),
            CrashFault("systolic:0", at_s=0.3213),
            SlowdownFault("gpu:0", start_s=0.1, duration_s=0.3, factor=2.0),
            FlakyFault("systolic:1", start_s=0.0, duration_s=0.6,
                       failure_rate=0.4),
        ),
        seed=5,
    )
    DISCIPLINES = ("fifo", "edf", "shed", "priority")

    #: every discipline ends on the same placement
    PLACEMENT = (
        "systolic:1", "gpu:0", "gpu:2", "systolic:1", "gpu:0", "systolic:1",
        "gpu:2", "systolic:1",
    )
    #: (label, frames served, makespan s) of each shard, in fleet order
    SHARDS = {
        "fifo": (
            ("gpu:0", 123, 0.6585279537024379),
            ("gpu:1", 45, 0.1871),
            ("systolic:0", 129, 0.3213),
            ("systolic:1", 243, 0.7310426126666679),
            ("gpu:2", 83, 0.6641909983542046),
        ),
        "edf": (
            ("gpu:0", 127, 0.6585279537024379),
            ("gpu:1", 44, 0.1871),
            ("systolic:0", 127, 0.3213),
            ("systolic:1", 246, 0.7198189476666681),
            ("gpu:2", 79, 0.6641909983542046),
        ),
        "shed": (
            ("gpu:0", 111, 0.6585279537024379),
            ("gpu:1", 45, 0.1871),
            ("systolic:0", 129, 0.3213),
            ("systolic:1", 168, 0.8460443946666654),
            ("gpu:2", 76, 0.7500000000000001),
        ),
        "priority": (
            ("gpu:0", 123, 0.6585279537024379),
            ("gpu:1", 44, 0.1871),
            ("systolic:0", 131, 0.3213),
            ("systolic:1", 240, 0.7222342613333331),
            ("gpu:2", 83, 0.6641909983542046),
        ),
    }
    #: sha256 of ``repr(report.resilience.events)``
    EVENTS_SHA256 = {
        "fifo":
            "d7bcc03ff2432240c7f881efdd9c69f9da0893e392ae592f9779cf7421c4d025",
        "edf":
            "e172626bc67e75283e1d84287d6179a9fffd7bdac7fdecf4137480cb1f415e54",
        "shed":
            "521a3d726f6f9d9b3f65b16a9fbf01a58a82d7ccbf18eae786002dfd856b72b6",
        "priority":
            "2a9de163c78b324fb958a3974fe233020ef258b77b44aff70d28472c7736db85",
    }
    #: ``dataclasses.astuple`` of every StreamStats, in stream order
    STATS = {
        "fifo": (
            ("cam0", 79, 40, 52.672479873418375, 30.47507466666727,
             128.24470026666805, 133.92333670000133, 135.12889300000143,
             50.2986925696209, 41, 1, 105.12889300000138, None),
            ("cam1", 75, 24, 16.253650323093648, 6.998188992550003,
             55.83073605788042, 66.39560396832205, 67.31160124393304,
             14.177300650564073, 7, 5, 7.311601243933041, None),
            ("cam2", 80, 41, 12.780051946100281, 7.52435653593686,
             34.10693306798732, 38.01848900167746, 38.996377985099976,
             7.905545393763174, 8, 0, 8.9963779851, None),
            ("cam3", 79, 24, 53.88396062413764, 53.398874666667375,
             125.61295413333481, 130.74756971333466, 133.23147633333465,
             52.11670266112764, 40, 1, 73.23147633333465, None),
            ("cam4", 76, 41, 20.30615485648031, 13.996377985100006,
             61.85081114501507, 68.20575551331143, 74.30979023648304,
             17.027294244281023, 23, 4, 44.30979023648307, None),
            ("cam5", 78, 22, 54.99618926068441, 55.32622283333404,
             124.69839341666793, 129.8821932833347, 130.153103666668,
             53.62686095299212, 40, 2, 70.15310366666804, None),
            ("cam6", 79, 40, 15.693027696818918, 13.99637798509995,
             39.164858972336496, 42.82571153769852, 44.75673282141896,
             12.34521865039774, 13, 1, 14.756732821418982, None),
            ("cam7", 77, 24, 56.000262086000205, 41.98913395529985,
             130.50466986666802, 137.9006759333346, 138.16806800000126,
             54.37597147580409, 41, 3, 78.16806800000131, None),
        ),
        "edf": (
            ("cam0", 79, 40, 36.847121261604066, 20.287045000000614,
             98.5626341666681, 106.15753722000146, 108.18087100000152,
             34.473333957806595, 38, 1, 78.18087100000149, None),
            ("cam1", 77, 23, 27.961648310194985, 13.996377985100006,
             82.2367173521452, 88.22566212198747, 92.60353179758984,
             25.96363759609206, 15, 3, 32.603531797589845, None),
            ("cam2", 80, 41, 8.820536719160694, 6.998188992550003,
             18.678100557551737, 22.999060349687223, 25.517087657737747,
             3.857336427109813, 0, 0, 0.0, None),
            ("cam3", 78, 24, 52.98418295007976, 52.70513266666751,
             119.24206303333496, 124.37949779333483, 128.0989586666681,
             51.19551540016647, 40, 2, 68.09895866666815, None),
            ("cam4", 76, 40, 15.572427748648309, 8.108685724214165,
             51.40672269129065, 61.402186889865995, 67.5062216130376,
             12.384252215298366, 18, 4, 37.506221613037624, None),
            ("cam5", 77, 23, 52.61602860606134, 55.717243666667414,
             118.12415520000144, 124.53392548000147, 128.20508166666812,
             51.17213091774965, 41, 3, 68.20508166666816, None),
            ("cam6", 79, 40, 10.587068039616216, 6.998188992549989,
             23.859809877524008, 29.614922860000426, 31.002150000000505,
             7.269697172652024, 2, 1, 1.002150000000479, None),
            ("cam7", 77, 23, 54.821008233766946, 61.48561433333477,
             125.43001500000153, 132.01951094666816, 136.32616900000139,
             53.37711054545527, 42, 3, 76.32616900000144, None),
        ),
        "shed": (
            ("cam0", 59, 40, 53.383045502824906, 5.527069666666667,
             177.4402319999992, 181.32013813333222, 182.29011466666546,
             50.24055843502829, 41, 21, 152.29011466666543, None),
            ("cam1", 72, 26, 17.85541313207824, 7.613851279102606,
             58.619926413305954, 65.41569628002073, 67.31160124393304,
             15.504912402883, 11, 8, 7.311601243933041, None),
            ("cam2", 77, 41, 11.763244339080588, 6.998188992550003,
             30.184425335929994, 37.98166828610466, 38.996377985099976,
             6.702613252933687, 7, 3, 8.9963779851, None),
            ("cam3", 60, 33, 57.16221165511373, 8.083854496274988,
             181.94137333333254, 185.88817439999886, 186.87487466666542,
             54.197132070483924, 40, 20, 126.87487466666548, None),
            ("cam4", 66, 41, 19.82739788011615, 12.882808325883337,
             65.65567956752942, 72.5741025934647, 74.30979023648304,
             16.066617700325615, 28, 14, 44.30979023648307, None),
            ("cam5", 60, 31, 58.875819888888934, 9.746797833333341,
             186.5261333333325, 190.47293439999882, 191.45963466666538,
             56.455734438888946, 40, 20, 131.45963466666544, None),
            ("cam6", 75, 40, 14.449723036620913, 13.75427999999998,
             37.44964319663666, 42.68340901250736, 44.65942263686667,
             10.92855405090006, 13, 5, 14.659422636866704, None),
            ("cam7", 60, 32, 61.807393438143926, 13.75427999999998,
             191.11089333333246, 195.05769439999878, 196.04439466666534,
             59.15580373839225, 41, 20, 136.0443946666654, None),
        ),
        "priority": (
            ("cam0", 80, 40, 69.77621706250018, 70.80160083333374,
             179.9966727333333, 187.4032953833333, 189.284895,
             67.43077556250017, 42, 0, 159.28489499999998, None),
            ("cam1", 75, 24, 15.700341494981512, 7.095499177102282,
             52.364458288430995, 63.315568570730306, 67.5062216130376,
             13.623991822451933, 7, 5, 7.5062216130376, None),
            ("cam2", 80, 41, 7.7683818277641254, 6.998188992549986,
             13.996377985099977, 17.470491045572675, 25.517087657737747,
             2.805181535713243, 0, 0, 0.0, None),
            ("cam3", 78, 23, 73.63402419377987, 67.96147166666644,
             188.40771899999987, 197.02259204333328, 203.35754399999993,
             72.02343683598326, 43, 2, 143.35754399999996, None),
            ("cam4", 76, 40, 17.23285885103981, 12.668428125227269,
             49.54997145694408, 58.366150393221325, 59.367508648808794,
             14.044683317689868, 22, 4, 29.367508648808773, None),
            ("cam5", 76, 24, 4.57828997807065, 1.9907423333334062,
             17.640301916667518, 25.287891666668187, 26.58118066666787,
             3.057860557018013, 4, 4, 0.0, None),
            ("cam6", 79, 40, 21.18840211979033, 13.996377985099977,
             66.2740549713564, 70.20226846429281, 71.09187716220228,
             17.810154893912163, 22, 1, 41.09187716220231, None),
            ("cam7", 77, 23, 7.249423736008782, 5.638848333335167,
             22.104837666667546, 26.98368593333477, 29.832601666668126,
             5.6832972426957875, 3, 3, 0.0, None),
        ),
    }

    def _run(self, discipline):
        streams = [
            FrameStream(f"cam{i}", size=TINY, n_frames=80, fps=120.0,
                        mode="baseline", pw=4 if i % 2 else 2,
                        deadline_s=(0.03, 0.06)[i % 2], priority=i % 3)
            for i in range(8)
        ]
        engine = ChaosClusterEngine(
            self.FLEET, scheduler=discipline, faults=self.SCHEDULE,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.002),
            autoscaler=Autoscaler(backend="gpu", interval_s=0.05,
                                  up_hold=1, down_hold=2,
                                  low_pressure=0.3, high_pressure=0.9),
        )
        return engine.run(streams)

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_reaches_every_dispatch_branch(self, discipline, monkeypatch):
        killed = []
        occupy = _Replica.occupy

        def recorded(replica, start_s, done_s):
            if done_s == replica.crash_s:  # service cut short by the crash
                killed.append(replica.label)
            occupy(replica, start_s, done_s)

        monkeypatch.setattr(_Replica, "occupy", recorded)
        res = self._run(discipline).resilience
        kinds = [e.kind for e in res.events]
        assert sorted(killed) == ["gpu:1", "systolic:0"]
        assert kinds.count("crash") == 2
        assert kinds.count("migrate") == 12
        assert kinds.count("scale-up") == 1
        assert kinds.count("scale-down") == (discipline == "shed")
        for kind in ("flaky-fail", "retry-drop", "slowdown-start",
                     "slowdown-end"):
            assert kind in kinds

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_outputs_pinned(self, discipline):
        report = self._run(discipline)
        assert report.placement == tuple(
            (f"cam{i}", label) for i, label in enumerate(self.PLACEMENT))
        assert tuple(
            (s.label, s.report.total_frames, s.report.makespan_s)
            for s in report.shards
        ) == self.SHARDS[discipline]
        assert tuple(
            dataclasses.astuple(s) for s in report.stream_stats
        ) == self.STATS[discipline]
        events = repr(report.resilience.events).encode()
        assert (hashlib.sha256(events).hexdigest()
                == self.EVENTS_SHA256[discipline])


class TestWindowSplit:
    """The degraded and steady p99s, split with one mask per window,
    equal a per-latency loop over the same windows."""

    @pytest.mark.parametrize("case", ["slowdown", "every-branch"])
    def test_equals_a_per_latency_loop(self, case, monkeypatch):
        seen = {}
        assemble = ChaosClusterEngine._assemble_report

        def recorded(engine, streams, replicas, assigned, latencies, waits,
                     services, completions, *rest):
            seen["latencies"], seen["completions"] = latencies, completions
            return assemble(engine, streams, replicas, assigned, latencies,
                            waits, services, completions, *rest)

        monkeypatch.setattr(ChaosClusterEngine, "_assemble_report", recorded)
        report = (TestSlowdown()._run() if case == "slowdown"
                  else TestDispatchBranchReplay()._run("edf"))
        res = report.resilience
        degraded, steady = [], []
        for lats, dones in zip(seen["latencies"], seen["completions"]):
            for lat, done in zip(lats, dones):
                inside = any(w0 <= done <= w1
                             for w0, w1 in res.degraded_windows)
                (degraded if inside else steady).append(1e3 * lat)
        p99 = lambda xs: float(np.percentile(xs, 99.0)) if xs else 0.0
        assert degraded
        assert res.degraded_p99_ms == p99(degraded)
        assert res.steady_p99_ms == p99(steady)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    SCHEDULE = FaultSchedule(
        faults=(
            CrashFault("gpu:1", at_s=0.06),
            SlowdownFault("gpu:0", start_s=0.02, duration_s=0.05,
                          factor=3.0),
            FlakyFault("gpu:0", start_s=0.0, duration_s=10.0,
                       failure_rate=0.3),
        ),
        seed=42,
    )

    def _render(self, scheduler="fifo"):
        engine = ChaosClusterEngine(
            ["gpu", "gpu"], policy="round-robin", scheduler=scheduler,
            faults=self.SCHEDULE,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.001),
        )
        return format_cluster_report(engine.run(_streams()))

    DISCIPLINES = ("fifo", "edf", "shed")

    @pytest.fixture(scope="class")
    def hashseed_renders(self):
        """Every discipline's report, rendered once in each of two fresh
        interpreters whose ``PYTHONHASHSEED`` differs."""
        script = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from test_chaos import TestDeterminism as T; "
            "print(json.dumps({d: T()._render(d) for d in T.DISCIPLINES}))"
        )
        path = os.pathsep.join(
            filter(None, [str(TESTS_DIR.parent / "src"), os.environ.get("PYTHONPATH")])
        )
        renders = []
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-c", script, str(TESTS_DIR)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            renders.append(json.loads(proc.stdout))
        return renders

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_identical_inputs_render_identically(self, hashseed_renders, discipline):
        first, second = (r[discipline] for r in hashseed_renders)
        assert first and first == second

    def test_resilience_section_rendered(self):
        text = self._render()
        assert "Resilience" in text
        assert "failover ms" in text
        assert "degraded-window p99" in text
        assert format_resilience(None) == ""


# ----------------------------------------------------------------------
# CI artifact: failover latency + degraded-window p99
# ----------------------------------------------------------------------
class TestBenchArtifact:
    def test_writes_chaos_bench_json(self):
        schedule = FaultSchedule(faults=(CrashFault("gpu:1", at_s=0.06),))
        engine = ChaosClusterEngine(["gpu", "gpu"], policy="round-robin",
                                    faults=schedule)
        res = engine.run(_streams()).resilience
        report = {
            "n_streams": 4,
            "n_frames": N_FRAMES,
            "fault": "crash gpu:1 @ 60ms",
            "failover_latency_ms": 1e3 * res.worst_failover_latency_s,
            "degraded_p99_ms": res.degraded_p99_ms,
            "steady_p99_ms": res.steady_p99_ms,
            "migrations": res.total_migrations,
            "degraded_windows_s": [list(w) for w in res.degraded_windows],
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / "BENCH_chaos.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        on_disk = json.loads(path.read_text())
        assert on_disk["failover_latency_ms"] > 0
        assert on_disk["migrations"] == 2
