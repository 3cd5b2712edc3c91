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

import json
import os
import pathlib
import subprocess
import sys

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
