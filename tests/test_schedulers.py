"""Deadline-aware frame scheduling across the serving stack.

Covers the scheduler registry, the pinned bit-exact FIFO regression,
the QoS disciplines (EDF / priority / shed) on hand-computable stub
backends and on an overloaded accelerator mix, the queue-wait vs
service-time breakdown, deadline accounting under mode degradation,
the deadline-aware placement policy, and the ``plan_keys`` forced-key
state-sync fix.
"""

import numpy as np
import pytest

from repro.backends import BackendCapabilities, ExecutionBackend, get_backend
from repro.cluster import (
    ChaosClusterEngine,
    ClusterEngine,
    CrashFault,
    DeadlineAwarePolicy,
    FaultSchedule,
    get_policy,
)
from repro.core.keyframe import MotionAdaptivePolicy
from repro.hw.energy import EnergyBreakdown
from repro.hw.systolic import LayerResult, RunResult
from repro.pipeline import (
    EdfScheduler,
    FrameCoster,
    FrameScheduler,
    FrameStream,
    StreamEngine,
    available_schedulers,
    get_scheduler,
    plan_keys,
    register_scheduler,
)

TINY = (68, 120)
SCHEDULERS = ("fifo", "edf", "priority", "shed")

# ----------------------------------------------------------------------
# pinned seed values: FrameCoster.serve on "systolic" before the
# scheduler refactor (PR 3).  The fifo discipline must reproduce these
# bit-exactly, through StreamEngine and a 1-backend ClusterEngine.
# ----------------------------------------------------------------------
PINNED_MAKESPAN_S = 0.36687891266666667
PINNED_BUSY_S = 0.037708874999999996
PINNED_LATENCIES_CAM0 = (
    0.00458476, 0.00010612299999999963, 0.00010612299999999963,
    0.00010612299999999963, 0.004584759999999993, 0.00010612300000001351,
    0.00010612300000001351, 0.00010612300000001351, 0.004584760000000021,
    0.00010612300000001351, 0.00010612300000001351, 0.00010612300000001351,
)
PINNED_LATENCIES_CAM1 = (
    0.008311885, 0.00021224599999999927, 0.0038332479999999974,
    0.00021224599999999927, 0.008311884999999991, 0.00021224600000002702,
    0.0038332480000000113, 0.00021224600000002702, 0.008311885000000019,
    0.00021224600000002702, 0.0038332480000000113, 0.00021224600000002702,
)


def _pinned_streams():
    return [
        FrameStream("cam0", size=TINY, n_frames=12, mode="baseline", pw=4),
        FrameStream("cam1", size=TINY, n_frames=12, mode="baseline", pw=2,
                    network="FlowNetC"),
    ]


def _overloaded_mix(n_frames=40, fps=60.0):
    """~1.1x overload on systolic: 4 tight-deadline + 4 loose streams."""
    tight = [
        FrameStream(f"hud{i}", size=TINY, n_frames=n_frames, fps=fps,
                    mode="baseline", pw=2, deadline_s=0.008, priority=1)
        for i in range(4)
    ]
    loose = [
        FrameStream(f"log{i}", size=TINY, n_frames=n_frames, fps=fps,
                    mode="baseline", pw=2, deadline_s=0.6)
        for i in range(4)
    ]
    return tight + loose


class _ClockBackend(ExecutionBackend):
    """A 1 Hz stub: cycles read directly as seconds, so service times
    and deadline arithmetic are hand-computable integers."""

    name = "clock-stub"
    frequency_hz = 1.0

    def __init__(self, capabilities=None, key_cycles=4, nonkey_cycles=1):
        super().__init__()
        if capabilities is not None:
            self.capabilities = capabilities
        self.key_cycles = key_cycles
        self.nonkey_cycles = nonkey_cycles
        self.modes_run: list[str] = []

    def _layer(self, name, cycles):
        return LayerResult(
            name=name, cycles=cycles, compute_cycles=cycles,
            memory_cycles=0, macs=cycles, dram_bytes=0, sram_bytes=0,
            energy=EnergyBreakdown(),
        )

    def run_network(self, specs, mode="baseline"):
        self.require_mode(mode)
        self.modes_run.append(mode)
        return RunResult([self._layer("stub-net", self.key_cycles)])

    def nonkey_frame(self, size=TINY, config=None):
        return self._layer("stub-nonkey", self.nonkey_cycles)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert set(SCHEDULERS) <= set(available_schedulers())
        for name in SCHEDULERS:
            assert get_scheduler(name).name == name

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            get_scheduler("lottery")
        with pytest.raises(ValueError, match="unknown scheduler"):
            StreamEngine("gpu", scheduler="lottery")

    def test_custom_scheduler_plugs_in(self):
        @register_scheduler("test-lifo")
        class LifoScheduler(FrameScheduler):
            name = "test-lifo"

            def select(self, ready, now_s):
                return self.stream_heads(ready)[-1]

        try:
            report = StreamEngine("gpu", scheduler="test-lifo").run(
                [FrameStream("cam", size=TINY, n_frames=4)]
            )
            assert report.scheduler == "test-lifo"
            assert report.total_frames == 4
        finally:
            from repro.pipeline import schedulers
            schedulers._REGISTRY.pop("test-lifo")

    def test_engines_accept_instances(self):
        sched = get_scheduler("edf")
        assert StreamEngine("gpu", scheduler=sched).scheduler is sched
        assert ClusterEngine(["gpu"], scheduler=sched).scheduler is sched

    def test_select_receives_the_dispatch_instant(self):
        """Custom time-aware disciplines see the decision time: the
        server-free time, or the arrival instant after an idle jump."""
        seen = []

        class Recording(FrameScheduler):
            name = "test-recording"

            def select(self, ready, now_s):
                seen.append(now_s)
                return 0

        backend = _ClockBackend(key_cycles=1)
        # 0.1 fps: frame 1 arrives at t=10, long after frame 0's
        # service ends at t=1 — the second decision happens at t=10
        streams = [FrameStream("a", size=TINY, n_frames=2, fps=0.1, pw=1,
                               mode="baseline")]
        FrameCoster(backend).serve(streams, scheduler=Recording())
        assert seen == [0.0, 10.0]


# ----------------------------------------------------------------------
# fifo: the pinned bit-exact regression
# ----------------------------------------------------------------------
class TestFifoRegression:
    def test_coster_serve_matches_pinned_seed_values(self):
        out = FrameCoster(get_backend("systolic")).serve(_pinned_streams())
        assert out.scheduler == "fifo"
        assert out.makespan_s == PINNED_MAKESPAN_S
        assert out.busy_s == PINNED_BUSY_S
        assert out.key_counts == (3, 6)
        assert out.total_frames == 24
        assert out.latencies_s[0] == PINNED_LATENCIES_CAM0
        assert out.latencies_s[1] == PINNED_LATENCIES_CAM1
        assert out.dropped_frames == (0, 0)
        assert out.deadline_miss_rate == 0.0  # no deadlines set

    def test_stream_engine_fifo_matches_pinned_seed_values(self):
        report = StreamEngine("systolic", scheduler="fifo").run(
            _pinned_streams())
        assert report.makespan_s == PINNED_MAKESPAN_S
        assert report.busy_s == PINNED_BUSY_S

    def test_one_backend_cluster_fifo_matches_pinned_seed_values(self):
        report = ClusterEngine(["systolic"], policy="round-robin",
                               scheduler="fifo").run(_pinned_streams())
        assert report.makespan_s == PINNED_MAKESPAN_S
        assert report.shards[0].report.busy_s == PINNED_BUSY_S

    def test_explicit_fifo_equals_default(self):
        streams = _pinned_streams()
        default = FrameCoster(get_backend("systolic")).serve(streams)
        explicit = FrameCoster(get_backend("systolic")).serve(
            streams, scheduler="fifo")
        assert default == explicit


# ----------------------------------------------------------------------
# wait vs service breakdown
# ----------------------------------------------------------------------
class TestWaitServiceBreakdown:
    def test_latency_decomposes_into_wait_plus_service(self):
        out = FrameCoster(get_backend("systolic")).serve(_pinned_streams())
        total_service = 0.0
        for lats, waits, services in zip(
            out.latencies_s, out.waits_s, out.services_s
        ):
            assert len(lats) == len(waits) == len(services)
            for lat, wait, service in zip(lats, waits, services):
                assert wait >= 0.0 and service > 0.0
                assert lat == pytest.approx(wait + service, abs=1e-12)
            total_service += sum(services)
        assert total_service == pytest.approx(out.busy_s)

    def test_report_exposes_mean_wait(self):
        # an overloaded run queues: waiting dominates the latency
        report = StreamEngine("systolic").run(_overloaded_mix(n_frames=20))
        waits = [s.mean_wait_ms for s in report.streams]
        assert all(w > 0 for w in waits)
        for s in report.streams:
            assert s.mean_wait_ms < s.mean_ms


# ----------------------------------------------------------------------
# the QoS disciplines, hand-computable on the 1 Hz clock stub
# ----------------------------------------------------------------------
class TestEdf:
    def test_edf_serves_urgent_stream_first(self):
        # service = 1s each, frame period 1s; B's deadline is tight
        backend = _ClockBackend(key_cycles=1)
        streams = [
            FrameStream("a", size=TINY, n_frames=2, fps=1.0, pw=1,
                        mode="baseline", deadline_s=10.0),
            FrameStream("b", size=TINY, n_frames=2, fps=1.0, pw=1,
                        mode="baseline", deadline_s=1.5),
        ]
        fifo = FrameCoster(backend).serve(streams, scheduler="fifo")
        # FIFO: a0 done@1, b0 done@2 (miss), a1 done@3, b1 done@4 (miss)
        assert fifo.missed_deadlines == (0, 2)
        assert fifo.worst_lateness_s == (0.0, 1.5)
        edf = FrameCoster(_ClockBackend(key_cycles=1)).serve(
            streams, scheduler="edf")
        # EDF: b0 done@1, b1 (d2.5, arrived @1) beats a0 (d10) -> done@2,
        # then a0 done@3, a1 done@4 — every deadline met
        assert edf.missed_deadlines == (0, 0)
        assert edf.latencies_s[1] == (1.0, 1.0)
        assert edf.worst_lateness_s == (0.0, 0.0)

    def test_edf_without_deadlines_degenerates_to_fifo(self):
        streams = _pinned_streams()
        fifo = FrameCoster(get_backend("systolic")).serve(
            streams, scheduler="fifo")
        edf = FrameCoster(get_backend("systolic")).serve(
            streams, scheduler="edf")
        assert edf.latencies_s == fifo.latencies_s
        assert edf.makespan_s == fifo.makespan_s


class TestPriority:
    def test_high_priority_stream_jumps_the_queue(self):
        backend = _ClockBackend(key_cycles=1)
        streams = [
            FrameStream("lo", size=TINY, n_frames=2, fps=1.0, pw=1,
                        mode="baseline", priority=0),
            FrameStream("hi", size=TINY, n_frames=2, fps=1.0, pw=1,
                        mode="baseline", priority=5),
        ]
        out = FrameCoster(backend).serve(streams, scheduler="priority")
        # hi wins every decision: hi0 done@1, hi1 (arrived @1) done@2,
        # then lo0 done@3, lo1 done@4
        assert out.waits_s[1] == (0.0, 0.0)
        assert out.latencies_s[1] == (1.0, 1.0)
        assert out.latencies_s[0] == (3.0, 3.0)

    def test_key_frames_break_priority_ties(self):
        backend = _ClockBackend(key_cycles=1, nonkey_cycles=1)
        streams = [
            FrameStream("a", size=TINY, n_frames=2, fps=1.0, pw=2,
                        mode="baseline"),   # keys: [T, F]
            FrameStream("b", size=TINY, n_frames=2, fps=1.0, pw=1,
                        mode="baseline"),   # keys: [T, T]
        ]
        out = FrameCoster(backend).serve(streams, scheduler="priority")
        # t0: a0/b0 both key -> arrival order, a0 done@1; then b0 (key)
        # beats a1 (non-key), and so does b1 once b0 finishes
        assert out.latencies_s[1] == (2.0, 2.0)   # b0 done@2, b1 done@3
        assert out.latencies_s[0] == (1.0, 3.0)   # a0 done@1, a1 done@4

    def test_streams_never_reorder_internally(self):
        # stream a: non-key frame 1 arrives before its own key frame 2
        # (pw=2 over 3 frames: T F T); priority must not serve frame 2
        # before frame 1 even though key frames win ties
        backend = _ClockBackend(key_cycles=2, nonkey_cycles=1)
        streams = [FrameStream("a", size=TINY, n_frames=3, fps=1.0, pw=2,
                               mode="baseline")]
        out = FrameCoster(backend).serve(streams, scheduler="priority")
        # served strictly in frame order: 0(key,2s), 1(nonkey,1s), 2(key,2s)
        assert out.services_s[0] == (2.0, 1.0, 2.0)


class TestShed:
    def test_drop_on_late_and_rekey(self):
        # keys planned [T, F, F]; service: key 4s, nonkey 1s; period 1s;
        # deadline 2s.  frame0 done@4 (late).  frame1 would start @4 >
        # deadline 3 -> dropped, chain broken.  frame2 was planned
        # non-key but must re-key: served as a key frame.
        backend = _ClockBackend(key_cycles=4, nonkey_cycles=1)
        streams = [FrameStream("cam", size=TINY, n_frames=3, fps=1.0, pw=3,
                               mode="baseline", deadline_s=2.0)]
        out = FrameCoster(backend).serve(streams, scheduler="shed")
        assert out.dropped_frames == (1,)
        assert out.total_frames == 2
        assert out.key_counts == (2,)          # planned 1 key, re-key adds 1
        assert out.services_s[0] == (4.0, 4.0)  # both served at key cost
        # frame0 late by 2, frame2 done@8 vs deadline 4 -> late by 4;
        # misses: 2 late completions + 1 drop
        assert out.missed_deadlines == (3,)
        assert out.worst_lateness_s == (4.0,)
        assert out.drop_rate == pytest.approx(1 / 3)
        assert out.deadline_miss_rate == 1.0

    def test_key_frames_are_never_dropped(self):
        # every frame key (pw=1) and hopelessly late: nothing sheds
        backend = _ClockBackend(key_cycles=4)
        streams = [FrameStream("cam", size=TINY, n_frames=4, fps=1.0, pw=1,
                               mode="baseline", deadline_s=0.5)]
        out = FrameCoster(backend).serve(streams, scheduler="shed")
        assert out.dropped_frames == (0,)
        assert out.total_frames == 4

    def test_all_nonkey_frames_dropped_stream_still_reported(self):
        # one key then a long-late tail: the report survives streams
        # whose served latencies are sparse
        backend = _ClockBackend(key_cycles=8, nonkey_cycles=1)
        report = StreamEngine(backend, scheduler="shed").run([
            FrameStream("cam", size=TINY, n_frames=3, fps=1.0, pw=2,
                        mode="baseline", deadline_s=1.0),
        ])
        s = report.streams[0]
        assert s.frames + s.dropped_frames == 3
        assert s.offered_frames == 3
        assert report.drop_rate > 0


# ----------------------------------------------------------------------
# the acceptance-criteria overload comparison on a real backend
# ----------------------------------------------------------------------
class TestOverloadedMix:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return {
            name: FrameCoster(get_backend("systolic")).serve(
                _overloaded_mix(), scheduler=name)
            for name in SCHEDULERS
        }

    @staticmethod
    def _p99_ms(outcome):
        lat = np.concatenate(
            [np.asarray(l) for l in outcome.latencies_s if len(l)])
        return 1e3 * float(np.percentile(lat, 99.0))

    def test_edf_misses_fewer_deadlines_than_fifo(self, outcomes):
        assert (outcomes["edf"].deadline_miss_rate
                < outcomes["fifo"].deadline_miss_rate)

    def test_shed_cuts_the_tail_and_reports_drops(self, outcomes):
        assert self._p99_ms(outcomes["shed"]) < self._p99_ms(outcomes["fifo"])
        assert outcomes["shed"].drop_rate > 0.0
        assert outcomes["fifo"].drop_rate == 0.0

    def test_every_discipline_conserves_offered_frames(self, outcomes):
        offered = sum(s.n_frames for s in _overloaded_mix())
        for outcome in outcomes.values():
            assert outcome.offered_frames == offered

    def test_disciplines_are_deterministic(self, outcomes):
        for name, outcome in outcomes.items():
            rerun = FrameCoster(get_backend("systolic")).serve(
                _overloaded_mix(), scheduler=name)
            assert rerun == outcome


# ----------------------------------------------------------------------
# the ready-list contract: one arrived head per stream, in seq order
# ----------------------------------------------------------------------
class TestReadyListHoldsStreamHeads:
    """Every event loop hands ``select`` one arrived head per stream,
    in ``seq`` order, under an overload that queues many frames per
    stream."""

    NAME = "test-recording-edf"

    @pytest.fixture
    def recording(self):
        @register_scheduler(self.NAME)
        class RecordingEdf(EdfScheduler):
            name = self.NAME

            def __init__(self):
                self.serves = [[]]

            def serve(self, streams, coster):
                self.serves.append([])  # stream indices are per serve
                return super().serve(streams, coster)

            def select(self, ready, now_s):
                index = super().select(ready, now_s)
                self.serves[-1].append((now_s, [
                    (job.stream_index, job.frame_index, job.seq,
                     job.arrival_s)
                    for job in ready
                ], index))
                return index

        yield self.NAME
        from repro.pipeline import schedulers
        schedulers._REGISTRY.pop(self.NAME)

    @staticmethod
    def _check(calls):
        # a frame leaves its stream at the last call that picks it (a
        # crash can kill a service in flight; the frame is picked again)
        last_pick = {}
        for k, (_, ready, index) in enumerate(calls):
            last_pick[ready[index][:2]] = k
        for k, (now_s, ready, _) in enumerate(calls):
            streams = [si for si, _, _, _ in ready]
            assert len(set(streams)) == len(streams)
            seqs = [seq for _, _, seq, _ in ready]
            assert seqs == sorted(seqs)
            for si, fi, _, arrival_s in ready:
                assert arrival_s <= now_s
                # the stream's earliest frame not yet served or dropped
                assert all(last_pick[(si, f)] < k for f in range(fi))
                assert last_pick[(si, fi)] >= k
        return max(len(ready) for _, ready, _ in calls)

    def _check_serves(self, scheduler, offered):
        calls = [c for serve in scheduler.serves for c in serve]
        assert len(calls) >= offered
        widest = max(self._check(serve) for serve in scheduler.serves
                     if serve)
        assert widest > 1  # the overload queued several streams at once

    def test_stream_engine(self, recording):
        engine = StreamEngine("systolic", scheduler=recording)
        engine.run(_overloaded_mix())
        self._check_serves(engine.scheduler, 8 * 40)

    def test_cluster_engine(self, recording):
        engine = ClusterEngine(["systolic", "gpu"], scheduler=recording)
        engine.run(_overloaded_mix(fps=120.0))
        self._check_serves(engine.scheduler, 8 * 40)

    def test_chaos_engine_with_a_crash(self, recording):
        engine = ChaosClusterEngine(
            ["systolic", "systolic"], scheduler=recording,
            faults=FaultSchedule(faults=(CrashFault("systolic:1", 0.2),)))
        report = engine.run(_overloaded_mix(fps=120.0))
        assert report.resilience.crashes == 1
        self._check_serves(engine.scheduler, 8 * 40)


# ----------------------------------------------------------------------
# mode degradation x scheduling (satellite): restricted backends stay
# deterministic and the deadline arithmetic stays exact
# ----------------------------------------------------------------------
class TestModeDegradationWithScheduling:
    RESTRICTED = BackendCapabilities(
        supports_dct=True, supports_ilar=False, supports_ism=True)

    def _streams(self):
        return [
            FrameStream("a", size=TINY, n_frames=3, fps=1.0, pw=3,
                        mode="ilar", deadline_s=2.0),
            FrameStream("b", size=TINY, n_frames=3, fps=1.0, pw=1,
                        mode="ilar", deadline_s=6.0),
        ]

    @pytest.mark.parametrize("scheduler", ["edf", "shed"])
    def test_degraded_mode_reaches_backend_under_qos_schedulers(
        self, scheduler
    ):
        backend = _ClockBackend(capabilities=self.RESTRICTED, key_cycles=2)
        FrameCoster(backend).serve(self._streams(), scheduler=scheduler)
        # ilar degrades to dct, scheduled once then cached
        assert backend.modes_run == ["dct"]

    @pytest.mark.parametrize("scheduler", ["edf", "shed"])
    def test_restricted_backend_outcomes_deterministic(self, scheduler):
        def run():
            backend = _ClockBackend(
                capabilities=self.RESTRICTED, key_cycles=2)
            return FrameCoster(backend).serve(
                self._streams(), scheduler=scheduler)

        assert run() == run()

    def test_edf_deadline_accounting_exact_on_restricted_backend(self):
        # key 2s, non-key 1s.  a: keys [T F F] deadlines 2,3,4;
        # b: all key, deadlines 6,7,8.  EDF order by absolute deadline:
        # a0(d2) done@2, a1(d3, arr1) done@3, a2(d4) done@4,
        # b0(d6, arr0) done@6, b1 done@8 (miss by 1), b2 done@10 (miss 2)
        backend = _ClockBackend(capabilities=self.RESTRICTED, key_cycles=2)
        out = FrameCoster(backend).serve(self._streams(), scheduler="edf")
        assert out.latencies_s[0] == (2.0, 2.0, 2.0)
        assert out.missed_deadlines == (0, 2)
        assert out.worst_lateness_s == (0.0, 2.0)
        assert out.makespan_s == 10.0

    def test_ism_less_backend_never_sheds_key_frames(self):
        # without ISM every frame is key, so shed cannot drop anything
        no_ism = BackendCapabilities(
            supports_dct=True, supports_ilar=False, supports_ism=False)
        backend = _ClockBackend(capabilities=no_ism, key_cycles=4)
        out = FrameCoster(backend).serve(
            [FrameStream("cam", size=TINY, n_frames=4, fps=1.0, pw=4,
                         mode="ilar", deadline_s=0.5)],
            scheduler="shed",
        )
        assert out.key_counts == (4,)
        assert out.dropped_frames == (0,)
        assert out.total_frames == 4


# ----------------------------------------------------------------------
# engines and reports carry the QoS accounting through every layer
# ----------------------------------------------------------------------
class TestReportsAcrossLayers:
    def test_stream_engine_report_carries_qos(self):
        report = StreamEngine("systolic", scheduler="shed").run(
            _overloaded_mix(n_frames=20))
        assert report.scheduler == "shed"
        assert report.drop_rate > 0
        assert report.deadline_miss_rate > 0
        assert report.offered_frames == 160
        assert report.worst_lateness_ms > 0
        assert report.dropped_frames == sum(
            s.dropped_frames for s in report.streams)

    def test_cluster_report_aggregates_qos(self):
        report = ClusterEngine(
            ["systolic", "systolic"], policy="deadline-aware",
            scheduler="shed",
        ).run(_overloaded_mix(n_frames=20))
        assert report.scheduler == "shed"
        assert report.offered_frames == 160
        assert report.dropped_frames == sum(
            shard.report.dropped_frames for shard in report.shards)
        assert report.missed_deadlines == sum(
            shard.report.missed_deadlines for shard in report.shards)
        assert 0.0 <= report.drop_rate <= report.deadline_miss_rate <= 1.0

    def test_sharding_relieves_overload(self):
        # the same overloaded mix spread over two shards meets more
        # deadlines than on one backend
        one = ClusterEngine(["systolic"], scheduler="edf").run(
            _overloaded_mix(n_frames=20))
        two = ClusterEngine(["systolic", "systolic"],
                            policy="deadline-aware", scheduler="edf").run(
            _overloaded_mix(n_frames=20))
        assert two.deadline_miss_rate < one.deadline_miss_rate


# ----------------------------------------------------------------------
# deadline-aware placement
# ----------------------------------------------------------------------
class TestDeadlineAwarePlacement:
    def test_registered(self):
        assert get_policy("deadline-aware").name == "deadline-aware"

    def test_spreads_tight_deadline_streams(self):
        # two tight + two loose: raw demand is identical, pressure is
        # not — each shard gets one tight and one loose stream
        streams = [
            FrameStream("tight0", size=TINY, fps=30.0, deadline_s=1 / 120.0),
            FrameStream("tight1", size=TINY, fps=30.0, deadline_s=1 / 120.0),
            FrameStream("loose0", size=TINY, fps=30.0),
            FrameStream("loose1", size=TINY, fps=30.0),
        ]
        engine = ClusterEngine(["gpu", "gpu"], policy="deadline-aware")
        placement = engine.place(streams)
        assert placement[:2] == [0, 1]
        assert sorted(placement) == [0, 0, 1, 1]

    def test_without_deadlines_matches_least_loaded(self):
        streams = [FrameStream(f"cam{i}", size=TINY, n_frames=4)
                   for i in range(5)]
        costers = [FrameCoster(get_backend("gpu")) for _ in range(3)]
        assert (DeadlineAwarePolicy().assign(streams, costers)
                == get_policy("least-loaded").assign(streams, costers))

    def test_pressure_requires_positive_deadline(self):
        with pytest.raises(ValueError, match="deadline"):
            FrameStream("cam", deadline_s=0.0)
        with pytest.raises(ValueError, match="deadline"):
            FrameStream("cam", deadline_s=-1.0)


# ----------------------------------------------------------------------
# plan_keys forced-key state sync (satellite regression)
# ----------------------------------------------------------------------
class _EveryThirdPolicy:
    """Stateful adaptive stand-in that says *non-key* for frame 0:
    keys whenever 3 frames have passed since the last key."""

    def __init__(self):
        self.since_key = 0
        self.forced: list[int] = []

    def is_key(self, index, context=None):
        self.since_key += 1
        if self.since_key >= 3:
            self.since_key = 0
            return True
        return False

    def sync_forced_key(self, index):
        self.forced.append(index)
        self.since_key = 0


class TestPlanKeysForcedKeySync:
    def test_forced_key_resyncs_stateful_policy(self):
        stream = FrameStream("cam", size=TINY, n_frames=6,
                             policy_factory=_EveryThirdPolicy)
        plan = plan_keys(stream)
        # with the sync hook the forced key at 0 restarts the policy's
        # key clock: a regular every-3rd cadence from frame 0, instead
        # of the desynced [T, F, T, F, F, T] the stale state produced
        assert plan == [True, False, False, True, False, False]

    def test_hook_is_called_exactly_for_frame_zero(self):
        policy = _EveryThirdPolicy()
        stream = FrameStream("cam", size=TINY, n_frames=4,
                             policy_factory=lambda: policy)
        plan_keys(stream)
        assert policy.forced == [0]

    def test_policies_without_hook_still_plan(self):
        class NoHook:
            def is_key(self, index, context=None):
                return False  # never keys; frame 0 still forced

        stream = FrameStream("cam", size=TINY, n_frames=3,
                             policy_factory=NoHook)
        assert plan_keys(stream) == [True, False, False]

    def test_motion_adaptive_policy_implements_hook(self):
        policy = MotionAdaptivePolicy(max_window=4)
        policy._since_key = 3
        policy.sync_forced_key(0)
        assert policy._since_key == 0

    def test_served_key_counts_match_synced_plan(self):
        stream = FrameStream("cam", size=TINY, n_frames=6, mode="baseline",
                             policy_factory=_EveryThirdPolicy)
        report = StreamEngine("systolic").run([stream])
        assert report.streams[0].key_frames == 2


# ----------------------------------------------------------------------
# FrameStream deadline plumbing
# ----------------------------------------------------------------------
class TestFrameDeadlines:
    def test_frame_deadline_arithmetic(self):
        stream = FrameStream("cam", fps=10.0, deadline_s=0.05)
        assert stream.frame_deadline(0) == 0.05
        assert stream.frame_deadline(2) == pytest.approx(0.25)

    def test_no_deadline_is_never_late(self):
        assert FrameStream("cam").frame_deadline(7) == float("inf")

    def test_deadline_pressure_scales_demand(self):
        coster = FrameCoster(get_backend("gpu"))
        loose = FrameStream("a", size=TINY, fps=30.0)
        tight = FrameStream("b", size=TINY, fps=30.0, deadline_s=1 / 60.0)
        assert coster.deadline_pressure(loose) == coster.stream_demand(loose)
        assert coster.deadline_pressure(tight) == pytest.approx(
            2 * coster.stream_demand(tight))
