"""The heterogeneous cluster layer: placement, serving, planning."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.cluster import (
    Autoscaler,
    ChaosClusterEngine,
    ClusterEngine,
    CrashFault,
    FaultSchedule,
    available_policies,
    format_capacity_plan,
    format_cluster_report,
    format_policy_comparison,
    get_policy,
    plan_capacity,
    register_placement_policy,
)
from repro.pipeline import FrameStream, StreamEngine

TINY = (68, 120)
POLICIES = ("round-robin", "least-loaded", "capability-aware")


def _stream(name, **kwargs):
    kwargs.setdefault("network", "DispNet")
    kwargs.setdefault("mode", "baseline")
    kwargs.setdefault("n_frames", 8)
    return FrameStream(name, size=TINY, **kwargs)


def _mixed_streams():
    return [
        _stream("cam0", pw=4),
        _stream("cam1", pw=2, network="FlowNetC"),
        _stream("cam2", pw=1, mode="dct"),
        _stream("cam3", pw=8),
    ]


# ----------------------------------------------------------------------
# placement policies
# ----------------------------------------------------------------------
class TestPlacementPolicies:
    def test_registry(self):
        assert set(POLICIES) <= set(available_policies())
        for name in POLICIES:
            assert get_policy(name).name == name
        with pytest.raises(ValueError, match="unknown placement policy"):
            get_policy("random")

    def test_round_robin_pattern(self):
        engine = ClusterEngine(["gpu", "gpu", "gpu"], policy="round-robin")
        streams = [_stream(f"cam{i}") for i in range(5)]
        assert engine.place(streams) == [0, 1, 2, 0, 1]

    def test_least_loaded_balances_identical_streams(self):
        engine = ClusterEngine(["gpu", "gpu"], policy="least-loaded")
        streams = [_stream(f"cam{i}") for i in range(4)]
        assert engine.place(streams) == [0, 1, 0, 1]

    def test_least_loaded_prefers_cheaper_backend(self):
        # one ilar stream: the co-designed systolic array is far
        # cheaper per frame than the dense GPU, so it goes there
        engine = ClusterEngine(["gpu", "systolic"], policy="least-loaded")
        assert engine.place([_stream("cam", mode="ilar", pw=4)]) == [1]

    def test_capability_aware_routes_ism_streams(self):
        engine = ClusterEngine(["eyeriss", "gpu"], policy="capability-aware")
        # PW-4 leaves non-key frames to propagate: needs ISM -> gpu
        assert engine.place([_stream("ism-heavy", pw=4)]) == [1]
        # PW-1 never propagates; eyeriss natively schedules dct
        assert engine.place([_stream("all-key", pw=1, mode="dct")]) == [0]

    def test_capability_aware_falls_back_without_ism_backends(self):
        engine = ClusterEngine(
            ["eyeriss", "eyeriss"], policy="capability-aware"
        )
        placement = engine.place([_stream("cam", pw=4)])
        assert placement in ([0], [1])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_placement_is_deterministic(self, policy):
        def fresh_placement():
            engine = ClusterEngine(
                ["systolic", "eyeriss", "gpu"], policy=policy
            )
            return engine.place(_mixed_streams())

        first = fresh_placement()
        assert fresh_placement() == first
        assert len(first) == 4
        assert all(0 <= i < 3 for i in first)

    def test_custom_policy_plugs_in(self):
        @register_placement_policy("pin-last")
        class PinLast:
            name = "pin-last"

            def assign(self, streams, costers):
                return [len(costers) - 1] * len(streams)

        engine = ClusterEngine(["gpu", "gpu"], policy="pin-last")
        report = engine.run([_stream("cam", n_frames=4)])
        assert report.shard_for("cam") == "gpu:1"

    def test_bad_policy_output_rejected(self):
        class Broken:
            name = "broken"

            def assign(self, streams, costers):
                return [99] * len(streams)

        engine = ClusterEngine(["gpu"], policy=Broken())
        with pytest.raises(ValueError, match="outside the fleet"):
            engine.place([_stream("cam")])

        class Short:
            name = "short"

            def assign(self, streams, costers):
                return []

        engine = ClusterEngine(["gpu"], policy=Short())
        with pytest.raises(ValueError, match="placed 0 of 1"):
            engine.place([_stream("cam")])


# ----------------------------------------------------------------------
# the cluster engine
# ----------------------------------------------------------------------
class TestClusterEngine:
    @pytest.mark.parametrize("backend", ["gpu", "systolic"])
    def test_one_backend_cluster_is_exactly_stream_engine(self, backend):
        """The degenerate case: ClusterEngine([b]) == StreamEngine(b).

        round-robin never probes costs, so even the cache statistics
        match and the embedded report is *equal*, field for field.
        """
        streams = _mixed_streams()
        single = StreamEngine(backend).run(streams)
        cluster = ClusterEngine([backend], policy="round-robin").run(streams)
        assert len(cluster.shards) == 1
        assert cluster.shards[0].report == single
        assert cluster.makespan_s == single.makespan_s
        assert cluster.aggregate_fps == single.aggregate_fps

    @pytest.mark.parametrize("policy", POLICIES)
    def test_degenerate_latencies_match_across_policies(self, policy):
        """Cost-probing policies may touch the cache, but the served
        latencies, key counts and makespan are still identical."""
        streams = _mixed_streams()
        single = StreamEngine("gpu").run(streams)
        cluster = ClusterEngine(["gpu"], policy=policy).run(streams)
        assert cluster.shards[0].report.streams == single.streams
        assert cluster.makespan_s == single.makespan_s

    def test_labels_disambiguate_repeated_types(self):
        engine = ClusterEngine(["systolic", "systolic", "gpu"])
        assert engine.labels == ["systolic:0", "systolic:1", "gpu:0"]

    def test_run_conserves_streams_and_frames(self):
        streams = _mixed_streams()
        report = ClusterEngine(
            ["systolic", "eyeriss", "gpu"], policy="capability-aware"
        ).run(streams)
        assert report.total_frames == sum(s.n_frames for s in streams)
        assert sorted(name for name, _ in report.placement) == sorted(
            s.name for s in streams
        )
        assert [s.stream for s in report.stream_stats] == [
            s.name for s in streams
        ]
        assert report.aggregate_fps > 0
        assert report.worst_p99_ms > 0

    def test_idle_shard_reported_as_headroom(self):
        backends = [get_backend("gpu"), get_backend("gpu")]
        report = ClusterEngine(backends, policy="round-robin").run(
            [_stream("cam", n_frames=4)]
        )
        busy, idle = report.shards
        assert not busy.idle and idle.idle
        assert idle.utilization == 0.0
        assert idle.report.streams == []
        # an idle shard's empty serve is not a run in the ledger
        assert backends[1].occupancy.runs == 0
        assert backends[0].occupancy.runs == 1

    def test_shard_utilizations_bounded(self):
        report = ClusterEngine(
            ["systolic", "gpu"], policy="least-loaded"
        ).run(_mixed_streams())
        for shard in report.shards:
            assert 0.0 <= shard.utilization <= 1.0
        assert max(s.utilization for s in report.shards) > 0.0

    def test_occupancy_ledger_filled(self):
        backend = get_backend("gpu")
        report = ClusterEngine([backend]).run([_stream("cam", n_frames=6)])
        assert backend.occupancy.frames == 6
        assert backend.occupancy.runs == 1
        assert backend.occupancy.busy_s > 0
        assert report.shards[0].report.total_frames == 6

    def test_sustainable_streams_sums_shards(self):
        report = ClusterEngine(["gpu", "gpu"], policy="round-robin").run(
            [_stream("a", n_frames=6), _stream("b", n_frames=6)]
        )
        per_shard = [
            shard.report.sustainable_streams(30.0) for shard in report.shards
        ]
        assert report.sustainable_streams(30.0) == sum(per_shard)

    def test_shard_for_unknown_stream(self):
        report = ClusterEngine(["gpu"]).run([_stream("cam", n_frames=2)])
        with pytest.raises(KeyError):
            report.shard_for("ghost")

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one backend"):
            ClusterEngine([])
        with pytest.raises(ValueError, match="at least one stream"):
            ClusterEngine(["gpu"]).run([])

    def test_duplicate_stream_names_rejected(self):
        """Placement and reports are keyed by name; dupes would
        silently alias one stream's stats onto the other.  The chaos
        engine runs the same check."""
        for engine in (ClusterEngine, ChaosClusterEngine):
            with pytest.raises(ValueError, match="unique.*'cam'"):
                engine(["gpu"]).run(
                    [_stream("cam", n_frames=2), _stream("cam", n_frames=6)]
                )

    def test_idle_shard_worst_p99_is_zero(self):
        report = ClusterEngine(["gpu", "gpu", "gpu"]).run(
            [_stream("cam", n_frames=4)]
        )
        idle = [s for s in report.shards if s.idle]
        assert idle and all(s.report.worst_p99_ms == 0.0 for s in idle)
        assert report.worst_p99_ms > 0

    def test_formatting(self):
        streams = [_stream("cam", n_frames=4)]
        reports = [
            ClusterEngine(["gpu", "gpu"], policy=p).run(streams)
            for p in POLICIES
        ]
        text = format_cluster_report(reports[0])
        assert "gpu:0" in text and "util" in text and "cam" in text
        comparison = format_policy_comparison(reports, target_fps=30.0)
        for policy in POLICIES:
            assert policy in comparison

    def test_shard_table_shows_schedules_solved(self):
        # a per-shard backend sees one lookup per workload, so its hit
        # rate is a constant 0; the table shows the schedules solved
        engine = ClusterEngine(["gpu", "systolic"], policy="round-robin")
        report = engine.run(_mixed_streams())
        text = format_cluster_report(report)
        assert "cache hit" not in text
        table = text.split("Backend shards", 1)[1].splitlines()
        assert table[2].split()[-2:] == ["schedules", "solved"]
        rows = {line.split()[0]: int(line.split()[-1]) for line in table[4:]}
        solved = {label: backend.cache_info().misses
                  for label, backend in zip(engine.labels, engine.backends)}
        assert rows == solved
        assert rows == {s.label: s.report.cache.misses for s in report.shards}
        # systolic solves FlowNetC and DispNet; the GPU degrades cam2's
        # dct to baseline, the schedule it already solved for cam0
        assert rows == {"gpu:0": 1, "systolic:0": 2}


# ----------------------------------------------------------------------
# the capacity planner
# ----------------------------------------------------------------------
class TestCapacityPlanner:
    def test_plan_shape_and_ranking(self):
        plan = plan_capacity(
            _mixed_streams(), target_fps=30.0, catalog=("eyeriss", "gpu")
        )
        assert plan.n_streams == 4
        keys = [(p.instances, p.demand, p.backend) for p in plan.options]
        assert keys == sorted(keys)
        assert plan.best is plan.options[0]
        for option in plan.options:
            assert option.instances >= 1
            assert option.demand > 0
            assert option.fleet_utilization <= option.utilization_cap + 1e-9

    def test_ism_capable_systolic_needs_least_capacity(self):
        # ISM-heavy mix: the co-designed array's demand is lowest
        streams = [_stream(f"cam{i}", pw=4, mode="ilar") for i in range(3)]
        plan = plan_capacity(
            streams, target_fps=30.0, catalog=("systolic", "eyeriss", "gpu")
        )
        by_name = {p.backend: p for p in plan.options}
        assert by_name["systolic"].demand < by_name["eyeriss"].demand
        assert by_name["systolic"].demand < by_name["gpu"].demand
        assert plan.best.backend == "systolic"

    def test_demand_scales_linearly_with_target_fps(self):
        streams = [_stream("cam")]
        at30 = plan_capacity(streams, 30.0, catalog=("gpu",))
        at60 = plan_capacity(streams, 60.0, catalog=("gpu",))
        assert at60.options[0].demand == pytest.approx(
            2 * at30.options[0].demand
        )

    def test_large_fleet_scales_out(self):
        streams = [_stream(f"cam{i}", pw=1) for i in range(64)]
        plan = plan_capacity(streams, 60.0, catalog=("gpu",))
        gpu = plan.options[0]
        assert gpu.instances > 1
        assert gpu.streams_per_instance == pytest.approx(64 / gpu.instances)

    def test_determinism(self):
        streams = _mixed_streams()
        first = plan_capacity(streams, 30.0, catalog=("eyeriss", "gpu"))
        second = plan_capacity(streams, 30.0, catalog=("eyeriss", "gpu"))
        assert first == second

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one stream"):
            plan_capacity([], 30.0)
        with pytest.raises(ValueError, match="target fps"):
            plan_capacity([_stream("cam")], 0.0)
        with pytest.raises(ValueError, match="utilization cap"):
            plan_capacity([_stream("cam")], 30.0, utilization_cap=1.5)
        with pytest.raises(ValueError, match="catalog"):
            plan_capacity([_stream("cam")], 30.0, catalog=())

    def test_formatting(self):
        plan = plan_capacity([_stream("cam")], 30.0, catalog=("gpu",))
        text = format_capacity_plan(plan)
        assert "gpu" in text and "instances" in text


# ----------------------------------------------------------------------
# planner edge cases: infeasible inputs fail loudly, never 0 replicas
# ----------------------------------------------------------------------
class TestPlannerEdgeCases:
    def test_backend_plan_rejects_zero_instances(self):
        from repro.cluster import BackendPlan

        with pytest.raises(ValueError, match="at least one instance"):
            BackendPlan(backend="gpu", demand=0.0, instances=0,
                        utilization_cap=0.9, n_streams=1)

    def test_catalog_entry_slower_than_deadline_rejected(self):
        # eyeriss key frames on this workload take ~14 ms: a 1 ms
        # per-frame deadline is unmeetable at any fleet size
        stream = _stream("cam", deadline_s=0.001)
        with pytest.raises(ValueError, match="cannot meet stream"):
            plan_capacity([stream], 30.0, catalog=("eyeriss",))
        # the same stream with slack plans fine
        relaxed = _stream("cam", deadline_s=0.5)
        assert plan_capacity([relaxed], 30.0,
                             catalog=("eyeriss",)).best.instances >= 1

    def test_stream_too_heavy_for_one_instance_rejected(self):
        # a single stream demanding more than the cap cannot be
        # served by any number of instances (streams don't split)
        stream = _stream("cam", pw=1)
        with pytest.raises(ValueError, match="cannot split"):
            plan_capacity([stream], 400.0, catalog=("gpu",))

    def test_error_names_the_offender(self):
        stream = _stream("badcam", deadline_s=0.001)
        with pytest.raises(ValueError, match="badcam"):
            plan_capacity([stream], 30.0, catalog=("eyeriss",))


# ----------------------------------------------------------------------
# failover determinism: byte-identical reports, any quality pool
# ----------------------------------------------------------------------
class TestFailoverDeterminism:
    """Identical (fault_schedule, seed) => byte-identical reports.

    The chaos loop's only stochastic ingredient is the flaky-fault
    draw, which is a pure SHA-256 function of the schedule seed — so
    two runs of the same schedule must render identically, and the
    quality probe's worker pool (process vs thread) must not leak
    into the report either.
    """

    @staticmethod
    def _schedule():
        from repro.cluster import CrashFault, FaultSchedule, FlakyFault

        return FaultSchedule(
            faults=(
                CrashFault("gpu:1", at_s=0.05),
                FlakyFault("gpu:0", start_s=0.0, duration_s=10.0,
                           failure_rate=0.3),
            ),
            seed=11,
        )

    def _report(self, quality=None):
        from repro.cluster import ChaosClusterEngine, RetryPolicy

        engine = ChaosClusterEngine(
            ["gpu", "gpu"], policy="round-robin",
            faults=self._schedule(),
            retry=RetryPolicy(max_attempts=2, backoff_s=0.001),
            quality=quality,
        )
        return engine.run([_stream(f"cam{i}", deadline_s=0.05)
                           for i in range(4)])

    def test_identical_schedule_and_seed_byte_identical(self):
        first, second = self._report(), self._report()
        assert format_cluster_report(first) == format_cluster_report(second)
        assert first.resilience == second.resilience
        assert first.placement == second.placement

    def test_pool_choice_never_leaks_into_report(self):
        from repro.pipeline import sceneflow_stream
        from repro.cluster import ChaosClusterEngine, RetryPolicy
        from repro.pipeline.quality import QualityProbe

        def render(pool):
            engine = ChaosClusterEngine(
                ["gpu", "gpu"], policy="round-robin",
                faults=self._schedule(),
                retry=RetryPolicy(max_attempts=2, backoff_s=0.001),
                quality=QualityProbe(max_disp=16, workers=2, pool=pool),
            )
            streams = [
                sceneflow_stream(seed=i, size=(48, 64), n_frames=6,
                                 deadline_s=0.05)
                for i in range(2)
            ]
            return format_cluster_report(engine.run(streams))

        assert render("process") == render("thread")


# ----------------------------------------------------------------------
# fleet-sim pins: the benchmark fleet's simulated outputs, exact
# ----------------------------------------------------------------------
class TestFleetSimPins:
    """The end-to-end benchmark's cost-only fleet, served for seeds 1-3
    under fifo, edf, shed and the chaos engine, pinned with ``==``.

    The workload is rebuilt here the way ``benchmarks/e2e/serve.py``
    builds it (``fleet_streams``, ``crash_schedule``,
    ``build_engine``): a copy, not an import, so the pins hold the
    library to its outputs even if the benchmark changes.  Placement
    ties, float sums and dispatch order all reach these numbers, so
    any optimisation of the cost model or the event loops must leave
    them bit-identical.
    """

    FLEET = ("gpu", "gpu", "systolic", "systolic")
    DEADLINES_S = (0.015, 0.03, 0.06)
    CAMERAS, FRAMES, SIZE, FPS = 16, 300, (96, 160), 88.0

    #: fifo, edf and shed place by demand alone: one placement, every seed
    PLAIN_PLACEMENT = (
        "systolic:0", "systolic:1", "systolic:1", "gpu:0",
        "systolic:0", "gpu:1", "systolic:1", "gpu:0",
        "systolic:0", "gpu:1", "systolic:1", "gpu:0",
        "systolic:0", "gpu:1", "systolic:1", "gpu:0",
    )
    #: the chaos engine's final placement, after failover and rebalancing
    CHAOS_PLACEMENT = {
        1: ("systolic:0", "systolic:1", "systolic:1", "gpu:0",
            "systolic:0", "gpu:2", "gpu:3", "systolic:1",
            "systolic:0", "gpu:0", "gpu:2", "systolic:1",
            "systolic:1", "gpu:3", "systolic:0", "gpu:0"),
        2: ("systolic:0", "gpu:0", "systolic:0", "gpu:1",
            "gpu:2", "gpu:3", "gpu:4", "gpu:0",
            "systolic:0", "gpu:1", "gpu:3", "gpu:2",
            "systolic:0", "gpu:4", "gpu:0", "gpu:1"),
        3: ("systolic:0", "gpu:0", "systolic:0", "gpu:1",
            "gpu:2", "gpu:3", "gpu:4", "gpu:0",
            "systolic:0", "gpu:1", "gpu:3", "gpu:2",
            "systolic:0", "gpu:4", "gpu:0", "gpu:1"),
    }
    #: (worst_p99_ms, deadline_miss_rate, missed, dropped, crashes,
    #: migrations)
    OUTPUTS = {
        (1, "fifo"): (371.6442662182109, 0.53125, 2550, 0, 0, 0),
        (1, "edf"): (388.6373076545746, 0.5025, 2412, 0, 0, 0),
        (1, "shed"): (3182.8505492550735, 0.5983333333333334, 2872, 1362,
                      0, 0),
        (1, "chaos"): (86.24353114851517, 0.17416666666666666, 836, 0,
                       1, 14),
        (2, "fifo"): (371.6442662182109, 0.496875, 2385, 0, 0, 0),
        (2, "edf"): (389.2395489454836, 0.4741666666666667, 2276, 0, 0, 0),
        (2, "shed"): (3161.453958789455, 0.5985416666666666, 2873, 1399,
                      0, 0),
        (2, "chaos"): (194.81243913638184, 0.3695833333333333, 1774, 0,
                       1, 32),
        (3, "fifo"): (371.6442662182109, 0.570625, 2739, 0, 0, 0),
        (3, "edf"): (383.5082789454831, 0.5095833333333334, 2446, 0, 0, 0),
        (3, "shed"): (3182.8505492550735, 0.63625, 3054, 1377, 0, 0),
        (3, "chaos"): (209.75481486426006, 0.45958333333333334, 2206, 0,
                       1, 32),
    }

    def _streams(self, seed):
        return [
            FrameStream(
                f"cam-{i}", network="DispNet", size=self.SIZE,
                n_frames=self.FRAMES, mode="ilar", pw=4 if i % 2 else 2,
                fps=self.FPS,
                deadline_s=self.DEADLINES_S[(i + seed) % len(self.DEADLINES_S)],
            )
            for i in range(self.CAMERAS)
        ]

    def _crash_schedule(self, seed):
        rng = np.random.default_rng(seed)
        labels = [f"{name}:{self.FLEET[:i].count(name)}"
                  for i, name in enumerate(self.FLEET)]
        shard = labels[int(rng.integers(len(labels)))]
        at_s = float(rng.uniform(0.3, 0.7)) * self.FRAMES / self.FPS
        return FaultSchedule(faults=(CrashFault(shard, at_s=at_s),), seed=seed)

    def _engine(self, kind, seed):
        if kind == "chaos":
            return ChaosClusterEngine(
                list(self.FLEET), scheduler="edf",
                faults=self._crash_schedule(seed),
                autoscaler=Autoscaler(backend="gpu"),
            )
        return ClusterEngine(list(self.FLEET), scheduler=kind)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["fifo", "edf", "shed", "chaos"])
    def test_simulated_outputs_pinned(self, kind, seed):
        streams = self._streams(seed)
        report = self._engine(kind, seed).run(streams)
        res = report.resilience
        expected = (self.CHAOS_PLACEMENT[seed] if kind == "chaos"
                    else self.PLAIN_PLACEMENT)
        assert report.placement == tuple(
            (s.name, label) for s, label in zip(streams, expected))
        assert (
            report.worst_p99_ms, report.deadline_miss_rate,
            report.missed_deadlines, report.dropped_frames,
            res.crashes if res else 0, res.total_migrations if res else 0,
        ) == self.OUTPUTS[(seed, kind)]
