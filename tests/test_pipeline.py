"""The streaming multi-camera pipeline: streams, engine, reports."""

import numpy as np
import pytest

from repro.backends import BackendCapabilities, ExecutionBackend, get_backend
from repro.core.keyframe import StaticKeyFramePolicy
from repro.hw.energy import EnergyBreakdown
from repro.hw.systolic import LayerResult, RunResult
from repro.pipeline import costing
from repro.pipeline import (
    MODE_FALLBACK,
    FrameCoster,
    FrameStream,
    StreamEngine,
    format_backend_comparison,
    format_report,
    kitti_stream,
    plan_keys,
    sceneflow_stream,
    stress_stream,
)

TINY = (68, 120)


def _cost_stream(name, n_frames=12, fps=30.0, **kwargs):
    kwargs.setdefault("network", "DispNet")
    kwargs.setdefault("mode", "baseline")
    return FrameStream(name, size=TINY, n_frames=n_frames, fps=fps, **kwargs)


@pytest.fixture(scope="module")
def systolic_report():
    engine = StreamEngine("systolic")
    return engine.run([
        _cost_stream("cam0", pw=4),
        _cost_stream("cam1", pw=2, network="FlowNetC"),
    ])


class TestFrameStream:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrameStream("x", n_frames=0)
        with pytest.raises(ValueError):
            FrameStream("x", fps=0)
        with pytest.raises(ValueError):
            FrameStream("x", pw=0)

    def test_cost_only_stream_has_no_pixels(self):
        stream = _cost_stream("cam")
        assert not stream.has_pixels
        with pytest.raises(ValueError, match="cost-only"):
            next(stream.frames())

    def test_default_policy_is_static_pw(self):
        policy = _cost_stream("cam", pw=3).make_policy()
        assert isinstance(policy, StaticKeyFramePolicy)
        assert policy.window == 3

    @pytest.mark.parametrize("factory,kwargs", [
        (sceneflow_stream, {}),
        (kitti_stream, {}),
        (stress_stream, {"kind": "textureless"}),
        (stress_stream, {"kind": "repetitive"}),
    ])
    def test_factories_render_frames(self, factory, kwargs):
        stream = factory(seed=3, size=(64, 96), n_frames=3, **kwargs)
        frames = list(stream.frames())
        assert len(frames) == 3
        for f in frames:
            assert f.left.shape == (64, 96)
            assert np.isfinite(f.disparity).all()

    def test_kitti_stream_chains_scene_pairs(self):
        stream = kitti_stream(seed=0, size=(64, 96), n_frames=5)
        assert len(list(stream.frames())) == 5

    def test_unknown_stress_kind(self):
        with pytest.raises(ValueError, match="unknown stress kind"):
            stress_stream(kind="foggy")


class TestStreamEngine:
    def test_report_shape(self, systolic_report):
        report = systolic_report
        assert report.backend == "systolic"
        assert [s.stream for s in report.streams] == ["cam0", "cam1"]
        assert report.total_frames == 24
        assert report.aggregate_fps > 0
        assert report.makespan_s > 0

    def test_key_frame_counts_follow_policy(self, systolic_report):
        cam0, cam1 = systolic_report.streams
        assert cam0.key_frames == 3   # PW-4 over 12 frames: 0, 4, 8
        assert cam1.key_frames == 6   # PW-2 over 12 frames
        assert cam0.frames == cam1.frames == 12

    def test_percentiles_ordered(self, systolic_report):
        for s in systolic_report.streams:
            assert 0 < s.p50_ms <= s.p95_ms <= s.p99_ms <= s.max_ms

    def test_cache_reused_across_frames(self, systolic_report):
        info = systolic_report.cache
        assert info.misses == 2  # one schedule per distinct (net, mode, size)
        # 24 frames, two backend lookups: the coster prices each
        # workload once and reuses the seconds for every later frame
        assert info.hits + info.misses == 2

    def test_ism_less_backend_runs_dnn_every_frame(self):
        report = StreamEngine("eyeriss").run([_cost_stream("cam", n_frames=6)])
        assert report.streams[0].key_frames == 6

    def test_gpu_backend_serves_streams(self):
        report = StreamEngine("gpu").run([
            _cost_stream("a", n_frames=6),
            _cost_stream("b", n_frames=6),
        ])
        assert len(report.streams) == 2
        assert report.aggregate_fps > 0

    def test_mode_degrades_to_backend_capability(self):
        engine = StreamEngine("eyeriss")
        assert engine.effective_mode("ilar") == "dct"
        assert engine.effective_mode("dct") == "dct"
        assert StreamEngine("gpu").effective_mode("ilar") == "baseline"
        assert StreamEngine("systolic").effective_mode("ilar") == "ilar"
        with pytest.raises(ValueError):
            engine.effective_mode("magic")

    def test_custom_policy_factory(self):
        stream = _cost_stream(
            "cam", n_frames=6, policy_factory=lambda: StaticKeyFramePolicy(1)
        )
        report = StreamEngine("systolic").run([stream])
        assert report.streams[0].key_frames == 6

    def test_backend_instance_accepted(self):
        backend = get_backend("systolic")
        report = StreamEngine(backend).run([_cost_stream("cam", n_frames=4)])
        assert report.backend == "systolic"
        with pytest.raises(ValueError):
            StreamEngine(backend, cache_size=4)

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            StreamEngine("systolic").run([])

    def test_sustainable_streams_positive(self, systolic_report):
        n = systolic_report.sustainable_streams(30.0)
        assert n >= 1
        with pytest.raises(ValueError):
            systolic_report.sustainable_streams(0)

    def test_saturation_shows_in_tail(self):
        """An overloaded server queues: p99 far above p50."""
        hot = _cost_stream("hot", n_frames=20, fps=10_000.0, pw=1)
        report = StreamEngine("systolic").run([hot])
        s = report.streams[0]
        # queue grows linearly: the tail is ~2x the median, far above
        # the flat profile of an unloaded server
        assert s.p99_ms > 1.5 * s.p50_ms


class TestCostTable:
    """Each coster prices a workload once; demands and serves reuse it."""

    @pytest.mark.parametrize("mode", MODE_FALLBACK)
    @pytest.mark.parametrize("name", ["gpu", "systolic", "eyeriss"])
    def test_key_frame_seconds_is_the_backend_price(self, name, mode):
        backend = get_backend(name)
        coster = FrameCoster(backend)
        stream = _cost_stream("cam", mode=mode)
        price = backend.seconds(backend.network_result(
            stream.network, coster.effective_mode(stream.mode), stream.size))
        assert coster.key_frame_seconds(stream) == price
        info = backend.cache_info()
        assert coster.key_frame_seconds(stream) == price
        assert backend.cache_info() == info  # priced once per coster

    @pytest.mark.parametrize("name,pw", [
        ("gpu", 1), ("gpu", 2), ("gpu", 4), ("eyeriss", 4),
    ])
    def test_stream_demand_sums_frames_in_order(self, name, pw, monkeypatch):
        coster = FrameCoster(get_backend(name))
        stream = _cost_stream("cam", n_frames=30, pw=pw)
        keys = plan_keys(stream, coster.backend.capabilities.supports_ism)
        nonkey_calls = []
        nonkey = FrameCoster.nonkey_frame_seconds

        def counted(self, stream):
            nonkey_calls.append(stream.name)
            return nonkey(self, stream)

        monkeypatch.setattr(FrameCoster, "nonkey_frame_seconds", counted)
        reference = sum(coster.frame_seconds(stream, k) for k in keys)
        # exact, not approx: a demand that rounds differently can move
        # a placement tie
        assert coster.stream_demand(stream) == stream.fps * reference / len(keys)
        if all(keys):  # eyeriss has no ISM, and PW-1 keys every frame
            assert nonkey_calls == []

    @pytest.mark.parametrize("fps", [None, 60.0])
    @pytest.mark.parametrize("pw", [1, 2, 4])
    @pytest.mark.parametrize("name", ["gpu", "systolic", "eyeriss"])
    def test_warm_demand_equals_a_fresh_replay(self, name, pw, fps,
                                               monkeypatch):
        stream = _cost_stream("cam", n_frames=30, pw=pw, deadline_s=0.01)
        warm = FrameCoster(get_backend(name))
        warm.stream_demand(stream)  # fills the memo
        fresh = FrameCoster(get_backend(name))
        keys = plan_keys(stream, fresh.backend.capabilities.supports_ism)
        rate = stream.fps if fps is None else fps
        replay = rate * sum(fresh.frame_seconds(stream, k) for k in keys)
        expected = (fresh.stream_demand(stream, fps),
                    fresh.deadline_pressure(stream, fps))
        replays = []

        def counted(*args):
            replays.append(args)
            return plan_keys(*args)

        monkeypatch.setattr(costing, "plan_keys", counted)
        assert warm.stream_demand(stream, fps) == replay / len(keys)
        assert (warm.stream_demand(stream, fps),
                warm.deadline_pressure(stream, fps)) == expected
        assert replays == []  # the warm coster replays no plan

    def test_policy_factory_replays_every_call(self):
        # a factory's policy may be adaptive or vary between builds, so
        # its plan is never memoized
        built = []

        def factory():
            built.append(1)
            return StaticKeyFramePolicy(3)

        coster = FrameCoster(get_backend("gpu"))
        stream = _cost_stream("cam", n_frames=12, policy_factory=factory)
        first = coster.stream_demand(stream)
        assert coster.stream_demand(stream) == first
        coster.deadline_pressure(stream)
        assert len(built) == 3

    def test_mutated_stream_prices_its_new_plan(self):
        coster = FrameCoster(get_backend("gpu"))
        stream = _cost_stream("cam", n_frames=12, pw=4)
        before = coster.stream_demand(stream)
        for field, value in (("pw", 2), ("n_frames", 7)):
            setattr(stream, field, value)
            fresh = FrameCoster(get_backend("gpu")).stream_demand(
                _cost_stream("cam", n_frames=stream.n_frames, pw=stream.pw))
            assert coster.stream_demand(stream) == fresh != before
            before = fresh

    def test_long_stream_looks_up_its_network_once(self):
        report = StreamEngine("systolic").run(
            [_cost_stream("cam", n_frames=300, pw=4)])
        info = report.cache
        assert (info.hits, info.misses) == (0, 1)


class _RecordingBackend(ExecutionBackend):
    """A stub target with configurable capabilities that records the
    execution mode each scheduled network actually ran under."""

    name = "recording-stub"
    frequency_hz = 1.0e9

    def __init__(self, capabilities: BackendCapabilities):
        super().__init__()
        self.capabilities = capabilities
        self.modes_run: list[str] = []

    def _result(self, name, cycles):
        return LayerResult(
            name=name, cycles=cycles, compute_cycles=cycles,
            memory_cycles=0, macs=cycles, dram_bytes=0, sram_bytes=0,
            energy=EnergyBreakdown(),
        )

    def run_network(self, specs, mode="baseline"):
        self.require_mode(mode)
        self.modes_run.append(mode)
        return RunResult([self._result("stub-net", 1000)])

    def nonkey_frame(self, size=(68, 120), config=None):
        return self._result("stub-nonkey", 10)


class TestModeDegradation:
    """Requested modes degrade along ilar -> convr -> dct -> baseline
    to the best mode a restricted backend supports."""

    CASES = [
        # (dct, ilar) capability -> expected chain per requested mode
        ((True, True), {"ilar": "ilar", "convr": "convr",
                        "dct": "dct", "baseline": "baseline"}),
        ((True, False), {"ilar": "dct", "convr": "dct",
                         "dct": "dct", "baseline": "baseline"}),
        # ILAR without DCT: reuse modes run natively, but a plain DCT
        # request must skip to baseline (dct is not below convr)
        ((False, True), {"ilar": "ilar", "convr": "convr",
                         "dct": "baseline", "baseline": "baseline"}),
        ((False, False), {"ilar": "baseline", "convr": "baseline",
                          "dct": "baseline", "baseline": "baseline"}),
    ]

    @pytest.mark.parametrize("caps,expected", CASES)
    def test_effective_mode_chain(self, caps, expected):
        dct, ilar = caps
        backend = _RecordingBackend(BackendCapabilities(
            supports_dct=dct, supports_ilar=ilar, supports_ism=True))
        engine = StreamEngine(backend)
        for requested, effective in expected.items():
            assert engine.effective_mode(requested) == effective

    def test_degraded_mode_reaches_the_backend(self):
        """The engine schedules the *degraded* mode, not the request."""
        backend = _RecordingBackend(BackendCapabilities(
            supports_dct=True, supports_ilar=False, supports_ism=True))
        engine = StreamEngine(backend)
        report = engine.run([FrameStream(
            "cam", size=(68, 120), n_frames=4, pw=2, mode="ilar")])
        assert backend.modes_run == ["dct"]  # scheduled once, cached
        assert report.total_frames == 4

    def test_ism_less_restricted_backend_keys_every_frame(self):
        backend = _RecordingBackend(BackendCapabilities(
            supports_dct=False, supports_ilar=False, supports_ism=False))
        report = StreamEngine(backend).run([FrameStream(
            "cam", size=(68, 120), n_frames=5, pw=4, mode="ilar")])
        assert report.streams[0].key_frames == 5
        assert backend.modes_run == ["baseline"]

    def test_plan_keys_matches_served_key_counts(self):
        stream = FrameStream("cam", size=(68, 120), n_frames=9, pw=3)
        assert sum(plan_keys(stream)) == 3
        assert plan_keys(stream, supports_ism=False) == [True] * 9


class TestReportFormatting:
    def test_format_report(self, systolic_report):
        text = format_report(systolic_report)
        assert "cam0" in text and "p99 ms" in text and "systolic" in text

    def test_title_counts_schedules_solved(self, systolic_report):
        # DispNet and FlowNetC: two schedules, and no hit-rate figure,
        # which reads 0 when each workload is looked up once
        title = format_report(systolic_report).splitlines()[0]
        assert title.endswith(", 2 schedules solved")
        assert "cache hit" not in title

    def test_format_backend_comparison(self, systolic_report):
        text = format_backend_comparison([systolic_report], target_fps=30.0)
        assert "systolic" in text and "streams@30fps" in text
