"""Stream engine — multi-camera serving throughput across backends.

Serves the same two concurrent camera streams (a KITTI-like street
camera on DispNet, a SceneFlow-like camera on FlowNetC) on every
execution backend and compares per-stream latency percentiles,
aggregate throughput, and how many 30 fps cameras each target could
sustain.  Shape assertions: the ISM-capable co-designed systolic
backend dominates — it sustains strictly more streams than the
Eyeriss-class array (which must run full inference every frame) and
keeps a lower worst-case tail latency than either alternative.
"""

from benchmarks.conftest import once
from repro.pipeline import (
    StreamEngine,
    format_backend_comparison,
    kitti_stream,
    sceneflow_stream,
)

SIZE = (135, 240)
N_FRAMES = 60
BACKENDS = ("systolic", "eyeriss", "gpu")


def _streams():
    return [
        kitti_stream(seed=1, name="kitti-cam", size=SIZE,
                     n_frames=N_FRAMES, network="DispNet", mode="ilar"),
        sceneflow_stream(seed=2, name="sceneflow-cam", size=SIZE,
                         n_frames=N_FRAMES, network="FlowNetC", mode="ilar"),
    ]


def _serve_all():
    return [StreamEngine(name).run(_streams()) for name in BACKENDS]


def test_stream_engine_backends(benchmark, save_table):
    reports = once(benchmark, _serve_all)
    save_table("stream_engine", format_backend_comparison(reports, 30.0))
    by_name = {r.backend: r for r in reports}

    # every backend served both streams, with ordered percentiles
    for report in reports:
        assert len(report.streams) == 2
        assert report.total_frames == 2 * N_FRAMES
        for s in report.streams:
            assert 0 < s.p50_ms <= s.p95_ms <= s.p99_ms

    systolic = by_name["systolic"]
    eyeriss = by_name["eyeriss"]
    gpu = by_name["gpu"]

    # ISM + DCO: the co-designed system sustains the most cameras ...
    assert (
        systolic.sustainable_streams(30.0)
        > eyeriss.sustainable_streams(30.0)
        >= 1
    )
    assert systolic.sustainable_streams(30.0) > gpu.sustainable_streams(30.0)
    # ... and has the least-bad tail
    assert systolic.worst_p99_ms < eyeriss.worst_p99_ms
    assert systolic.worst_p99_ms < gpu.worst_p99_ms

    # the ISM-less array pays full inference every frame
    assert all(s.key_frames == s.frames for s in eyeriss.streams)
    assert all(s.key_frames < s.frames for s in systolic.streams)

    # result cache: each distinct (network, mode, size) scheduled
    # once, and looked up once, however many frames it serves
    assert systolic.cache.misses == 2
    assert systolic.cache.hits + systolic.cache.misses == 2
