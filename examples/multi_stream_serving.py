"""Multi-camera stream serving across execution backends.

A production-shaped tour of the backend + pipeline layers:

1. build three concurrent camera streams from different procedural
   datasets (KITTI-like street scenes, SceneFlow-like flying objects,
   and a textureless stress scene);
2. serve them on every registered execution backend through the
   :class:`StreamEngine`;
3. print per-stream latency percentiles, the schedules each backend
   solved, the streams-vs-backend throughput table, and the
   result-cache statistics.

Run:  python examples/multi_stream_serving.py
"""

from repro.backends import available_backends, get_backend
from repro.pipeline import (
    StreamEngine,
    format_backend_comparison,
    format_report,
    kitti_stream,
    sceneflow_stream,
    stress_stream,
)

SIZE = (96, 160)   # small frames keep the tour quick
N_FRAMES = 30      # one second of 30 fps video per camera
TARGET_FPS = 30.0


def build_streams():
    """Three cameras, three datasets, two networks, mixed policies."""
    return [
        kitti_stream(seed=11, name="street-cam", size=SIZE,
                     n_frames=N_FRAMES, network="DispNet",
                     mode="ilar", pw=2),
        sceneflow_stream(seed=7, name="lab-cam", size=SIZE,
                         n_frames=N_FRAMES, network="FlowNetC",
                         mode="ilar", pw=4),
        stress_stream(kind="textureless", seed=3, name="wall-cam",
                      size=SIZE, n_frames=N_FRAMES, network="DispNet",
                      mode="ilar", pw=4),
    ]


def main():
    first = build_streams()[0]
    frame = next(first.frames())
    print(f"streams carry real pixel data: first frame {frame.shape}, "
          f"disparity up to {frame.disparity.max():.1f} px\n")

    reports = []
    for name in available_backends():
        backend = get_backend(name)
        caps = backend.capabilities
        print(f"=== backend {name!r} "
              f"(modes: {', '.join(caps.modes)}; "
              f"ISM non-key frames: {'yes' if caps.supports_ism else 'no'})")
        engine = StreamEngine(backend)
        report = engine.run(build_streams())
        reports.append(report)
        print(format_report(report))
        info = report.cache
        print(f"result cache: {info.hits} hits / {info.misses} misses "
              f"({info.currsize} entries)\n")

    print(format_backend_comparison(reports, target_fps=TARGET_FPS))
    best = max(reports, key=lambda r: r.sustainable_streams(TARGET_FPS))
    print(f"\nwinner: {best.backend!r} sustains "
          f"{best.sustainable_streams(TARGET_FPS)} cameras at "
          f"{TARGET_FPS:.0f} fps (worst p99 {best.worst_p99_ms:.2f} ms)")


if __name__ == "__main__":
    main()
