"""Streaming multi-camera frame pipeline.

Production-shaped serving on top of the execution-backend layer::

    from repro.pipeline import StreamEngine, kitti_stream, sceneflow_stream

    engine = StreamEngine("systolic", scheduler="edf")
    report = engine.run([
        kitti_stream(seed=1, network="DispNet", deadline_s=1 / 30.0),
        sceneflow_stream(seed=2, network="FlowNetC", deadline_s=1 / 30.0),
    ])
    print(report.aggregate_fps, report.worst_p99_ms,
          report.deadline_miss_rate)

* :class:`FrameStream` — one camera stream (geometry, rate, network,
  mode, key-frame policy, per-frame deadline, priority), with
  factories over every procedural dataset;
* :class:`FrameCoster` / :func:`plan_keys` — the per-frame cost model
  and key-frame planning shared by the single-backend engine and the
  multi-accelerator cluster layer (:mod:`repro.cluster`);
* :class:`FrameScheduler` and the scheduler registry
  (:func:`get_scheduler` / :func:`register_scheduler`) — pluggable
  service disciplines: ``fifo`` (default), ``edf``, ``priority``,
  and the load-shedding ``shed``;
* :class:`StreamEngine` — discrete-event scheduling of key and
  non-key frames across N concurrent streams on one backend;
* :class:`QualityProbe` / :class:`StreamQuality` — depth accuracy of
  a served run, scored by replaying the engine's per-frame decisions
  (key / non-key / drop) through the *real* stereo pipeline on the
  procedural datasets' exact ground truth;
* :class:`EngineReport` / :class:`StreamStats` — p50/p95/p99 frame
  latency per stream, queue-wait attribution, deadline-miss / drop
  rates, worst-case lateness, aggregate fps, backend utilization,
  streams sustainable at a target rate, result-cache statistics,
  and (on probed runs) bad-pixel rate / end-point error.

The serving guide lives in ``docs/serving.md``; the scheduler guide
in ``docs/scheduling.md``; the quality guide in ``docs/quality.md``.
"""

from repro.pipeline.costing import (
    MODE_FALLBACK,
    FrameCoster,
    ServeOutcome,
    plan_keys,
)
from repro.pipeline.engine import StreamEngine
from repro.pipeline.quality import (
    FrameQuality,
    QualityProbe,
    StreamQuality,
    available_matchers,
)
from repro.pipeline.report import (
    EngineReport,
    StreamStats,
    format_backend_comparison,
    format_quality_report,
    format_report,
)
from repro.pipeline.schedulers import (
    EdfScheduler,
    FifoScheduler,
    FrameJob,
    FrameScheduler,
    PriorityScheduler,
    ShedScheduler,
    available_schedulers,
    get_scheduler,
    register_scheduler,
)
from repro.pipeline.stream import (
    FrameStream,
    kitti_stream,
    sceneflow_stream,
    stress_stream,
)

__all__ = [
    "EdfScheduler",
    "EngineReport",
    "FifoScheduler",
    "FrameCoster",
    "FrameJob",
    "FrameQuality",
    "FrameScheduler",
    "FrameStream",
    "MODE_FALLBACK",
    "PriorityScheduler",
    "QualityProbe",
    "ServeOutcome",
    "ShedScheduler",
    "StreamEngine",
    "StreamQuality",
    "StreamStats",
    "available_matchers",
    "available_schedulers",
    "format_backend_comparison",
    "format_quality_report",
    "format_report",
    "get_scheduler",
    "kitti_stream",
    "plan_keys",
    "register_scheduler",
    "sceneflow_stream",
    "stress_stream",
]
