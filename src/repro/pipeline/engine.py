"""The stream engine: N concurrent camera streams on one accelerator.

Models a production serving deployment: every stream delivers frames
at its camera rate; the execution backend is a single shared resource
and a pluggable :class:`~repro.pipeline.schedulers.FrameScheduler`
(``fifo`` by default; ``edf`` / ``priority`` / ``shed`` for
deadline-aware QoS — see ``docs/scheduling.md``) decides which
stream's frame it services next.  Per frame, the stream's key-frame
policy decides between full DNN inference and the cheap ISM non-key
pipeline — on backends whose capabilities lack ISM support, every
frame pays full inference, and requested execution modes degrade
gracefully to the best mode the backend schedules
(``ilar -> convr -> dct -> baseline``; see ``docs/serving.md``).

Each engine's :class:`~repro.pipeline.costing.FrameCoster` prices a
``(network, mode, size)`` once, through the backend's bounded result
cache, and reuses the seconds for every later frame.  So a
many-stream run schedules each distinct workload once, and the
report's cache statistics count backend lookups, not frames: misses
are the schedules solved, and hits are repeat lookups from other
costers or callers.

The simulation is an analytic discrete-event model (arrival, queueing
wait, service), which is exactly what the underlying latency models
support — no wall-clock measurement, so runs are deterministic.  The
costing and FIFO core live in :mod:`repro.pipeline.costing` and are
shared with the multi-accelerator :class:`~repro.cluster.engine.
ClusterEngine`.

Key-frame policies receive a per-stream context dict that persists
across the stream's frames, but the engine is cost-only: it does not
run optical flow, so pixel-derived signals (``last_flow``) are never
populated and a :class:`~repro.core.keyframe.MotionAdaptivePolicy`
degrades to its static PW-``max_window`` behaviour here — the
"Key-frame policies" section of ``docs/serving.md`` explains the
cost-only contract and how to run true adaptive keying with
:class:`repro.core.ISM` over the stream's pixel data instead.

The latency simulation stays analytic even when a ``quality=``
:class:`~repro.pipeline.quality.QualityProbe` is attached: the probe
runs the real pipeline *after* the simulation, replaying the exact
decisions it made, so quality scoring never perturbs the reported
latencies (``docs/quality.md``).
"""

from __future__ import annotations

from repro.backends.base import ExecutionBackend
from repro.backends.registry import get_backend
from repro.pipeline.costing import MODE_FALLBACK, FrameCoster
from repro.pipeline.quality import QualityProbe
from repro.pipeline.report import EngineReport
from repro.pipeline.schedulers import FrameScheduler, get_scheduler
from repro.pipeline.stream import FrameStream

__all__ = ["StreamEngine"]

#: Backwards-compatible alias; the canonical order lives in costing.
_MODE_FALLBACK = MODE_FALLBACK


class StreamEngine:
    """Schedules key/non-key frames of many streams on one backend.

    ``scheduler`` selects the service discipline — a registered name
    (``fifo`` / ``edf`` / ``priority`` / ``shed``) or a
    :class:`~repro.pipeline.schedulers.FrameScheduler` instance.
    ``quality`` — a :class:`~repro.pipeline.quality.QualityProbe`, or
    ``True`` for the default probe — scores the run's depth accuracy
    by replaying the served decisions through the real pipeline on
    pixel-carrying streams (``docs/quality.md``).

    >>> from repro.pipeline import FrameStream, StreamEngine
    >>> engine = StreamEngine("gpu")
    >>> report = engine.run([FrameStream("cam", size=(68, 120), n_frames=6)])
    >>> report.backend, report.total_frames
    ('gpu', 6)
    >>> StreamEngine("gpu", scheduler="edf").scheduler.name
    'edf'
    >>> StreamEngine("gpu", quality=True).quality
    QualityProbe(matcher='bm', max_disp=48, sample=1.0, workers=1)
    """

    def __init__(
        self,
        backend: str | ExecutionBackend,
        scheduler: str | FrameScheduler = "fifo",
        quality: QualityProbe | bool | None = None,
        **backend_kwargs,
    ) -> None:
        if isinstance(backend, str):
            backend = get_backend(backend, **backend_kwargs)
        elif backend_kwargs:
            raise ValueError("backend_kwargs only apply to named backends")
        self.backend = backend
        self.coster = FrameCoster(backend)
        if isinstance(scheduler, str):
            scheduler = get_scheduler(scheduler)
        self.scheduler = scheduler
        if quality is True:
            quality = QualityProbe()
        self.quality = quality or None

    # ------------------------------------------------------------------
    # per-frame costs (delegated to the shared coster)
    # ------------------------------------------------------------------
    def effective_mode(self, requested: str) -> str:
        """Best supported mode at or below the requested level.

        >>> StreamEngine("gpu").effective_mode("ilar")
        'baseline'
        """
        return self.coster.effective_mode(requested)

    def key_frame_seconds(self, stream: FrameStream) -> float:
        """Service time of one of ``stream``'s key frames.

        >>> from repro.pipeline import FrameStream
        >>> stream = FrameStream("cam", size=(68, 120))
        >>> StreamEngine("gpu").key_frame_seconds(stream) > 0
        True
        """
        return self.coster.key_frame_seconds(stream)

    def nonkey_frame_seconds(self, stream: FrameStream) -> float:
        """Service time of one of ``stream``'s ISM non-key frames.

        >>> from repro.pipeline import FrameStream
        >>> stream = FrameStream("cam", size=(68, 120))
        >>> StreamEngine("gpu").nonkey_frame_seconds(stream) > 0
        True
        """
        return self.coster.nonkey_frame_seconds(stream)

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self, streams: list[FrameStream]) -> EngineReport:
        """Serve every stream to completion; return the latency report.

        >>> from repro.pipeline import FrameStream
        >>> report = StreamEngine("gpu").run(
        ...     [FrameStream("cam", size=(68, 120), n_frames=4, pw=2)])
        >>> report.streams[0].key_frames
        2
        >>> StreamEngine("gpu", scheduler="shed").run(
        ...     [FrameStream("cam", size=(68, 120), n_frames=4)]).scheduler
        'shed'
        """
        if not streams:
            raise ValueError("need at least one stream")
        outcome = self.coster.serve(
            streams, scheduler=self.scheduler, quality=self.quality
        )
        return EngineReport.from_serve(
            self.backend.name, streams, outcome, self.backend.cache_info()
        )
