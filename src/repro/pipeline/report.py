"""Serving reports: per-stream latency percentiles + aggregate throughput.

A stream deployment is judged by its tail, not its mean — SceneScan-
class stereo systems advertise sustained frames per second and bounded
worst-case latency.  :class:`EngineReport` therefore carries p50/p95/
p99 per stream, the aggregate frame rate over the run's makespan, the
backend's busy fraction (utilization), and the number of camera
streams the backend could sustain at a target rate given the observed
mean service time.  The cluster layer aggregates these per-backend
reports into a :class:`~repro.cluster.report.ClusterReport`.

Deadline-aware serving (``docs/scheduling.md``) adds quality-of-
service accounting on top: each :class:`StreamStats` carries the mean
queueing wait (so tail latency can be attributed to waiting vs
service), the stream's deadline misses, dropped frames, and worst-
case completion lateness; the report aggregates these into
:attr:`EngineReport.deadline_miss_rate` / :attr:`EngineReport.
drop_rate` over *offered* frames (a dropped frame counts as a miss).

Depth accuracy rides along when the run was served with a
``quality=`` probe (``docs/quality.md``): probed streams carry a
:class:`~repro.pipeline.quality.StreamQuality` sample (bad-pixel rate
and end-point error from the *real* pipeline), the report aggregates
them into :attr:`EngineReport.bad_pixel_rate` / :attr:`EngineReport.
epe_px`, and :func:`format_quality_report` renders the quality-vs-
latency summary the scheduler trade-offs are judged by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cache import CacheInfo
from repro.pipeline.quality import StreamQuality
from repro.tables import render_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.pipeline.costing import ServeOutcome
    from repro.pipeline.stream import FrameStream

__all__ = [
    "StreamStats",
    "EngineReport",
    "format_report",
    "format_backend_comparison",
    "format_quality_report",
]


def _weighted_quality_mean(
    stream_stats: Sequence["StreamStats"], attr: str
) -> float | None:
    """Frame-weighted mean of a quality attribute over probed streams.

    Shared by the engine and cluster reports so the two aggregation
    semantics can never diverge.  ``None`` when nothing was probed.
    """
    probed = [s for s in stream_stats if s.quality is not None]
    total = sum(s.quality.n_frames for s in probed)
    if not total:
        return None
    return (
        sum(getattr(s.quality, attr) * s.quality.n_frames for s in probed)
        / total
    )


def _quality_cells(stats: "StreamStats") -> list:
    """The two accuracy cells of a stream row (``-`` when unprobed)."""
    if stats.quality is None:
        return ["-", "-"]
    return [100.0 * stats.bad_pixel_rate, stats.epe_px]


@dataclass(frozen=True)
class StreamStats:
    """Latency statistics of one camera stream over a run.

    ``frames`` counts frames actually served; ``dropped_frames``
    counts frames admission control removed.  ``missed_deadlines``
    covers late completions *and* drops, and ``worst_lateness_ms`` is
    the worst completion lateness over served frames.  ``mean_wait_ms``
    attributes the mean latency to queueing (the rest is service).

    >>> stats = StreamStats.from_latencies("cam", [0.010, 0.020], 1)
    >>> stats.frames, stats.key_frames, round(stats.mean_ms, 1)
    (2, 1, 15.0)
    """

    stream: str
    frames: int
    key_frames: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    mean_wait_ms: float = 0.0
    missed_deadlines: int = 0
    dropped_frames: int = 0
    worst_lateness_ms: float = 0.0
    #: depth-accuracy sample when the run carried a quality probe
    quality: StreamQuality | None = None

    @classmethod
    def from_latencies(
        cls,
        stream: str,
        latencies_s: Sequence[float],
        key_frames: int,
        waits_s: Sequence[float] = (),
        missed_deadlines: int = 0,
        dropped_frames: int = 0,
        worst_lateness_s: float = 0.0,
        quality: StreamQuality | None = None,
    ) -> "StreamStats":
        """Summarize raw per-frame latencies (seconds) into statistics.

        A stream whose every frame was dropped reports zero latency
        statistics (there are no completions to summarize) but keeps
        its drop and miss counts.

        >>> StreamStats.from_latencies("cam", [0.004] * 10, 2).p99_ms
        4.0
        >>> StreamStats.from_latencies("cam", [0.004], 1,
        ...                            waits_s=[0.001]).mean_wait_ms
        1.0
        """
        lat_ms = 1e3 * np.asarray(latencies_s, dtype=np.float64)
        if lat_ms.size:
            p50, p95, p99 = np.percentile(lat_ms, [50.0, 95.0, 99.0])
            mean, peak = float(lat_ms.mean()), float(lat_ms.max())
        else:
            p50 = p95 = p99 = mean = peak = 0.0
        waits_ms = 1e3 * np.asarray(waits_s, dtype=np.float64)
        return cls(
            stream=stream,
            frames=int(lat_ms.size),
            key_frames=key_frames,
            mean_ms=mean,
            p50_ms=float(p50),
            p95_ms=float(p95),
            p99_ms=float(p99),
            max_ms=peak,
            mean_wait_ms=float(waits_ms.mean()) if waits_ms.size else 0.0,
            missed_deadlines=missed_deadlines,
            dropped_frames=dropped_frames,
            worst_lateness_ms=1e3 * worst_lateness_s,
            quality=quality,
        )

    @property
    def offered_frames(self) -> int:
        """Frames that arrived for this stream: served plus dropped."""
        return self.frames + self.dropped_frames

    @property
    def bad_pixel_rate(self) -> float | None:
        """Probed bad-pixel fraction (``None`` without a quality sample)."""
        return self.quality.bad_pixel_rate if self.quality else None

    @property
    def epe_px(self) -> float | None:
        """Probed mean end-point error (``None`` without a sample)."""
        return self.quality.epe_px if self.quality else None


@dataclass(frozen=True)
class EngineReport:
    """Outcome of serving a set of streams on one backend.

    >>> from repro.cache import CacheInfo
    >>> report = EngineReport(backend="toy", streams=[], total_frames=60,
    ...                       makespan_s=2.0, aggregate_fps=30.0,
    ...                       mean_service_s=0.001,
    ...                       cache=CacheInfo(0, 0, 0, 0), busy_s=0.06)
    >>> report.utilization
    0.03
    """

    backend: str
    streams: list[StreamStats]
    total_frames: int
    makespan_s: float
    aggregate_fps: float
    mean_service_s: float
    cache: CacheInfo
    busy_s: float = 0.0
    scheduler: str = "fifo"
    missed_deadlines: int = 0
    dropped_frames: int = 0

    @classmethod
    def from_serve(
        cls,
        backend: str,
        streams: Sequence["FrameStream"],
        outcome: "ServeOutcome",
        cache: CacheInfo,
    ) -> "EngineReport":
        """Build the report from a :class:`~repro.pipeline.costing.
        ServeOutcome` (the raw simulation result).

        >>> from repro.backends import get_backend
        >>> from repro.pipeline import FrameStream
        >>> from repro.pipeline.costing import FrameCoster
        >>> backend = get_backend("gpu")
        >>> coster = FrameCoster(backend)
        >>> streams = [FrameStream("cam", size=(68, 120), n_frames=4)]
        >>> report = EngineReport.from_serve(
        ...     "gpu", streams, coster.serve(streams), backend.cache_info())
        >>> report.total_frames
        4
        """
        n = len(streams)
        waits = outcome.waits_s or ((),) * n
        missed = outcome.missed_deadlines or (0,) * n
        dropped = outcome.dropped_frames or (0,) * n
        lateness = outcome.worst_lateness_s or (0.0,) * n
        quality = outcome.quality or (None,) * n
        return cls(
            backend=backend,
            streams=[
                StreamStats.from_latencies(
                    s.name, lat, keys,
                    waits_s=wait, missed_deadlines=miss,
                    dropped_frames=drop, worst_lateness_s=late,
                    quality=qual,
                )
                for s, lat, keys, wait, miss, drop, late, qual in zip(
                    streams, outcome.latencies_s, outcome.key_counts,
                    waits, missed, dropped, lateness, quality,
                )
            ],
            total_frames=outcome.total_frames,
            makespan_s=outcome.makespan_s,
            aggregate_fps=outcome.aggregate_fps,
            mean_service_s=outcome.mean_service_s,
            cache=cache,
            busy_s=outcome.busy_s,
            scheduler=outcome.scheduler,
            missed_deadlines=sum(missed),
            dropped_frames=sum(dropped),
        )

    def sustainable_streams(self, target_fps: float = 30.0) -> int:
        """Camera streams the backend sustains at ``target_fps`` given
        the observed mean per-frame service time (capacity bound).

        >>> from repro.cache import CacheInfo
        >>> report = EngineReport(backend="toy", streams=[], total_frames=1,
        ...                       makespan_s=1.0, aggregate_fps=1.0,
        ...                       mean_service_s=0.001,
        ...                       cache=CacheInfo(0, 0, 0, 0))
        >>> report.sustainable_streams(30.0)
        33
        """
        if target_fps <= 0:
            raise ValueError("target fps must be positive")
        if self.mean_service_s <= 0:
            return 0
        return int(1.0 / (target_fps * self.mean_service_s))

    @property
    def utilization(self) -> float:
        """Busy fraction of the run's makespan (0.0 for an empty run)."""
        if self.makespan_s <= 0:
            return 0.0
        return self.busy_s / self.makespan_s

    @property
    def worst_p99_ms(self) -> float:
        """The worst per-stream p99 latency — the deployment's tail.

        0.0 for a report with no streams (an idle cluster shard).
        """
        if not self.streams:
            return 0.0
        return max(s.p99_ms for s in self.streams)

    @property
    def offered_frames(self) -> int:
        """Frames that arrived during the run: served plus dropped."""
        return self.total_frames + self.dropped_frames

    @property
    def deadline_miss_rate(self) -> float:
        """Missed fraction of offered frames (drops count as misses).

        0.0 when the streams carry no deadlines (nothing can miss).
        """
        offered = self.offered_frames
        return self.missed_deadlines / offered if offered else 0.0

    @property
    def drop_rate(self) -> float:
        """Dropped fraction of offered frames (0.0 for an empty run)."""
        offered = self.offered_frames
        return self.dropped_frames / offered if offered else 0.0

    @property
    def worst_lateness_ms(self) -> float:
        """The worst completion lateness anywhere in the run."""
        if not self.streams:
            return 0.0
        return max(s.worst_lateness_ms for s in self.streams)

    @property
    def probed_streams(self) -> list[StreamStats]:
        """Streams that carry a depth-quality sample."""
        return [s for s in self.streams if s.quality is not None]

    @property
    def bad_pixel_rate(self) -> float | None:
        """Probed bad-pixel fraction, weighted by scored frames.

        ``None`` when the run carried no quality probe (the analytic
        reports stay purely latency-shaped).
        """
        return _weighted_quality_mean(self.streams, "bad_pixel_rate")

    @property
    def epe_px(self) -> float | None:
        """Probed mean end-point error, weighted by scored frames."""
        return _weighted_quality_mean(self.streams, "epe_px")


def format_report(report: EngineReport) -> str:
    """Per-stream latency table for one backend run.

    When the run carried a quality probe, two accuracy columns (bad-
    pixel percentage and end-point error) join the latency columns;
    cost-only runs render the historical latency-only table.

    >>> from repro.pipeline import FrameStream, StreamEngine
    >>> report = StreamEngine("gpu").run(
    ...     [FrameStream("cam", size=(68, 120), n_frames=4)])
    >>> "p99 ms" in format_report(report)
    True
    """
    with_quality = bool(report.probed_streams)
    rows = []
    for s in report.streams:
        row = [s.stream, s.frames, s.key_frames, s.mean_ms, s.mean_wait_ms,
               s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms,
               s.missed_deadlines, s.dropped_frames]
        if with_quality:
            row += _quality_cells(s)
        rows.append(row)
    headers = ["stream", "frames", "keys", "mean ms", "wait ms",
               "p50 ms", "p95 ms", "p99 ms", "max ms", "miss", "drop"]
    if with_quality:
        headers += ["bad px %", "epe px"]
    table = render_table(
        f"Stream serving on {report.backend!r} ({report.scheduler}) — "
        f"{report.aggregate_fps:.1f} fps aggregate, "
        f"{report.cache.misses} schedules solved",
        headers,
        rows,
    )
    return table


def format_backend_comparison(
    reports: list[EngineReport], target_fps: float = 30.0
) -> str:
    """Streams-vs-backend throughput table across engine runs.

    >>> from repro.pipeline import FrameStream, StreamEngine
    >>> report = StreamEngine("gpu").run(
    ...     [FrameStream("cam", size=(68, 120), n_frames=4)])
    >>> "streams@30fps" in format_backend_comparison([report])
    True
    """
    rows = [
        [r.backend, len(r.streams), r.total_frames, r.aggregate_fps,
         r.worst_p99_ms, r.sustainable_streams(target_fps)]
        for r in reports
    ]
    return render_table(
        f"Multi-stream serving — backends at {target_fps:.0f} fps target",
        ["backend", "streams", "frames", "agg fps",
         "worst p99 ms", f"streams@{target_fps:.0f}fps"],
        rows,
    )


def format_quality_report(report: EngineReport) -> str:
    """Quality-vs-latency summary of a probed run.

    One row per probed stream: the latency tail and QoS outcome next
    to the depth accuracy it bought, with the EPE attributed to key /
    non-key / stale frames.  This is the table the scheduler
    trade-offs are judged by — a ``shed`` p99 win means nothing until
    it sits next to the staleness it cost (``docs/quality.md``).

    >>> from repro.pipeline import (QualityProbe, StreamEngine,
    ...                             sceneflow_stream)
    >>> report = StreamEngine("gpu", quality=QualityProbe(
    ...     matcher="bm", max_disp=16)).run(
    ...     [sceneflow_stream(seed=3, size=(32, 48), n_frames=3,
    ...                       max_disp=16, mode="baseline")])
    >>> "epe px" in format_quality_report(report)
    True
    """
    probed = report.probed_streams
    if not probed:
        raise ValueError(
            "report carries no quality samples; serve with quality= "
            "(and pixel-carrying streams) first"
        )
    fmt = lambda v: "-" if v is None else v
    rows = [
        [s.stream, s.quality.n_frames, s.key_frames, s.dropped_frames,
         s.p99_ms, 100.0 * s.bad_pixel_rate, s.epe_px,
         fmt(s.quality.key_epe_px), fmt(s.quality.nonkey_epe_px),
         fmt(s.quality.stale_epe_px)]
        for s in probed
    ]
    return render_table(
        f"Quality vs latency on {report.backend!r} ({report.scheduler}, "
        f"matcher {probed[0].quality.matcher!r}) — "
        f"miss rate {report.deadline_miss_rate:.0%}, "
        f"drop rate {report.drop_rate:.0%}",
        ["stream", "scored", "keys", "drop", "p99 ms", "bad px %",
         "epe px", "key epe", "nonkey epe", "stale epe"],
        rows,
    )
