"""Cluster reports: fleet-level aggregation of per-backend serving runs.

A cluster run produces one :class:`~repro.pipeline.report.EngineReport`
per backend shard (exactly the single-backend report — the degenerate
one-backend cluster is bit-identical to :class:`~repro.pipeline.engine.
StreamEngine`) plus the fleet view this module adds: where every
stream was placed, how hot each backend ran relative to the cluster
makespan, and the cluster-level throughput/tail numbers a capacity
decision needs.

Chaos runs (:mod:`repro.cluster.faults`) attach a
:class:`ResilienceStats` ledger on top: every fault, retry, migration
and scale event that happened, per-stream downtime / failover latency
/ retry counts, and the degraded-window latency envelope.  Ordinary
fault-free runs leave :attr:`ClusterReport.resilience` as ``None``, so
the historical report (and its regression pins) is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pipeline.report import (
    EngineReport,
    StreamStats,
    _quality_cells,
    _weighted_quality_mean,
)
from repro.tables import render_table

__all__ = [
    "BackendShard",
    "ClusterReport",
    "FaultEvent",
    "ResilienceStats",
    "StreamResilience",
    "format_cluster_report",
    "format_policy_comparison",
    "format_cluster_quality",
    "format_resilience",
]


@dataclass(frozen=True)
class BackendShard:
    """One backend's slice of a cluster run.

    ``label`` distinguishes repeated instances of the same backend
    type (``systolic:0``, ``systolic:1``); ``report`` is the ordinary
    single-backend :class:`~repro.pipeline.report.EngineReport` over
    the streams placed on this shard; ``utilization`` is the shard's
    busy time divided by the *cluster* makespan, so an idle shard
    shows up as head-room rather than vanishing from the ledger.

    >>> from repro.cache import CacheInfo
    >>> report = EngineReport(backend="gpu", streams=[], total_frames=0,
    ...                       makespan_s=0.0, aggregate_fps=0.0,
    ...                       mean_service_s=0.0, cache=CacheInfo(0, 0, 0, 0))
    >>> BackendShard(label="gpu:0", report=report, utilization=0.0).idle
    True
    """

    label: str
    report: EngineReport
    utilization: float

    @property
    def idle(self) -> bool:
        """Whether no stream was placed on this shard."""
        return self.report.total_frames == 0


@dataclass(frozen=True)
class FaultEvent:
    """One timestamped entry in a chaos run's event ledger.

    ``kind`` is one of ``crash`` / ``migrate`` / ``flaky-fail`` /
    ``retry-drop`` / ``slowdown-start`` / ``slowdown-end`` /
    ``scale-up`` / ``scale-down``; ``shard`` the backend label it
    happened on (the *new* shard for a migration), ``stream`` the
    affected stream (empty for fleet-level events), and ``detail`` a
    short human-readable annotation.

    >>> FaultEvent(0.5, "crash", "gpu:0").kind
    'crash'
    """

    time_s: float
    kind: str
    shard: str
    stream: str = ""
    detail: str = ""


@dataclass(frozen=True)
class StreamResilience:
    """One stream's fault bookkeeping over a chaos run.

    ``migrations`` counts shard changes (crash failover and autoscale
    rebalancing alike); ``retries`` counts flaky-fault service
    attempts that failed and were retried; ``downtime_s`` sums the
    gaps between a crash and this stream's first completion on its new
    shard, and ``failover_latency_s`` is the worst single such gap
    (0.0 for a stream that never migrated off a crashed shard).
    """

    stream: str
    migrations: int = 0
    retries: int = 0
    downtime_s: float = 0.0
    failover_latency_s: float = 0.0


@dataclass(frozen=True)
class ResilienceStats:
    """The fleet-level fault ledger a chaos run attaches to its report.

    ``events`` is the full time-ordered event history; ``streams`` the
    per-stream bookkeeping (one entry per served stream, in placement
    order).  ``degraded_windows`` are the ``(start_s, end_s)`` spans
    the fault schedule declared degraded — a slowdown/flaky fault's
    active window, a crash's span from the crash to the last affected
    stream's failover — and the two p99 figures split every served
    frame's completion into inside/outside those windows, so "bounded
    degradation" is a checkable claim rather than a slogan.
    """

    events: tuple[FaultEvent, ...]
    streams: tuple[StreamResilience, ...]
    replicas_added: int = 0
    replicas_removed: int = 0
    degraded_windows: tuple[tuple[float, float], ...] = ()
    #: p99 latency over frames completing inside the degraded windows
    #: (0.0 when no frame completed there)
    degraded_p99_ms: float = 0.0
    #: p99 latency over frames completing outside the degraded windows
    steady_p99_ms: float = 0.0

    @property
    def total_retries(self) -> int:
        """Failed-and-retried service attempts across the fleet."""
        return sum(s.retries for s in self.streams)

    @property
    def total_migrations(self) -> int:
        """Stream migrations across the fleet (failover + rebalance)."""
        return sum(s.migrations for s in self.streams)

    @property
    def worst_failover_latency_s(self) -> float:
        """The slowest crash-to-first-completion gap of any stream."""
        return max((s.failover_latency_s for s in self.streams), default=0.0)

    @property
    def crashes(self) -> int:
        """Backend crashes the schedule injected."""
        return sum(e.kind == "crash" for e in self.events)

    def events_of(self, kind: str) -> tuple[FaultEvent, ...]:
        """The ledger filtered to one event kind, in time order."""
        return tuple(e for e in self.events if e.kind == kind)


@dataclass(frozen=True)
class ClusterReport:
    """Outcome of serving a set of streams on a backend fleet.

    The fleet makespan is the slowest shard's makespan (shards serve
    their queues concurrently); aggregate fps, the per-stream stats,
    and the sustainable-stream capacity aggregate over every shard.

    >>> from repro.cluster import ClusterEngine
    >>> from repro.pipeline import FrameStream
    >>> report = ClusterEngine(["gpu", "gpu"]).run(
    ...     [FrameStream(f"cam{i}", size=(68, 120), n_frames=4)
    ...      for i in range(2)])
    >>> report.placement
    (('cam0', 'gpu:0'), ('cam1', 'gpu:1'))
    >>> report.total_frames
    8
    """

    policy: str
    shards: tuple[BackendShard, ...]
    #: ``(stream name, shard label)`` pairs, in original stream order
    placement: tuple[tuple[str, str], ...]
    total_frames: int
    makespan_s: float
    #: the service discipline every shard ran (``docs/scheduling.md``)
    scheduler: str = "fifo"
    #: fault/failover/autoscale ledger of a chaos run
    #: (``docs/resilience.md``); ``None`` for ordinary fault-free runs
    resilience: ResilienceStats | None = None

    @property
    def aggregate_fps(self) -> float:
        """Frames served per second of cluster makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_frames / self.makespan_s

    @property
    def offered_frames(self) -> int:
        """Frames that arrived fleet-wide: served plus dropped."""
        return self.total_frames + self.dropped_frames

    @property
    def dropped_frames(self) -> int:
        """Frames admission control removed anywhere in the fleet."""
        return sum(shard.report.dropped_frames for shard in self.shards)

    @property
    def missed_deadlines(self) -> int:
        """Fleet-wide deadline misses (drops count as misses)."""
        return sum(shard.report.missed_deadlines for shard in self.shards)

    @property
    def deadline_miss_rate(self) -> float:
        """Missed fraction of offered frames across the fleet."""
        offered = self.offered_frames
        return self.missed_deadlines / offered if offered else 0.0

    @property
    def drop_rate(self) -> float:
        """Dropped fraction of offered frames across the fleet."""
        offered = self.offered_frames
        return self.dropped_frames / offered if offered else 0.0

    @property
    def worst_lateness_ms(self) -> float:
        """The worst completion lateness anywhere in the fleet."""
        return max(
            (s.worst_lateness_ms for s in self.stream_stats), default=0.0
        )

    @property
    def probed_streams(self) -> list[StreamStats]:
        """Fleet-wide streams carrying a depth-quality sample."""
        return [s for s in self.stream_stats if s.quality is not None]

    @property
    def bad_pixel_rate(self) -> float | None:
        """Probed fleet bad-pixel fraction, weighted by scored frames.

        ``None`` when the run carried no quality probe.  Shares the
        engine report's aggregation helper, so the two layers can
        never diverge.
        """
        return _weighted_quality_mean(self.stream_stats, "bad_pixel_rate")

    @property
    def epe_px(self) -> float | None:
        """Probed fleet end-point error, weighted by scored frames."""
        return _weighted_quality_mean(self.stream_stats, "epe_px")

    @property
    def stream_stats(self) -> list[StreamStats]:
        """Every stream's statistics, in original placement order."""
        by_name = {
            s.stream: s for shard in self.shards for s in shard.report.streams
        }
        return [by_name[name] for name, _label in self.placement]

    @property
    def worst_p99_ms(self) -> float:
        """The worst per-stream p99 latency anywhere in the fleet."""
        return max(s.p99_ms for s in self.stream_stats)

    def sustainable_streams(self, target_fps: float = 30.0) -> int:
        """Camera streams the fleet sustains at ``target_fps``.

        The sum of every shard's capacity bound.  Shards that served
        no frames contribute zero — an observed mean service time is
        required; use :func:`~repro.cluster.planner.plan_capacity` for
        model-driven (rather than run-driven) sizing.
        """
        return sum(
            shard.report.sustainable_streams(target_fps)
            for shard in self.shards
        )

    def shard_for(self, stream_name: str) -> str:
        """The shard label a stream was placed on.

        >>> from repro.cluster import ClusterEngine
        >>> from repro.pipeline import FrameStream
        >>> report = ClusterEngine(["gpu"]).run(
        ...     [FrameStream("cam", size=(68, 120), n_frames=2)])
        >>> report.shard_for("cam")
        'gpu:0'
        """
        for name, label in self.placement:
            if name == stream_name:
                return label
        raise KeyError(f"no stream {stream_name!r} in this run")


def format_cluster_report(report: ClusterReport) -> str:
    """Two tables: per-stream latencies (with shard) + shard summary.

    >>> from repro.cluster import ClusterEngine
    >>> from repro.pipeline import FrameStream
    >>> run = ClusterEngine(["gpu"]).run(
    ...     [FrameStream("cam", size=(68, 120), n_frames=2)])
    >>> text = format_cluster_report(run)
    >>> "gpu:0" in text and "util" in text
    True
    """
    placed = dict(report.placement)
    with_quality = bool(report.probed_streams)
    stream_rows = []
    for s in report.stream_stats:
        row = [s.stream, placed[s.stream], s.frames, s.key_frames,
               s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms,
               s.missed_deadlines, s.dropped_frames]
        if with_quality:
            row += _quality_cells(s)
        stream_rows.append(row)
    headers = ["stream", "shard", "frames", "keys",
               "mean ms", "p50 ms", "p95 ms", "p99 ms", "miss", "drop"]
    if with_quality:
        headers += ["bad px %", "epe px"]
    streams_table = render_table(
        f"Cluster serving ({report.policy}, {report.scheduler}) — "
        f"{report.aggregate_fps:.1f} fps aggregate over "
        f"{len(report.shards)} backends",
        headers,
        stream_rows,
    )
    shard_rows = [
        [shard.label, len(shard.report.streams), shard.report.total_frames,
         shard.report.makespan_s, shard.utilization,
         shard.report.cache.misses]
        for shard in report.shards
    ]
    shards_table = render_table(
        "Backend shards",
        ["shard", "streams", "frames", "makespan s", "util",
         "schedules solved"],
        shard_rows,
    )
    text = f"{streams_table}\n\n{shards_table}"
    if report.resilience is not None:
        text += f"\n\n{format_resilience(report.resilience)}"
    return text


def format_resilience(stats: ResilienceStats | None) -> str:
    """Per-stream fault ledger + the fleet degradation envelope.

    ``None`` (a report from the plain, fault-free engine) renders as
    the empty string so callers can append unconditionally.

    >>> format_resilience(None)
    ''
    >>> stats = ResilienceStats(
    ...     events=(FaultEvent(0.5, "crash", "gpu:0"),),
    ...     streams=(StreamResilience("cam", migrations=1, retries=2,
    ...                               downtime_s=0.1,
    ...                               failover_latency_s=0.1),),
    ...     degraded_p99_ms=12.0, steady_p99_ms=4.0)
    >>> "failover" in format_resilience(stats)
    True
    """
    if stats is None:
        return ""
    rows = [
        [s.stream, s.migrations, s.retries, 1e3 * s.downtime_s,
         1e3 * s.failover_latency_s]
        for s in stats.streams
    ]
    table = render_table(
        f"Resilience — {stats.crashes} crashes, "
        f"{stats.total_migrations} migrations, "
        f"{stats.total_retries} retries, "
        f"+{stats.replicas_added}/-{stats.replicas_removed} replicas",
        ["stream", "migrations", "retries", "downtime ms", "failover ms"],
        rows,
    )
    return (
        f"{table}\n"
        f"degraded-window p99 {stats.degraded_p99_ms:.2f} ms over "
        f"{len(stats.degraded_windows)} windows; "
        f"steady p99 {stats.steady_p99_ms:.2f} ms"
    )


def format_policy_comparison(
    reports: list[ClusterReport], target_fps: float = 30.0
) -> str:
    """One row per placement policy over the same streams and fleet.

    >>> from repro.cluster import ClusterEngine
    >>> from repro.pipeline import FrameStream
    >>> streams = [FrameStream("cam", size=(68, 120), n_frames=2)]
    >>> run = ClusterEngine(["gpu"]).run(streams)
    >>> "policy" in format_policy_comparison([run])
    True
    """
    rows = [
        [r.policy, len(r.shards), r.total_frames, r.aggregate_fps,
         r.worst_p99_ms, max(s.utilization for s in r.shards),
         r.deadline_miss_rate, r.drop_rate,
         r.sustainable_streams(target_fps)]
        for r in reports
    ]
    return render_table(
        f"Placement policies at {target_fps:.0f} fps target",
        ["policy", "backends", "frames", "agg fps",
         "worst p99 ms", "max util", "miss rate", "drop rate",
         f"streams@{target_fps:.0f}fps"],
        rows,
    )


def format_cluster_quality(report: ClusterReport) -> str:
    """Fleet quality-vs-latency summary: accuracy next to the tail.

    One row per probed stream — shard, latency tail, drops, and the
    depth accuracy the placement/scheduling combination delivered —
    so a fleet's p99 win can be judged against its accuracy cost
    (``docs/quality.md``).

    >>> from repro.cluster import ClusterEngine
    >>> from repro.pipeline import QualityProbe, sceneflow_stream
    >>> run = ClusterEngine(["gpu"], quality=QualityProbe(
    ...     matcher="bm", max_disp=16)).run(
    ...     [sceneflow_stream(seed=3, size=(32, 48), n_frames=3,
    ...                       max_disp=16, mode="baseline")])
    >>> "epe px" in format_cluster_quality(run)
    True
    """
    probed = report.probed_streams
    if not probed:
        raise ValueError(
            "cluster report carries no quality samples; run the engine "
            "with quality= (and pixel-carrying streams) first"
        )
    placed = dict(report.placement)
    fmt = lambda v: "-" if v is None else v
    rows = [
        [s.stream, placed[s.stream], s.quality.n_frames, s.key_frames,
         s.dropped_frames, s.p99_ms, 100.0 * s.bad_pixel_rate, s.epe_px,
         fmt(s.quality.stale_epe_px)]
        for s in probed
    ]
    return render_table(
        f"Fleet quality vs latency ({report.policy}, {report.scheduler}, "
        f"matcher {probed[0].quality.matcher!r}) — "
        f"miss rate {report.deadline_miss_rate:.0%}, "
        f"drop rate {report.drop_rate:.0%}",
        ["stream", "shard", "scored", "keys", "drop", "p99 ms",
         "bad px %", "epe px", "stale epe"],
        rows,
    )
