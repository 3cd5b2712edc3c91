"""The cluster engine: N camera streams across M heterogeneous backends.

The scaling step past :class:`~repro.pipeline.engine.StreamEngine`:
instead of one shared accelerator, a fleet — e.g. two systolic arrays,
an Eyeriss-class array, and a mobile GPU — where a placement policy
shards the streams and every shard then runs the *same* per-frame
costing and FIFO simulation (:class:`~repro.pipeline.costing.
FrameCoster`) the single-backend engine uses.  A one-backend cluster
therefore reproduces ``StreamEngine`` exactly (regression-tested), and
everything the fleet adds — placement, per-shard utilization,
cluster-level throughput — layers on top in :class:`~repro.cluster.
report.ClusterReport`.

Shards serve their queues concurrently (separate hardware), so the
cluster makespan is the slowest shard's makespan and the aggregate
frame rate is total frames over that.  See ``docs/serving.md`` for
policy selection guidance and ``docs/architecture.md`` for where this
layer sits.
"""

from __future__ import annotations

from typing import Sequence

from repro.backends.base import ExecutionBackend
from repro.backends.registry import get_backend
from repro.cluster.policies import PlacementPolicy, get_policy
from repro.cluster.report import BackendShard, ClusterReport
from repro.pipeline.costing import FrameCoster
from repro.pipeline.quality import QualityProbe
from repro.pipeline.report import EngineReport
from repro.pipeline.schedulers import FrameScheduler, get_scheduler
from repro.pipeline.stream import FrameStream

__all__ = ["ClusterEngine"]


class ClusterEngine:
    """Shards camera streams across a fleet of execution backends.

    ``backends`` mixes names and instances freely — names construct
    fresh instances through the registry, and repeated types get
    distinct shard labels (``systolic:0``, ``systolic:1``).
    ``policy`` is a registered policy name or a
    :class:`~repro.cluster.policies.PlacementPolicy` instance.
    ``scheduler`` — a registered name or a :class:`~repro.pipeline.
    schedulers.FrameScheduler` — is the service discipline every shard
    runs (``fifo`` by default; see ``docs/scheduling.md``).
    ``quality`` — a :class:`~repro.pipeline.quality.QualityProbe`, or
    ``True`` for the default probe — scores every shard's depth
    accuracy by replaying its served decisions through the real
    pipeline (``docs/quality.md``).

    >>> from repro.pipeline import FrameStream
    >>> engine = ClusterEngine(["gpu", "gpu"], policy="round-robin")
    >>> [shard_label for shard_label in engine.labels]
    ['gpu:0', 'gpu:1']
    >>> report = engine.run([FrameStream(f"cam{i}", size=(68, 120),
    ...                                  n_frames=4) for i in range(3)])
    >>> report.placement
    (('cam0', 'gpu:0'), ('cam1', 'gpu:1'), ('cam2', 'gpu:0'))
    >>> ClusterEngine(["gpu"], scheduler="edf").scheduler.name
    'edf'
    """

    def __init__(
        self,
        backends: Sequence[str | ExecutionBackend],
        policy: str | PlacementPolicy = "least-loaded",
        scheduler: str | FrameScheduler = "fifo",
        quality: QualityProbe | bool | None = None,
    ) -> None:
        if not backends:
            raise ValueError("a cluster needs at least one backend")
        self.backends = [
            get_backend(b) if isinstance(b, str) else b for b in backends
        ]
        self.costers = [FrameCoster(b) for b in self.backends]
        self.labels = self._label_backends(self.backends)
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        if isinstance(scheduler, str):
            scheduler = get_scheduler(scheduler)
        self.scheduler = scheduler
        if quality is True:
            quality = QualityProbe()
        self.quality = quality or None

    @staticmethod
    def _label_backends(backends: Sequence[ExecutionBackend]) -> list[str]:
        """Stable per-instance labels: ``name:index-within-name``."""
        counts: dict[str, int] = {}
        labels = []
        for backend in backends:
            n = counts.get(backend.name, 0)
            counts[backend.name] = n + 1
            labels.append(f"{backend.name}:{n}")
        return labels

    @staticmethod
    def _checked_streams(streams: Sequence[FrameStream]) -> list[FrameStream]:
        """``streams`` as a list, refusing an empty run or a repeated name."""
        streams = list(streams)
        if not streams:
            raise ValueError("need at least one stream")
        names = [s.name for s in streams]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                f"stream names must be unique within a cluster run "
                f"(placement and reports are keyed by name); duplicates: "
                f"{dupes}"
            )
        return streams

    def place(self, streams: Sequence[FrameStream]) -> list[int]:
        """The policy's placement: one backend index per stream.

        >>> from repro.pipeline import FrameStream
        >>> engine = ClusterEngine(["gpu", "gpu"], policy="round-robin")
        >>> engine.place([FrameStream(f"cam{i}", size=(68, 120))
        ...               for i in range(4)])
        [0, 1, 0, 1]
        """
        placement = self.policy.assign(streams, self.costers)
        if len(placement) != len(streams):
            raise ValueError(
                f"policy {self.policy.name!r} placed {len(placement)} of "
                f"{len(streams)} streams"
            )
        for index in placement:
            if not 0 <= index < len(self.backends):
                raise ValueError(
                    f"policy {self.policy.name!r} produced backend index "
                    f"{index}, outside the fleet of {len(self.backends)}"
                )
        return placement

    def run(self, streams: Sequence[FrameStream]) -> ClusterReport:
        """Place and serve every stream; return the fleet report.

        >>> from repro.pipeline import FrameStream
        >>> report = ClusterEngine(["gpu"]).run(
        ...     [FrameStream("cam", size=(68, 120), n_frames=4)])
        >>> report.total_frames, len(report.shards)
        (4, 1)
        """
        streams = self._checked_streams(streams)
        placement = self.place(streams)

        groups: list[list[FrameStream]] = [[] for _ in self.backends]
        for stream, index in zip(streams, placement):
            groups[index].append(stream)

        outcomes = [
            coster.serve(group, scheduler=self.scheduler, quality=self.quality)
            for coster, group in zip(self.costers, groups)
        ]
        makespan = max(o.makespan_s for o in outcomes)

        shards = tuple(
            BackendShard(
                label=label,
                report=EngineReport.from_serve(
                    backend.name, group, outcome, backend.cache_info()
                ),
                utilization=outcome.busy_s / makespan if makespan > 0 else 0.0,
            )
            for label, backend, group, outcome in zip(
                self.labels, self.backends, groups, outcomes
            )
        )
        return ClusterReport(
            policy=self.policy.name,
            scheduler=self.scheduler.name,
            shards=shards,
            placement=tuple(
                (stream.name, self.labels[index])
                for stream, index in zip(streams, placement)
            ),
            total_frames=sum(o.total_frames for o in outcomes),
            makespan_s=makespan,
        )
