"""Reusable per-frame costing and the service-simulation entry point.

This module is the cost core that :class:`~repro.pipeline.engine.
StreamEngine` (one backend) and :class:`~repro.cluster.engine.
ClusterEngine` (a fleet of backends) share.  It answers three
questions about a :class:`~repro.pipeline.stream.FrameStream` on one
:class:`~repro.backends.base.ExecutionBackend`:

* *which frames are key frames?* — :func:`plan_keys` replays the
  stream's key-frame policy (see ``docs/serving.md``);
* *what does one frame cost?* — :meth:`FrameCoster.key_frame_seconds`
  and :meth:`FrameCoster.nonkey_frame_seconds`, with execution modes
  degraded along :data:`MODE_FALLBACK` to what the backend supports;
* *what happens when frames queue?* — :meth:`FrameCoster.serve`, the
  analytic discrete-event simulation, returning a
  :class:`ServeOutcome`.

The service discipline itself is pluggable: :meth:`FrameCoster.serve`
delegates the event loop to a :class:`~repro.pipeline.schedulers.
FrameScheduler` (``fifo`` by default, bit-exact with the historical
FIFO-only simulation; ``edf`` / ``priority`` / ``shed`` for
deadline-aware serving — see ``docs/scheduling.md``).

Because both engines route every frame through the same
:class:`FrameCoster`, a one-backend cluster reproduces the
single-backend engine *exactly* (this is regression-tested).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.backends.base import ExecutionBackend
from repro.pipeline.stream import FrameStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.pipeline.quality import QualityProbe, StreamQuality
    from repro.pipeline.schedulers import FrameScheduler

__all__ = ["MODE_FALLBACK", "FrameCoster", "ServeOutcome", "plan_keys"]

#: Mode degradation order: each entry falls back to the ones after it.
MODE_FALLBACK = ("ilar", "convr", "dct", "baseline")


def plan_keys(stream: FrameStream, supports_ism: bool = True) -> list[bool]:
    """Key/non-key decision for every frame of ``stream``.

    Replays a fresh instance of the stream's key-frame policy over the
    frame indices (policies are stateful, so the policy sees every
    frame even when frame 0 is forced key).  On a backend without ISM
    support every frame is a key frame.

    When a stateful policy says *non-key* for frame 0, the frame is
    still forced key (there is nothing to propagate from) and the
    policy is told through its optional ``sync_forced_key(index)``
    hook, so its internal last-key state matches the plan actually
    served.

    >>> from repro.pipeline import FrameStream
    >>> plan_keys(FrameStream("cam", n_frames=6, pw=3))
    [True, False, False, True, False, False]
    >>> plan_keys(FrameStream("cam", n_frames=3, pw=3), supports_ism=False)
    [True, True, True]
    """
    if not supports_ism:
        return [True] * stream.n_frames
    policy = stream.make_policy()
    context: dict = {}
    keys: list[bool] = []
    # always consult the policy so stateful (adaptive) policies see
    # every frame; frame 0 is forced key
    for i in range(stream.n_frames):
        is_key = bool(policy.is_key(i, context))
        if i == 0 and not is_key:
            is_key = True
            sync = getattr(policy, "sync_forced_key", None)
            if sync is not None:
                sync(0)
        keys.append(is_key)
    return keys


@dataclass(frozen=True)
class ServeOutcome:
    """Raw result of one service simulation.

    Engine layers wrap this into their user-facing reports
    (:class:`~repro.pipeline.report.EngineReport`,
    :class:`~repro.cluster.report.ClusterReport`).

    Counting conventions: ``total_frames`` counts frames actually
    *served*; frames removed by admission control appear only in
    ``dropped_frames``.  A dropped frame also counts as a deadline
    miss (it never completed), so ``missed_deadlines`` covers both
    late completions and drops.  ``worst_lateness_s`` tracks served
    frames only (a dropped frame has no completion time).  Every
    served frame satisfies ``latency == wait + service`` against the
    ``waits_s`` / ``services_s`` breakdown, up to float rounding
    (latencies keep the historical ``completion - arrival``
    arithmetic, bit-exact with the pre-scheduler FIFO simulation).

    >>> out = ServeOutcome(latencies_s=((0.01, 0.02),), key_counts=(1,),
    ...                    total_frames=2, makespan_s=0.5, busy_s=0.03)
    >>> out.aggregate_fps
    4.0
    >>> out.mean_service_s
    0.015
    >>> out.drop_rate, out.deadline_miss_rate
    (0.0, 0.0)
    """

    #: per-stream frame latencies (seconds), in stream order
    latencies_s: tuple[tuple[float, ...], ...]
    #: per-stream key-frame counts, in stream order
    key_counts: tuple[int, ...]
    total_frames: int
    makespan_s: float
    #: summed service time — the backend's busy time during the run
    busy_s: float
    #: per-stream per-frame queueing waits (seconds); latency = wait + service
    waits_s: tuple[tuple[float, ...], ...] = ()
    #: per-stream per-frame service times (seconds)
    services_s: tuple[tuple[float, ...], ...] = ()
    #: per-stream deadline misses (late completions + dropped frames)
    missed_deadlines: tuple[int, ...] = ()
    #: per-stream frames removed by admission control (never served)
    dropped_frames: tuple[int, ...] = ()
    #: per-stream worst completion lateness (seconds) over served frames
    worst_lateness_s: tuple[float, ...] = ()
    #: the discipline that produced this outcome
    scheduler: str = "fifo"
    #: per-stream frame-order record of what actually happened to each
    #: offered frame: ``"key"`` / ``"nonkey"`` (served) or ``"drop"``
    dispositions: tuple[tuple[str, ...], ...] = ()
    #: per-stream depth-quality samples (``None`` for unprobed
    #: streams); populated only when ``serve`` ran a ``quality=`` probe
    quality: "tuple[StreamQuality | None, ...]" = ()

    @property
    def aggregate_fps(self) -> float:
        """Frames served per second of makespan."""
        return self.total_frames / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def mean_service_s(self) -> float:
        """Mean per-frame service time (0.0 for an empty run)."""
        return self.busy_s / self.total_frames if self.total_frames else 0.0

    @property
    def offered_frames(self) -> int:
        """Frames that arrived: served plus dropped."""
        return self.total_frames + sum(self.dropped_frames)

    @property
    def drop_rate(self) -> float:
        """Dropped fraction of offered frames (0.0 for an empty run)."""
        offered = self.offered_frames
        return sum(self.dropped_frames) / offered if offered else 0.0

    @property
    def deadline_miss_rate(self) -> float:
        """Missed fraction of offered frames (drops count as misses)."""
        offered = self.offered_frames
        return sum(self.missed_deadlines) / offered if offered else 0.0


class FrameCoster:
    """Per-frame service costs of camera streams on one backend.

    The cost model behind both serving engines: key frames pay the
    backend's memoized network schedule, non-key frames pay the ISM
    propagation pipeline, and requested execution modes degrade along
    :data:`MODE_FALLBACK` to the best mode the backend supports.

    A frame's cost depends only on its workload, so each coster prices
    a key frame once per ``(network, mode, size)`` and a non-key frame
    once per ``(size, ism config)``, then reuses the seconds for every
    later frame.  The backend's result cache therefore sees one lookup
    per workload per coster: its misses are the schedules solved, and
    its hits are repeat lookups from other costers or callers, not
    frames.  A stream on the static PW policy also has its planned
    busy seconds summed once per coster (:meth:`stream_demand`).

    >>> from repro.backends import get_backend
    >>> coster = FrameCoster(get_backend("gpu"))
    >>> coster.effective_mode("ilar")   # the GPU runs dense deconvs
    'baseline'
    """

    def __init__(self, backend: ExecutionBackend) -> None:
        self.backend = backend
        # seconds per (network, requested mode, size) and per (size,
        # ism config): each priced on first use, reused for every frame
        self._key_memo: dict = {}
        self._nonkey_memo: dict = {}
        # (planned busy seconds, frames) of a static-PW stream, keyed by
        # every field its plan and prices read (FrameStream is mutable)
        self._demand_memo: dict = {}

    def effective_mode(self, requested: str) -> str:
        """Best supported mode at or below the requested level.

        >>> from repro.backends import get_backend
        >>> FrameCoster(get_backend("gpu")).effective_mode("dct")
        'baseline'
        """
        if requested not in MODE_FALLBACK:
            raise ValueError(
                f"unknown mode {requested!r}; choose from {MODE_FALLBACK}"
            )
        for mode in MODE_FALLBACK[MODE_FALLBACK.index(requested):]:
            if self.backend.supports_mode(mode):
                return mode
        return "baseline"

    def key_frame_seconds(self, stream: FrameStream) -> float:
        """Service time of one key frame (full DNN inference).

        >>> from repro.backends import get_backend
        >>> from repro.pipeline import FrameStream
        >>> coster = FrameCoster(get_backend("gpu"))
        >>> coster.key_frame_seconds(FrameStream("cam", size=(68, 120))) > 0
        True
        """
        key = (stream.network, stream.mode, tuple(stream.size))
        if key not in self._key_memo:
            result = self.backend.network_result(
                stream.network, self.effective_mode(stream.mode), stream.size
            )
            self._key_memo[key] = self.backend.seconds(result)
        return self._key_memo[key]

    def nonkey_frame_seconds(self, stream: FrameStream) -> float:
        """Service time of one ISM non-key frame (propagation).

        >>> from repro.backends import get_backend
        >>> from repro.pipeline import FrameStream
        >>> coster = FrameCoster(get_backend("gpu"))
        >>> stream = FrameStream("cam", size=(68, 120))
        >>> 0 < coster.nonkey_frame_seconds(stream)
        True
        >>> coster.nonkey_frame_seconds(stream) < coster.key_frame_seconds(stream)
        True
        """
        key = (tuple(stream.size), stream.ism)
        if key not in self._nonkey_memo:
            result = self.backend.nonkey_frame(stream.size, stream.ism)
            self._nonkey_memo[key] = self.backend.seconds(result)
        return self._nonkey_memo[key]

    def frame_seconds(self, stream: FrameStream, is_key: bool) -> float:
        """Service time of one frame of ``stream``."""
        if is_key:
            return self.key_frame_seconds(stream)
        return self.nonkey_frame_seconds(stream)

    def stream_demand(
        self, stream: FrameStream, fps: float | None = None
    ) -> float:
        """Modeled utilization ``stream`` imposes on this backend.

        The expected busy seconds per wall-clock second: the stream's
        frame rate times the mean per-frame service time under its
        planned key/non-key schedule.  A demand of 1.0 saturates the
        backend on its own.  ``fps`` overrides the stream's own rate
        (the capacity planner plans at a target rate).

        >>> from repro.backends import get_backend
        >>> from repro.pipeline import FrameStream
        >>> coster = FrameCoster(get_backend("gpu"))
        >>> stream = FrameStream("cam", size=(68, 120), fps=30.0)
        >>> coster.stream_demand(stream, fps=60.0) == (
        ...     2 * coster.stream_demand(stream))
        True
        """
        if stream.policy_factory is not None:
            # a factory's policy may adapt or vary: replay it every call
            total, n = self._planned_busy(stream)
        else:
            # a static PW plan depends only on (pw, n_frames) on one
            # coster, whose ISM support is fixed
            key = (stream.network, stream.mode, tuple(stream.size),
                   stream.ism, stream.n_frames, stream.pw)
            if key not in self._demand_memo:
                self._demand_memo[key] = self._planned_busy(stream)
            total, n = self._demand_memo[key]
        rate = stream.fps if fps is None else fps
        return rate * total / n

    def _planned_busy(self, stream: FrameStream) -> tuple[float, int]:
        """Busy seconds of the stream's key plan, and its frame count."""
        keys = plan_keys(stream, self.backend.capabilities.supports_ism)
        key_s = self.key_frame_seconds(stream)
        # an ISM-less backend plans no non-key frame and cannot price one
        nonkey_s = self.nonkey_frame_seconds(stream) if not all(keys) else 0.0
        # frame by frame, in plan order: a count-times-price product
        # rounds differently and could move a placement tie
        return sum(key_s if k else nonkey_s for k in keys), len(keys)

    def deadline_pressure(
        self, stream: FrameStream, fps: float | None = None
    ) -> float:
        """Scheduler-aware load: modeled demand scaled by urgency.

        :meth:`stream_demand` weights every stream the same second of
        busy time equally, but a stream whose per-frame deadline is
        tighter than its frame period leaves the scheduler no slack to
        absorb queueing — its load is harder to place.  The pressure
        is the demand times ``max(1, frame period / deadline)``; a
        stream without a deadline exerts plain demand.  Cluster
        placement can pack by this instead of raw busy time (the
        ``deadline-aware`` policy does).

        >>> from repro.backends import get_backend
        >>> from repro.pipeline import FrameStream
        >>> coster = FrameCoster(get_backend("gpu"))
        >>> loose = FrameStream("a", size=(68, 120), fps=30.0)
        >>> tight = FrameStream("b", size=(68, 120), fps=30.0,
        ...                     deadline_s=1 / 120.0)
        >>> coster.deadline_pressure(loose) == coster.stream_demand(loose)
        True
        >>> coster.deadline_pressure(tight) == (
        ...     4 * coster.stream_demand(tight))
        True
        """
        demand = self.stream_demand(stream, fps)
        if stream.deadline_s is None:
            return demand
        rate = stream.fps if fps is None else fps
        urgency = max(1.0, (1.0 / rate) / stream.deadline_s)
        return demand * urgency

    # ------------------------------------------------------------------
    # the service simulation
    # ------------------------------------------------------------------
    def serve(
        self,
        streams: list[FrameStream],
        scheduler: "str | FrameScheduler | None" = None,
        quality: "QualityProbe | None" = None,
    ) -> ServeOutcome:
        """Serve ``streams`` to completion on the backend.

        Every stream delivers frames at its camera rate; the backend
        is a single shared resource and ``scheduler`` — a registered
        name or a :class:`~repro.pipeline.schedulers.FrameScheduler`
        instance, ``fifo`` when omitted — decides which stream's frame
        it services next (see ``docs/scheduling.md``).  The simulation
        is analytic (arrival, queueing wait, service) — no wall clock,
        so runs are deterministic.  The run is recorded in the
        backend's lifetime :class:`~repro.backends.base.
        BackendOccupancy`.

        ``quality`` — a :class:`~repro.pipeline.quality.QualityProbe`
        — additionally runs the *real* stereo pipeline over (a sample
        of) the pixel-carrying streams, replaying the exact per-frame
        decisions this simulation made, and attaches the per-stream
        depth-accuracy scores to :attr:`ServeOutcome.quality` (see
        ``docs/quality.md``).

        >>> from repro.backends import get_backend
        >>> from repro.pipeline import FrameStream
        >>> coster = FrameCoster(get_backend("gpu"))
        >>> out = coster.serve([FrameStream("cam", size=(68, 120),
        ...                                 n_frames=4, mode="baseline")])
        >>> out.total_frames, len(out.latencies_s[0])
        (4, 4)
        >>> coster.serve([FrameStream("cam", size=(68, 120), n_frames=4,
        ...                           mode="baseline")], scheduler="edf"
        ...              ).scheduler
        'edf'
        """
        # local import: schedulers builds on plan_keys/ServeOutcome above
        from repro.pipeline.schedulers import get_scheduler

        if scheduler is None:
            scheduler = "fifo"
        if isinstance(scheduler, str):
            scheduler = get_scheduler(scheduler)
        outcome = scheduler.serve(streams, self)
        if streams:  # an idle shard's empty serve is not a run
            self.backend.occupancy.record_run(
                busy_s=outcome.busy_s,
                span_s=outcome.makespan_s,
                frames=outcome.total_frames,
            )
        if quality is not None:
            outcome = dataclasses.replace(
                outcome, quality=quality.score_streams(streams, outcome)
            )
        return outcome
