"""Pluggable frame schedulers: the QoS discipline of the serving core.

Real stereo deployments (AR headsets, driving stacks, 100 fps FPGA
stereo cameras) are judged by deadline misses and overload behaviour,
not just mean latency.  This module turns the serving layer's single
hard-wired FIFO simulation into a policy point: a
:class:`FrameScheduler` decides, whenever the accelerator goes free,
which stream's next frame to dispatch — and, for admission-controlled
policies, whether to dispatch it at all.

Four built-ins cover the standard disciplines (``docs/scheduling.md``
discusses when to pick which):

* ``fifo`` — arrival order; bit-exact with the historical simulation
  (regression-pinned);
* ``edf`` — earliest deadline first among the queued streams;
* ``priority`` — highest stream priority first, key frames breaking
  ties;
* ``shed`` — FIFO with drop-on-late admission control: a non-key
  frame that would *start* past its deadline is dropped, and the
  stream's next served frame is forced to be a key frame (the dropped
  frame broke the ISM propagation chain).

Two invariants hold for every scheduler:

* **frames of one stream never reorder** — the ISM chain is
  sequential, so scheduling chooses *which stream goes next*, never
  which frame within a stream;
* **key frames are never dropped** — only the cheap non-key
  propagation frames are sheddable; dropping a key frame would strand
  the whole chain behind it.

New disciplines plug in with :func:`register_scheduler`, mirroring
:func:`repro.backends.register_backend` and
:func:`repro.cluster.register_placement_policy`.

>>> available_schedulers()
('edf', 'fifo', 'priority', 'shed')
>>> get_scheduler("edf").name
'edf'
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Sequence

from repro.pipeline.costing import ServeOutcome, plan_keys
from repro.pipeline.stream import FrameStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.pipeline.costing import FrameCoster

__all__ = [
    "FrameJob",
    "FrameScheduler",
    "FifoScheduler",
    "EdfScheduler",
    "PriorityScheduler",
    "RekeyLedger",
    "ShedScheduler",
    "available_schedulers",
    "frame_queues",
    "get_scheduler",
    "register_scheduler",
]

#: anything that builds a scheduler when called (a class or a factory)
SchedulerFactory = Callable[[], "FrameScheduler"]

_REGISTRY: dict[str, SchedulerFactory] = {}


def register_scheduler(
    name: str,
) -> Callable[[SchedulerFactory], SchedulerFactory]:
    """Class/factory decorator adding a scheduler to the registry.

    >>> @register_scheduler("doc-lifo")
    ... class LifoScheduler(FrameScheduler):
    ...     name = "doc-lifo"
    ...     def select(self, ready, now_s):
    ...         return self.stream_heads(ready)[-1]
    >>> "doc-lifo" in available_schedulers()
    True
    >>> _ = _REGISTRY.pop("doc-lifo")  # keep the example side-effect-free
    """

    def decorate(factory: SchedulerFactory) -> SchedulerFactory:
        _REGISTRY[name] = factory
        return factory

    return decorate


def available_schedulers() -> tuple[str, ...]:
    """Sorted names of every registered frame scheduler.

    >>> {"fifo", "edf", "priority", "shed"} <= set(available_schedulers())
    True
    """
    return tuple(sorted(_REGISTRY))


def get_scheduler(name: str) -> "FrameScheduler":
    """Construct a frame scheduler by name.

    >>> get_scheduler("fifo").name
    'fifo'
    >>> get_scheduler("lottery")
    Traceback (most recent call last):
        ...
    ValueError: unknown scheduler 'lottery'; available: \
('edf', 'fifo', 'priority', 'shed')
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {available_schedulers()}"
        ) from None
    return factory()


class RekeyLedger:
    """Per-stream ISM re-key flags shared by every serve loop.

    A stream's ISM propagation chain breaks whenever a frame it
    depends on never produced a disparity map: admission control
    dropped it (the ``shed`` discipline), a retry budget ran out, or
    the stream migrated to another backend after a crash
    (:mod:`repro.cluster.faults`).  The ledger records the break and
    forces the stream's *next served* frame to be a key frame; serving
    that key frame clears the flag.  Keeping the rule in one place
    means the single-backend loop and the fleet-level chaos loop can
    never disagree about re-key semantics.

    >>> ledger = RekeyLedger(2)
    >>> ledger.effective_key(0, planned_key=False)
    False
    >>> ledger.chain_broken(0)          # e.g. a dropped frame
    >>> ledger.effective_key(0, planned_key=False)
    True
    >>> ledger.served(0, is_key=True)   # the forced key frame healed it
    >>> ledger.effective_key(0, planned_key=False)
    False
    >>> ledger.effective_key(1, planned_key=False, supports_ism=False)
    True
    """

    def __init__(self, n_streams: int) -> None:
        self.flags = [False] * n_streams

    def effective_key(
        self, stream_index: int, planned_key: bool, supports_ism: bool = True
    ) -> bool:
        """The key/non-key status actually served for the next frame."""
        return planned_key or self.flags[stream_index] or not supports_ism

    def chain_broken(self, stream_index: int) -> None:
        """Record a broken ISM chain (drop, retry exhaustion, migration)."""
        self.flags[stream_index] = True

    def served(self, stream_index: int, is_key: bool) -> None:
        """Record a served frame; a key frame re-anchors the chain."""
        if is_key:
            self.flags[stream_index] = False


@dataclass
class FrameJob:
    """One frame awaiting service in the discrete-event simulation.

    ``deadline_s`` is *absolute* (arrival plus the stream's relative
    :attr:`~repro.pipeline.stream.FrameStream.deadline_s`); streams
    without a deadline carry ``math.inf``.  ``is_key`` is the planned
    key/non-key decision — admission-control re-keying happens at
    dispatch time and never mutates the plan.
    """

    seq: int
    arrival_s: float
    stream_index: int
    frame_index: int
    is_key: bool
    deadline_s: float
    priority: int


_SEQ = attrgetter("seq")


def frame_queues(
    streams: Sequence[FrameStream], supports_ism: Sequence[bool]
) -> list[list[FrameJob]]:
    """One :class:`FrameJob` queue per stream, in frame order.

    ``supports_ism[si]`` is the ISM support of the backend stream
    ``si`` is planned on (:func:`~repro.pipeline.costing.plan_keys`).
    ``seq`` numbers the jobs of every queue by arrival, ties broken by
    stream index: the order in which both event loops hand
    :meth:`FrameScheduler.select` its ready list.

    >>> queues = frame_queues([FrameStream("a", n_frames=2, fps=10.0),
    ...                        FrameStream("b", n_frames=2, fps=20.0)],
    ...                       [True, True])
    >>> [[job.seq for job in queue] for queue in queues]
    [[0, 3], [1, 2]]
    """
    queues = []
    for si, (s, ism) in enumerate(zip(streams, supports_ism, strict=True)):
        fps, deadline, priority = s.fps, s.frame_deadline, s.priority
        # positional: keyword arguments make a dataclass call twice as dear
        queues.append([
            FrameJob(0, fi / fps, si, fi, is_key, deadline(fi), priority)
            for fi, is_key in enumerate(plan_keys(s, ism))
        ])
    # a stable sort on arrival alone: the queues chain in stream order
    # and a stream's arrivals rise, so ties break by stream index
    jobs = sorted(chain.from_iterable(queues), key=attrgetter("arrival_s"))
    for seq, job in enumerate(jobs):
        job.seq = seq
    return queues


class FrameScheduler:
    """The protocol: pick which ready frame the backend serves next.

    Subclasses implement :meth:`select` (an index into the ready list)
    and may override :meth:`admit` for drop-on-late admission control.
    The shared discrete-event loop in :meth:`serve` does everything
    else: arrivals at camera rate, a single non-preemptive server,
    queue-wait vs service-time accounting, deadline bookkeeping, and
    ISM re-keying after drops.

    The ready list holds one job per stream: the stream's *head* (its
    earliest frame not yet served or dropped), once it has arrived,
    ordered by ``seq`` (arrival).  :meth:`serve` and the fleet loop,
    :meth:`ChaosClusterEngine.run <repro.cluster.faults.
    ChaosClusterEngine.run>`, both keep that contract, so any index
    :meth:`select` returns is a head and frames of one stream never
    reorder.

    Schedulers are stateless across runs — the registry hands out
    fresh instances, and :meth:`serve` keeps all per-run state local —
    so one instance may be shared by many engines.
    """

    name: str = "abstract"

    # ------------------------------------------------------------------
    # the policy points
    # ------------------------------------------------------------------
    def select(self, ready: Sequence[FrameJob], now_s: float) -> int:
        """Index (into ``ready``) of the job to dispatch at ``now_s``.

        ``ready`` holds one arrived head per stream, ordered by arrival
        (``seq``), so every index is a legal choice.
        """
        raise NotImplementedError

    def admit(self, job: FrameJob, start_s: float, is_key: bool) -> bool:
        """Whether to serve ``job`` at ``start_s`` (``False`` drops it).

        ``is_key`` is the *effective* key status after re-keying; the
        event loop never drops a frame it reports as key.
        """
        return True

    @staticmethod
    def stream_heads(ready: Sequence[FrameJob]) -> list[int]:
        """Indices of each stream's earliest ready frame, by arrival.

        Dispatching any later frame of a stream would reorder its ISM
        chain.  The event loops pass heads only, so on their ready
        lists this returns every index.

        >>> jobs = frame_queues([FrameStream("a", n_frames=2),
        ...                      FrameStream("b", n_frames=1)], [True, True])
        >>> FrameScheduler.stream_heads([jobs[0][0], jobs[1][0], jobs[0][1]])
        [0, 1]
        """
        seen: set[int] = set()
        heads = []
        for idx, job in enumerate(ready):
            if job.stream_index not in seen:
                seen.add(job.stream_index)
                heads.append(idx)
        return heads

    # ------------------------------------------------------------------
    # the shared discrete-event loop
    # ------------------------------------------------------------------
    def serve(
        self, streams: Sequence[FrameStream], coster: "FrameCoster"
    ) -> ServeOutcome:
        """Run the discrete-event simulation under this discipline.

        Engines call :meth:`FrameCoster.serve
        <repro.pipeline.costing.FrameCoster.serve>` (which delegates
        here and records backend occupancy) rather than this method
        directly.

        >>> from repro.backends import get_backend
        >>> from repro.pipeline import FrameCoster, FrameStream
        >>> coster = FrameCoster(get_backend("gpu"))
        >>> out = get_scheduler("fifo").serve(
        ...     [FrameStream("cam", size=(68, 120), n_frames=4)], coster)
        >>> out.total_frames, out.scheduler
        (4, 'fifo')
        """
        n = len(streams)
        queues = frame_queues(
            streams, [coster.backend.capabilities.supports_ism] * n
        )
        jobs = sorted(chain.from_iterable(queues), key=_SEQ)  # by arrival
        latencies: list[list[float]] = [[] for _ in streams]
        waits: list[list[float]] = [[] for _ in streams]
        services: list[list[float]] = [[] for _ in streams]
        key_counts = [0] * n
        missed = [0] * n
        dropped = [0] * n
        worst_late = [0.0] * n
        head = [0] * n  # each stream's next frame to serve or drop
        rekey = RekeyLedger(n)
        # per-stream frame-order record of what actually happened:
        # "key" / "nonkey" (served) or "drop" — the quality probe
        # replays the real pipeline from exactly this record
        dispositions: list[list[str]] = [[] for _ in streams]

        server_free = 0.0
        busy = 0.0
        ready: list[FrameJob] = []  # the arrived heads, in seq order
        i = 0  # jobs[:i] have arrived
        while i < len(jobs) or ready:
            now = server_free
            if not ready and jobs[i].arrival_s > now:
                # idle server: jump to the next arrival instant — the
                # dispatch decision then happens at that instant
                now = jobs[i].arrival_s
            # a frame that arrives behind its stream's head joins the
            # ready list when the head leaves it (below)
            while i < len(jobs) and jobs[i].arrival_s <= now:
                job = jobs[i]
                if job.frame_index == head[job.stream_index]:
                    ready.append(job)
                i += 1
            job = ready.pop(self.select(ready, now))
            si = job.stream_index
            head[si] += 1
            if head[si] < len(queues[si]) and queues[si][head[si]].seq < i:
                # the stream's next frame has arrived: it is the head now
                insort(ready, queues[si][head[si]], key=_SEQ)
            start = max(job.arrival_s, server_free)
            is_key = rekey.effective_key(si, job.is_key)
            if not self.admit(job, start, is_key):
                dropped[si] += 1
                missed[si] += 1  # a dropped frame never met its deadline
                rekey.chain_broken(si)  # re-key the stream after the drop
                dispositions[si].append("drop")
                continue
            rekey.served(si, is_key)
            service = coster.frame_seconds(streams[si], is_key)
            done = start + service
            server_free = done
            busy += service
            key_counts[si] += is_key
            dispositions[si].append("key" if is_key else "nonkey")
            latencies[si].append(done - job.arrival_s)
            waits[si].append(start - job.arrival_s)
            services[si].append(service)
            if done > job.deadline_s:
                missed[si] += 1
                late = done - job.deadline_s
                if late > worst_late[si]:
                    worst_late[si] = late

        return ServeOutcome(
            latencies_s=tuple(tuple(lat) for lat in latencies),
            key_counts=tuple(key_counts),
            total_frames=sum(len(lat) for lat in latencies),
            makespan_s=server_free,
            busy_s=busy,
            waits_s=tuple(tuple(w) for w in waits),
            services_s=tuple(tuple(s) for s in services),
            missed_deadlines=tuple(missed),
            dropped_frames=tuple(dropped),
            worst_lateness_s=tuple(worst_late),
            scheduler=self.name,
            dispositions=tuple(tuple(d) for d in dispositions),
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


@register_scheduler("fifo")
class FifoScheduler(FrameScheduler):
    """Arrival order — the historical discipline, bit-exact with the
    pre-scheduler FIFO simulation (regression-pinned).

    >>> from repro.backends import get_backend
    >>> from repro.pipeline import FrameCoster, FrameStream
    >>> coster = FrameCoster(get_backend("gpu"))
    >>> streams = [FrameStream("cam", size=(68, 120), n_frames=3)]
    >>> coster.serve(streams) == FifoScheduler().serve(streams, coster)
    True
    """

    name = "fifo"

    def select(self, ready: Sequence[FrameJob], now_s: float) -> int:
        return 0  # ready is kept in arrival order


@register_scheduler("edf")
class EdfScheduler(FrameScheduler):
    """Earliest deadline first among the queued streams.

    Under overload EDF serves urgent frames (tight ``deadline_s``)
    before patient ones, trading FIFO's arrival fairness for fewer
    deadline misses.  Streams without a deadline sort last (infinite
    deadline); ties break toward arrival order, so with no deadlines
    at all EDF degenerates to FIFO.
    """

    name = "edf"

    def select(self, ready: Sequence[FrameJob], now_s: float) -> int:
        # ``ready`` is in seq order, so keeping the first of equal
        # deadlines is the (deadline_s, seq) minimum
        best = 0
        for idx in range(1, len(ready)):
            if ready[idx].deadline_s < ready[best].deadline_s:
                best = idx
        return best


@register_scheduler("priority")
class PriorityScheduler(FrameScheduler):
    """Highest stream priority first; key frames break ties.

    Priorities come from :attr:`FrameStream.priority` (higher is more
    important).  Within one priority level key frames dispatch before
    non-key frames — a late key frame stalls its whole ISM chain, a
    late non-key frame only itself — and remaining ties fall back to
    arrival order.
    """

    name = "priority"

    def select(self, ready: Sequence[FrameJob], now_s: float) -> int:
        keys = [(-job.priority, not job.is_key, job.seq) for job in ready]
        return keys.index(min(keys))


@register_scheduler("shed")
class ShedScheduler(FrameScheduler):
    """FIFO with drop-on-late admission control (load shedding).

    A non-key frame that would *start* service past its absolute
    deadline is dropped instead of served: under overload this spends
    the backend on frames that can still be useful, bounding the queue
    instead of letting it grow without limit.  Every drop breaks the
    stream's ISM propagation chain, so the event loop forces the
    stream's next served frame to be a key frame (and key frames are
    never dropped — they carry the state everything after them needs).

    Dropped frames are reported as both dropped *and* missed in the
    :class:`~repro.pipeline.costing.ServeOutcome`.
    """

    name = "shed"

    def select(self, ready: Sequence[FrameJob], now_s: float) -> int:
        return 0  # FIFO order; shedding happens at admission

    def admit(self, job: FrameJob, start_s: float, is_key: bool) -> bool:
        return is_key or start_s <= job.deadline_s
