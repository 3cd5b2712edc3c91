"""Deterministic fault injection, replica failover, and chaos serving.

The ordinary :class:`~repro.cluster.engine.ClusterEngine` assumes
every backend stays healthy for the whole run.  This module drops that
assumption: :class:`ChaosClusterEngine` runs the same streams, the
same placement policies, and the same frame schedulers through a
*fleet-level* discrete-event loop into which a seedable
:class:`FaultSchedule` injects three failure classes:

* :class:`CrashFault` — a backend dies at an absolute time; every
  stream with frames left on it migrates to the surviving replicas
  through the engine's placement policy, and each migrated stream is
  forced to re-key (the migration broke its ISM propagation chain —
  the exact :class:`~repro.pipeline.schedulers.RekeyLedger` rule the
  ``shed`` discipline uses for drops);
* :class:`SlowdownFault` — a backend serves ×``factor`` slower inside
  a time window (thermal throttling, a noisy neighbour);
* :class:`FlakyFault` — per-frame service attempts inside a window
  fail with a seeded probability and are retried with timeout and
  backoff (:class:`RetryPolicy`); a non-key frame that exhausts its
  attempts is dropped (and the stream re-keys), while key frames are
  never abandoned — they carry the state the whole chain needs.

Failure decisions are pure functions of ``(seed, shard, stream,
frame, attempt)`` via SHA-256 — not of wall clock, dict order, or
worker-pool scheduling — so identical ``(fault_schedule, seed)``
inputs produce byte-identical :class:`~repro.cluster.report.
ClusterReport`\\ s (regression-pinned, including across process- and
thread-pool quality probes).

An optional :class:`~repro.cluster.autoscale.Autoscaler` closes the
loop: the engine observes fleet deadline pressure every interval and
grows/shrinks the replica set with hysteresis, rebalancing pending
streams through the placement policy on every change.

Every fault, retry, migration, and scale event lands in the report's
:class:`~repro.cluster.report.ResilienceStats` ledger, alongside the
degraded-window latency envelope that ``tests/test_chaos.py`` holds
to declared bounds.  ``docs/resilience.md`` is the guide.

>>> from repro.pipeline import FrameStream
>>> engine = ChaosClusterEngine(
...     ["gpu", "gpu"], policy="round-robin",
...     faults=FaultSchedule(faults=(CrashFault("gpu:1", at_s=0.05),)))
>>> report = engine.run([
...     FrameStream(f"cam{i}", size=(68, 120), n_frames=4,
...                 mode="baseline") for i in range(2)])
>>> report.resilience.crashes, report.shard_for("cam1")
(1, 'gpu:0')
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.backends.base import ExecutionBackend
from repro.backends.registry import available_backends, get_backend
from repro.cluster.autoscale import Autoscaler, AutoscalerState
from repro.cluster.engine import ClusterEngine
from repro.cluster.policies import PlacementPolicy
from repro.cluster.report import (
    BackendShard,
    ClusterReport,
    FaultEvent,
    ResilienceStats,
    StreamResilience,
)
from repro.pipeline.costing import FrameCoster, ServeOutcome
from repro.pipeline.quality import QualityProbe
from repro.pipeline.report import EngineReport, StreamStats
from repro.pipeline.schedulers import FrameScheduler, RekeyLedger, frame_queues
from repro.pipeline.stream import FrameStream

__all__ = [
    "ChaosClusterEngine",
    "CrashFault",
    "FaultSchedule",
    "FlakyFault",
    "RetryPolicy",
    "SlowdownFault",
]

_SEQ = attrgetter("seq")


@dataclass(frozen=True)
class CrashFault:
    """Backend ``shard`` dies permanently at ``at_s`` seconds.

    Any frame in flight on the shard at the crash instant is killed
    (its partial service time is wasted) and re-served after
    migration.  ``shard`` names an initial fleet label
    (``"gpu:0"``-style); the engine validates it before the run.

    >>> CrashFault("gpu:0", at_s=0.5).at_s
    0.5
    """

    shard: str
    at_s: float

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("crash time must be >= 0")


@dataclass(frozen=True)
class SlowdownFault:
    """Backend ``shard`` serves ×``factor`` slower in a time window.

    The factor applies to every service attempt *starting* inside
    ``[start_s, start_s + duration_s)``; overlapping windows multiply.

    >>> SlowdownFault("gpu:0", start_s=0.1, duration_s=0.2, factor=3.0).end_s
    0.30000000000000004
    """

    shard: str
    start_s: float
    duration_s: float
    factor: float

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("slowdown window must be non-negative and last")
        if self.factor <= 0:
            raise ValueError("slowdown factor must be positive")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class FlakyFault:
    """Per-frame service attempts on ``shard`` fail with probability
    ``failure_rate`` inside a time window.

    Each attempt's outcome is a pure function of ``(schedule seed,
    shard, stream, frame, attempt)``, so runs are deterministic and
    retries of the same frame draw fresh outcomes.  ``failure_rate``
    must stay below 1.0 — key frames are retried until they succeed
    (they are never dropped), which a certain-failure fault would
    turn into an infinite loop.

    >>> FlakyFault("gpu:0", start_s=0.0, duration_s=1.0, failure_rate=1.0)
    Traceback (most recent call last):
        ...
    ValueError: failure rate must be in [0, 1) — key frames retry forever
    """

    shard: str
    start_s: float
    duration_s: float
    failure_rate: float

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("flaky window must be non-negative and last")
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError(
                "failure rate must be in [0, 1) — key frames retry forever"
            )

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class RetryPolicy:
    """How flaky service attempts are retried.

    A failed attempt holds the backend for ``timeout_s`` (the watchdog
    budget; ``None`` charges the frame's full service time — the
    attempt ran to completion and failed validation), then the frame
    becomes eligible again after ``backoff_s × attempt`` of linear
    backoff.  After ``max_attempts`` total attempts a *non-key* frame
    is dropped (breaking the ISM chain exactly like a ``shed`` drop);
    key frames ignore the cap and retry until they succeed.

    >>> RetryPolicy().max_attempts
    3
    """

    max_attempts: int = 3
    backoff_s: float = 0.002
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout must be positive (or None)")


@dataclass(frozen=True)
class FaultSchedule:
    """A seedable, immutable set of faults to inject into one run.

    ``seed`` drives every flaky-fault coin toss (crashes and
    slowdowns are already fully determined by their times).  The
    schedule is data, not behaviour: the same schedule can replay
    against different fleets, policies, and schedulers.

    >>> schedule = FaultSchedule(faults=(
    ...     CrashFault("gpu:0", at_s=0.5),
    ...     SlowdownFault("gpu:1", start_s=0.1, duration_s=0.2, factor=2.0),
    ... ), seed=7)
    >>> len(schedule.faults), schedule.seed
    (2, 7)
    """

    faults: tuple[CrashFault | SlowdownFault | FlakyFault, ...] = ()
    seed: int = 0

    def shards(self) -> set[str]:
        """Every shard label the schedule targets."""
        return {f.shard for f in self.faults}

    def crashes(self) -> list[CrashFault]:
        """Crash faults in time order (ties broken by shard label)."""
        crashes = [f for f in self.faults if isinstance(f, CrashFault)]
        return sorted(crashes, key=lambda f: (f.at_s, f.shard))

    def slowdowns_for(self, shard: str) -> list[SlowdownFault]:
        return sorted(
            (f for f in self.faults
             if isinstance(f, SlowdownFault) and f.shard == shard),
            key=lambda f: f.start_s,
        )

    def flaky_for(self, shard: str) -> list[FlakyFault]:
        return sorted(
            (f for f in self.faults
             if isinstance(f, FlakyFault) and f.shard == shard),
            key=lambda f: f.start_s,
        )


def _u01(seed: int, shard: str, stream: str, frame: int, attempt: int) -> float:
    """A uniform draw in [0, 1) that is a pure function of its inputs.

    SHA-256 rather than ``hash()``/``random.Random`` keeps the draw
    independent of ``PYTHONHASHSEED``, interpreter version, and event
    order — the determinism contract the chaos tests pin.

    >>> a = _u01(0, "gpu:0", "cam", 3, 0)
    >>> a == _u01(0, "gpu:0", "cam", 3, 0), 0.0 <= a < 1.0
    (True, True)
    """
    digest = hashlib.sha256(
        f"{seed}|{shard}|{stream}|{frame}|{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


class _Replica:
    """Mutable per-backend server state inside the chaos loop."""

    def __init__(
        self,
        backend: ExecutionBackend,
        coster: FrameCoster,
        label: str,
        spawned_s: float = 0.0,
    ) -> None:
        self.backend = backend
        self.coster = coster
        self.label = label
        self.alive = True
        self.free_s = spawned_s
        self.busy_s = 0.0
        self.served = 0
        self.crash_s: float | None = None
        self.slow: list[SlowdownFault] = []
        self.flaky: list[FlakyFault] = []
        self.end_s: float | None = None  # crash / retirement instant
        self.log: list[tuple[float, float]] = []  # (start, done) busy spans
        # the streams on this replica that still have frames, each with
        # its head frame's ready instant; ``next_s`` is the earliest
        # dispatch instant over them, kept current by ``refresh``
        self.ready: dict[int, float] = {}
        self.next_s = math.inf

    def refresh(self) -> None:
        """Recompute :attr:`next_s` after the free instant or a ready
        instant changed."""
        if self.ready:
            self.next_s = max(self.free_s, min(self.ready.values()))

    def occupy(self, start_s: float, done_s: float) -> None:
        """Charge one service attempt (successful or not)."""
        self.busy_s += done_s - start_s
        self.free_s = done_s
        self.log.append((start_s, done_s))

    def drain_after(self, t: float) -> float:
        """First instant >= ``t`` at which this server sits idle.

        The busy log is a sequence of non-overlapping spans in start
        order (single server), so the drain point is the end of the
        contiguous busy chain covering ``t`` — when the backlog a
        fault built up has actually cleared.
        """
        for start, done in self.log:
            if start > t:
                break
            if done > t:
                t = done
        return t

    def slowdown_factor(self, start_s: float) -> float:
        factor = 1.0
        for f in self.slow:
            if f.start_s <= start_s < f.end_s:
                factor *= f.factor
        return factor

    def failure_rate(self, start_s: float) -> float:
        rate = 0.0
        for f in self.flaky:
            if f.start_s <= start_s < f.end_s:
                rate = max(rate, f.failure_rate)
        return rate

    @property
    def span_s(self) -> float:
        """The shard's own completion span (crash caps it)."""
        return self.end_s if self.end_s is not None else self.free_s


class ChaosClusterEngine(ClusterEngine):
    """:class:`~repro.cluster.engine.ClusterEngine` under injected
    faults, replica failover, and hysteresis autoscaling.

    Construction mirrors the plain engine (``backends``, ``policy``,
    ``scheduler``, ``quality``) plus the chaos knobs: ``faults`` (a
    :class:`FaultSchedule`; ``None`` injects nothing), ``retry`` (the
    flaky-attempt :class:`RetryPolicy`), and ``autoscaler`` (an
    :class:`~repro.cluster.autoscale.Autoscaler`; ``None`` keeps the
    fleet fixed).  With all three at their defaults the chaos loop
    serves every stream exactly like the plain engine — pinned by
    ``tests/test_chaos.py`` — so the fault path is an extension, not
    a fork, of the serving semantics.

    A migrated stream's statistics appear on its *final* shard, and
    :attr:`~repro.cluster.report.ClusterReport.placement` records the
    final assignment; the migration history lives in the report's
    :attr:`~repro.cluster.report.ClusterReport.resilience` ledger.

    >>> from repro.pipeline import FrameStream
    >>> engine = ChaosClusterEngine(["gpu"], retry=RetryPolicy(
    ...     max_attempts=2))
    >>> report = engine.run([FrameStream("cam", size=(68, 120),
    ...                                  n_frames=3, mode="baseline")])
    >>> report.total_frames, report.resilience.total_retries
    (3, 0)
    """

    def __init__(
        self,
        backends: Sequence[str | ExecutionBackend],
        policy: str | PlacementPolicy = "least-loaded",
        scheduler: str | FrameScheduler = "fifo",
        quality: QualityProbe | bool | None = None,
        faults: FaultSchedule | None = None,
        retry: RetryPolicy | None = None,
        autoscaler: Autoscaler | None = None,
    ) -> None:
        super().__init__(backends, policy=policy, scheduler=scheduler,
                         quality=quality)
        self.faults = faults or FaultSchedule()
        self.retry = retry or RetryPolicy()
        self.autoscaler = autoscaler
        unknown = self.faults.shards() - set(self.labels)
        if unknown:
            raise ValueError(
                f"fault schedule targets unknown shards {sorted(unknown)}; "
                f"fleet labels are {self.labels}"
            )
        if autoscaler and autoscaler.backend not in available_backends():
            raise ValueError(
                f"autoscaler scales up an unknown backend "
                f"{autoscaler.backend!r}; available: {available_backends()}"
            )

    # ------------------------------------------------------------------
    # the fleet-level discrete-event loop
    # ------------------------------------------------------------------
    def run(self, streams: Sequence[FrameStream]) -> ClusterReport:
        """Serve ``streams`` under the fault schedule; return the
        report with its :class:`~repro.cluster.report.ResilienceStats`
        ledger attached.

        >>> from repro.pipeline import FrameStream
        >>> report = ChaosClusterEngine(["gpu"]).run(
        ...     [FrameStream("cam", size=(68, 120), n_frames=4,
        ...                  mode="baseline")])
        >>> report.total_frames, report.resilience.events
        (4, ())
        """
        streams = self._checked_streams(streams)
        replicas = [
            _Replica(backend, coster, label)
            for backend, coster, label in zip(
                self.backends, self.costers, self.labels
            )
        ]
        by_label = {r.label: r for r in replicas}
        for fault in self.faults.faults:
            r = by_label[fault.shard]
            if isinstance(fault, CrashFault):
                if r.crash_s is not None:
                    raise ValueError(
                        f"shard {fault.shard!r} is scheduled to crash twice"
                    )
                r.crash_s = fault.at_s
            elif isinstance(fault, SlowdownFault):
                r.slow.append(fault)
            elif isinstance(fault, FlakyFault):
                r.flaky.append(fault)

        n = len(streams)
        assigned = self.place(streams)

        # per-stream job queues under the *initial* shard's key plan;
        # ISM support is re-checked at dispatch after any migration
        queues = frame_queues(streams, [
            replicas[ri].coster.backend.capabilities.supports_ism
            for ri in assigned
        ])

        head = [0] * n                  # next unserved frame per stream
        not_before = [0.0] * n          # retry-backoff gate on the head
        attempts = [0] * n              # failed attempts on the head
        rekey = RekeyLedger(n)
        latencies: list[list[float]] = [[] for _ in streams]
        waits: list[list[float]] = [[] for _ in streams]
        services: list[list[float]] = [[] for _ in streams]
        completions: list[list[float]] = [[] for _ in streams]
        key_counts = [0] * n
        missed = [0] * n
        dropped = [0] * n
        worst_late = [0.0] * n
        dispositions: list[list[str]] = [[] for _ in streams]
        retries = [0] * n
        migrations = [0] * n
        downtime = [0.0] * n
        failover = [0.0] * n
        down_since: list[float | None] = [None] * n
        down_crash: list[float | None] = [None] * n  # crash the gap belongs to

        events: list[FaultEvent] = []
        for r in replicas:
            for f in r.slow:
                events.append(FaultEvent(
                    f.start_s, "slowdown-start", r.label,
                    detail=f"x{f.factor:g}"))
                events.append(FaultEvent(f.end_s, "slowdown-end", r.label))
        crash_recovery: dict[float, float] = {}
        crash_dests: dict[float, set[int]] = {}
        pending = sum(len(q) for q in queues)
        crash_queue = self.faults.crashes()
        ci = 0
        scaler_state = (
            AutoscalerState(self.autoscaler) if self.autoscaler else None
        )
        next_tick = (
            self.autoscaler.interval_s if self.autoscaler else math.inf
        )
        added = removed = 0
        # keyed by replica, not backend name: two shards of one backend
        # type can carry different hardware configurations
        pressure_memo: dict[tuple[int, int], float] = {}

        def stream_pressure(si: int) -> float:
            key = (assigned[si], si)
            if key not in pressure_memo:
                coster = replicas[assigned[si]].coster
                pressure_memo[key] = coster.deadline_pressure(streams[si])
            return pressure_memo[key]

        def eff_arrival(si: int) -> float:
            return max(queues[si][head[si]].arrival_s, not_before[si])

        def finish_frame(r: _Replica, si: int, disposition: str) -> None:
            dispositions[si].append(disposition)
            head[si] += 1
            not_before[si] = 0.0
            attempts[si] = 0
            if head[si] < len(queues[si]):
                r.ready[si] = eff_arrival(si)
            else:
                del r.ready[si]

        for si in range(n):
            replicas[assigned[si]].ready[si] = eff_arrival(si)
        for r in replicas:
            r.refresh()

        def migrate(moving: list[int], destinations: list[int],
                    now: float, kind_detail: str,
                    crash_at: float | None) -> None:
            for si, dest in zip(moving, destinations):
                if dest == assigned[si]:
                    continue
                source = replicas[assigned[si]]
                replicas[dest].ready[si] = source.ready.pop(si)
                assigned[si] = dest
                rekey.chain_broken(si)  # migration broke the ISM chain
                migrations[si] += 1
                if crash_at is not None:
                    down_since[si] = crash_at
                    down_crash[si] = crash_at
                    crash_dests.setdefault(crash_at, set()).add(dest)
                events.append(FaultEvent(
                    now, "migrate", replicas[dest].label,
                    stream=streams[si].name,
                    detail=f"{kind_detail} from {source.label}"))

        def replace_streams(dead: _Replica, now: float,
                            crash_at: float | None, detail: str) -> None:
            moving = sorted(dead.ready)
            if not moving:
                return
            survivors = [i for i, r in enumerate(replicas) if r.alive]
            if not survivors:
                raise ValueError(
                    f"fault schedule killed every replica at t={now:g}s "
                    f"with {pending} frames still pending; a crash that "
                    f"leaves no live replica ends the run, even with an "
                    f"autoscaler attached (its min_replicas floor binds "
                    f"only its own scale-downs)"
                )
            placement = self.policy.assign(
                [streams[si] for si in moving],
                [replicas[i].coster for i in survivors],
            )
            migrate(moving, [survivors[p] for p in placement], now,
                    detail, crash_at)

        dispatched: _Replica | None = None
        while pending > 0:
            # only the replica that dispatched last has a stale instant
            if dispatched is not None:
                dispatched.refresh()
            # earliest dispatch opportunity across the live fleet
            best: tuple[float, int] | None = None
            for ri, r in enumerate(replicas):
                if not r.alive or not r.ready:
                    continue
                if best is None or (r.next_s, ri) < best:
                    best = (r.next_s, ri)
            if best is None:
                raise RuntimeError(
                    "chaos loop stalled with pending frames and no live "
                    "replica holding work"
                )  # pragma: no cover - migrations make this unreachable
            t_disp, ri = best

            t_crash = crash_queue[ci].at_s if ci < len(crash_queue) else math.inf
            if min(t_crash, next_tick) <= t_disp:
                if t_crash <= next_tick:
                    fault = crash_queue[ci]
                    ci += 1
                    r = by_label[fault.shard]
                    events.append(FaultEvent(
                        fault.at_s, "crash", r.label,
                        detail="" if r.alive else "already dead"))
                    if r.alive:
                        r.alive = False
                        r.end_s = fault.at_s
                        crash_recovery.setdefault(fault.at_s, 0.0)
                        replace_streams(r, fault.at_s, fault.at_s,
                                        "failover")
                else:
                    now = next_tick
                    next_tick += self.autoscaler.interval_s
                    total = sum(
                        stream_pressure(si) for si in range(n)
                        if head[si] < len(queues[si])
                    )
                    n_alive = sum(r.alive for r in replicas)
                    decision = scaler_state.observe(total, n_alive)
                    if decision == "up":
                        backend = get_backend(self.autoscaler.backend)
                        count = sum(
                            1 for r in replicas
                            if r.backend.name == backend.name
                        )
                        label = f"{backend.name}:{count}"
                        replicas.append(_Replica(
                            backend, FrameCoster(backend), label,
                            spawned_s=now))
                        added += 1
                        events.append(FaultEvent(
                            now, "scale-up", label,
                            detail=f"pressure {total:.2f}"))
                        # rebalance every pending stream over the fleet
                        moving = [si for si in range(n)
                                  if head[si] < len(queues[si])]
                        alive = [i for i, r in enumerate(replicas)
                                 if r.alive]
                        placement = self.policy.assign(
                            [streams[si] for si in moving],
                            [replicas[i].coster for i in alive],
                        )
                        migrate(moving, [alive[p] for p in placement],
                                now, "rebalance", None)
                    elif decision == "down":
                        alive = [i for i, r in enumerate(replicas)
                                 if r.alive]
                        victim_i = min(
                            alive,
                            key=lambda i: (
                                sum(stream_pressure(si) for si in range(n)
                                    if assigned[si] == i
                                    and head[si] < len(queues[si])),
                                -i,  # drain the newest replica first
                            ),
                        )
                        victim = replicas[victim_i]
                        victim.alive = False
                        victim.end_s = max(now, victim.free_s)
                        removed += 1
                        events.append(FaultEvent(
                            now, "scale-down", victim.label,
                            detail=f"pressure {total:.2f}"))
                        replace_streams(victim, now, None, "scale-down")
                # a crash or a tick can move streams between any replicas
                for r in replicas:
                    r.refresh()
                continue

            # dispatch one frame on replica ri at t_disp
            r = dispatched = replicas[ri]
            ready = sorted(
                [queues[si][head[si]] for si, at in r.ready.items()
                 if at <= t_disp],
                key=_SEQ,
            )
            job = ready[self.scheduler.select(ready, t_disp)]
            si = job.stream_index
            stream = streams[si]
            start = t_disp
            is_key = rekey.effective_key(
                si, job.is_key,
                r.coster.backend.capabilities.supports_ism,
            )

            if not self.scheduler.admit(job, start, is_key):
                dropped[si] += 1
                missed[si] += 1
                rekey.chain_broken(si)
                finish_frame(r, si, "drop")
                pending -= 1
                continue

            service = r.coster.frame_seconds(stream, is_key)
            if r.slow:  # with no slowdown fault the factor is exactly 1.0
                service *= r.slowdown_factor(start)
            rate = r.failure_rate(start) if r.flaky else 0.0
            fails = rate > 0.0 and _u01(
                self.faults.seed, r.label, stream.name,
                job.frame_index, attempts[si],
            ) < rate
            if fails:
                cost = (self.retry.timeout_s
                        if self.retry.timeout_s is not None else service)
                done = start + cost
                if r.crash_s is not None and start < r.crash_s < done:
                    # the crash kills the attempt; the frame migrates
                    r.occupy(start, r.crash_s)
                    continue
                r.occupy(start, done)
                attempts[si] += 1
                retries[si] += 1
                events.append(FaultEvent(
                    done, "flaky-fail", r.label, stream=stream.name,
                    detail=f"frame {job.frame_index} "
                           f"attempt {attempts[si]}"))
                if attempts[si] >= self.retry.max_attempts and not is_key:
                    dropped[si] += 1
                    missed[si] += 1
                    rekey.chain_broken(si)
                    events.append(FaultEvent(
                        done, "retry-drop", r.label, stream=stream.name,
                        detail=f"frame {job.frame_index}"))
                    finish_frame(r, si, "drop")
                    pending -= 1
                else:
                    not_before[si] = done + (
                        self.retry.backoff_s * attempts[si]
                    )
                    r.ready[si] = eff_arrival(si)
                continue

            done = start + service
            if r.crash_s is not None and start < r.crash_s < done:
                # in-flight kill: partial work is wasted, frame migrates
                r.occupy(start, r.crash_s)
                continue
            r.occupy(start, done)
            r.served += 1
            rekey.served(si, is_key)
            key_counts[si] += is_key
            latency = done - job.arrival_s
            latencies[si].append(latency)
            waits[si].append(start - job.arrival_s)
            services[si].append(service)
            completions[si].append(done)
            if done > job.deadline_s:
                missed[si] += 1
                late = done - job.deadline_s
                if late > worst_late[si]:
                    worst_late[si] = late
            if down_since[si] is not None:
                gap = done - down_since[si]
                downtime[si] += gap
                if gap > failover[si]:
                    failover[si] = gap
                crash_at = down_crash[si]
                if gap > crash_recovery.get(crash_at, 0.0):
                    crash_recovery[crash_at] = gap
                down_since[si] = None
                down_crash[si] = None
            finish_frame(r, si, "key" if is_key else "nonkey")
            pending -= 1

        return self._assemble_report(
            streams, replicas, assigned, latencies, waits, services,
            completions, key_counts, missed, dropped, worst_late,
            dispositions, retries, migrations, downtime, failover,
            events, crash_recovery, crash_dests, added, removed,
        )

    # ------------------------------------------------------------------
    # report assembly
    # ------------------------------------------------------------------
    def _assemble_report(
        self, streams, replicas, assigned, latencies, waits, services,
        completions, key_counts, missed, dropped, worst_late,
        dispositions, retries, migrations, downtime, failover,
        events, crash_recovery, crash_dests, added, removed,
    ) -> ClusterReport:
        n = len(streams)
        makespan = max((r.free_s for r in replicas), default=0.0)
        total_served = sum(len(lat) for lat in latencies)
        busy_total = sum(r.busy_s for r in replicas)

        outcome = ServeOutcome(
            latencies_s=tuple(tuple(lat) for lat in latencies),
            key_counts=tuple(key_counts),
            total_frames=total_served,
            makespan_s=makespan,
            busy_s=busy_total,
            waits_s=tuple(tuple(w) for w in waits),
            services_s=tuple(tuple(s) for s in services),
            missed_deadlines=tuple(missed),
            dropped_frames=tuple(dropped),
            worst_lateness_s=tuple(worst_late),
            scheduler=self.scheduler.name,
            dispositions=tuple(tuple(d) for d in dispositions),
        )
        quality = (
            self.quality.score_streams(streams, outcome)
            if self.quality is not None else (None,) * n
        )

        for r in replicas:
            if r.served > 0:
                r.backend.occupancy.record_run(
                    busy_s=r.busy_s, span_s=r.span_s, frames=r.served
                )

        stats = [
            StreamStats.from_latencies(
                streams[si].name, latencies[si], key_counts[si],
                waits_s=waits[si], missed_deadlines=missed[si],
                dropped_frames=dropped[si],
                worst_lateness_s=worst_late[si], quality=quality[si],
            )
            for si in range(n)
        ]
        shards = []
        for ri, r in enumerate(replicas):
            final = [si for si in range(n) if assigned[si] == ri]
            span = r.span_s
            report = EngineReport(
                backend=r.backend.name,
                streams=[stats[si] for si in final],
                total_frames=r.served,
                makespan_s=span,
                aggregate_fps=r.served / span if span > 0 else 0.0,
                mean_service_s=r.busy_s / r.served if r.served else 0.0,
                cache=r.backend.cache_info(),
                busy_s=r.busy_s,
                scheduler=self.scheduler.name,
                missed_deadlines=sum(missed[si] for si in final),
                dropped_frames=sum(dropped[si] for si in final),
            )
            shards.append(BackendShard(
                label=r.label,
                report=report,
                utilization=r.busy_s / makespan if makespan > 0 else 0.0,
            ))

        # a fault's degradation outlives its window: the backlog it
        # built drains at normal speed after it ends, so the envelope
        # extends to the afflicted replica's next idle instant
        by_label = {r.label: r for r in replicas}
        windows = sorted(
            [(f.start_s, by_label[f.shard].drain_after(f.end_s))
             for f in self.faults.faults
             if isinstance(f, (SlowdownFault, FlakyFault))]
            + [
                (at, max(
                    [at + gap]
                    + [replicas[ri].drain_after(at)
                       for ri in crash_dests.get(at, ())]
                ))
                for at, gap in crash_recovery.items()
            ]
        )

        # a percentile depends on the multiset of latencies, not their order
        latency_ms = 1e3 * np.fromiter(chain(*latencies), dtype=np.float64)
        done_s = np.fromiter(chain(*completions), dtype=np.float64)
        in_window = np.zeros(done_s.shape, dtype=bool)
        for w0, w1 in windows:
            in_window |= (w0 <= done_s) & (done_s <= w1)
        degraded, steady = latency_ms[in_window], latency_ms[~in_window]
        p99 = lambda xs: float(np.percentile(xs, 99.0)) if xs.size else 0.0

        resilience = ResilienceStats(
            events=tuple(sorted(events, key=lambda e: e.time_s)),
            streams=tuple(
                StreamResilience(
                    stream=streams[si].name,
                    migrations=migrations[si],
                    retries=retries[si],
                    downtime_s=downtime[si],
                    failover_latency_s=failover[si],
                )
                for si in range(n)
            ),
            replicas_added=added,
            replicas_removed=removed,
            degraded_windows=tuple(windows),
            degraded_p99_ms=p99(degraded),
            steady_p99_ms=p99(steady),
        )
        return ClusterReport(
            policy=self.policy.name,
            scheduler=self.scheduler.name,
            shards=tuple(shards),
            placement=tuple(
                (streams[si].name, replicas[assigned[si]].label)
                for si in range(n)
            ),
            total_frames=total_served,
            makespan_s=makespan,
            resilience=resilience,
        )
