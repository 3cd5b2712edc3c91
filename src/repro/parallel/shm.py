"""Shared-memory transport for tiled kernel jobs.

Process-pool band jobs never receive arrays through the pool's pipes
(a cost-volume band would serialise its ``(D, rows, W)`` slice back
through them).  They are handed an :class:`ShmHandle` (name + shape +
dtype — a few hundred bytes) of a named POSIX shared-memory segment
and map the pages the parent wrote.

Lifecycle: the parent side owns every segment through an
:class:`ShmArena` — it creates, unlinks, and closes them, and a
``weakref.finalize`` guard unlinks leftovers even if the owning call
dies mid-flight (the ``asv_``-prefixed names also make stray segments
easy to audit in ``/dev/shm``).  Workers only ever *attach*:
:func:`attached` maps a segment for the duration of a job and closes
the mapping on the way out.

Resource-tracker protocol: on this Python (< 3.13, no ``track=False``)
*every* ``SharedMemory`` — attach included — registers with the
resource tracker, whose cache is a *set* keyed by name.  The pool
workers are forked, so they share the parent's tracker: their attach
registrations are idempotent re-adds of the parent's own entry, and
nobody may unregister except the single parent-side ``unlink()``
(a per-attach unregister would remove the shared entry and make the
parent's later unlink a tracker error).  Keeping the entry registered
until unlink is also the crash-safety net — if the parent dies without
cleanup, the tracker unlinks the segment at exit.

>>> import numpy as np
>>> with ShmArena() as arena:
...     handle = arena.share(np.arange(6.0).reshape(2, 3))
...     with attached(handle) as arr:
...         float(arr.sum())
15.0
"""

from __future__ import annotations

import os
import secrets
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Iterator

import numpy as np
from numpy.typing import DTypeLike

__all__ = [
    "ShmArena",
    "ShmHandle",
    "ShmSanitizeError",
    "attached",
    "shm_available",
    "sanitize_enabled",
    "arm_segment",
    "claim_region",
    "assert_covered",
]

#: every segment name starts with this, so a leak check is just
#: ``ls /dev/shm/asv_*``
SEGMENT_PREFIX = "asv_"


def shm_available() -> bool:
    """Whether named shared memory works on this platform."""
    try:
        seg = shared_memory.SharedMemory(
            name=SEGMENT_PREFIX + "probe_" + secrets.token_hex(4), create=True, size=8
        )
    except (OSError, ValueError):  # pragma: no cover - platform-dependent
        return False
    seg.unlink()
    seg.close()
    return True


@dataclass(frozen=True)
class ShmHandle:
    """Picklable reference to a shared array (name, not data)."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def _as_array(handle: ShmHandle, seg: shared_memory.SharedMemory) -> np.ndarray:
    return np.ndarray(handle.shape, dtype=np.dtype(handle.dtype), buffer=seg.buf)


def _close_quietly(seg: shared_memory.SharedMemory) -> None:
    """Close a mapping, tolerating still-exported numpy views.

    ``close()`` raises ``BufferError`` while any view of ``seg.buf`` is
    alive; the view's owner drops it moments later and the mapping is
    then reclaimed by ``SharedMemory.__del__`` — only the *name* must
    be released promptly, and that is ``unlink()``'s job.
    """
    try:
        seg.close()
    except BufferError:  # pragma: no cover - depends on caller ref timing
        pass


# ----------------------------------------------------------------------
# the opt-in write-overlap sanitizer (ASV_SHM_SANITIZE=1)
# ----------------------------------------------------------------------
#
# Band jobs write disjoint row ranges of one full-size output (a shared
# segment on a process pool, a preallocated array inline and on
# threads); nothing *enforces* the disjointness — a banding bug would
# make two jobs race on the same rows and the corruption would only
# surface as a wrong pixel somewhere downstream.  With
# ``ASV_SHM_SANITIZE=1`` the parent arms each float output by filling it
# with NaN (the "unwritten" sentinel — no tiled kernel produces NaN,
# which :func:`assert_covered` re-checks), every band job *claims* its
# target region by asserting it is still all-NaN before writing, and
# the parent asserts full coverage (no sentinel left) after the last
# job.  Claimed-before-write + fully-covered-after == the bands
# partition the output.


def sanitize_enabled() -> bool:
    """Whether the ``ASV_SHM_SANITIZE=1`` overlap sanitizer is armed.

    Read per call (not cached) so pool workers — which inherit the
    parent's environment — and tests see changes immediately.
    """
    return os.environ.get("ASV_SHM_SANITIZE", "") == "1"


class ShmSanitizeError(AssertionError):
    """An overlap/coverage violation caught by the shm sanitizer."""


def arm_segment(view: np.ndarray) -> bool:
    """Fill a float output segment with the unwritten sentinel.

    Returns whether the segment was armed (only floating dtypes have a
    NaN sentinel; every tiled kernel output is float32/float64).
    """
    if not np.issubdtype(view.dtype, np.floating):
        return False
    view.fill(np.nan)
    return True


def claim_region(dest: np.ndarray, index: tuple, label: str = "band") -> None:
    """Assert the target region is still unwritten, then let the write
    proceed.  Called by band jobs *in the worker* just before their
    ``np.copyto``; raises :class:`ShmSanitizeError` when another band
    already wrote any of these rows."""
    region = dest[index]
    if not np.issubdtype(region.dtype, np.floating):
        return
    if not np.all(np.isnan(region)):
        raise ShmSanitizeError(
            f"shm sanitizer: {label} writes rows already claimed by another "
            f"band (index {index!r}); row ranges must be disjoint"
        )


def assert_covered(view: np.ndarray, label: str = "output") -> None:
    """Assert every element of an armed segment was written exactly once
    (no sentinel survives).  Runs in the parent after the last job."""
    if not np.issubdtype(view.dtype, np.floating):
        return
    if np.any(np.isnan(view)):
        raise ShmSanitizeError(
            f"shm sanitizer: {label} has unwritten (or NaN-producing) "
            "elements after all bands completed; bands must cover every row"
        )


@contextmanager
def attached(handle: ShmHandle) -> Iterator[np.ndarray]:
    """Map a shared segment for the duration of a worker job.

    The mapping is closed on exit; the tracker registration made by the
    attach is intentionally left in place (see the module docstring —
    forked workers share the parent's tracker, and the registration set
    entry belongs to the parent until it unlinks).
    """
    seg = shared_memory.SharedMemory(name=handle.name)
    try:
        yield _as_array(handle, seg)
    finally:
        _close_quietly(seg)


class ShmArena:
    """Parent-owned set of shared-memory arrays with crash-safe cleanup.

    ``share`` copies an existing array into a fresh segment; ``alloc``
    creates an uninitialised output segment the parent can read back
    through the returned view.  ``release`` drops one segment early
    (the band tiler frees the input frames once every band has run);
    ``close`` — also run by the context manager and by a
    ``weakref.finalize`` if the arena is dropped without it — unlinks
    everything that remains.

    The segment table is guarded by an ``RLock``: the finalizer runs on
    whatever thread drops the last reference (often the GC), so it can
    race a concurrent ``release``/``close`` on the owning thread —
    without the lock a double ``unlink`` of the same segment, or an
    unlink skipped entirely, is possible.  The lock is re-entrant
    because ``close`` calls ``_cleanup`` while already holding it, and
    it is passed to the finalizer explicitly (the finalizer must not
    keep ``self`` alive).
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._lock = threading.RLock()
        self._finalizer = weakref.finalize(
            self, ShmArena._cleanup, self._segments, self._lock
        )

    @staticmethod
    def _cleanup(
        segments: dict[str, shared_memory.SharedMemory], lock: threading.RLock
    ) -> None:
        with lock:
            for seg in segments.values():
                try:
                    seg.unlink()
                except Exception:  # pragma: no cover - best-effort teardown
                    pass
                _close_quietly(seg)
            segments.clear()

    def _create(
        self, shape: tuple[int, ...], dtype: DTypeLike
    ) -> tuple[ShmHandle, np.ndarray]:
        dtype = np.dtype(dtype)
        handle = ShmHandle(
            name=SEGMENT_PREFIX + secrets.token_hex(8),
            shape=tuple(int(s) for s in shape),
            dtype=dtype.str,
        )
        seg = shared_memory.SharedMemory(
            name=handle.name, create=True, size=max(1, handle.nbytes)
        )
        with self._lock:
            self._segments[handle.name] = seg
        return handle, _as_array(handle, seg)

    def share(self, array: np.ndarray) -> ShmHandle:
        """Copy ``array`` into a new shared segment, returning its handle."""
        array = np.ascontiguousarray(array)
        handle, view = self._create(array.shape, array.dtype)
        np.copyto(view, array)
        del view
        return handle

    def alloc(
        self, shape: tuple[int, ...], dtype: DTypeLike
    ) -> tuple[ShmHandle, np.ndarray]:
        """Create an output segment; the parent keeps the writable view."""
        return self._create(shape, dtype)

    def release(self, handle: ShmHandle) -> None:
        """Unlink one segment early (no-op if already released)."""
        with self._lock:
            seg = self._segments.pop(handle.name, None)
        if seg is not None:
            seg.unlink()
            _close_quietly(seg)

    def close(self) -> None:
        """Unlink every remaining segment (idempotent)."""
        with self._lock:  # re-entrant: _cleanup locks again
            ShmArena._cleanup(self._segments, self._lock)

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
