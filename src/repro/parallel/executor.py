"""Tiled multi-core execution of the stereo kernels.

:class:`TileExecutor` runs the four real matchers —
:func:`~repro.stereo.block_matching.block_match`,
:func:`~repro.stereo.census.census_block_match`,
:func:`~repro.stereo.sgm.sgm` and
:func:`~repro.stereo.block_matching.guided_block_match` — split into
overlap-halo row bands (:mod:`repro.parallel.tiles`) and fanned across
a process or thread pool, then stitches the bands back together.  The
result is **bit-identical** to whole-frame execution:

* the halo covers each kernel's vertical data dependence (the
  box-filter / census window radius), so every payload pixel sees the
  same inputs it would see un-tiled;
* the cost volumes' box filter computes each output as an independent
  window sum (:func:`repro.stereo.block_matching._box_mean`), so its
  rounding cannot depend on where a band starts;
* every band writes only its own payload rows of one preallocated
  output.

SGM is the exception that proves the halo rule: its path aggregation
is a whole-image dynamic program (a vertical path runs top to bottom),
so *no finite halo* can make independently aggregated bands exact.
The SGM adapter therefore tiles only the cost-volume build by rows
and aggregates the whole volume in the calling thread with the serial
:func:`~repro.stereo.sgm.aggregate_volume`, as
:func:`~repro.stereo.sgm.sgm` does, keeping bit-identity without
approximating the DP.

Each band job has one shape, whatever the pool.  On a multi-worker
process pool every input is shared once through
:mod:`repro.parallel.shm`: jobs receive
:class:`~repro.parallel.shm.ShmHandle` names instead of arrays (the
workers map the parent's pages) and write their payload rows into one
output segment.  Inline and on a thread pool the same jobs receive
the arrays themselves and write into a preallocated array.
Every multi-worker call cuts one band per worker.  Neither the pool
nor the banding affects the computed values, pinned by the
seam-equivalence tests.

``workers=1`` executes inline, as one band (no pool, no shared
memory), and is the reference the seam-equivalence tests pin every
multi-worker configuration against.  The ``precision`` knob selects
the cost-volume dtype for every kernel the executor runs.

The non-key flow methods (:meth:`TileExecutor.expand_frame`,
:meth:`~TileExecutor.flow_from_expansions`, ...) are not banded: they
call the whole-frame :mod:`repro.flow.farneback` kernels at the
executor's precision, so the executor can be an ISM's ``flow=``.  At
``workers > 1``
:func:`~repro.core.correspondence.propagate_correspondences` splits
flow by stream instead, on the plain kernels.

>>> import numpy as np
>>> from repro.datasets import sceneflow_scene
>>> from repro.stereo import block_match
>>> frame = sceneflow_scene(3, size=(31, 48), max_disp=12).render(0)
>>> with TileExecutor(workers=2, pool="thread") as ex:
...     tiled = ex.block_match(frame.left, frame.right, 12)
>>> np.array_equal(tiled, block_match(frame.left, frame.right, 12))
True
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from itertools import islice
from numbers import Integral
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.flow import farneback as _fb
from repro.flow.farneback import FrameExpansion
from repro.parallel.shm import (
    ShmArena,
    ShmHandle,
    arm_segment,
    assert_covered,
    attached,
    claim_region,
    sanitize_enabled,
    shm_available,
)
from repro.parallel.tiles import split_rows
from repro.stereo.block_matching import (
    _check_block_size,
    _check_finite,
    block_match,
    guided_block_match,
    resolve_precision,
    sad_cost_volume,
)
from repro.stereo.census import census_block_match, census_transform
from repro.stereo.sgm import (
    _check_penalties,
    aggregate_path,  # stays only for benchmarks/e2e/spans.py; goes with ROADMAP 1(b)
    aggregate_volume,
    wta_disparity,
)

__all__ = ["TileExecutor", "available_kernels"]


def _census_coded(left: np.ndarray, right_codes: np.ndarray, **kwargs) -> np.ndarray:
    """Band kernel: census matching against precomputed right codes.

    The right image's census codes depend only on the right frame, so
    the tiled adapter computes them once in the parent and hands every
    band the same code rows instead of re-transforming the right band
    per job.
    """
    return census_block_match(left, None, right_codes=right_codes, **kwargs)


#: whole-frame callables a band job may name (names, not functions,
#: cross the process boundary)
_BAND_KERNELS: dict[str, Callable[..., np.ndarray]] = {
    "bm": block_match,
    "census": census_block_match,
    "census_coded": _census_coded,
    "guided": guided_block_match,
    "sad_cost": sad_cost_volume,
}

_POOLS: dict[str, Callable[..., Executor]] = {
    "process": ProcessPoolExecutor,
    "thread": ThreadPoolExecutor,
}


def available_kernels() -> tuple[str, ...]:
    """Names accepted by :meth:`TileExecutor.kernel`.

    >>> available_kernels()
    ('bm', 'census', 'guided', 'sgm')
    """
    return ("bm", "census", "guided", "sgm")


def _operand(stack: ExitStack, ref: np.ndarray | ShmHandle) -> np.ndarray:
    """The array a job reads or writes: ``ref`` itself, or the shared
    segment it names, mapped until ``stack`` closes."""
    if isinstance(ref, ShmHandle):
        return stack.enter_context(attached(ref))
    return ref


def _run_band(
    kernel: str,
    inputs: Sequence[np.ndarray | ShmHandle],
    lo: int,
    hi: int,
    kwargs: dict,
    crop: tuple[int, int],
    row_axis: int,
    out: np.ndarray | ShmHandle,
    start: int,
) -> None:
    """Execute one haloed band and write its payload rows into ``out``.

    The job slices rows ``[lo, hi)`` of every whole-frame input, keeps
    the ``crop`` rows of the kernel's output and writes them at row
    ``start`` of ``out`` (claimed first when the shm sanitizer is
    armed).  Top-level so process pools can pickle the
    job: the kernel is named rather than passed, and on a process pool
    every operand is a :class:`~repro.parallel.shm.ShmHandle`, so only
    names cross the pool pipe.
    """
    with ExitStack() as stack:
        arrays = tuple(_operand(stack, a)[lo:hi] for a in inputs)
        part = _BAND_KERNELS[kernel](*arrays, **kwargs)
        del arrays
    lead = (slice(None),) * row_axis
    part = part[lead + (slice(*crop),)]
    rows = lead + (slice(start, start + part.shape[row_axis]),)
    with ExitStack() as stack:
        dest = _operand(stack, out)
        if sanitize_enabled():
            claim_region(dest, rows, label=f"{kernel} band")
        np.copyto(dest[rows], part)


def _band_output(
    kernel: str, arrays: Sequence[np.ndarray], kwargs: dict
) -> tuple[tuple[int, ...], np.dtype]:
    """Full-frame output (shape, dtype) of a band kernel."""
    h, w = arrays[0].shape[:2]
    if kernel == "sad_cost":
        return (kwargs["max_disp"], h, w), resolve_precision(kwargs["precision"])
    return (h, w), np.dtype(np.float64)


class TileExecutor:
    """Fan stereo kernels across row-band tiles on a worker pool.

    Parameters
    ----------
    workers:
        Pool size and band count: a multi-worker call cuts one row
        band per worker.  ``1`` (the default) executes inline — one
        band, no pool — and is the bit-identical reference.  Must be
        an integer >= 1.
    pool:
        ``"process"`` (default; real multi-core) or ``"thread"`` (no
        shared memory needed; NumPy releases the GIL in the heavy ops,
        so scaling is workload-dependent).  A multi-worker process
        pool moves every operand through POSIX shared memory, so on a
        platform without it construction raises ``ValueError``.
    precision:
        Cost-volume dtype knob, ``"float64"`` (default) or
        ``"float32"``, passed to every kernel the executor runs.

    The pool is created lazily on first multi-band call; use the
    executor as a context manager (or call :meth:`close`) to release
    worker processes deterministically.  A pool whose worker died is
    dropped as the error propagates, and the next call builds a fresh
    one.

    >>> TileExecutor(workers=2, pool="thread")
    TileExecutor(workers=2, pool='thread', precision='float64')
    >>> TileExecutor(pool="greenlet")
    Traceback (most recent call last):
        ...
    ValueError: pool must be one of ('process', 'thread'), got 'greenlet'
    """

    def __init__(
        self,
        workers: int = 1,
        pool: str = "process",
        precision: str = "float64",
    ) -> None:
        integer = isinstance(workers, Integral) and not isinstance(workers, bool)
        if not integer or workers < 1:
            raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
        if pool not in _POOLS:
            raise ValueError(
                f"pool must be one of {tuple(sorted(_POOLS))}, got {pool!r}"
            )
        resolve_precision(precision)  # validate eagerly
        self.workers = int(workers)
        self.pool = pool
        self.precision = precision
        # band jobs get ShmHandles only on a real process pool;
        # workers=1 stays inline on purpose
        self._shm = pool == "process" and self.workers > 1
        if self._shm and not shm_available():
            raise ValueError(
                "pool='process' with workers > 1 needs POSIX shared memory, "
                "which this platform lacks; use pool='thread'"
            )
        self._pool: Executor | None = None

    def __repr__(self) -> str:
        return (
            f"TileExecutor(workers={self.workers}, pool={self.pool!r}, "
            f"precision={self.precision!r})"
        )

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "TileExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _iter_map(
        self, fn: Callable[..., Any], jobs: list[tuple]
    ) -> Iterator[Any]:
        """Yield ``fn``'s results over argument tuples, in job order.

        Lazy so a caller can consume one result at a time, and
        **bounded**: at most ``workers`` jobs are in flight at once.
        Eager submission would hold every job's payload alive
        simultaneously.  The next job is submitted only after the
        previous result has been *consumed* (the generator is
        resumed), so a yielded buffer is never overwritten while the
        caller reads it.

        A worker that dies mid-job breaks the whole process pool: the
        broken pool is shut down without waiting and forgotten before
        the error propagates, so the next call starts a fresh one.
        """
        if self.workers == 1 or len(jobs) == 1:
            for job in jobs:
                yield fn(*job)
            return
        pool = self._pool
        if pool is None:
            pool = self._pool = _POOLS[self.pool](max_workers=self.workers)
        queue = iter(jobs)
        try:
            pending = deque(
                pool.submit(fn, *job) for job in islice(queue, self.workers)
            )
            while pending:
                yield pending.popleft().result()
                job = next(queue, None)
                if job is not None:
                    pending.append(pool.submit(fn, *job))
        except BrokenProcessPool:
            pool.shutdown(wait=False)
            self._pool = None
            raise

    # ------------------------------------------------------------------
    # row-band tiling
    # ------------------------------------------------------------------
    def _tiled(
        self,
        kernel: str,
        arrays: Sequence[np.ndarray],
        kwargs: dict,
        halo: int,
        row_axis: int = 0,
    ) -> np.ndarray:
        """Run ``kernel`` over one haloed row band per worker into one
        output.

        A single band calls the kernel directly on the whole frame.
        With more bands, on a multi-worker process pool every input is
        shared once and the band jobs receive handles, writing into one
        output segment that is copied out once at the end; inline and
        on threads they receive the arrays and write into a
        preallocated array, which is returned as is.
        """
        arrays = tuple(np.asarray(a) for a in arrays)
        bands = split_rows(arrays[0].shape[0], self.workers, halo)
        if len(bands) == 1:
            return _BAND_KERNELS[kernel](*arrays, **kwargs)
        out_shape, out_dtype = _band_output(kernel, arrays, kwargs)
        with ExitStack() as stack:
            if self._shm:
                arena = stack.enter_context(ShmArena())
                inputs: tuple[np.ndarray | ShmHandle, ...] = tuple(
                    arena.share(a) for a in arrays
                )
                handle, view = arena.alloc(out_shape, out_dtype)
                out: np.ndarray | ShmHandle = handle
            else:
                inputs = arrays
                out = view = np.empty(out_shape, out_dtype)
            sanitize = sanitize_enabled() and arm_segment(view)
            jobs = [
                (kernel, inputs, band.lo, band.hi, kwargs, band.crop,
                 row_axis, out, band.start)
                for band in bands
            ]
            for _ in self._iter_map(_run_band, jobs):
                pass
            if sanitize:
                assert_covered(view, label=f"{kernel} output")
            if not self._shm:
                return view
            for ref in inputs:  # free the input frames early
                arena.release(ref)
            result = view.copy()
            del view
            return result

    # ------------------------------------------------------------------
    # the four matchers
    # ------------------------------------------------------------------
    def block_match(
        self,
        left: np.ndarray,
        right: np.ndarray,
        max_disp: int,
        block_size: int = 9,
        subpixel: bool = True,
    ) -> np.ndarray:
        """Tiled :func:`~repro.stereo.block_matching.block_match`."""
        _check_block_size(block_size)  # before any pool or shm work
        return self._tiled(
            "bm",
            (left, right),
            dict(
                max_disp=max_disp,
                block_size=block_size,
                subpixel=subpixel,
                precision=self.precision,
            ),
            halo=block_size // 2,
        )

    def census_block_match(
        self,
        left: np.ndarray,
        right: np.ndarray,
        max_disp: int,
        window: int = 5,
        subpixel: bool = True,
    ) -> np.ndarray:
        """Tiled :func:`~repro.stereo.census.census_block_match`.

        Multi-worker runs compute the right image's census transform
        once, in the parent, and hand every band the precomputed code
        rows (the codes depend only on the right frame); the inline
        ``workers=1`` path calls the plain two-image matcher and is
        the bit-identity reference for both.
        """
        kwargs = dict(
            max_disp=max_disp,
            window=window,
            subpixel=subpixel,
            precision=self.precision,
        )
        if self.workers == 1:
            return self._tiled("census", (left, right), kwargs, halo=window // 2)
        codes = census_transform(np.asarray(right), window)
        return self._tiled("census_coded", (left, codes), kwargs, halo=window // 2)

    def guided_block_match(
        self,
        left: np.ndarray,
        right: np.ndarray,
        init: np.ndarray,
        radius: int = 4,
        block_size: int = 9,
        subpixel: bool = True,
        accept_margin: float = 0.1,
    ) -> np.ndarray:
        """Tiled :func:`~repro.stereo.block_matching.guided_block_match`.

        The per-pixel init map is banded alongside the images; the
        guided gather is same-row, so the halo is still just the
        box-filter radius no matter how large ``radius`` is.
        """
        _check_block_size(block_size)
        return self._tiled(
            "guided",
            (left, right, init),
            dict(
                radius=radius,
                block_size=block_size,
                subpixel=subpixel,
                accept_margin=accept_margin,
                precision=self.precision,
            ),
            halo=block_size // 2,
        )

    def sgm(
        self,
        left: np.ndarray,
        right: np.ndarray,
        max_disp: int,
        block_size: int = 5,
        p1: float = 0.05,
        p2: float = 0.5,
        paths: int = 8,
        subpixel: bool = True,
    ) -> np.ndarray:
        """Parallel :func:`~repro.stereo.sgm.sgm`.

        The cost volume is built from row bands.  The aggregation is a
        whole-image DP that no finite halo can tile exactly, so the
        whole volume is then aggregated in the calling thread by
        :func:`~repro.stereo.sgm.aggregate_volume`, as
        :func:`~repro.stereo.sgm.sgm` does: every configuration is
        bit-identical to it.

        Raises ``ValueError``, before any pool starts, for ``paths``
        other than 2, 4 or 8, an even ``block_size``, a negative or NaN
        ``p1`` or ``p2``, and a NaN or infinite pixel.
        """
        if paths not in (2, 4, 8):
            raise ValueError("paths must be 2, 4 or 8")
        _check_block_size(block_size)
        _check_penalties(p1, p2)
        _check_finite(left, right)
        cost = self._tiled(
            "sad_cost",
            (left, right),
            dict(max_disp=max_disp, block_size=block_size, precision=self.precision),
            halo=block_size // 2,
            row_axis=1,
        )
        return wta_disparity(aggregate_volume(cost, p1, p2, paths), subpixel)

    # ------------------------------------------------------------------
    # the non-key flow kernels: whole-frame, at the executor's precision
    # ------------------------------------------------------------------
    # stays only for benchmarks/e2e/spans.py; goes with ROADMAP 1(b)
    def poly_expansion(
        self,
        img: np.ndarray,
        sigma: float = 1.5,
        radius: int | None = None,
        precision: str | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:func:`~repro.flow.farneback.poly_expansion`;
        ``precision=None`` (the default) uses the executor's own."""
        return _fb.poly_expansion(
            img, sigma, radius, self.precision if precision is None else precision
        )

    def expand_frame(
        self,
        frame: np.ndarray,
        levels: int = 3,
        sigma: float = 1.5,
        radius: int | None = None,
        precision: str | None = None,
    ) -> FrameExpansion:
        """:func:`~repro.flow.farneback.expand_frame`;
        ``precision=None`` (the default) uses the executor's own."""
        return _fb.expand_frame(
            frame, levels, sigma, radius,
            self.precision if precision is None else precision,
        )

    def flow_iteration(
        self,
        A1: np.ndarray,
        b1: np.ndarray,
        A2: np.ndarray,
        b2: np.ndarray,
        flow: np.ndarray,
        window_sigma: float = 4.0,
    ) -> np.ndarray:
        """:func:`~repro.flow.farneback.flow_iteration`, the ``step``
        :meth:`flow_from_expansions` runs each update through."""
        return _fb.flow_iteration(A1, b1, A2, b2, flow, window_sigma)

    def flow_from_expansions(
        self,
        exp0: FrameExpansion,
        exp1: FrameExpansion,
        iterations: int = 3,
        window_sigma: float = 4.0,
    ) -> np.ndarray:
        """:func:`~repro.flow.farneback.flow_from_expansions` with
        every update through :meth:`flow_iteration`."""
        return _fb.flow_from_expansions(
            exp0, exp1, iterations, window_sigma, step=self.flow_iteration
        )

    def kernel(self, name: str) -> Callable[..., np.ndarray]:
        """The tiled kernel registered under ``name``.

        ``"bm"`` / ``"census"`` / ``"sgm"`` return matchers with the
        ``(left, right, max_disp, ...)`` signature the serving stack's
        matcher registry expects; ``"guided"`` returns the ISM
        refinement with its ``(left, right, init, ...)`` signature.

        >>> ex = TileExecutor()
        >>> ex.kernel("bm").__name__
        'block_match'
        >>> ex.kernel("orb")
        Traceback (most recent call last):
            ...
        ValueError: unknown kernel 'orb'; choose from ('bm', 'census', 'guided', 'sgm')
        """
        kernels: dict[str, Callable[..., np.ndarray]] = {
            "bm": self.block_match,
            "census": self.census_block_match,
            "guided": self.guided_block_match,
            "sgm": self.sgm,
        }
        if name not in kernels:
            raise ValueError(
                f"unknown kernel {name!r}; choose from {available_kernels()}"
            )
        return kernels[name]
