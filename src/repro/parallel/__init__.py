"""Tiled parallel execution of the stereo kernel substrate.

The paper's premise is that exact stereo kernels must be restructured
for parallel hardware to serve in real time; this package is the
software analogue for the reproduction's own hot path.  The real
matchers that back every :class:`~repro.pipeline.quality.QualityProbe`
replay and figure benchmark run single-core out of the box;
:class:`TileExecutor` splits frames into overlap-halo row bands, fans
them across a process/thread pool, and stitches results that are
**bit-identical** to whole-frame execution (pinned by
``tests/test_parallel.py``; design notes in ``docs/performance.md``).

Each multi-worker call cuts one band per worker, and process-pool
jobs receive named shared memory (:mod:`repro.parallel.shm`) instead
of pickled arrays.

>>> from repro.parallel import TileExecutor, available_kernels
>>> available_kernels()
('bm', 'census', 'guided', 'sgm')
>>> TileExecutor(workers=4).workers
4
"""

from typing import TYPE_CHECKING, Any

from repro.parallel.tiles import RowBand, Stencil, split_rows

if TYPE_CHECKING:  # the lazy names below, visible to type checkers
    from repro.parallel.executor import TileExecutor, available_kernels
    from repro.parallel.shm import ShmArena, ShmHandle, shm_available

_EXECUTOR_EXPORTS = ("TileExecutor", "available_kernels")
_SHM_EXPORTS = ("ShmArena", "ShmHandle", "shm_available")


def __getattr__(name: str) -> Any:
    # Lazy because the kernel modules (`repro.stereo`, `repro.flow`)
    # import their stencil declarations from `repro.parallel.tiles` — an
    # eager executor import here would close an import cycle back into
    # those half-initialised modules.
    if name in _EXECUTOR_EXPORTS:
        from repro.parallel import executor

        return getattr(executor, name)
    if name in _SHM_EXPORTS:
        from repro.parallel import shm

        return getattr(shm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "RowBand",
    "ShmArena",
    "ShmHandle",
    "Stencil",
    "TileExecutor",
    "available_kernels",
    "shm_available",
    "split_rows",
]
