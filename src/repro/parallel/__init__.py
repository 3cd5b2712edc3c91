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
of pickled arrays.  Flow is not banded: the executor's flow methods
run the plain whole-frame kernels, and at ``workers > 1`` the ISM
splits flow by stream instead
(:func:`~repro.core.correspondence.propagate_correspondences`).

>>> from repro.parallel import TileExecutor, available_kernels
>>> available_kernels()
('bm', 'census', 'guided', 'sgm')
>>> TileExecutor(workers=4).workers
4
"""

from repro.parallel.executor import TileExecutor, available_kernels
from repro.parallel.shm import ShmArena, ShmHandle, shm_available
from repro.parallel.tiles import RowBand, split_rows

__all__ = [
    "RowBand",
    "ShmArena",
    "ShmHandle",
    "TileExecutor",
    "available_kernels",
    "shm_available",
    "split_rows",
]
