"""Design-space exploration for :class:`~repro.parallel.TileExecutor`.

Choosing a tiled configuration by hand — how many rows per band, how
many workers, which pool, which precision — is exactly the kind of
guessing the hardware DSE literature replaced with analytical models:
openposeFPGA's explorer scores every candidate tiling with closed-form
latency estimates (its ``effective_dram_est`` discounts raw DRAM
bandwidth by how well a transfer's burst length amortises the fixed
access latency) and only ever builds the winner.  This module is the
same idea for the software substrate: a :class:`LatencyModel` with
per-band compute, pool-dispatch and shared-memory transfer terms (the
bandwidth terms use the same burst-amortisation form), an exhaustive
:func:`search_config` over ``(tile_rows, workers, pool, precision)``,
and :func:`tuned_tile_rows`, the band height
``TileExecutor(tile_rows="auto")`` — the default — asks for at run
time.  It searches at the nearest point of a fixed frame-size ×
worker-count grid and memoizes each point's pick per process, so a
grid point costs one search (well under a millisecond) per process.

The model is deliberately coarse: its job is to rank configurations,
not to predict wall-clock to the millisecond.  What matters is that it
captures the three first-order effects the benchmarks show — moving
whole volumes between processes rivals band compute, many tiny bands
pay dispatch overhead per band, and one-band-per-worker leaves load
imbalance on the table — and that it is **deterministic**: the same
model always produces the same picks (pinned by
``tests/test_autotune.py``).

>>> cfg = search_config("sgm", (270, 480), workers=4)
>>> cfg.workers, cfg.pool
(4, 'process')
>>> cfg.tile_rows >= 1
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from repro.flow.farneback import farneback_ops
from repro.stereo.block_matching import block_match_ops, guided_block_match_ops
from repro.stereo.sgm import sgm_ops

__all__ = [
    "LatencyModel",
    "TileConfig",
    "predict_latency",
    "search_config",
    "tuned_tile_rows",
]

#: frame sizes :func:`tuned_tile_rows` searches at; lookups snap to the
#: nearest size by area, so off-grid frames still get a sane config
SIZES = ((96, 160), (270, 480), (540, 960), (1080, 1920))

#: worker counts :func:`tuned_tile_rows` searches at
WORKER_GRID = (1, 2, 4, 8, 16)

#: candidate band heights the search scans (clamped to the frame)
TILE_ROWS_LADDER = (1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256)

#: representative disparity search range for the model's op counts
MODEL_MAX_DISP = 64

_POOLS = ("process", "thread")
_PRECISIONS = ("float64", "float32")


@dataclass(frozen=True)
class TileConfig:
    """One explored configuration and its predicted latency."""

    kernel: str
    height: int
    width: int
    tile_rows: int
    workers: int
    pool: str
    precision: str
    predicted_ms: float


@dataclass(frozen=True)
class LatencyModel:
    """Closed-form latency terms for one tiled kernel invocation.

    The defaults describe a commodity multi-core host; they are
    deliberately round numbers — the search only needs the *ratios*
    (compute per op, bytes per second, seconds per dispatch) to rank
    configurations.
    """

    #: sustained NumPy elementwise throughput of one core, Gop/s
    core_gops: float = 1.5
    #: raw streaming memory bandwidth, GB/s
    dram_gbs: float = 20.0
    #: fixed latency a transfer must amortise (page faults, syscalls), µs
    burst_latency_us: float = 50.0
    #: pool submit + result round trip per job, µs
    dispatch_us: float = 200.0
    #: copy into / out of shared-memory segments, GB/s
    shm_gbs: float = 6.0
    #: shared-memory segment open + mmap per attach, µs
    attach_us: float = 60.0
    #: fraction of ideal scaling extra thread workers deliver (GIL)
    thread_efficiency: float = 0.45

    def effective_bandwidth(self, raw_gbs: float, nbytes: float) -> float:
        """Burst-amortised bandwidth in bytes/s (``effective_dram_est``).

        A transfer of ``nbytes`` sustains ``raw * t_burst / (latency +
        t_burst)``: short bursts are latency-bound, long ones approach
        the raw rate.
        """
        raw = raw_gbs * 1e9
        t_burst = nbytes / raw
        return raw * t_burst / (self.burst_latency_us * 1e-6 + t_burst)

    def transfer_seconds(self, raw_gbs: float, nbytes: float) -> float:
        """Seconds to move ``nbytes`` at the burst-amortised rate."""
        if nbytes <= 0:
            return 0.0
        return nbytes / self.effective_bandwidth(raw_gbs, nbytes)


DEFAULT_MODEL = LatencyModel()


@dataclass(frozen=True)
class _KernelProfile:
    """Static shape of one band kernel's work and traffic."""

    n_inputs: int          # arrays shipped to each band job
    halo: int              # extra rows per interior band edge
    volume_out: bool       # output is a (D, h, w) volume, not a map
    ops: "callable"        # ops(h, w) for an h-by-w region


_PROFILES = {
    "bm": _KernelProfile(
        n_inputs=2, halo=4, volume_out=False,
        ops=lambda h, w: block_match_ops(h, w, MODEL_MAX_DISP),
    ),
    "census": _KernelProfile(
        # census transform (~2 ops per comparison bit) + Hamming volume
        n_inputs=2, halo=2, volume_out=False,
        ops=lambda h, w: h * w * (2 * 24 + 4 * MODEL_MAX_DISP),
    ),
    # the banded stages of the non-key flow: per-level expansion and
    # iteration sweeps at the ISM serving parameters (levels=1 because
    # the executor bands each pyramid level separately; the halo is the
    # window-blur tap radius int(4 * 2.5 + 0.5))
    "farneback": _KernelProfile(
        n_inputs=5, halo=10, volume_out=False,
        ops=lambda h, w: farneback_ops(
            h, w, levels=1, iterations=2, window_sigma=2.5
        ),
    ),
    "guided": _KernelProfile(
        n_inputs=3, halo=4, volume_out=False,
        ops=lambda h, w: guided_block_match_ops(h, w),
    ),
    # the banded stage of SGM is the cost-volume build; the direction
    # fan-out is modelled separately in predict_latency
    "sgm": _KernelProfile(
        n_inputs=2, halo=2, volume_out=True,
        ops=lambda h, w: MODEL_MAX_DISP * h * w * (1 + 2 * 5),
    ),
}


def _parallel_workers(model: LatencyModel, pool: str, workers: int) -> float:
    """Effective parallelism of ``workers`` on the given pool."""
    if workers <= 1:
        return 1.0
    if pool == "thread":
        return 1.0 + (workers - 1) * model.thread_efficiency
    return float(workers)


def predict_latency(
    kernel: str,
    size: tuple[int, int],
    tile_rows: int,
    workers: int,
    pool: str = "process",
    precision: str = "float64",
    model: LatencyModel = DEFAULT_MODEL,
) -> float:
    """Predicted seconds for one tiled kernel invocation.

    ``workers=1`` models the inline path (no pool, no shared memory,
    no halo recompute).  Multi-worker process pools are modelled the
    way the executor runs them: inputs are shared once, band payloads
    land in one output segment, and only the SGM direction fan-out
    moves whole volumes.
    """
    if kernel not in _PROFILES:
        raise ValueError(f"unknown kernel {kernel!r}; choose from {sorted(_PROFILES)}")
    h, w = size
    tile_rows = max(1, min(int(tile_rows), h))
    prof = _PROFILES[kernel]
    px = 4 if precision == "float32" else 8
    compute_scale = 0.75 if precision == "float32" else 1.0
    core = model.core_gops * 1e9 / compute_scale

    out_px_bytes = MODEL_MAX_DISP * px if prof.volume_out else 8

    if workers == 1:
        total = prof.ops(h, w) / core
        if kernel == "sgm":
            total += (sgm_ops(h, w, MODEL_MAX_DISP) - prof.ops(h, w)) / core
        return total

    n_bands = math.ceil(h / tile_rows)
    band_rows = tile_rows + 2 * prof.halo
    eff_workers = _parallel_workers(model, pool, workers)

    t_band = prof.ops(band_rows, w) / core
    parent = model.dispatch_us * 1e-6 * n_bands
    if pool == "process":
        in_bytes = prof.n_inputs * h * w * 8
        out_bytes = h * w * out_px_bytes
        # inputs shared once + each job attaches its segments; the
        # payload write streams into the output segment in parallel
        parent += model.transfer_seconds(model.shm_gbs, in_bytes + out_bytes)
        t_band += model.attach_us * 1e-6 * (prof.n_inputs + 1)
        t_band += model.transfer_seconds(
            model.shm_gbs, tile_rows * w * out_px_bytes
        )
    total = parent + math.ceil(n_bands / eff_workers) * t_band

    if kernel == "sgm":
        # direction fan-out: 8 jobs, each one path's share of the
        # aggregation plus a volume write into its output slot
        agg_ops = sgm_ops(h, w, MODEL_MAX_DISP) - prof.ops(h, w)
        vol_bytes = MODEL_MAX_DISP * h * w * px
        t_dir = agg_ops / 8 / core
        parent_dir = model.dispatch_us * 1e-6 * 8
        if pool == "process":
            t_dir += model.attach_us * 1e-6 * 2
            t_dir += model.transfer_seconds(model.shm_gbs, vol_bytes)
            # the parent consumes each slot serially (total += slot)
            parent_dir += 8 * model.transfer_seconds(model.dram_gbs, vol_bytes)
        total += parent_dir + math.ceil(8 / eff_workers) * t_dir
    return total


def search_config(
    kernel: str,
    size: tuple[int, int],
    workers: int | None = None,
    model: LatencyModel = DEFAULT_MODEL,
) -> TileConfig:
    """Exhaustively score the design space and return the winner.

    ``workers`` pins the worker count (:func:`tuned_tile_rows` uses
    this — an executor's pool size is the user's choice); ``None``
    searches it too.  Ties break deterministically toward
    fewer workers, larger bands, ``process``, ``float64``.
    """
    h, w = size
    worker_space = WORKER_GRID if workers is None else (workers,)
    ladder = sorted({min(r, h) for r in TILE_ROWS_LADDER})
    best = None
    for wk in worker_space:
        pools = ("process",) if wk == 1 else _POOLS
        for pool in pools:
            for precision in _PRECISIONS:
                for rows in ladder:
                    predicted = predict_latency(
                        kernel, size, rows, wk, pool, precision, model
                    )
                    key = (
                        predicted,
                        wk,
                        -rows,
                        _POOLS.index(pool),
                        _PRECISIONS.index(precision),
                    )
                    if best is None or key < best[0]:
                        best = (
                            key,
                            TileConfig(
                                kernel=kernel,
                                height=h,
                                width=w,
                                tile_rows=rows,
                                workers=wk,
                                pool=pool,
                                precision=precision,
                                predicted_ms=round(predicted * 1e3, 4),
                            ),
                        )
    return best[1]


@cache
def _grid_pick(kernel: str, size: tuple[int, int], workers: int) -> int:
    """The searched band height at one grid point, once per process."""
    return search_config(kernel, size, workers).tile_rows


def _nearest_size(size: tuple[int, int]) -> tuple[int, int]:
    """The grid size closest to ``size`` by log-area distance.

    Exact ties (an area at the geometric mean of two grid areas, such
    as 360x720) go to the size whose ``"HxW"`` name sorts first.
    """
    area = max(1, size[0] * size[1])
    return min(
        SIZES,
        key=lambda s: (abs(math.log(s[0] * s[1]) - math.log(area)), f"{s[0]}x{s[1]}"),
    )


def tuned_tile_rows(kernel: str, size: tuple[int, int], workers: int) -> int | None:
    """Band height the model picks, or ``None`` for an unknown kernel.

    Snaps to the nearest grid frame size and worker count (ties toward
    fewer workers) and returns that point's :func:`search_config`
    pick, because the executor must band *this* frame for *its* pool.
    ``None`` falls back to the executor's one-band-per-worker default.

    >>> tuned_tile_rows("sgm", (280, 470), 4)   # snaps to 270x480
    24
    """
    if kernel not in _PROFILES:
        return None
    nearest_workers = min(WORKER_GRID, key=lambda w: abs(w - workers))
    return _grid_pick(kernel, _nearest_size(size), nearest_workers)
