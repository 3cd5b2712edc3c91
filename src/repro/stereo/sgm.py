"""Semi-global matching (Hirschmuller) — the paper's SGBN/HH baselines.

Aggregates the SAD matching cost along 1-D paths with the standard
two-penalty smoothness model:

    L_r(p, d) = C(p, d) + min( L_r(p-r, d),
                               L_r(p-r, d±1) + P1,
                               min_k L_r(p-r, k) + P2 ) - min_k L_r(p-r, k)

summed over 2, 4 or 8 path directions, followed by winner-takes-all
and sub-pixel interpolation.  The 8-path variant stands in for the
paper's "HH" (accurate) configuration and the 4-path variant for
"SGBN" (the OpenCV-style semi-global block matcher).

The aggregation is the dominant serial cost of the whole kernel
substrate, so it is written as **contiguous in-place sweeps**: the DP
steps line by line along the path direction, each step operating on a
whole ``(D, N)`` line of independent paths with preallocated scratch
buffers — no per-pixel Python, no per-step allocation, no strided
``moveaxis`` walks.  Lines are sliced so their last axis is contiguous
(the volume is plane-transposed once for the two horizontal
directions), which is where the speedup over the old per-column loop
comes from.  The arithmetic is **bit-identical** to the scalar
reference DP (pinned for all 8 directions in
``tests/test_stereo_matchers.py``): every elementwise term is the same
IEEE operation in the same grouping, and the neighbour trick
``min(a, b) + P1 == min(a + P1, b + P1)`` is exact because float
addition of a shared constant is monotone.
"""

from __future__ import annotations

import numpy as np

from repro.stereo.block_matching import _subpixel_refine, sad_cost_volume

__all__ = [
    "aggregate_path",
    "aggregate_volume",
    "sgm",
    "sgm_ops",
    "wta_disparity",
]

_DIRECTIONS_8 = [
    (0, 1), (0, -1), (1, 0), (-1, 0),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
]


def _line_step(prev, cost_line, out_line, nm, floor, cap, p1, p2):
    """One DP step for a whole ``(D, n)`` line of independent paths.

    Writes ``cost_line + (best - floor)`` into ``out_line`` where
    ``best = min(prev[d], prev[d-1]+P1, prev[d+1]+P1, floor+P2)``.
    ``nm`` / ``floor`` / ``cap`` are caller-owned scratch buffers
    sliced to the line width, reused across every step of a sweep.
    """
    d = prev.shape[0]
    np.min(prev, axis=0, keepdims=True, out=floor)
    if d > 1:
        # min(prev[d-1], prev[d+1]) + P1 == min(prev[d-1]+P1, prev[d+1]+P1)
        # exactly: rounding a shared-constant add is monotone, so the
        # min commutes with it bit-for-bit.
        nm[0] = prev[1]
        nm[-1] = prev[-2]
        if d > 2:
            np.minimum(prev[:-2], prev[2:], out=nm[1:-1])
        np.add(nm, p1, out=nm)
        np.minimum(nm, prev, out=nm)
    else:
        nm[:] = prev
    np.add(floor, p2, out=cap)
    np.minimum(nm, cap, out=nm)
    np.subtract(nm, floor, out=nm)
    np.add(cost_line, nm, out=out_line)


def _sweep(cost, out, p1, p2, shift=0, reverse=False, accum=None):
    """Aggregate a ``(D, L, N)`` volume along axis 1, into ``out``.

    Line ``i`` takes its predecessor from line ``i-1`` (``i+1`` when
    ``reverse``), displaced ``shift`` positions along the last axis;
    positions whose displaced predecessor falls outside the line
    restart the path (``L_r = C``), as does the first line.  Both
    volumes must be sliced so the last axis is contiguous.

    When ``accum`` is given, each finished line is added into the
    matching line of ``accum`` while it is still cache-hot — one fused
    pass instead of a separate whole-volume ``total += out`` later.
    """
    d_levels, length, n = cost.shape
    nm = np.empty((d_levels, n), dtype=cost.dtype)
    floor = np.empty((1, n), dtype=cost.dtype)
    cap = np.empty((1, n), dtype=cost.dtype)
    order = range(length) if not reverse else range(length - 1, -1, -1)
    first = True
    for i in order:
        line_out = out[:, i, :]
        if first:
            line_out[...] = cost[:, i, :]
            first = False
        else:
            prev = out[:, i + (1 if reverse else -1), :]
            cur_cost = cost[:, i, :]
            cur_out = line_out
            if shift > 0:
                cur_out[:, :shift] = cur_cost[:, :shift]  # path restarts
                prev, cur_cost, cur_out = (
                    prev[:, : n - shift], cur_cost[:, shift:], cur_out[:, shift:]
                )
            elif shift < 0:
                cur_out[:, n + shift:] = cur_cost[:, n + shift:]
                prev, cur_cost, cur_out = (
                    prev[:, -shift:], cur_cost[:, : n + shift], cur_out[:, : n + shift]
                )
            width = cur_cost.shape[1]
            if width:  # |shift| >= line width: every path restarts
                _line_step(
                    prev, cur_cost, cur_out,
                    nm[:, :width], floor[:, :width], cap[:, :width], p1, p2,
                )
        if accum is not None:
            acc = accum[:, i, :]
            np.add(acc, line_out, out=acc)


def aggregate_path(cost: np.ndarray, dy: int, dx: int, p1: float, p2: float) -> np.ndarray:
    """Aggregate a (D, H, W) cost volume along one path direction.

    Vertical and diagonal directions sweep the volume in its native
    ``(D, H, W)`` layout (lines are contiguous image rows); the two
    horizontal directions sweep a plane-transposed ``(D, W, H)`` copy
    so their lines are contiguous too, and return a transposed *view*
    of the aggregated volume (same values, non-contiguous strides).
    """
    cost = np.ascontiguousarray(cost)
    if dy == 0:
        cost_t = np.ascontiguousarray(cost.transpose(0, 2, 1))
        out_t = np.empty_like(cost_t)
        _sweep(cost_t, out_t, p1, p2, shift=0, reverse=dx < 0)
        return out_t.transpose(0, 2, 1)
    out = np.empty_like(cost)
    _sweep(cost, out, p1, p2, shift=dx, reverse=dy < 0)
    return out


def aggregate_volume(
    cost: np.ndarray, p1: float, p2: float, paths: int = 8
) -> np.ndarray:
    """Sum of :func:`aggregate_path` over the first ``paths`` directions.

    Bit-identical to accumulating the per-direction volumes into a
    zero total in ``_DIRECTIONS_8`` order (what the direction-parallel
    adapter in :mod:`repro.parallel` does), but ~2x faster serially:
    one plane-transposed copy serves both horizontal sweeps, and the
    sweep output buffers are reused across directions instead of
    being freshly allocated (and page-faulted) eight times.
    """
    if paths not in (2, 4, 8):
        raise ValueError("paths must be 2, 4 or 8")
    cost = np.ascontiguousarray(cost)
    d_levels, h, w = cost.shape
    # the two horizontal directions: one (D, W, H) copy; the forward
    # sweep's output doubles as the running total (a volume of
    # non-negative values is bitwise equal to 0 + itself), the
    # backward sweep accumulates into it line by line while hot.
    # .copy() rather than ascontiguousarray: a size-1 plane makes the
    # transpose *view* already contiguous, and the buffer reuse below
    # must never alias the cost volume it is swept against
    cost_t = cost.transpose(0, 2, 1).copy()
    total_t = np.empty_like(cost_t)
    out_t = np.empty_like(cost_t)
    _sweep(cost_t, total_t, p1, p2, shift=0, reverse=False)
    _sweep(cost_t, out_t, p1, p2, shift=0, reverse=True, accum=total_t)
    # transpose the horizontal total back into native layout, reusing
    # out_t's already-faulted pages as the destination
    total = out_t.reshape(d_levels, h, w)
    np.copyto(total, total_t.transpose(0, 2, 1))
    if paths > 2:
        # cost_t's pages become the vertical/diagonal sweep scratch
        out = cost_t.reshape(d_levels, h, w)
        for dy, dx in _DIRECTIONS_8[2:paths]:
            _sweep(cost, out, p1, p2, shift=dx, reverse=dy < 0, accum=total)
    return total


def wta_disparity(total: np.ndarray, subpixel: bool = True) -> np.ndarray:
    """Winner-takes-all (+ sub-pixel fit) over an aggregated volume.

    Shared by :func:`sgm` and the direction-parallel SGM adapter in
    :mod:`repro.parallel`, so both select from the summed volume with
    the exact same arithmetic.
    """
    disp = total.argmin(axis=0).astype(np.float64)
    if subpixel:
        disp = _subpixel_refine(total, disp)
    return disp


def sgm(
    left: np.ndarray,
    right: np.ndarray,
    max_disp: int,
    block_size: int = 5,
    p1: float = 0.05,
    p2: float = 0.5,
    paths: int = 8,
    subpixel: bool = True,
    precision: str = "float64",
) -> np.ndarray:
    """Semi-global matching disparity for the left image."""
    if paths not in (2, 4, 8):
        raise ValueError("paths must be 2, 4 or 8")
    cost = sad_cost_volume(left, right, max_disp, block_size, precision)
    total = aggregate_volume(cost, p1, p2, paths)
    return wta_disparity(total, subpixel)


def sgm_ops(h: int, w: int, max_disp: int, block_size: int = 5, paths: int = 8) -> int:
    """Arithmetic operation count of SGM (for the Fig. 1 cost model)."""
    cost_ops = max_disp * h * w * (1 + 2 * block_size)
    # per path, per pixel, per disparity: ~5 compares/adds
    aggregate_ops = paths * h * w * max_disp * 5
    wta = h * w * max_disp
    return cost_ops + aggregate_ops + wta
