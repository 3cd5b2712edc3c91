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
substrate, so each direction is a **line sweep that keeps two line
buffers**: the DP steps line by line along the path direction, each
step operating on a whole ``(D, N)`` line of independent paths, and
each finished line is added into the running total while it is still
in cache.  No per-direction volume is written or read back, so the
peak memory is the cost volume, its plane-transposed copy (whose
lines are contiguous for the horizontal directions) and one total.

The arithmetic is **bit-identical** to the scalar reference DP (pinned
for all 8 directions in ``tests/test_stereo_matchers.py``): every
elementwise term is the same IEEE operation in the same grouping, and
every element of the total receives its direction terms in
``_DIRECTIONS_8`` order (float addition does not reassociate, so the
sweeps fold one direction at a time).  Two exact facts carry the fast
parts:

* the neighbour trick ``min(a, b) + P1 == min(a + P1, b + P1)`` holds
  bit for bit because adding a shared constant is monotone;
* **restarts by zero padding** — each line buffer starts zero and,
  for the diagonal directions, has a zero column on either side, so a
  path entering at the border reads a zero predecessor: ``floor = 0``
  and ``best = min(0, P1, P2) = 0`` for ``P1, P2 >= 0``, hence
  ``L = C + 0 = C`` exactly (for any cost but ``-0.0``, which a SAD
  cost never is).  This is why the penalties must be non-negative.
"""

from __future__ import annotations

import numpy as np

from repro.stereo.block_matching import _check_finite, _subpixel_refine, sad_cost_volume

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


def _check_penalties(p1: float, p2: float) -> None:
    """Zero-padded restarts are exact only for ``P1, P2 >= 0``."""
    if not (p1 >= 0 and p2 >= 0):  # also refuses NaN
        raise ValueError(f"p1 and p2 must be >= 0, got p1={p1!r}, p2={p2!r}")


def _line_step(prev, cost_line, out_line, nm, floor, cap, p1, p2):
    """One DP step for a whole ``(D, n)`` line of independent paths.

    Writes ``cost_line + (best - floor)`` into ``out_line`` where
    ``best = min(prev[d], prev[d-1]+P1, prev[d+1]+P1, floor+P2)``.
    ``nm`` / ``floor`` / ``cap`` are caller-owned scratch buffers of
    the line width, reused across every step of a sweep.
    """
    d = prev.shape[0]
    np.minimum.reduce(prev, axis=0, keepdims=True, out=floor)
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


def _fold_path(cost, total, p1, p2, shift=0, reverse=False):
    """Add one direction's path costs into ``total``, line by line.

    ``cost`` and ``total`` are ``(D, L, N)`` volumes swept along axis 1
    (from the last line when ``reverse``); each line takes its
    predecessor from the line before it in the sweep, displaced
    ``shift`` positions along the last axis.  Two line buffers in the
    cost's dtype alternate, each with ``|shift|`` zero columns on
    either side and zero to start with, so the first line and every
    position whose predecessor falls outside the line restart the path
    (``L = C``, see the module docstring).  Each finished line is
    added into the same line of ``total`` while it is hot.
    """
    d_levels, length, n = cost.shape
    pad = abs(shift)
    bufs = [np.zeros((d_levels, n + 2 * pad), cost.dtype) for _ in range(2)]
    lines = [b[:, pad:pad + n] for b in bufs]
    preds = [b[:, pad - shift:pad - shift + n] for b in bufs]
    nm = np.empty((d_levels, n), cost.dtype)
    floor = np.empty((1, n), cost.dtype)
    cap = np.empty_like(floor)
    order = range(length - 1, -1, -1) if reverse else range(length)
    for step, i in enumerate(order):
        line = lines[step & 1]
        _line_step(preds[(step + 1) & 1], cost[:, i], line, nm, floor, cap, p1, p2)
        acc = total[:, i]
        np.add(acc, line, out=acc)


def aggregate_path(cost: np.ndarray, dy: int, dx: int, p1: float, p2: float) -> np.ndarray:
    """Aggregate a (D, H, W) cost volume along one path direction.

    The one-direction case of :func:`aggregate_volume`'s sweep, folded
    into a zero volume (``0 + L == L``).  Vertical and diagonal
    directions sweep the volume in its native ``(D, H, W)`` layout
    (lines are contiguous image rows); the two horizontal directions
    sweep a plane-transposed ``(D, W, H)`` copy so their lines are
    contiguous too, and return a transposed *view* of the aggregated
    volume (same values, non-contiguous strides).  Raises
    ``ValueError`` for a negative or NaN ``p1`` or ``p2``.
    """
    _check_penalties(p1, p2)
    cost = np.ascontiguousarray(cost)
    if dy == 0:
        cost_t = np.ascontiguousarray(cost.transpose(0, 2, 1))
        total_t = np.zeros_like(cost_t)
        _fold_path(cost_t, total_t, p1, p2, reverse=dx < 0)
        return total_t.transpose(0, 2, 1)
    total = np.zeros_like(cost)
    _fold_path(cost, total, p1, p2, shift=dx, reverse=dy < 0)
    return total


def aggregate_volume(
    cost: np.ndarray, p1: float, p2: float, paths: int = 8
) -> np.ndarray:
    """Sum of :func:`aggregate_path` over the first ``paths`` directions.

    Bit-identical to accumulating the per-direction volumes into a
    zero total in ``_DIRECTIONS_8`` order, without writing any
    per-direction volume: each direction's sweep folds its finished
    lines into the total while they are hot.  The two horizontal
    directions sweep a plane-transposed copy, whose pages then become
    the native total.  Raises ``ValueError`` for ``paths`` other than
    2, 4 or 8 and for a negative or NaN ``p1`` or ``p2``; the input
    volume is never modified.

    >>> cost = np.random.default_rng(0).uniform(size=(4, 5, 7))
    >>> composed = sum(
    ...     aggregate_path(cost, dy, dx, 0.05, 0.5) for dy, dx in _DIRECTIONS_8
    ... )
    >>> aggregate_volume(cost, 0.05, 0.5).tobytes() == composed.tobytes()
    True
    >>> aggregate_volume(cost, -0.1, 0.5)
    Traceback (most recent call last):
        ...
    ValueError: p1 and p2 must be >= 0, got p1=-0.1, p2=0.5
    """
    if paths not in (2, 4, 8):
        raise ValueError("paths must be 2, 4 or 8")
    _check_penalties(p1, p2)
    cost = np.ascontiguousarray(cost)
    d_levels, h, w = cost.shape
    # .copy() rather than ascontiguousarray: a size-1 plane makes the
    # transpose *view* already contiguous, and its pages become the
    # total below, which must never alias the caller's volume
    cost_t = cost.transpose(0, 2, 1).copy()
    total_t = np.zeros_like(cost_t)
    _fold_path(cost_t, total_t, p1, p2)
    _fold_path(cost_t, total_t, p1, p2, reverse=True)
    total = cost_t.reshape(d_levels, h, w)
    np.copyto(total, total_t.transpose(0, 2, 1))
    for dy, dx in _DIRECTIONS_8[2:paths]:
        _fold_path(cost, total, p1, p2, shift=dx, reverse=dy < 0)
    return total


def wta_disparity(total: np.ndarray, subpixel: bool = True) -> np.ndarray:
    """Winner-takes-all (+ sub-pixel fit) over an aggregated volume.

    Shared by :func:`sgm` and
    :meth:`repro.parallel.executor.TileExecutor.sgm`, so both select
    from the summed volume with the exact same arithmetic.
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
    """Semi-global matching disparity for the left image.

    Raises ``ValueError`` for ``paths`` other than 2, 4 or 8, for a
    negative or NaN ``p1`` or ``p2``, and for a NaN or infinite pixel
    (whose cost would otherwise be smoothed into a finite disparity).
    """
    if paths not in (2, 4, 8):
        raise ValueError("paths must be 2, 4 or 8")
    _check_penalties(p1, p2)
    _check_finite(left, right)
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
