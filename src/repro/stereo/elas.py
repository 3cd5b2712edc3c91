"""ELAS-style stereo matching (Geiger et al., ACCV'10) — Fig. 1 baseline.

Efficient Large-scale Stereo builds a *prior* from a sparse set of
confidently-matched support points, interpolates it piecewise linearly
(the original triangulates; we interpolate along epipolar rows first —
see :func:`interpolate_prior` for why rows lead), and then restricts
each pixel's disparity search to a narrow band around the prior.  This
reproduces ELAS's defining cost/accuracy trade-off: near
block-matching speed with far better robustness in weakly-textured
regions.
"""

from __future__ import annotations

import numpy as np

from repro.stereo.block_matching import guided_block_match, sad_cost_volume
from repro.stereo.refine import median2d

__all__ = ["support_points", "interpolate_prior", "elas"]


def support_points(
    left: np.ndarray,
    right: np.ndarray,
    max_disp: int,
    grid_step: int = 10,
    block_size: int = 9,
    ratio: float = 0.9,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Confident sparse matches on a regular grid.

    A grid point is kept when its best SAD beats the runner-up (outside
    a +/-1 disparity band) by the uniqueness ``ratio`` — ELAS's support
    point robustness test.  Returns ``(ys, xs, disparities)``.
    """
    cost = sad_cost_volume(left, right, max_disp, block_size)
    d_levels, h, w = cost.shape
    ys = np.arange(grid_step // 2, h, grid_step)
    xs = np.arange(grid_step // 2, w, grid_step)
    gy, gx = np.meshgrid(ys, xs, indexing="ij")
    sub = cost[:, gy, gx]  # (D, ny, nx)
    best_d = sub.argmin(axis=0)
    best = np.take_along_axis(sub, best_d[None], axis=0)[0]
    masked = sub.copy()
    for off in (-1, 0, 1):
        idx = np.clip(best_d + off, 0, d_levels - 1)
        np.put_along_axis(masked, idx[None], np.inf, axis=0)
    second = masked.min(axis=0)
    confident = best < ratio * second
    return gy[confident], gx[confident], best_d[confident].astype(np.float64)


def interpolate_prior(
    ys: np.ndarray, xs: np.ndarray, ds: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """Epipolar piecewise-linear disparity prior from support points.

    Interpolation runs *along rows first* (each support row is
    linearly interpolated across its columns, edge-replicated), then
    support-free rows are filled by linear interpolation between the
    nearest support rows above and below.  Rows lead for an epipolar
    reason: disparity evidence lives in horizontal structure, and
    supports that sit on a *horizontal* boundary between two surfaces
    are systematically fattened toward whichever side carries texture
    (the aperture problem — a horizontal edge between flat regions
    says nothing about horizontal disparity).  Row-wise interpolation
    keeps such a poisoned row from bleeding across an entire
    weakly-textured region, which 2-D scattered interpolation
    (the previous Delaunay prior) cannot avoid.
    """
    h, w = shape
    if ds.size == 0:
        return np.zeros(shape, dtype=np.float64)
    rows = np.unique(ys)
    by_row = np.empty((rows.size, w), dtype=np.float64)
    cols = np.arange(w)
    for i, y in enumerate(rows):
        m = ys == y
        order = np.argsort(xs[m])
        by_row[i] = np.interp(cols, xs[m][order], ds[m][order])
    # vertical linear fill between support rows (replicated past the
    # first/last), vectorised over whole rows
    pos = np.arange(h)
    j = np.searchsorted(rows, pos)
    j0 = np.clip(j - 1, 0, rows.size - 1)
    j1 = np.clip(j, 0, rows.size - 1)
    y0, y1 = rows[j0], rows[j1]
    t = np.where(y1 > y0, (pos - y0) / np.maximum(y1 - y0, 1), 0.0)
    t = np.clip(t, 0.0, 1.0)[:, None]
    return by_row[j0] * (1.0 - t) + by_row[j1] * t


def elas(
    left: np.ndarray,
    right: np.ndarray,
    max_disp: int,
    grid_step: int = 5,
    band: int = 4,
    block_size: int = 9,
) -> np.ndarray:
    """ELAS-style disparity: support points -> prior -> banded search.

    ``grid_step`` defaults to libelas's 5-pixel candidate spacing: a
    dense support ring around weakly-textured regions is what lets
    the interpolated prior carry them (the translation-invariant cost
    filter resolves exact ties deterministically, so — unlike the old
    rounding-noise behaviour — no spurious "confident" supports
    appear inside flat patches to densify the grid by accident).
    """
    ys, xs, ds = support_points(left, right, max_disp, grid_step, block_size)
    prior = interpolate_prior(ys, xs, ds, np.asarray(left).shape[:2])
    prior = median2d(prior, 5, "nearest")
    disp = guided_block_match(left, right, prior, radius=band, block_size=block_size)
    return np.clip(disp, 0, max_disp - 1)
