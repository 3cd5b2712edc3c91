"""Disparity post-processing: consistency checking and filtering."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

__all__ = ["left_right_check", "fill_invalid", "median2d", "median_clean"]

#: scipy boundary mode -> the ``np.pad`` mode that replicates it
_PAD_MODE = {"reflect": "symmetric", "nearest": "edge"}

#: rows per block of :func:`median2d`'s selections; a block's window
#: buffer and temporaries stay in cache (16 to 64 rows measured alike)
_BLOCK_ROWS = 32


def _selection_exact(a: np.ndarray) -> bool:
    """Whether a selection returns scipy's bits for every window of
    ``a``: each order statistic then has exactly one bit pattern.

    A NaN orders differently in ``np.partition``, in ``np.minimum`` /
    ``np.maximum`` and in scipy's rank filter, and a negative zero ties
    with ``0.0`` under another sign bit; an input holding either stays
    on scipy.
    """
    if a.dtype.kind != "f":
        return True
    return not (np.isnan(a).any() or (np.signbit(a) & (a == 0)).any())


def _med3(x, y, z, out=None) -> np.ndarray:
    """Element-wise median of three arrays (a pure selection)."""
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    np.minimum(hi, z, out=hi)
    return np.maximum(lo, hi, out=out)


def _median3_rows(padded: np.ndarray, out: np.ndarray) -> None:
    """3x3 medians of a block of rows, from its one-pixel padded copy.

    Every vertical triple is sorted once into ``lo <= mid <= hi`` and
    shared by the three windows that hold it.  With the window's three
    columns sorted, its median is ``med3(max of the lo, med3 of the
    mid, min of the hi)``: an exact selection for inputs without NaN.
    """
    a, b, c = padded[:-2], padded[1:-1], padded[2:]
    t = np.minimum(a, b)
    u = np.maximum(a, b)
    lo = np.minimum(t, c)
    mid = np.minimum(u, np.maximum(t, c, out=t))
    hi = np.maximum(u, c, out=u)
    lo_max = np.maximum(lo[:, :-2], lo[:, 1:-1])
    np.maximum(lo_max, lo[:, 2:], out=lo_max)
    hi_min = np.minimum(hi[:, :-2], hi[:, 1:-1])
    np.minimum(hi_min, hi[:, 2:], out=hi_min)
    _med3(lo_max, _med3(mid[:, :-2], mid[:, 1:-1], mid[:, 2:]), hi_min, out=out)


def median2d(a: np.ndarray, size: int, mode: str = "reflect") -> np.ndarray:
    """2-D median filter, bit-identical to ``ndimage.median_filter``.

    An odd ``size`` window holds an odd number of samples, so the
    median is an exact order statistic, and a selection suited to the
    window computes it without the per-pixel rank bookkeeping of
    scipy's generic rank filter:

    * ``size == 3``: each vertical triple is sorted once and shared by
      three windows, and the median is ``med3(max of the column
      minima, med3 of the column medians, min of the column maxima)``
      — about 18 min/max passes per pixel;
    * odd ``size >= 5``: ``np.partition`` over the windowed view;

    both in blocks of :data:`_BLOCK_ROWS` rows, so the window buffer
    and the temporaries stay in cache.  Even sizes (and sizes below 3,
    modes other than ``"reflect"`` and ``"nearest"``, and empty inputs)
    stay on scipy.  So does a float input holding a NaN or a negative
    zero, where the selections and scipy could return different bits:
    for every input the result is scipy's, byte for byte.

    A 3-D input is a stack of planes (e.g. the four flow components
    the non-key path smooths per step), each filtered independently
    in its last two axes, into one freshly allocated output.
    """
    a = np.asarray(a)
    if (
        size < 3 or size % 2 == 0 or mode not in _PAD_MODE or a.ndim < 2
        or a.size == 0 or not _selection_exact(a)
    ):
        full = (1,) * (a.ndim - 2) + (size, size)
        return ndimage.median_filter(a, size=full, mode=mode)
    r = size // 2
    h, w = a.shape[-2:]
    out = np.empty(a.shape, a.dtype)
    if size > 3:
        k = (size * size) // 2
        buf = np.empty((min(_BLOCK_ROWS, h), w, size * size), a.dtype)
    for plane in np.ndindex(a.shape[:-2]):
        pad = np.pad(a[plane], r, mode=_PAD_MODE[mode])
        dest = out[plane]
        for lo in range(0, h, _BLOCK_ROWS):
            rows = dest[lo:lo + _BLOCK_ROWS]
            block = pad[lo:lo + rows.shape[0] + 2 * r]
            if size == 3:
                _median3_rows(block, rows)
                continue
            # one strided copy of the block's windows into the reused
            # buffer, then select each window's median in place
            flat = buf[: rows.shape[0]]
            win = sliding_window_view(block, (size, size))
            flat.reshape(win.shape)[...] = win
            flat.partition(k, axis=-1)
            rows[...] = flat[..., k]
    return out


def left_right_check(
    disp_left: np.ndarray, disp_right: np.ndarray, threshold: float = 1.0
) -> np.ndarray:
    """Mask of pixels whose left/right disparities agree.

    With the paper's convention (``x_r = x_l + d``), the right-image
    disparity sampled at ``x + d`` must match ``d``; occlusions and
    mismatches fail the check.
    """
    h, w = disp_left.shape
    yy, xx = np.mgrid[0:h, 0:w]
    target = np.rint(xx + disp_left).astype(int)
    valid = (target >= 0) & (target < w)
    tx = np.clip(target, 0, w - 1)
    agree = np.abs(disp_right[yy, tx] - disp_left) <= threshold
    return valid & agree


def fill_invalid(disp: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Replace invalid pixels with the nearest valid value row-wise
    (the classic background-fill used after occlusion detection)."""
    out = disp.copy()
    for y in range(disp.shape[0]):
        row = out[y]
        good = valid[y]
        if not good.any():
            row[:] = 0.0
            continue
        idx = np.where(good)[0]
        bad = np.where(~good)[0]
        if bad.size:
            row[bad] = np.interp(bad, idx, row[idx])
    return out


def fill_background(disp: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Occlusion-aware fill: invalid pixels take the *smaller* of the
    nearest valid disparities to their left and right.

    Pixels that lose their correspondence (disocclusions, failed
    checks) are almost always *revealed background*, so filling with
    the farther (smaller-disparity) neighbour is the standard choice —
    plain interpolation would bleed the occluding foreground across
    the hole.
    """
    h, w = disp.shape
    out = disp.copy()
    good = valid.astype(bool, copy=False)
    any_good = good.any(axis=1)
    out[~any_good] = 0.0
    rows = np.where(any_good & ~good.all(axis=1))[0]
    if rows.size == 0:
        return out
    g = good[rows]
    col = np.arange(w)
    # nearest valid column to the left / right of every pixel, by
    # running max/min scans; pixels outside the valid span take the
    # first/last valid column of the row (both ends then read the
    # same value, so the fill degenerates to plain extension there)
    left = np.where(g, col, -1)
    np.maximum.accumulate(left, axis=1, out=left)
    right = np.where(g, col, w)
    right = np.minimum.accumulate(right[:, ::-1], axis=1)[:, ::-1]
    first = np.argmax(g, axis=1)
    last = w - 1 - np.argmax(g[:, ::-1], axis=1)
    left = np.where(left < 0, first[:, None], left)
    right = np.where(right >= w, last[:, None], right)
    sub = out[rows]
    fill = np.minimum(
        np.take_along_axis(sub, left, axis=1),
        np.take_along_axis(sub, right, axis=1),
    )
    bad = ~g
    sub[bad] = fill[bad]
    out[rows] = sub
    return out


def median_clean(disp: np.ndarray, size: int = 3) -> np.ndarray:
    """Median filter to remove speckle while preserving edges:
    :func:`median2d` with edge replication, bit-identical to
    ``ndimage.median_filter(disp, size, mode="nearest")`` on a 2-D map."""
    return median2d(disp, size, mode="nearest")
