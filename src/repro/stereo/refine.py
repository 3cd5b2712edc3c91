"""Disparity post-processing: consistency checking and filtering."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

__all__ = ["left_right_check", "fill_invalid", "median2d", "median_clean"]

#: scipy boundary mode -> the ``np.pad`` mode that replicates it
_PAD_MODE = {"reflect": "symmetric", "nearest": "edge"}


def median2d(a: np.ndarray, size: int, mode: str = "reflect") -> np.ndarray:
    """2-D median filter, bit-identical to ``ndimage.median_filter``.

    An odd ``size`` window holds an odd number of samples, so the
    median is an exact order statistic — ``np.partition`` over the
    windowed view selects it directly, without the per-pixel rank
    bookkeeping of scipy's generic rank filter.  For ``size >= 5``
    that is substantially faster on float frames (the non-key flow
    smoothing hot path); small windows stay on scipy, whose moving
    histogram wins there.

    A 3-D input is a stack of planes (e.g. the four flow components
    the non-key path smooths per step), each filtered independently
    in its last two axes.  The planes are filtered one at a time into
    one freshly allocated output, so only one plane's window buffer
    is alive at once and the result keeps none of them alive.
    """
    if size <= 3 or size % 2 == 0:
        full = (1,) * (a.ndim - 2) + (size, size)
        return ndimage.median_filter(a, size=full, mode=mode)
    r = size // 2
    k = (size * size) // 2
    out = np.empty(a.shape, a.dtype)
    for plane in np.ndindex(a.shape[:-2]):
        pad = np.pad(a[plane], r, mode=_PAD_MODE[mode])
        win = sliding_window_view(pad, (size, size))
        # reshaping the strided window view materialises a copy we
        # own, so the partition can run in place instead of copying
        flat = win.reshape(win.shape[:-2] + (size * size,))
        flat.partition(k, axis=-1)
        out[plane] = flat[..., k]
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
    """Median filter to remove speckle while preserving edges."""
    return ndimage.median_filter(disp, size=size, mode="nearest")
