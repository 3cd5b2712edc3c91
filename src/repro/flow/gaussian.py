"""Separable Gaussian filtering (the OF stage the paper maps to a conv
layer: "Gaussian blur is inherently a convolution operation").
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

__all__ = [
    "gaussian_support_radius",
    "blur_tap_radius",
    "gaussian_kernel1d",
    "blur_kernel1d",
    "gaussian_blur",
    "batched_gaussian_blur",
    "downsample2",
    "gaussian_blur_ops",
]


def gaussian_support_radius(sigma: float) -> int:
    """Tap radius of a 3-sigma Gaussian moment filter.

    The Farneback polynomial-expansion support
    (:func:`repro.flow.farneback.poly_expansion` and its op count).

    >>> gaussian_support_radius(1.5)
    4
    """
    return max(2, int(round(3.0 * sigma)))


def blur_tap_radius(sigma: float) -> int:
    """Tap radius of a ``gaussian_filter``-compatible blur.

    scipy truncates at ``4 * sigma`` (its default); this is the exact
    radius :func:`blur_kernel1d` builds its taps with.

    >>> blur_tap_radius(4.0)
    16
    """
    return int(4.0 * sigma + 0.5)


def gaussian_kernel1d(sigma: float, radius: int | None = None) -> np.ndarray:
    """Normalised 1-D Gaussian taps."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if radius is None:
        radius = max(1, int(round(3.0 * sigma)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def blur_kernel1d(sigma: float) -> np.ndarray:
    """The exact taps :func:`gaussian_blur` applies along each axis.

    :func:`scipy.ndimage.gaussian_filter` truncates at ``4 * sigma``
    (its default) and normalises ``exp(-x^2 / (2 sigma^2))`` over the
    integer tap grid; this reproduces that kernel bit for bit, so a
    single :func:`scipy.ndimage.correlate1d` pass with these taps is
    *bit-identical* to the corresponding ``gaussian_filter`` axis pass
    (the kernel is symmetric, so scipy's internal tap reversal is a
    no-op).  :func:`batched_gaussian_blur` builds on this to fuse many
    blurs into two stacked sweeps.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    radius = blur_tap_radius(sigma)
    x = np.arange(-radius, radius + 1)
    k = np.exp(-0.5 / (sigma * sigma) * x**2)
    return k / k.sum()


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge replication."""
    return ndimage.gaussian_filter(
        np.asarray(img, dtype=np.float64), sigma=sigma, mode="nearest"
    )


def batched_gaussian_blur(stack: np.ndarray, sigma: float) -> np.ndarray:
    """Blur every (H, W) slice of a ``(..., H, W)`` stack at once.

    Two axis-wise :func:`scipy.ndimage.correlate1d` sweeps over the
    whole stack replace one :func:`gaussian_blur` call per slice; each
    slice of the result is **bit-identical** to ``gaussian_blur`` of
    that slice (same taps via :func:`blur_kernel1d`, same ``nearest``
    edge replication, same per-line double-precision accumulation),
    except that the input dtype is preserved — a ``float32`` stack
    stays ``float32`` instead of being promoted.
    """
    weights = blur_kernel1d(sigma)
    out = ndimage.correlate1d(stack, weights, axis=-2, mode="nearest")
    return ndimage.correlate1d(out, weights, axis=-1, mode="nearest")


def downsample2(img: np.ndarray) -> np.ndarray:
    """Anti-aliased 2x downsampling (pyramid construction)."""
    return gaussian_blur(img, 1.0)[::2, ::2]


def gaussian_blur_ops(h: int, w: int, sigma: float) -> int:
    """MAC count of a separable blur (two 1-D passes)."""
    taps = 2 * max(1, int(round(3.0 * sigma))) + 1
    return 2 * taps * h * w
