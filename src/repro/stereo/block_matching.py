"""SAD block matching — the paper's local correspondence search.

Disparity convention (paper Eq. 2): a left-image pixel ``<x, y>`` with
disparity ``d`` corresponds to the right-image pixel ``<x + d, y>``.
The synthetic datasets in :mod:`repro.datasets` render with the same
convention, so all matchers here search in the ``+x`` direction of the
right image.

Two entry points:

* :func:`block_match` — classic full-range search over
  ``[0, max_disp)`` (the Fig. 1 "BM-class" baseline and the building
  block of SGM's cost volume);
* :func:`guided_block_match` — the ISM non-key-frame refinement
  (Sec. 3.3): a *1-D window of +/- radius pixels centred on a per-pixel
  initial estimate*, exactly the "correspondence search initialised
  with the propagated correspondences" the paper describes.  Its cost
  is ``O(2r + 1)`` instead of ``O(max_disp)`` passes.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

__all__ = [
    "shift_right_image",
    "sad_cost_volume",
    "block_match",
    "guided_block_match",
    "block_match_ops",
    "guided_block_match_ops",
    "resolve_precision",
]

_BIG = 1e9

#: cost-volume dtypes selectable through the ``precision`` knob; the
#: float32 volumes halve the memory traffic (the resource the paper's
#: accelerators are designed around) at ~1e-7 relative rounding
_PRECISIONS = {"float32": np.float32, "float64": np.float64}


def resolve_precision(precision: str) -> np.dtype:
    """Map a ``precision`` knob value to the cost-volume dtype.

    >>> resolve_precision("float32")
    <class 'numpy.float32'>
    """
    try:
        return _PRECISIONS[precision]
    except KeyError:
        raise ValueError(
            f"precision must be one of {tuple(sorted(_PRECISIONS))}, "
            f"got {precision!r}"
        ) from None


def _check_block_size(block_size: int) -> None:
    """A SAD block is centred on its pixel, so its side must be odd."""
    if block_size < 1 or block_size % 2 == 0:
        raise ValueError(f"block_size must be odd and >= 1, got {block_size!r}")


def _check_finite(*images: np.ndarray) -> None:
    """Refuse an image holding a NaN or infinite pixel."""
    for img in images:
        if not np.isfinite(img).all():
            raise ValueError("images must be finite; got a NaN or infinite pixel")


def _check_frame(img, max_disp: int | None = None) -> None:
    """Refuse a view no matcher can search: one without a row or a
    column, or holding a NaN or infinite pixel; with ``max_disp``, also
    a search range ``[0, max_disp)`` that does not lie inside the frame
    (``1 <= max_disp <= width``)."""
    shape = np.shape(img)
    if 0 in shape[:2]:
        raise ValueError(
            f"frames must have at least one row and one column, got shape {shape}"
        )
    _check_finite(img)
    if max_disp is None:
        return
    if max_disp < 1:
        raise ValueError("max_disp must be >= 1")
    if len(shape) >= 2 and max_disp > shape[1]:
        raise ValueError(
            f"max_disp must be <= the frame width {shape[1]}, got {max_disp}: "
            "the search range [0, max_disp) would reach past the frame"
        )


def _check_pair(left, right, max_disp: int | None = None) -> None:
    """Refuse a stereo pair no matcher can search: views of different
    shapes, or a view :func:`_check_frame` refuses."""
    if np.shape(left) != np.shape(right):
        raise ValueError("left/right images must share a shape")
    _check_finite(right)
    _check_frame(left, max_disp)


def _check_init(init, shape: tuple[int, ...]) -> None:
    """Refuse a guided-search start map of another shape than the
    frame's ``(H, W)``, or holding a NaN or infinite disparity."""
    if np.shape(init) != tuple(shape):
        raise ValueError("init disparity must match the image shape")
    if not np.isfinite(init).all():
        raise ValueError("init disparity must be finite; got a NaN or infinite value")


def _as_float(img: np.ndarray, dtype=np.float64) -> np.ndarray:
    img = np.asarray(img, dtype=dtype)
    if img.ndim == 3:  # collapse colour to luminance
        img = img.mean(axis=2, dtype=dtype)
    if img.ndim != 2:
        raise ValueError(f"expected a (H, W) or (H, W, C) image, got {img.shape}")
    return img


def _box_mean(img: np.ndarray, size: int) -> np.ndarray:
    """Edge-replicated box mean with *translation-invariant* rounding.

    Every output value is an independent window sum (two
    :func:`~scipy.ndimage.correlate1d` passes), so the result at a
    pixel depends only on the window contents — unlike
    :func:`~scipy.ndimage.uniform_filter`, whose running-sum
    implementation accumulates rounding from the start of each scan
    line and therefore changes in the last bit when the same rows are
    filtered as part of a band.  This is the property that makes the
    halo-tiled execution in :mod:`repro.parallel` bit-identical to
    whole-frame execution.

    Filters over the last two axes, so a ``(K, H, W)`` stack of
    difference images is one fused pair of sweeps — each slice comes
    back bit-identical to filtering it alone (per-line independence
    again), which is how :func:`guided_block_match` batches its
    per-offset SAD passes.
    """
    weights = np.full(size, 1.0 / size, dtype=np.float64)
    # correlate1d zero-fills an output it allocates; both sweeps
    # overwrite every value, so they get uninitialised ones
    out = ndimage.correlate1d(
        img, weights, axis=-2, mode="nearest", output=np.empty(img.shape, img.dtype)
    )
    return ndimage.correlate1d(
        out, weights, axis=-1, mode="nearest", output=np.empty(out.shape, out.dtype)
    )


def shift_right_image(right: np.ndarray, d: int) -> np.ndarray:
    """``shifted[y, x] = right[y, x + d]`` with edge replication.

    Always returns a fresh array the caller may mutate — including
    for ``d == 0``, which historically returned the input aliased
    (writing through the result silently corrupted the caller's
    image; regression-tested in ``tests/test_stereo_matchers.py``).
    """
    right = np.asarray(right)
    if d == 0:
        return right.copy()
    out = np.empty_like(right)
    if d > 0:
        out[:, :-d] = right[:, d:]
        out[:, -d:] = right[:, -1:]
    else:
        out[:, -d:] = right[:, :d]
        out[:, : -d] = right[:, :1]
    return out


def sad_cost_volume(
    left: np.ndarray,
    right: np.ndarray,
    max_disp: int,
    block_size: int = 9,
    precision: str = "float64",
) -> np.ndarray:
    """(D, H, W) sum-of-absolute-differences matching cost.

    ``cost[d, y, x]`` is the SAD between the block around ``<x, y>`` in
    the left image and the block around ``<x + d, y>`` in the right
    image, matching the paper's convolution-like formulation of BM.
    ``precision`` selects the volume dtype (``"float32"`` halves the
    memory traffic, ``"float64"`` is the default).  ``block_size``
    must be odd, so the block has a centre.

    Raises ``ValueError`` for an even ``block_size``, views of
    different shapes, a frame without rows or columns, a NaN or
    infinite pixel, and a ``max_disp`` outside ``[1, width]`` (a search
    range ``[0, max_disp)`` that reaches past the frame).
    """
    _check_block_size(block_size)
    dtype = resolve_precision(precision)
    left = _as_float(left, dtype)
    right = _as_float(right, dtype)
    _check_pair(left, right, max_disp)
    cost = np.empty((max_disp, *left.shape), dtype=dtype)
    for d in range(max_disp):
        diff = np.abs(left - shift_right_image(right, d))
        cost[d] = _box_mean(diff, block_size)
        if d:
            # blocks that would read past the right edge are invalid
            cost[d, :, left.shape[1] - d :] = _BIG
    return cost


def _subpixel_refine(cost: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """Parabola fit over the winning cost and its two neighbours.

    The fit is only meaningful at a *convex* minimum: the curvature
    ``c0 - 2*c1 + c2`` must be strictly positive.  On a plateau (all
    three costs equal, e.g. saturated ``_BIG`` regions) or a concave
    triple the parabola has no interior minimum, so the integer
    disparity is kept unchanged rather than nudged by a spurious
    +/- 0.5 pixel shift.
    """
    d_max = cost.shape[0]
    d = disp.astype(int)
    inner = (d > 0) & (d < d_max - 1)
    # take_along_axis gathers the three cost planes without the
    # (2, H, W) index grids a fancy-indexing gather would allocate
    c1 = np.take_along_axis(cost, d[None], axis=0)[0]
    c0 = np.take_along_axis(cost, np.clip(d - 1, 0, d_max - 1)[None], axis=0)[0]
    c2 = np.take_along_axis(cost, np.clip(d + 1, 0, d_max - 1)[None], axis=0)[0]
    denom = c0 - 2 * c1 + c2
    convex = inner & (denom > 1e-12)
    offset = np.where(convex, (c0 - c2) / (2 * np.where(convex, denom, 1.0)), 0.0)
    return disp + np.clip(offset, -0.5, 0.5)


def block_match(
    left: np.ndarray,
    right: np.ndarray,
    max_disp: int,
    block_size: int = 9,
    subpixel: bool = True,
    precision: str = "float64",
) -> np.ndarray:
    """Winner-takes-all disparity from a full SAD search.

    Raises ``ValueError`` for every input :func:`sad_cost_volume`
    refuses.
    """
    cost = sad_cost_volume(left, right, max_disp, block_size, precision)
    disp = cost.argmin(axis=0).astype(np.float64)
    if subpixel:
        disp = _subpixel_refine(cost, disp)
    return disp


def guided_block_match(
    left: np.ndarray,
    right: np.ndarray,
    init: np.ndarray,
    radius: int = 4,
    block_size: int = 9,
    subpixel: bool = True,
    accept_margin: float = 0.1,
    precision: str = "float64",
) -> np.ndarray:
    """Local search in a +/- ``radius`` window around ``init``.

    For each candidate offset the right image is *gathered* at the
    per-pixel coordinate ``x + init + offset`` and the SAD is box
    filtered, so the whole refinement is ``2*radius + 1``
    convolution-shaped passes — the property that lets the paper map it
    onto the systolic array.

    ``accept_margin`` makes the search conservative: the winning offset
    replaces the initial estimate only where it beats the initial
    estimate's own cost by the margin.  The guarantee holds *at the
    image border too*: where the init-offset candidate itself is out of
    range (``x + init >= w``, or a negative init) its cost cannot be
    measured, so with a positive margin the pixel keeps the initial
    estimate clipped into the geometrically valid range ``[0, w-1-x]``
    instead of letting a nearer offset win against edge-replicated
    texture.  Where *every* candidate is out of range (e.g. a strongly
    negative init) the search has measured nothing, and the clipped
    init is returned regardless of the margin rather than a
    confident-looking argmin over sentinel costs.  A good
    initialisation (the common case in ISM — the propagated
    correspondences) is therefore never degraded by matching
    ambiguity anywhere in the image: a kept estimate moves at most by
    the integer rounding of ``init`` plus the sub-pixel half-step
    (exactly the half-step for an integer init), or is clipped to the
    reachable range where the geometry forces it.  ``block_size`` must
    be odd, as in :func:`sad_cost_volume`.

    Raises ``ValueError`` for an even ``block_size``, views of
    different shapes, a frame without rows or columns, a NaN or
    infinite pixel, an ``init`` of another shape or holding a NaN or
    infinite value, and ``radius < 1``.
    """
    _check_block_size(block_size)
    dtype = resolve_precision(precision)
    left = _as_float(left, dtype)
    right = _as_float(right, dtype)
    _check_pair(left, right)
    init = np.asarray(init, dtype=np.float64)
    _check_init(init, left.shape)
    if radius < 1:
        raise ValueError("radius must be >= 1")
    h, w = left.shape
    yy = np.arange(h)[:, None]
    xx = np.arange(w)[None, :]
    base = np.rint(init).astype(int)
    offsets = np.arange(-radius, radius + 1)
    # all 2r+1 candidate gathers at once: one (K, H, W) batch of flat
    # indices replaces the per-offset np.mgrid/gather setup, and the
    # SAD box filter runs as one fused stack sweep (bit-identical per
    # slice)
    d = base[None] + offsets[:, None, None]
    sample_x = xx[None] + d
    valid = (sample_x >= 0) & (sample_x < w) & (d >= 0)
    flat = np.clip(sample_x, 0, w - 1)
    flat += yy * w
    diff = np.take(right.ravel(), flat)
    np.subtract(left, diff, out=diff)
    np.abs(diff, out=diff)
    costs = _box_mean(diff, block_size)
    costs[~valid] = _BIG
    any_valid = valid.any(axis=0)
    init_valid = valid[radius]
    best = costs.argmin(axis=0)
    if accept_margin > 0:
        init_cost = costs[radius]
        best_cost = np.take_along_axis(costs, best[None], axis=0)[0]
        keep = init_cost <= best_cost + accept_margin
        best = np.where(keep, radius, best)
    disp = (base + offsets[best]).astype(np.float64)
    if subpixel:
        frac = _subpixel_refine(costs, best.astype(np.float64))
        disp = base + offsets[0] + frac  # offset index back to disparity
    # conservatism at the border (see docstring): an unmeasurable init
    # candidate disables the margin test, and an all-invalid window
    # makes the argmin (and its sub-pixel fit) meaningless
    keep_init = ~any_valid
    if accept_margin > 0:
        keep_init |= ~init_valid
    disp = np.where(keep_init, np.clip(init, 0.0, (w - 1 - xx).astype(np.float64)), disp)
    return np.maximum(disp, 0.0)


def block_match_ops(h: int, w: int, max_disp: int, block_size: int = 9) -> int:
    """Arithmetic operations of a full BM search (for the cost model)."""
    # per disparity: |a-b| per pixel + box filter (separable: 2*block adds)
    per_disp = h * w * (1 + 2 * block_size)
    return max_disp * per_disp + h * w * max_disp  # + WTA compares


def guided_block_match_ops(h: int, w: int, radius: int = 4, block_size: int = 9) -> int:
    """Arithmetic operations of the guided search (ISM non-key frames)."""
    window = 2 * radius + 1
    per_off = h * w * (1 + 2 * block_size)
    return window * per_off + h * w * window
