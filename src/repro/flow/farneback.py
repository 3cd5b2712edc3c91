"""Farneback dense optical flow (paper Sec. 3.3's motion estimator).

Implements the two-frame displacement algorithm of Farneback (SCIA'03):

1. **Polynomial expansion** — every neighbourhood of each frame is
   approximated as ``f(x) ~ x^T A x + b^T x + c`` by Gaussian-weighted
   least squares, computed with separable moment filters (this is the
   "Gaussian blur" convolution stage of the paper's OF mapping).
2. **Matrix update** — given the expansions of both frames and the
   current displacement estimate, the per-pixel normal-equation
   quantities ``G = A^T A`` and ``h = A^T db`` are formed and averaged
   over a Gaussian window (the paper's point-wise "Matrix Update").
3. **Compute flow** — the 2x2 system ``G d = h`` is solved per pixel
   (the paper's point-wise "Compute Flow").

A coarse-to-fine pyramid with warping handles displacements larger
than the expansion window.

The hot path is written for the non-key serving loop:

* the six separable moment filters share their three y-passes (the
  moments factor over ``g``, ``g*x``, ``g*x^2``), and every 1-D pass
  is a single :func:`scipy.ndimage.correlate1d` sweep rather than a
  Python tap loop;
* an expansion is stored channel-first, as **planes**: one contiguous
  ``(5, h, w)`` array per pyramid level holding the five distinct
  coefficients ``[A00, A01, A11, b0, b1]`` (``A`` is symmetric), and
  the flow is carried as ``(2, h, w)``;
* :func:`flow_update` runs the point-wise stages of an update (the
  warp gather, the blends, the matrix products, the 2x2 solve) in
  blocks of :data:`_BLOCK_ROWS` rows, so every temporary stays in
  cache, and blurs only the three distinct components of the symmetric
  ``G = A^T A`` plus the two of ``h = A^T db`` — one stacked
  :func:`~repro.flow.gaussian.batched_gaussian_blur` over the whole
  frame between the two blocked halves;
* a ``precision`` knob threads ``float32`` through the whole pipeline
  (the expansions and flow fields halve their memory traffic);
* :func:`expand_frame` exposes a frame's per-level planes as a
  reusable :class:`FrameExpansion`, so consecutive video frames can
  share expansions (see :class:`repro.core.ism.ISM`'s cross-frame
  expansion cache) — :func:`farneback_flow` is a thin composition of
  :func:`expand_frame` and :func:`flow_from_expansions`.

The row blocks cannot change a bit: every blocked stage is per pixel,
the warp gathers from the whole second-frame planes, and the blur runs
on the whole stack.  :func:`poly_expansion` and :func:`flow_iteration`
keep the ``(A, b)`` interface as thin views over the plane kernels,
and are pinned bit-identical to per-pixel scalar references in
``tests/test_flow.py``, in both precisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import ndimage

from repro.flow.gaussian import (
    batched_gaussian_blur,
    downsample2,
    gaussian_kernel1d,
    gaussian_support_radius,
)
from repro.stereo.block_matching import resolve_precision

__all__ = [
    "FrameExpansion",
    "poly_expansion",
    "expand_frame",
    "flow_update",
    "flow_iteration",
    "flow_from_expansions",
    "farneback_flow",
    "farneback_ops",
]

#: pyramid levels stop once a side falls below this (matches the
#: pre-cache implementation, so cached pyramids line up exactly)
_MIN_PYRAMID_SIDE = 16

#: rows per block of :func:`flow_update`'s point-wise stages; a block
#: of every temporary stays in cache (16 to 64 rows measured alike)
_BLOCK_ROWS = 32


def _moment_filters(sigma: float, radius: int):
    g = gaussian_kernel1d(sigma, radius)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    return g, g * x, g * x * x


def _corr(img: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """One edge-replicated 1-D correlation sweep (dtype-preserving),
    into an uninitialised output (correlate1d zero-fills its own)."""
    return ndimage.correlate1d(
        img, taps, axis=axis, mode="nearest", output=np.empty(img.shape, img.dtype)
    )


def _expansion_planes(
    img: np.ndarray, sigma: float, radius: int | None, dtype
) -> np.ndarray:
    """The ``(5, h, w)`` planes ``[A00, A01, A11, b0, b1]`` of a
    grayscale image already in the working dtype.

    The six Gaussian image moments share separable structure: filters
    ``{g, g*x, g*x^2} x {g, g*x, g*x^2}`` need only the three y-passes
    ``g*I``, ``(g*x)*I``, ``(g*x^2)*I`` followed by six x-passes.  The
    basis Gram matrix is block-diagonal (the ``{1, x^2, y^2}`` block
    and three scalars), so the normal-equation solve is five short
    explicit dot products rather than a dense (H, W, 6) @ (6, 6).
    """
    if radius is None:
        radius = gaussian_support_radius(sigma)
    g0, g1, g2 = _moment_filters(sigma, radius)

    # Gaussian-weighted image moments <I * y^a x^b>: 3 shared y-passes
    t0 = _corr(img, g0, axis=0)
    t1 = _corr(img, g1, axis=0)
    t2 = _corr(img, g2, axis=0)
    m00 = _corr(t0, g0, axis=1)
    m01 = _corr(t0, g1, axis=1)   # x
    m02 = _corr(t0, g2, axis=1)   # x^2
    m10 = _corr(t1, g0, axis=1)   # y
    m11 = _corr(t1, g1, axis=1)   # xy
    m20 = _corr(t2, g0, axis=1)   # y^2

    # basis Gram matrix for weight g (constant over the image); basis
    # order [1, x, y, x^2, y^2, xy] block-diagonalises into the
    # {1, x^2, y^2} block below plus the scalars s2, s2, s2^2
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    s0 = float(g0.sum())        # = 1
    s2 = float((g0 * x * x).sum())
    s4 = float((g0 * x * x * x * x).sum())
    inv3 = np.linalg.inv(
        np.array([[s0, s2, s2], [s2, s4, s2 * s2], [s2, s2 * s2, s4]])
    ).astype(dtype)
    inv_s2 = dtype(1.0 / s2)
    inv_s2s2 = dtype(1.0 / (s2 * s2))

    planes = np.empty((5,) + img.shape, dtype)
    # [c, axx, ayy] = inv3 @ [m00, m02, m20]; c is never used
    for plane, row in ((planes[0], inv3[2]), (planes[2], inv3[1])):  # ayy, axx
        np.multiply(row[0], m00, out=plane)
        plane += row[1] * m02
        plane += row[2] * m20
    np.multiply(m11, inv_s2s2, out=planes[1])
    planes[1] *= 0.5                         # axy/2
    np.multiply(m10, inv_s2, out=planes[3])  # by
    np.multiply(m01, inv_s2, out=planes[4])  # bx
    return planes


def _coefficient_views(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(A, b)`` views of ``(5, h, w)`` planes.

    ``A[..., r, c]`` is plane ``r + c`` (so both off-diagonal entries
    read the one ``A01`` plane) and ``b[..., k]`` is plane ``3 + k``;
    nothing is copied.
    """
    _, h, w = planes.shape
    sp, sy, sx = planes.strides
    A = as_strided(planes, (h, w, 2, 2), (sy, sx, sp, sp), writeable=False)
    b = as_strided(planes[3:], (h, w, 2), (sy, sx, sp), writeable=False)
    return A, b


def _planes_of(A: np.ndarray, b: np.ndarray, dtype) -> np.ndarray:
    """Pack ``(A, b)`` coefficient maps into ``(5, h, w)`` planes."""
    planes = np.empty((5,) + A.shape[:2], dtype)
    planes[0] = A[..., 0, 0]
    planes[1] = A[..., 0, 1]
    planes[2] = A[..., 1, 1]
    planes[3] = b[..., 0]
    planes[4] = b[..., 1]
    return planes


def poly_expansion(
    img: np.ndarray,
    sigma: float = 1.5,
    radius: int | None = None,
    precision: str = "float64",
) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic-polynomial expansion of an image.

    Returns ``(A, b)`` where ``A`` is (H, W, 2, 2) and ``b`` is
    (H, W, 2); the constant term is not needed by the flow update.
    Coordinates are (y, x).  ``precision`` selects the working dtype
    of the moment filters and the returned coefficient maps.

    Both are read-only views of the channel-first planes
    :func:`expand_frame` stores (see :class:`FrameExpansion`), so
    their strides differ from a freshly allocated array's.
    """
    dtype = resolve_precision(precision)
    img = np.asarray(img, dtype=dtype)
    if img.ndim != 2:
        raise ValueError("poly_expansion expects a grayscale image")
    return _coefficient_views(_expansion_planes(img, sigma, radius, dtype))


@dataclass(frozen=True)
class FrameExpansion:
    """One frame's polynomial-expansion pyramid, ready for reuse.

    ``planes[k]`` is pyramid level ``k`` (level 0 is full resolution)
    as one contiguous channel-first ``(5, h, w)`` array of the five
    distinct coefficients ``[A00, A01, A11, b0, b1]``; ``shapes`` and
    ``coeffs`` are views derived from it, not copies.  The remaining
    fields record the parameters the expansion was computed with, so a
    consumer (the ISM cross-frame cache) can check that a carried-over
    expansion is still compatible before reusing it.
    """

    planes: tuple[np.ndarray, ...]
    levels: int
    sigma: float
    radius: int | None
    precision: str

    @property
    def depth(self) -> int:
        """Number of pyramid levels actually built."""
        return len(self.planes)

    @property
    def shapes(self) -> tuple[tuple[int, int], ...]:
        """Image shape of every level."""
        return tuple((p.shape[1], p.shape[2]) for p in self.planes)

    @property
    def coeffs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Every level's ``(A, b)`` as read-only views of its planes
        (the :func:`poly_expansion` layout)."""
        return tuple(_coefficient_views(p) for p in self.planes)

    def matches(
        self,
        shape: tuple[int, int],
        levels: int,
        sigma: float,
        radius: int | None,
        precision: str,
    ) -> bool:
        """Whether this expansion was built for exactly these inputs."""
        return (
            self.shapes[0] == tuple(shape)
            and self.levels == levels
            and self.sigma == sigma
            and self.radius == radius
            and self.precision == precision
        )


def _as_gray(frame: np.ndarray, dtype) -> np.ndarray:
    f = np.asarray(frame, dtype=dtype)
    if f.ndim == 3:
        f = f.mean(axis=2)
    return f


def _pyramid(f: np.ndarray, levels: int, dtype) -> list[np.ndarray]:
    pyramid = [f]
    for _ in range(levels - 1):
        if min(pyramid[-1].shape) < _MIN_PYRAMID_SIDE:
            break
        pyramid.append(downsample2(pyramid[-1]).astype(dtype, copy=False))
    return pyramid


def expand_frame(
    frame: np.ndarray,
    levels: int = 3,
    sigma: float = 1.5,
    radius: int | None = None,
    precision: str = "float64",
) -> FrameExpansion:
    """Polynomial-expansion pyramid of one frame.

    The per-frame half of :func:`farneback_flow`: build the Gaussian
    pyramid and expand every level into its planes.  In a video, frame
    ``t``'s expansion serves both the ``(t-1, t)`` and the ``(t, t+1)``
    flow computations, so a caller that carries it forward skips one
    expansion per shared frame — values stay bit-identical because
    the expansion depends only on the frame and the parameters.
    """
    dtype = resolve_precision(precision)
    gray = _as_gray(frame, dtype)
    if gray.ndim != 2:
        raise ValueError("expand_frame expects a grayscale or colour image")
    pyramid = _pyramid(gray, levels, dtype)
    return FrameExpansion(
        planes=tuple(_expansion_planes(p, sigma, radius, dtype) for p in pyramid),
        levels=levels,
        sigma=sigma,
        radius=radius,
        precision=precision,
    )


def _matrix_update(
    p1: np.ndarray,
    src: np.ndarray,
    flow: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    h: int,
    w: int,
    out: np.ndarray,
) -> None:
    """The pre-blur half of an update for one block of rows.

    ``p1`` and ``flow`` are the block's rows of the first frame's
    planes and of the flow, ``src`` the whole second frame's planes
    flattened to ``(5, h * w)``, ``rows``/``cols`` the block's pixel
    coordinates and ``out`` the block's rows of the ``(5, h, w)`` blur
    input, which receives ``[G00, G01, G11, h0, h1]``.
    """
    dtype = flow.dtype
    f0, f1 = flow
    sy = rows + f0
    np.clip(sy, 0, h - 1, out=sy)
    sx = cols + f1
    np.clip(sx, 0, w - 1, out=sx)

    # sy/sx are clipped non-negative, so the float->int truncation IS
    # the floor — one pass instead of floor-then-cast
    y0 = sy.astype(np.intp)
    x0 = sx.astype(np.intp)
    # keep the interpolation weights in the working dtype: float32
    # minus an int64 index grid would silently promote the whole warp
    # (and the blurred stack below) to float64
    fy = (sy - y0).astype(dtype, copy=False)
    fx = (sx - x0).astype(dtype, copy=False)
    x1 = np.minimum(x0 + 1, w - 1)
    r0 = y0
    r0 *= w                                 # flat index of row y0
    r1 = np.minimum(r0 + w, (h - 1) * w)    # ... and of row min(y0+1, h-1)

    # bilinear warp of the five second-frame planes with shared flat
    # gather indices (A2 is symmetric by construction)
    omx = 1 - fx
    top = np.take(src, r0 + x0, axis=1)
    top *= omx
    right = np.take(src, r0 + x1, axis=1)
    right *= fx
    top += right
    bot = np.take(src, r1 + x0, axis=1)
    bot *= omx
    right = np.take(src, r1 + x1, axis=1)
    right *= fx
    bot += right
    top *= 1 - fy
    bot *= fy
    warped = top
    warped += bot

    # A = (A1 + warped A2) / 2 and db = -(warped b2 - b1) / 2 + A d
    A = warped[:3]
    A += p1[:3]
    A *= 0.5
    A00, A01, A11 = A
    db = warped[3:]
    db -= p1[3:]
    db *= -0.5
    db0, db1 = db
    db0 += A00 * f0 + A01 * f1
    db1 += A01 * f0 + A11 * f1

    # matrix update: G = A^T A (symmetric: three distinct components)
    # and h = A^T db, written straight into the blur input
    np.multiply(A00, A00, out=out[0])
    out[0] += A01 * A01             # G00
    np.multiply(A00, A01, out=out[1])
    out[1] += A01 * A11             # G01 = G10
    np.multiply(A01, A01, out=out[2])
    out[2] += A11 * A11             # G11
    np.multiply(A00, db0, out=out[3])
    out[3] += A01 * db1             # h0
    np.multiply(A01, db0, out=out[4])
    out[4] += A11 * db1             # h1


def _solve(blurred: np.ndarray, out: np.ndarray) -> None:
    """The 2x2 solve ``G d = h`` for one block of rows of the blurred
    ``[G00, G01, G11, h0, h1]``, into the block's rows of ``out``.

    The Tikhonov damping is *relative* to the local signal energy, so
    low-contrast images are not biased towards zero flow.
    """
    G00, G01, G11, h0, h1 = blurred
    lam = 1e-3 * 0.5 * (G00 + G11) + 1e-12
    g00 = G00 + lam
    g11 = G11 + lam
    det = g00 * g11
    det -= G01 * G01
    num = g11 * h0
    num -= G01 * h1
    np.divide(num, det, out=out[0])
    np.multiply(g00, h1, out=num)
    num -= G01 * h0
    np.divide(num, det, out=out[1])


def flow_update(
    p1: np.ndarray, p2: np.ndarray, flow: np.ndarray, window_sigma: float = 4.0
) -> np.ndarray:
    """One Farneback update on channel-first planes.

    ``p1`` and ``p2`` are the two frames' ``(5, h, w)`` expansion
    planes (one :attr:`FrameExpansion.planes` level) and ``flow`` the
    ``(2, h, w)`` estimate in (dy, dx); returns the new ``(2, h, w)``
    estimate in ``flow``'s dtype, leaving every input untouched.

    The warp, the matrix update and the solve run :data:`_BLOCK_ROWS`
    rows at a time; the Gaussian average of ``[G00, G01, G11, h0,
    h1]`` runs once over the whole stack in between.  Each blocked
    stage is per pixel and the warp gathers from the whole of ``p2``,
    so no output bit depends on the block height.
    """
    dtype = flow.dtype
    _, h, w = flow.shape
    src = p2.reshape(5, h * w)
    rows = np.arange(h, dtype=dtype)[:, None]
    cols = np.arange(w, dtype=dtype)
    stack = np.empty((5, h, w), dtype)
    for lo in range(0, h, _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        _matrix_update(
            p1[:, block], src, flow[:, block], rows[block], cols, h, w,
            stack[:, block],
        )
    blurred = batched_gaussian_blur(stack, window_sigma)
    new = np.empty((2, h, w), dtype)
    for lo in range(0, h, _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        _solve(blurred[:, block], new[:, block])
    return new


def flow_iteration(
    A1, b1, A2, b2, flow: np.ndarray, window_sigma: float = 4.0
) -> np.ndarray:
    """One Farneback update on ``(A, b)`` coefficient maps.

    ``flow`` is (H, W, 2) in (dy, dx), and every coefficient map
    covers the same (H, W) frame (the :func:`poly_expansion` layout).
    A thin adapter: the maps are packed into planes in ``flow``'s
    dtype and :func:`flow_update` runs the update, so the result is
    bit-identical to it.  Returns (H, W, 2), a view of channel-first
    storage.
    """
    dtype = flow.dtype
    new = flow_update(
        _planes_of(A1, b1, dtype),
        _planes_of(A2, b2, dtype),
        np.moveaxis(flow, -1, 0),
        window_sigma,
    )
    return np.moveaxis(new, 0, -1)


def flow_from_expansions(
    exp0: FrameExpansion,
    exp1: FrameExpansion,
    iterations: int = 3,
    window_sigma: float = 4.0,
    step=None,
) -> np.ndarray:
    """Coarse-to-fine flow between two pre-expanded frames.

    Returns the (H, W, 2) flow in (dy, dx), a view of the ``(2, H, W)``
    array the updates carry (same shape, dtype and values as a
    channel-last array; only the strides differ).

    ``step`` swaps the per-level update — e.g. a
    :meth:`repro.parallel.TileExecutor.flow_iteration` bound method;
    ``None`` runs the plain :func:`flow_update`.  It is called once per
    update as ``step(p1, p2, flow, window_sigma)`` with the two
    frames' ``(5, h, w)`` planes and the ``(2, h, w)`` flow, and must
    return the new ``(2, h, w)`` flow.
    """
    if exp0.shapes != exp1.shapes:
        raise ValueError("frames must share a shape")
    if step is None:
        step = flow_update
    dtype = resolve_precision(exp0.precision)
    flow = np.zeros((2,) + exp0.shapes[-1], dtype)
    for lvl in range(exp0.depth - 1, -1, -1):
        h, w = exp0.shapes[lvl]
        if lvl != exp0.depth - 1:
            up = np.empty((2, h, w), dtype)
            for c in range(2):
                rep = np.repeat(np.repeat(flow[c], 2, 0), 2, 1)
                up[c] = 2.0 * rep[:h, :w]
            flow = up
        for _ in range(iterations):
            flow = step(exp0.planes[lvl], exp1.planes[lvl], flow, window_sigma)
    return np.moveaxis(flow, 0, -1)


def farneback_flow(
    frame0: np.ndarray,
    frame1: np.ndarray,
    levels: int = 3,
    iterations: int = 3,
    sigma: float = 1.5,
    window_sigma: float = 4.0,
    precision: str = "float64",
) -> np.ndarray:
    """Dense (H, W, 2) flow from ``frame0`` to ``frame1`` in (dy, dx)
    (a view of channel-first storage, see :func:`flow_from_expansions`)."""
    exp0 = expand_frame(frame0, levels=levels, sigma=sigma, precision=precision)
    exp1 = expand_frame(frame1, levels=levels, sigma=sigma, precision=precision)
    return flow_from_expansions(exp0, exp1, iterations, window_sigma)


def farneback_ops(
    h: int, w: int, levels: int = 3, iterations: int = 3,
    sigma: float = 1.5, window_sigma: float = 4.0,
) -> int:
    """Arithmetic-operation count of the flow computation (Sec. 3.3's
    cost model; ~99 % is Gaussian blur + the two point-wise stages)."""
    taps_exp = 2 * gaussian_support_radius(sigma) + 1
    taps_win = 2 * max(1, int(round(3.0 * window_sigma))) + 1
    total = 0
    size = h * w
    for _ in range(levels):
        # polynomial expansion: 6 separable moment filters x 2 frames
        total += 2 * 6 * 2 * taps_exp * size
        # per iteration: matrix update (~40 point ops) + 6 Gaussian
        # blurs + 2x2 solve (~12 point ops)
        total += iterations * (40 * size + 6 * 2 * taps_win * size + 12 * size)
        size //= 4
    return total
