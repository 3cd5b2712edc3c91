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
* ``flow_iteration`` blurs only the three distinct components of the
  symmetric ``G`` plus the two of ``h`` — five maps fused into two
  stacked axis-wise sweeps (:func:`~repro.flow.gaussian.
  batched_gaussian_blur`);
* a ``precision`` knob threads ``float32`` through the whole pipeline
  (the expansions and flow fields halve their memory traffic);
* :func:`expand_frame` exposes a frame's per-level ``(A, b)`` pyramid
  as a reusable :class:`FrameExpansion`, so consecutive video frames
  can share expansions (see :class:`repro.core.ism.ISM`'s cross-frame
  expansion cache) — :func:`farneback_flow` is a thin composition of
  :func:`expand_frame` and :func:`flow_from_expansions`.

Every vectorized stage is pinned bit-identical to a per-pixel scalar
reference in ``tests/test_flow.py``, in both precisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.flow.gaussian import batched_gaussian_blur, downsample2, gaussian_kernel1d
from repro.parallel.tiles import Stencil, gaussian_support_radius
from repro.stereo.block_matching import resolve_precision

__all__ = [
    "EXPANSION_STENCIL",
    "FLOW_STENCIL",
    "FrameExpansion",
    "poly_expansion",
    "expand_frame",
    "flow_iteration",
    "flow_from_expansions",
    "farneback_flow",
    "farneback_ops",
]

#: pyramid levels stop once a side falls below this (matches the
#: pre-cache implementation, so cached pyramids line up exactly)
_MIN_PYRAMID_SIDE = 16

#: vertical reach of the polynomial expansion: the moment filters' tap
#: radius — 3-sigma support unless an explicit ``radius`` overrides it
EXPANSION_STENCIL = Stencil.gaussian("sigma", override="radius")

#: vertical reach of one flow iteration: the Gaussian averaging
#: window's tap radius (everything upstream of the blur is per-pixel,
#: everything downstream reads only blurred rows)
FLOW_STENCIL = Stencil.blur("window_sigma")


def _moment_filters(sigma: float, radius: int):
    g = gaussian_kernel1d(sigma, radius)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    return g, g * x, g * x * x


def _expansion_radius(sigma: float) -> int:
    return gaussian_support_radius(sigma)


def _corr(img: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """One edge-replicated 1-D correlation sweep (dtype-preserving)."""
    return ndimage.correlate1d(img, taps, axis=axis, mode="nearest")


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

    The six Gaussian image moments share separable structure: filters
    ``{g, g*x, g*x^2} x {g, g*x, g*x^2}`` need only the three y-passes
    ``g*I``, ``(g*x)*I``, ``(g*x^2)*I`` followed by six x-passes.  The
    basis Gram matrix is block-diagonal (the ``{1, x^2, y^2}`` block
    and three scalars), so the normal-equation solve is five short
    explicit dot products rather than a dense (H, W, 6) @ (6, 6).
    """
    dtype = resolve_precision(precision)
    img = np.asarray(img, dtype=dtype)
    if img.ndim != 2:
        raise ValueError("poly_expansion expects a grayscale image")
    if radius is None:
        radius = _expansion_radius(sigma)
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

    h, w = img.shape
    A = np.empty((h, w, 2, 2), dtype)
    # [c, axx, ayy] = inv3 @ [m00, m02, m20]; c is never used
    A[..., 1, 1] = inv3[1, 0] * m00 + inv3[1, 1] * m02 + inv3[1, 2] * m20  # axx
    A[..., 0, 0] = inv3[2, 0] * m00 + inv3[2, 1] * m02 + inv3[2, 2] * m20  # ayy
    off = 0.5 * (m11 * inv_s2s2)                                           # axy/2
    A[..., 0, 1] = off
    A[..., 1, 0] = off
    b = np.empty((h, w, 2), dtype)
    b[..., 0] = m10 * inv_s2     # by
    b[..., 1] = m01 * inv_s2     # bx
    return A, b


@dataclass(frozen=True)
class FrameExpansion:
    """One frame's polynomial-expansion pyramid, ready for reuse.

    ``coeffs[k]`` is the ``(A, b)`` pair of pyramid level ``k`` (level
    0 is full resolution) and ``shapes[k]`` its image shape.  The
    remaining fields record the parameters the expansion was computed
    with, so a consumer (the ISM cross-frame cache) can check that a
    carried-over expansion is still compatible before reusing it.
    """

    coeffs: tuple[tuple[np.ndarray, np.ndarray], ...]
    shapes: tuple[tuple[int, int], ...]
    levels: int
    sigma: float
    radius: int | None
    precision: str

    @property
    def depth(self) -> int:
        """Number of pyramid levels actually built."""
        return len(self.coeffs)

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
    pyramid and expand every level.  In a video, frame ``t``'s
    expansion serves both the ``(t-1, t)`` and the ``(t, t+1)`` flow
    computations, so carrying the returned object forward halves the
    steady-state expansion cost — values stay bit-identical because
    the expansion depends only on the frame and the parameters.
    """
    dtype = resolve_precision(precision)
    pyramid = _pyramid(_as_gray(frame, dtype), levels, dtype)
    coeffs = tuple(
        poly_expansion(p, sigma=sigma, radius=radius, precision=precision)
        for p in pyramid
    )
    return FrameExpansion(
        coeffs=coeffs,
        shapes=tuple(p.shape for p in pyramid),
        levels=levels,
        sigma=sigma,
        radius=radius,
        precision=precision,
    )


def flow_iteration(
    A1, b1, A2, b2, flow: np.ndarray, window_sigma: float = 4.0, row0: int = 0
) -> np.ndarray:
    """One Farneback update: warp, matrix update, Gaussian average,
    per-pixel 2x2 solve.  ``flow`` is (H, W, 2) in (dy, dx).

    ``A1``/``b1``/``flow`` may be a row band of the frame while
    ``A2``/``b2`` stay whole-frame: ``row0`` is then the band's
    absolute first row, so the warp gathers (which reach anywhere in
    the frame) index ``A2``/``b2`` at the correct global coordinates.
    This is the hook :class:`repro.parallel.TileExecutor` tiles the
    iteration through; ``row0=0`` with equal shapes is the ordinary
    whole-frame call.

    Only the three distinct components of the symmetric ``G = A^T A``
    and the two of ``h = A^T db`` are Gaussian-averaged, as one fused
    five-slice stacked sweep.
    """
    dtype = flow.dtype
    h, w = flow.shape[:2]
    fh, fw = A2.shape[:2]
    yy = (row0 + np.arange(h, dtype=dtype))[:, None]
    xx = np.arange(w, dtype=dtype)[None, :]
    sy = np.clip(yy + flow[..., 0], 0, fh - 1)
    sx = np.clip(xx + flow[..., 1], 0, fw - 1)

    # bilinear warp of the five distinct second-frame channels with
    # shared gather coordinates (A2 is symmetric by construction)
    # sy/sx are clipped non-negative, so the float->int truncation IS
    # the floor — one pass instead of floor-then-cast
    y0 = sy.astype(np.intp)
    x0 = sx.astype(np.intp)
    y1 = np.minimum(y0 + 1, fh - 1)
    x1 = np.minimum(x0 + 1, fw - 1)
    # keep the interpolation weights in the working dtype: float32
    # minus an int64 index grid would silently promote the whole warp
    # (and the blurred stack below) to float64
    fy = (sy - y0).astype(dtype, copy=False)
    fx = (sx - x0).astype(dtype, copy=False)

    # pack the five channels so each bilinear corner is a single
    # gather of five contiguous values instead of five strided ones
    # (the weights broadcast over the packed axis, so the per-element
    # arithmetic — and therefore every bit of the result — is
    # unchanged); ``np.take`` on flat row indices gathers faster than
    # 2-D fancy indexing
    packed = np.empty((fh, fw, 5), dtype)
    packed[..., 0] = A2[..., 0, 0]
    packed[..., 1] = A2[..., 0, 1]
    packed[..., 2] = A2[..., 1, 1]
    packed[..., 3] = b2[..., 0]
    packed[..., 4] = b2[..., 1]
    flat = packed.reshape(fh * fw, 5)
    r0 = y0 * fw
    r1 = y1 * fw
    wx = fx[..., None]
    wy = fy[..., None]
    omx = 1 - wx
    top = np.take(flat, r0 + x0, axis=0) * omx + np.take(flat, r0 + x1, axis=0) * wx
    bot = np.take(flat, r1 + x0, axis=0) * omx + np.take(flat, r1 + x1, axis=0) * wx
    warped = top * (1 - wy) + bot * wy

    A00 = 0.5 * (A1[..., 0, 0] + warped[..., 0])
    A01 = 0.5 * (A1[..., 0, 1] + warped[..., 1])
    A11 = 0.5 * (A1[..., 1, 1] + warped[..., 2])
    f0 = flow[..., 0]
    f1 = flow[..., 1]
    db0 = -0.5 * (warped[..., 3] - b1[..., 0]) + (A00 * f0 + A01 * f1)
    db1 = -0.5 * (warped[..., 4] - b1[..., 1]) + (A01 * f0 + A11 * f1)

    # matrix update: G = A^T A (symmetric: three distinct components),
    # h = A^T db, averaged over a window in one fused stacked blur;
    # the products land straight in the blur input, skipping the
    # five temporaries plus copy a np.stack would make
    stack = np.empty((5, h, w), dtype)
    np.multiply(A00, A00, out=stack[0])
    stack[0] += A01 * A01            # G00
    np.multiply(A00, A01, out=stack[1])
    stack[1] += A01 * A11            # G01 = G10
    np.multiply(A01, A01, out=stack[2])
    stack[2] += A11 * A11            # G11
    np.multiply(A00, db0, out=stack[3])
    stack[3] += A01 * db1            # h0
    np.multiply(A01, db0, out=stack[4])
    stack[4] += A11 * db1            # h1
    G00, G01, G11, h0, h1 = batched_gaussian_blur(stack, window_sigma)

    # compute flow: solve the 2x2 system per pixel with Tikhonov damping
    # *relative* to the local signal energy, so low-contrast images are
    # not biased towards zero flow
    lam = 1e-3 * 0.5 * (G00 + G11) + 1e-12
    g00 = G00 + lam
    g11 = G11 + lam
    det = g00 * g11 - G01 * G01
    new = np.empty_like(flow)
    new[..., 0] = (g11 * h0 - G01 * h1) / det
    new[..., 1] = (g00 * h1 - G01 * h0) / det
    return new


def flow_from_expansions(
    exp0: FrameExpansion,
    exp1: FrameExpansion,
    iterations: int = 3,
    window_sigma: float = 4.0,
    step=None,
) -> np.ndarray:
    """Coarse-to-fine flow between two pre-expanded frames.

    ``step`` swaps the per-level update — e.g. a
    :meth:`repro.parallel.TileExecutor.flow_iteration` bound method
    for tiled multi-core execution; ``None`` runs the plain
    :func:`flow_iteration`.  Any replacement must keep its signature.
    """
    if exp0.shapes != exp1.shapes:
        raise ValueError("frames must share a shape")
    if step is None:
        step = flow_iteration
    dtype = resolve_precision(exp0.precision)
    flow = np.zeros(exp0.shapes[-1] + (2,), dtype)
    for lvl in range(exp0.depth - 1, -1, -1):
        shape = exp0.shapes[lvl]
        if lvl != exp0.depth - 1:
            up = np.zeros(shape + (2,), dtype)
            for c in range(2):
                rep = np.repeat(np.repeat(flow[..., c], 2, 0), 2, 1)
                up[..., c] = 2.0 * rep[: shape[0], : shape[1]]
            flow = up
        A1, b1 = exp0.coeffs[lvl]
        A2, b2 = exp1.coeffs[lvl]
        for _ in range(iterations):
            flow = step(A1, b1, A2, b2, flow, window_sigma)
    return flow


def farneback_flow(
    frame0: np.ndarray,
    frame1: np.ndarray,
    levels: int = 3,
    iterations: int = 3,
    sigma: float = 1.5,
    window_sigma: float = 4.0,
    precision: str = "float64",
) -> np.ndarray:
    """Dense (H, W, 2) flow from ``frame0`` to ``frame1`` in (dy, dx)."""
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
