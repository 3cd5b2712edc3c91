"""Tests for the Farneback optical flow and warping utilities."""

import numpy as np
import pytest
from scipy import ndimage

from repro.flow import (
    bilinear_sample,
    downsample2,
    farneback_flow,
    farneback_ops,
    forward_warp_disparity,
    gaussian_blur,
    gaussian_blur_ops,
    gaussian_kernel1d,
    poly_expansion,
    warp_backward,
)


def textured(seed=0, size=(100, 140), smooth=2.0):
    rng = np.random.default_rng(seed)
    return ndimage.gaussian_filter(rng.normal(size=size), smooth) * 10


class TestGaussian:
    def test_kernel_normalised(self):
        k = gaussian_kernel1d(1.5)
        assert np.isclose(k.sum(), 1.0)
        assert k.argmax() == len(k) // 2

    def test_kernel_symmetric(self):
        k = gaussian_kernel1d(2.0)
        assert np.allclose(k, k[::-1])

    def test_invalid_sigma_raises(self):
        with pytest.raises(ValueError):
            gaussian_kernel1d(0.0)

    def test_blur_preserves_mean(self):
        img = textured(1)
        out = gaussian_blur(img, 2.0)
        assert np.isclose(out.mean(), img.mean(), rtol=1e-2)

    def test_blur_reduces_variance(self):
        img = textured(2, smooth=0.5)
        assert gaussian_blur(img, 2.0).var() < img.var()

    def test_downsample_halves(self):
        img = textured(3, size=(64, 80))
        assert downsample2(img).shape == (32, 40)

    def test_ops_positive(self):
        assert gaussian_blur_ops(100, 100, 1.5) > 0


class TestBilinearSample:
    def test_integer_coordinates_exact(self):
        img = np.arange(20.0).reshape(4, 5)
        ys, xs = np.mgrid[0:4, 0:5].astype(float)
        assert np.allclose(bilinear_sample(img, ys, xs), img)

    def test_halfway_interpolates(self):
        img = np.array([[0.0, 2.0]])
        val = bilinear_sample(img, np.array([0.0]), np.array([0.5]))
        assert np.isclose(val[0], 1.0)

    def test_out_of_range_clamped(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        val = bilinear_sample(img, np.array([-5.0]), np.array([99.0]))
        assert np.isclose(val[0], 2.0)


class TestPolyExpansion:
    def test_constant_image_zero_gradient(self):
        A, b = poly_expansion(np.full((32, 32), 5.0))
        assert np.allclose(A, 0.0, atol=1e-8)
        assert np.allclose(b, 0.0, atol=1e-8)

    def test_linear_ramp_recovers_gradient(self):
        ys, xs = np.mgrid[0:40, 0:40].astype(float)
        img = 2.0 * xs + 3.0 * ys
        A, b = poly_expansion(img, sigma=1.5)
        inner = (slice(8, -8), slice(8, -8))
        assert np.allclose(b[inner][..., 1], 2.0, atol=0.05)  # d/dx
        assert np.allclose(b[inner][..., 0], 3.0, atol=0.05)  # d/dy
        assert np.allclose(A[inner], 0.0, atol=0.05)

    def test_quadratic_recovers_curvature(self):
        ys, xs = np.mgrid[0:40, 0:40].astype(float)
        img = 0.5 * (xs - 20) ** 2
        A, _ = poly_expansion(img, sigma=1.5)
        inner = (slice(10, -10), slice(10, -10))
        assert np.allclose(A[inner][..., 1, 1], 0.5, atol=0.05)
        assert np.allclose(A[inner][..., 0, 0], 0.0, atol=0.05)

    def test_colour_rejected(self):
        with pytest.raises(ValueError):
            poly_expansion(np.zeros((8, 8, 3)))


class TestFarneback:
    @pytest.mark.parametrize("shift", [(1, 2), (3, -2), (0, 4)])
    def test_recovers_global_translation(self, shift):
        tex = textured(4, size=(120, 160))
        f0 = tex
        f1 = np.roll(tex, shift, axis=(0, 1))
        flow = farneback_flow(f0, f1, levels=3, iterations=3)
        inner = flow[24:-24, 24:-24]
        assert np.abs(inner[..., 0].mean() - shift[0]) < 0.3
        assert np.abs(inner[..., 1].mean() - shift[1]) < 0.3

    def test_subpixel_translation(self):
        ys, xs = np.mgrid[0:80, 0:100].astype(float)
        make = lambda dx: np.sin(0.3 * (xs + dx)) + np.cos(0.25 * ys)
        flow = farneback_flow(make(0), make(-0.5), levels=1, iterations=3)
        inner = flow[16:-16, 16:-16]
        assert np.abs(inner[..., 1].mean() - 0.5) < 0.15

    def test_zero_motion(self):
        tex = textured(5)
        flow = farneback_flow(tex, tex, levels=2, iterations=2)
        assert np.abs(flow).max() < 0.1

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            farneback_flow(np.zeros((8, 8)), np.zeros((8, 9)))

    def test_ops_scale_with_resolution(self):
        small = farneback_ops(100, 100)
        large = farneback_ops(200, 200)
        assert 3.0 < large / small < 4.5


class TestWarps:
    def test_backward_warp_inverts_roll(self):
        tex = textured(6)
        shifted = np.roll(tex, (2, 3), axis=(0, 1))
        flow = np.zeros(tex.shape + (2,))
        flow[..., 0] = 2.0
        flow[..., 1] = 3.0
        # shifted(p + (2,3)) == tex(p)... sample shifted at p + flow
        recovered = warp_backward(shifted, flow)
        inner = (slice(6, -6), slice(6, -6))
        assert np.allclose(recovered[inner], tex[inner], atol=1e-6)

    def test_forward_warp_zero_flow_identity(self):
        disp = np.full((10, 12), 5.0)
        flow = np.zeros((10, 12, 2))
        out, known = forward_warp_disparity(disp, flow, flow)
        assert known.all()
        assert np.allclose(out, 5.0)

    def test_forward_warp_translation(self):
        disp = np.zeros((10, 12))
        disp[4, 6] = 9.0
        flow = np.zeros((10, 12, 2))
        flow[..., 1] = 2.0  # everything moves 2 px right
        out, known = forward_warp_disparity(disp, flow, flow)
        assert out[4, 8] == 9.0

    def test_forward_warp_occlusion_keeps_nearer(self):
        disp = np.zeros((6, 8))
        disp[2, 2] = 3.0   # far
        disp[2, 4] = 11.0  # near
        flow = np.zeros((6, 8, 2))
        flow[2, 2, 1] = 2.0  # far pixel moves onto (2, 4)
        out, _ = forward_warp_disparity(disp, flow, None)
        assert out[2, 4] == 11.0  # nearer surface wins

    def test_forward_warp_disparity_rate(self):
        """Right-stream motion differing from left adjusts disparity."""
        disp = np.full((8, 20), 4.0)
        fl = np.zeros((8, 20, 2))
        fr = np.zeros((8, 20, 2))
        fr[..., 1] = 1.0  # right correspondences drift +1 px
        out, known = forward_warp_disparity(disp, fl, fr)
        assert np.allclose(out[known], 5.0)


# ----------------------------------------------------------------------
# scalar references for the vectorized hot path
# ----------------------------------------------------------------------

def _scalar_correlate1d(img, w, axis):
    """Per-pixel mirror of ``ndimage.correlate1d(mode="nearest")``.

    scipy buffers each line in double precision, accumulates the
    centre product first and then the symmetric (or antisymmetric) tap
    pairs outermost-in, and casts back to the input dtype after the
    pass — this reproduces that order bit for bit, which is what makes
    the vectorized sweeps pinnable by ``array_equal``.
    """
    img = np.asarray(img)
    if axis == 0:
        return _scalar_correlate1d(img.T, w, 1).T
    r = len(w) // 2
    w = np.asarray(w, dtype=np.float64)
    sym = np.allclose(w[::-1], w, rtol=0, atol=2.3e-16)
    anti = np.allclose(w[::-1], -w, rtol=0, atol=2.3e-16)
    assert sym or anti, "moment filters are symmetric or antisymmetric"
    out = np.empty(img.shape, np.float64)
    for row in range(img.shape[0]):
        line = img[row].astype(np.float64)
        pad = np.pad(line, r, mode="edge")
        for i in range(len(line)):
            c = r + i
            acc = pad[c] * w[r]
            for jj in range(-r, 0):
                if sym:
                    acc += (pad[c + jj] + pad[c - jj]) * w[r + jj]
                else:
                    acc += (pad[c + jj] - pad[c - jj]) * w[r + jj]
            out[row, i] = acc
    return out.astype(img.dtype)


def _scalar_poly_expansion(img, sigma=1.5, precision="float64"):
    """Per-pixel mirror of :func:`poly_expansion` (same filter order,
    same explicit Gram-inverse products, scalar arithmetic)."""
    from repro.stereo.block_matching import resolve_precision

    dtype = resolve_precision(precision)
    img = np.asarray(img, dtype=dtype)
    radius = max(2, int(round(3.0 * sigma)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    g0 = np.exp(-0.5 * (x / sigma) ** 2)
    g0 /= g0.sum()
    g1, g2 = g0 * x, g0 * x * x

    t0 = _scalar_correlate1d(img, g0, axis=0)
    t1 = _scalar_correlate1d(img, g1, axis=0)
    t2 = _scalar_correlate1d(img, g2, axis=0)
    m00 = _scalar_correlate1d(t0, g0, axis=1)
    m01 = _scalar_correlate1d(t0, g1, axis=1)
    m02 = _scalar_correlate1d(t0, g2, axis=1)
    m10 = _scalar_correlate1d(t1, g0, axis=1)
    m11 = _scalar_correlate1d(t1, g1, axis=1)
    m20 = _scalar_correlate1d(t2, g0, axis=1)

    s0 = float(g0.sum())
    s2 = float((g0 * x * x).sum())
    s4 = float((g0 * x**4).sum())
    inv3 = np.linalg.inv(
        np.array([[s0, s2, s2], [s2, s4, s2 * s2], [s2, s2 * s2, s4]])
    ).astype(dtype)
    inv_s2 = dtype(1.0 / s2)
    inv_s2s2 = dtype(1.0 / (s2 * s2))

    h, w = img.shape
    A = np.empty((h, w, 2, 2), dtype)
    b = np.empty((h, w, 2), dtype)
    for i in range(h):
        for j in range(w):
            A[i, j, 1, 1] = (
                inv3[1, 0] * m00[i, j] + inv3[1, 1] * m02[i, j] + inv3[1, 2] * m20[i, j]
            )
            A[i, j, 0, 0] = (
                inv3[2, 0] * m00[i, j] + inv3[2, 1] * m02[i, j] + inv3[2, 2] * m20[i, j]
            )
            off = 0.5 * (m11[i, j] * inv_s2s2)
            A[i, j, 0, 1] = off
            A[i, j, 1, 0] = off
            b[i, j, 0] = m10[i, j] * inv_s2
            b[i, j, 1] = m01[i, j] * inv_s2
    return A, b


def _scalar_flow_iteration(A1, b1, A2, b2, flow, window_sigma):
    """Per-pixel mirror of :func:`flow_iteration`: scalar bilinear
    warp, scalar matrix update, scalar-mirrored Gaussian averaging,
    scalar 2x2 solve."""
    from repro.flow import blur_kernel1d

    dtype = flow.dtype.type
    h, w = flow.shape[:2]
    fh, fw = A2.shape[:2]
    A00 = np.empty((h, w), dtype)
    A01 = np.empty((h, w), dtype)
    A11 = np.empty((h, w), dtype)
    db0 = np.empty((h, w), dtype)
    db1 = np.empty((h, w), dtype)
    for i in range(h):
        for j in range(w):
            yy = dtype(i)
            xx = dtype(j)
            sy = np.clip(yy + flow[i, j, 0], 0, fh - 1)
            sx = np.clip(xx + flow[i, j, 1], 0, fw - 1)
            y0 = int(np.floor(sy))
            x0 = int(np.floor(sx))
            y1 = min(y0 + 1, fh - 1)
            x1 = min(x0 + 1, fw - 1)
            fy = sy - y0
            fx = sx - x0

            def warp(c):
                top = c[y0, x0] * (1 - fx) + c[y0, x1] * fx
                bot = c[y1, x0] * (1 - fx) + c[y1, x1] * fx
                return top * (1 - fy) + bot * fy

            a00 = 0.5 * (A1[i, j, 0, 0] + warp(A2[..., 0, 0]))
            a01 = 0.5 * (A1[i, j, 0, 1] + warp(A2[..., 0, 1]))
            a11 = 0.5 * (A1[i, j, 1, 1] + warp(A2[..., 1, 1]))
            f0 = flow[i, j, 0]
            f1 = flow[i, j, 1]
            d0 = -0.5 * (warp(b2[..., 0]) - b1[i, j, 0]) + (a00 * f0 + a01 * f1)
            d1 = -0.5 * (warp(b2[..., 1]) - b1[i, j, 1]) + (a01 * f0 + a11 * f1)
            A00[i, j], A01[i, j], A11[i, j] = a00, a01, a11
            db0[i, j], db1[i, j] = d0, d1

    taps = blur_kernel1d(window_sigma)

    def blur(m):
        return _scalar_correlate1d(_scalar_correlate1d(m, taps, 0), taps, 1)

    G00 = blur(A00 * A00 + A01 * A01)
    G01 = blur(A00 * A01 + A01 * A11)
    G11 = blur(A01 * A01 + A11 * A11)
    h0 = blur(A00 * db0 + A01 * db1)
    h1 = blur(A01 * db0 + A11 * db1)

    new = np.empty_like(flow)
    for i in range(h):
        for j in range(w):
            lam = 1e-3 * 0.5 * (G00[i, j] + G11[i, j]) + 1e-12
            g00 = G00[i, j] + lam
            g11 = G11[i, j] + lam
            det = g00 * g11 - G01[i, j] * G01[i, j]
            new[i, j, 0] = (g11 * h0[i, j] - G01[i, j] * h1[i, j]) / det
            new[i, j, 1] = (g00 * h1[i, j] - G01[i, j] * h0[i, j]) / det
    return new


class TestScalarPinning:
    """The vectorized non-key hot path, pinned bit-identical to
    per-pixel scalar references (both precisions)."""

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_correlate1d_mirror(self, precision):
        from repro.stereo.block_matching import resolve_precision

        img = textured(7, size=(6, 40)).astype(resolve_precision(precision))
        radius = 4
        x = np.arange(-radius, radius + 1, dtype=np.float64)
        g0 = np.exp(-0.5 * (x / 1.5) ** 2)
        g0 /= g0.sum()
        for taps in (g0, g0 * x, g0 * x * x):
            for axis in (0, 1):
                got = ndimage.correlate1d(img, taps, axis=axis, mode="nearest")
                assert np.array_equal(got, _scalar_correlate1d(img, taps, axis))

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_poly_expansion_matches_scalar(self, precision):
        img = textured(8, size=(14, 17))
        A, b = poly_expansion(img, precision=precision)
        A_ref, b_ref = _scalar_poly_expansion(img, precision=precision)
        assert A.dtype == A_ref.dtype
        assert np.array_equal(A, A_ref)
        assert np.array_equal(b, b_ref)

    @pytest.mark.parametrize("shape", [(1, 30), (30, 1)])
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_poly_expansion_degenerate_frames(self, shape, precision):
        img = textured(9, size=shape)
        A, b = poly_expansion(img, precision=precision)
        assert np.isfinite(A).all() and np.isfinite(b).all()
        A_ref, b_ref = _scalar_poly_expansion(img, precision=precision)
        assert np.array_equal(A, A_ref)
        assert np.array_equal(b, b_ref)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_flow_iteration_matches_scalar(self, precision):
        from repro.flow import flow_iteration
        from repro.stereo.block_matching import resolve_precision

        dtype = resolve_precision(precision)
        f0 = textured(10, size=(12, 15))
        f1 = np.roll(f0, (1, -1), axis=(0, 1))
        A1, b1 = poly_expansion(f0, precision=precision)
        A2, b2 = poly_expansion(f1, precision=precision)
        rng = np.random.default_rng(11)
        flow = rng.normal(scale=0.7, size=(12, 15, 2)).astype(dtype)
        got = flow_iteration(A1, b1, A2, b2, flow, window_sigma=1.5)
        ref = _scalar_flow_iteration(A1, b1, A2, b2, flow, window_sigma=1.5)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_flow_iteration_matches_scalar_across_row_blocks(self, precision):
        """37 rows: one full block of the update's point-wise stages and
        one partial block, so block edges fall inside the frame."""
        from repro.flow import farneback, flow_iteration
        from repro.stereo.block_matching import resolve_precision

        h, w = 37, 50
        assert h > farneback._BLOCK_ROWS and h % farneback._BLOCK_ROWS
        dtype = resolve_precision(precision)
        f0 = textured(17, size=(h, w))
        f1 = np.roll(f0, (2, -1), axis=(0, 1))
        A1, b1 = poly_expansion(f0, precision=precision)
        A2, b2 = poly_expansion(f1, precision=precision)
        # large enough to warp across block boundaries and the border
        flow = np.random.default_rng(18).normal(scale=2.0, size=(h, w, 2)).astype(dtype)
        got = flow_iteration(A1, b1, A2, b2, flow, window_sigma=2.5)
        ref = _scalar_flow_iteration(A1, b1, A2, b2, flow, window_sigma=2.5)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


class TestPlanes:
    """Expansions and flows live in channel-first planes; the ``(A, b)``
    and ``(H, W, 2)`` forms are views of them, and the row blocks of an
    update cannot change a bit."""

    @pytest.fixture(scope="class")
    def expansions(self):
        from repro.flow import expand_frame

        frames = (textured(20, size=(70, 90)), textured(21, size=(70, 90)))
        return {
            precision: [expand_frame(f, levels=3, precision=precision) for f in frames]
            for precision in ("float64", "float32")
        }

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_coefficients_are_read_only_views(self, expansions, precision):
        exp = expansions[precision][0]
        for planes, (A, b), shape in zip(exp.planes, exp.coeffs, exp.shapes):
            assert planes.shape == (5,) + shape and planes.flags.c_contiguous
            assert np.shares_memory(A, planes) and np.shares_memory(b, planes)
            assert not A.flags.writeable and not b.flags.writeable
            assert np.array_equal(A[..., 0, 1], A[..., 1, 0])
            assert A[..., 0, 0].tobytes() == planes[0].tobytes()
            assert A[..., 0, 1].tobytes() == planes[1].tobytes()
            assert A[..., 1, 1].tobytes() == planes[2].tobytes()
            assert b[..., 0].tobytes() == planes[3].tobytes()
            assert b[..., 1].tobytes() == planes[4].tobytes()

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_adapters_equal_the_plane_kernels(self, expansions, precision):
        from repro.flow import flow_iteration, flow_update

        exp0, exp1 = expansions[precision]
        (A1, b1), (A2, b2) = exp0.coeffs[0], exp1.coeffs[0]
        flow = np.random.default_rng(22).normal(size=(2,) + exp0.shapes[0])
        flow = flow.astype(exp0.planes[0].dtype)
        packed = flow_update(exp0.planes[0], exp1.planes[0], flow, 2.5)
        assert packed.shape == flow.shape and packed.dtype == flow.dtype
        adapted = flow_iteration(A1, b1, A2, b2, np.moveaxis(flow, 0, -1), 2.5)
        assert adapted.tobytes() == np.moveaxis(packed, 0, -1).tobytes()
        img = textured(20, size=(70, 90))
        A, b = poly_expansion(img, precision=precision)
        assert A.tobytes() == A1.tobytes() and b.tobytes() == b1.tobytes()

    @pytest.mark.parametrize("rows", [1, 5, 31, 33, 1000])
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_block_height_cannot_change_a_bit(
        self, expansions, monkeypatch, precision, rows
    ):
        from repro.flow import farneback, flow_from_expansions

        exp0, exp1 = expansions[precision]
        want = flow_from_expansions(exp0, exp1, 2, 2.5)
        monkeypatch.setattr(farneback, "_BLOCK_ROWS", rows)
        got = flow_from_expansions(exp0, exp1, 2, 2.5)
        assert got.shape == (70, 90, 2) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_update_leaves_its_inputs_untouched(self, expansions):
        from repro.flow import flow_update

        exp0, exp1 = expansions["float64"]
        p1, p2 = exp0.planes[0], exp1.planes[0]
        flow = np.full((2,) + exp0.shapes[0], 0.75)
        before = [a.copy() for a in (p1, p2, flow)]
        flow_update(p1, p2, flow, 2.5)
        for a, b in zip((p1, p2, flow), before):
            assert a.tobytes() == b.tobytes()


class TestExpansionReuse:
    """Cross-frame expansion sharing (the ISM cache's enabler)."""

    def test_shared_expansion_bitwise(self):
        from repro.flow import expand_frame, flow_from_expansions

        frames = [textured(s, size=(40, 56)) for s in (12, 13, 14)]
        exps = [expand_frame(f, levels=2) for f in frames]
        for a, b in ((0, 1), (1, 2)):
            direct = farneback_flow(frames[a], frames[b], levels=2)
            shared = flow_from_expansions(exps[a], exps[b])
            assert np.array_equal(direct, shared)

    def test_matches_validation(self):
        from repro.flow import expand_frame

        exp = expand_frame(textured(15, size=(32, 40)), levels=2)
        assert exp.matches((32, 40), 2, 1.5, None, "float64")
        assert not exp.matches((32, 41), 2, 1.5, None, "float64")
        assert not exp.matches((32, 40), 3, 1.5, None, "float64")
        assert not exp.matches((32, 40), 2, 2.0, None, "float64")
        assert not exp.matches((32, 40), 2, 1.5, None, "float32")

    def test_float32_close_to_float64(self):
        f0 = textured(16, size=(48, 64))
        f1 = np.roll(f0, (1, 2), axis=(0, 1))
        f64 = farneback_flow(f0, f1, levels=2, iterations=2)
        f32 = farneback_flow(f0, f1, levels=2, iterations=2, precision="float32")
        assert f32.dtype == np.float32
        assert np.allclose(f32, f64, atol=5e-2)
