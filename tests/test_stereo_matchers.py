"""Tests for the classic stereo matching substrate."""

import numpy as np
import pytest

from repro.datasets import sceneflow_scene
from repro.pipeline import kitti_stream
from repro.stereo import (
    block_match,
    elas,
    error_rate,
    gcsf,
    guided_block_match,
    sad_cost_volume,
    sgm,
    shift_right_image,
)
from repro.stereo.block_matching import _BIG, _subpixel_refine
from repro.stereo.sgm import _DIRECTIONS_8, aggregate_path, aggregate_volume

MAX_DISP = 48


@pytest.fixture(scope="module")
def frame():
    return sceneflow_scene(7).render(0)


def synthetic_pair(d=6, size=(40, 80), seed=0):
    """Uniform-disparity pair with the paper's convention
    ``right[y, x + d] = left[y, x]``: both views crop a shared texture,
    the right view starting ``d`` columns earlier."""
    rng = np.random.default_rng(seed)
    from scipy import ndimage

    tex = ndimage.gaussian_filter(rng.normal(size=(size[0], size[1] + d)), 1.0)
    left = tex[:, d:]
    right = tex[:, :-d] if d else tex
    return left, right


class TestShift:
    def test_zero_shift_copies(self):
        # regression: d == 0 used to return the input aliased, so
        # writing through the result corrupted the caller's image
        img = np.arange(12.0).reshape(3, 4)
        out = shift_right_image(img, 0)
        assert out is not img
        assert np.array_equal(out, img)
        out[0, 0] = -1.0
        assert img[0, 0] == 0.0

    def test_positive_shift(self):
        img = np.arange(12.0).reshape(3, 4)
        out = shift_right_image(img, 1)
        assert np.array_equal(out[:, :-1], img[:, 1:])

    def test_negative_shift(self):
        img = np.arange(12.0).reshape(3, 4)
        out = shift_right_image(img, -1)
        assert np.array_equal(out[:, 1:], img[:, :-1])


class TestCostVolume:
    def test_shape(self, frame):
        cost = sad_cost_volume(frame.left, frame.right, 16, block_size=5)
        assert cost.shape == (16,) + frame.shape

    def test_true_disparity_minimises_cost(self):
        left, right = synthetic_pair(d=6)
        cost = sad_cost_volume(left, right, 12, block_size=7)
        wta = cost.argmin(axis=0)
        inner = wta[5:-5, 5:-11]
        assert (inner == 6).mean() > 0.95

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            sad_cost_volume(np.zeros((4, 4)), np.zeros((4, 5)), 4)

    def test_bad_max_disp_raises(self):
        with pytest.raises(ValueError):
            sad_cost_volume(np.zeros((4, 4)), np.zeros((4, 4)), 0)

    def test_color_input_collapsed(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(16, 24, 3))
        cost = sad_cost_volume(img, img, 4)
        assert cost.shape == (4, 16, 24)
        assert np.allclose(cost[0], 0.0)

    def test_precision_knob_sets_dtype(self):
        left, right = synthetic_pair(d=2, size=(12, 20))
        assert sad_cost_volume(left, right, 4).dtype == np.float64
        vol32 = sad_cost_volume(left, right, 4, precision="float32")
        assert vol32.dtype == np.float32
        assert np.allclose(
            vol32, sad_cost_volume(left, right, 4), atol=1e-5
        )

    def test_unknown_precision_raises(self):
        left, right = synthetic_pair(d=2, size=(12, 20))
        with pytest.raises(ValueError, match="precision"):
            sad_cost_volume(left, right, 4, precision="float16")

    @pytest.mark.parametrize("block_size", [4, 6, 8])
    def test_even_block_size_raises(self, block_size):
        # an even block has no centre pixel: every SAD-family kernel
        # refuses it, as census_transform refuses an even window
        left, right = synthetic_pair(d=2, size=(12, 20))
        for call in (
            lambda: sad_cost_volume(left, right, 4, block_size),
            lambda: block_match(left, right, 4, block_size),
            lambda: sgm(left, right, 4, block_size),
            lambda: guided_block_match(
                left, right, np.zeros_like(left), block_size=block_size
            ),
        ):
            with pytest.raises(ValueError, match="block_size must be odd"):
                call()


class TestBlockMatch:
    def test_recovers_uniform_disparity(self):
        left, right = synthetic_pair(d=6)
        disp = block_match(left, right, 12, block_size=7)
        inner = disp[5:-5, 5:-11]
        assert np.abs(inner - 6).mean() < 0.5

    def test_subpixel_within_half_pixel_of_integer(self):
        left, right = synthetic_pair(d=4)
        d_int = block_match(left, right, 8, subpixel=False)
        d_sub = block_match(left, right, 8, subpixel=True)
        assert np.abs(d_int - d_sub).max() <= 0.5

    def test_scene_error_reasonable(self, frame):
        disp = block_match(frame.left, frame.right, MAX_DISP)
        assert error_rate(disp, frame.disparity) < 25.0


class TestGuidedBlockMatch:
    def test_perfect_init_kept(self, frame):
        disp = guided_block_match(
            frame.left, frame.right, frame.disparity, radius=3
        )
        assert error_rate(disp, frame.disparity) < 10.0

    def test_refines_noisy_init(self, frame):
        rng = np.random.default_rng(0)
        noisy = frame.disparity + rng.normal(0, 1.5, frame.disparity.shape)
        refined = guided_block_match(frame.left, frame.right, noisy, radius=4)
        assert error_rate(refined, frame.disparity) <= error_rate(
            noisy, frame.disparity
        ) + 5.0

    def test_init_shape_checked(self, frame):
        with pytest.raises(ValueError):
            guided_block_match(frame.left, frame.right, np.zeros((3, 3)))

    def test_never_negative(self, frame):
        init = np.zeros(frame.shape)
        disp = guided_block_match(frame.left, frame.right, init, radius=2)
        assert (disp >= 0).all()

    def test_precision_float32_supported(self, frame):
        disp = guided_block_match(
            frame.left, frame.right, frame.disparity, precision="float32"
        )
        assert disp.shape == frame.shape and np.isfinite(disp).all()


class TestGuidedBorderConservatism:
    """The accept-margin guarantee must hold at the image border too.

    Regression tests for two confirmed bugs: (1) right-edge pixels
    whose init-offset candidate was out of range (``x + init >= w`` →
    sentinel cost) silently lost the accept-margin keep, letting a
    nearer offset win against edge-replicated texture and move a
    *perfect* init by several pixels; (2) when every candidate was out
    of range, the argmin over all-sentinel costs picked ``-radius``
    and fabricated a confident-looking disparity.
    """

    def _pair(self, d=6):
        return synthetic_pair(d=d)

    def test_perfect_init_never_moved_beyond_half_pixel(self):
        left, right = self._pair(d=6)
        h, w = left.shape
        init = np.full((h, w), 6.0)
        reachable = np.clip(init, 0.0, np.arange(w - 1, -1, -1.0)[None, :])
        for margin in (0.1, 0.5, 2.0):
            out = guided_block_match(
                left, right, init, radius=4, accept_margin=margin
            )
            assert np.abs(out - reachable).max() <= 0.5, margin

    def test_right_edge_band_keeps_clipped_init_exactly(self):
        left, right = self._pair(d=6)
        h, w = left.shape
        init = np.full((h, w), 6.0)
        out = guided_block_match(left, right, init, radius=4, accept_margin=0.5)
        # pixels whose init candidate reads past the right edge fall
        # back to the geometrically reachable clip of the init — no
        # sub-pixel nudge, no nearer-offset "win"
        edge = np.arange(w)[None, :] + 6 >= w
        reachable = np.clip(init, 0.0, np.arange(w - 1, -1, -1.0)[None, :])
        assert np.array_equal(
            np.broadcast_to(out, (h, w))[np.broadcast_to(edge, (h, w))],
            np.broadcast_to(reachable, (h, w))[np.broadcast_to(edge, (h, w))],
        )

    @pytest.mark.parametrize("subpixel", [True, False])
    @pytest.mark.parametrize("margin", [0.0, 0.5])
    def test_all_invalid_negative_init_returns_zero(self, subpixel, margin):
        left, right = self._pair(d=6)
        init = np.full(left.shape, -50.0)
        out = guided_block_match(
            left, right, init, radius=4,
            subpixel=subpixel, accept_margin=margin,
        )
        # clipped init: max(-50, 0) == 0 everywhere — and deliberately
        # so, not via argmin over sentinel costs
        assert np.array_equal(out, np.zeros_like(out))

    @pytest.mark.parametrize("subpixel", [True, False])
    @pytest.mark.parametrize("margin", [0.0, 0.5])
    def test_all_invalid_beyond_right_edge_returns_clipped_init(
        self, subpixel, margin
    ):
        left, right = self._pair(d=6)
        h, w = left.shape
        init = np.full((h, w), float(w + 10))  # every candidate past w
        out = guided_block_match(
            left, right, init, radius=4,
            subpixel=subpixel, accept_margin=margin,
        )
        reachable = np.broadcast_to(
            np.arange(w - 1, -1, -1.0)[None, :], (h, w)
        )
        # the old argmin fabricated base - radius ≈ w + 6 here
        assert np.array_equal(out, reachable)

    def test_margin_zero_interior_search_unchanged(self):
        left, right = self._pair(d=6)
        h, w = left.shape
        out = guided_block_match(
            left, right, np.full((h, w), 4.0), radius=3, accept_margin=0.0
        )
        inner = out[5:-5, 5 : -(6 + 5)]
        # with no margin the search is free to move — and should land
        # on the true disparity away from the border
        assert np.abs(inner - 6.0).mean() < 0.5


class TestSubpixelRefine:
    def test_plateau_keeps_integer_disparity(self):
        """Zero-curvature fits (e.g. saturated ``_BIG`` regions) must
        not shift the winner — regression for the ``np.maximum`` clamp
        that turned them into +/- 0.5 px offsets."""
        cost = np.full((5, 3, 4), _BIG)
        disp = np.full((3, 4), 2.0)
        assert np.array_equal(_subpixel_refine(cost, disp), disp)

    def test_concave_fit_keeps_integer_disparity(self):
        """A negative-curvature cost triple has no interior minimum.

        ``guided_block_match``'s accept margin can keep a non-argmin
        index, so the refined index's neighbours may both be cheaper;
        the old clamp divided by +1e-12 and produced a spurious half-
        pixel shift here."""
        cost = np.empty((3, 2, 2))
        cost[0], cost[1], cost[2] = 1.0, 0.8, 0.0  # denom = -0.6
        disp = np.ones((2, 2))
        assert np.array_equal(_subpixel_refine(cost, disp), disp)

    def test_convex_fit_interpolates(self):
        cost = np.empty((3, 2, 2))
        cost[0], cost[1], cost[2] = 1.0, 0.2, 0.6  # denom = 1.2
        refined = _subpixel_refine(cost, np.ones((2, 2)))
        assert np.allclose(refined, 1.0 + (1.0 - 0.6) / (2 * 1.2))

    def test_border_disparities_never_shift(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(size=(4, 5, 5))
        for edge in (0.0, 3.0):  # first and last disparity level
            disp = np.full((5, 5), edge)
            assert np.array_equal(_subpixel_refine(cost, disp), disp)


def _reference_aggregate(cost, dy, dx, p1, p2):
    """Scalar SGM path DP, path restart at every border (L_r = C).

    The grouping ``cost + (best - floor)`` (not ``(cost + best) -
    floor``) and the shared-constant adds mirror the exact IEEE
    operations of the vectorized sweep, so the pinning below can
    demand bit-identity, not closeness.
    """
    d_levels, h, w = cost.shape
    # penalties in the volume's dtype, as the sweep's array-scalar adds
    # compute them, whatever NumPy's scalar promotion rules
    p1, p2 = cost.dtype.type(p1), cost.dtype.type(p2)
    out = np.empty_like(cost)
    ys = range(h) if dy >= 0 else range(h - 1, -1, -1)
    xs = range(w) if dx >= 0 else range(w - 1, -1, -1)
    for y in ys:
        for x in xs:
            py, px = y - dy, x - dx
            if not (0 <= py < h and 0 <= px < w):
                out[:, y, x] = cost[:, y, x]
                continue
            prev = out[:, py, px]
            floor = prev.min()
            for d in range(d_levels):
                best = min(
                    prev[d],
                    prev[d - 1] + p1 if d > 0 else np.inf,
                    prev[d + 1] + p1 if d < d_levels - 1 else np.inf,
                    floor + p2,
                )
                out[d, y, x] = cost[d, y, x] + (best - floor)
    return out


class TestAggregatePathGolden:
    P1, P2 = 0.05, 0.5

    @pytest.fixture(scope="class")
    def volume(self):
        rng = np.random.default_rng(11)
        return rng.uniform(size=(5, 6, 7))

    @pytest.mark.parametrize("dy,dx", _DIRECTIONS_8)
    def test_matches_scalar_reference(self, volume, dy, dx):
        got = aggregate_path(volume, dy, dx, self.P1, self.P2)
        want = _reference_aggregate(volume, dy, dx, self.P1, self.P2)
        assert np.array_equal(got, want)  # bit-identical, all 8 paths

    @pytest.mark.parametrize("dy,dx", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_diagonal_paths_restart_at_borders(self, volume, dy, dx):
        """Border-entering pixels have no in-image predecessor, so
        their aggregated cost is the raw matching cost — regression
        for the replicate-at-the-border aggregation term."""
        agg = aggregate_path(volume, dy, dx, self.P1, self.P2)
        entry_row = 0 if dy > 0 else -1
        entry_col = 0 if dx > 0 else -1
        assert np.array_equal(agg[:, entry_row, :], volume[:, entry_row, :])
        assert np.array_equal(agg[:, :, entry_col], volume[:, :, entry_col])

    def test_sgm_wta_pinned_to_reference(self, volume):
        """Pin the summed 4-path and 8-path aggregations (and their
        WTA disparities) to the scalar reference, bit for bit."""
        for paths in (4, 8):
            total = sum(
                _reference_aggregate(volume, dy, dx, self.P1, self.P2)
                for dy, dx in _DIRECTIONS_8[:paths]
            )
            got = sum(
                aggregate_path(volume, dy, dx, self.P1, self.P2)
                for dy, dx in _DIRECTIONS_8[:paths]
            )
            assert np.array_equal(got, total)
            assert np.array_equal(got.argmin(axis=0), total.argmin(axis=0))

    @pytest.mark.parametrize("paths", [2, 4, 8])
    def test_fused_volume_matches_per_direction_sum(self, volume, paths):
        """``aggregate_volume`` (fused sweeps, reused buffers) must be
        bit-identical to summing per-direction ``aggregate_path``
        volumes in direction order — the exact reduction the
        direction-parallel executor performs."""
        want = np.zeros_like(volume)
        for dy, dx in _DIRECTIONS_8[:paths]:
            want += aggregate_path(volume, dy, dx, self.P1, self.P2)
        got = aggregate_volume(volume, self.P1, self.P2, paths)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "shape",
        [(5, 1, 7), (5, 6, 1), (1, 6, 7), (2, 6, 7), (5, 1, 1), (4, 1, 2), (4, 2, 1)],
    )
    def test_degenerate_shapes_pinned(self, shape):
        """One-pixel-wide / one-pixel-tall frames and tiny disparity
        ranges: the sweeps' restart and size-1-plane handling must stay
        bit-identical to the scalar DP (regression for the transposed
        view that aliases the input when a plane has size 1)."""
        rng = np.random.default_rng(int(np.prod(shape)))
        volume = rng.uniform(size=shape)
        before = volume.copy()
        for dy, dx in _DIRECTIONS_8:
            got = aggregate_path(volume, dy, dx, self.P1, self.P2)
            want = _reference_aggregate(volume, dy, dx, self.P1, self.P2)
            assert np.array_equal(got, want), (dy, dx)
        for paths in (2, 4, 8):
            want = np.zeros_like(volume)
            for dy, dx in _DIRECTIONS_8[:paths]:
                want += _reference_aggregate(volume, dy, dx, self.P1, self.P2)
            assert np.array_equal(
                aggregate_volume(volume, self.P1, self.P2, paths), want
            )
        assert np.array_equal(volume, before)  # inputs never mutated


def _kitti_sad_volume(precision):
    """A 24x48x160 SAD volume from the street scenes ``key-sgm`` serves,
    ``_BIG`` right-edge costs included."""
    f = next(kitti_stream(seed=3, size=(48, 160), n_frames=1, max_disp=24).frames())
    return sad_cost_volume(f.left, f.right, 24, 5, precision)


class TestFusedSweepPins:
    """The fused sweep beyond the 5x6x7 uniform volumes, byte for byte:
    real SAD volumes in both precisions, and float32 volumes of every
    width from 1 to 11, where a diagonal sweep's zero-padded restart
    columns are a large share of each line (at width 1 every diagonal
    path restarts on every line)."""

    P1, P2 = 0.05, 0.5

    @pytest.fixture(scope="class", params=["float64", "float32"])
    def sad(self, request):
        return _kitti_sad_volume(request.param)

    @pytest.mark.parametrize("paths", [2, 4, 8])
    def test_sad_volume_matches_per_direction_sum(self, sad, paths):
        before = sad.copy()
        want = np.zeros_like(sad)
        for dy, dx in _DIRECTIONS_8[:paths]:
            want += aggregate_path(sad, dy, dx, self.P1, self.P2)
        got = aggregate_volume(sad, self.P1, self.P2, paths)
        assert got.dtype == sad.dtype  # buffers never promote
        assert got.tobytes() == want.tobytes()
        assert sad.tobytes() == before.tobytes()  # input never mutated

    def test_sad_crop_pinned_to_scalar_reference(self, sad):
        # a crop holding the right edge's _BIG costs, small enough for
        # the scalar DP
        volume = sad[:, 20:30, -32:].copy()
        want = np.zeros_like(volume)
        for dy, dx in _DIRECTIONS_8:
            ref = _reference_aggregate(volume, dy, dx, self.P1, self.P2)
            got = aggregate_path(volume, dy, dx, self.P1, self.P2)
            assert got.tobytes() == ref.tobytes(), (dy, dx)
            want += ref
        got = aggregate_volume(volume, self.P1, self.P2, 8)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", range(1, 12))
    def test_float32_widths_pinned(self, width):
        rng = np.random.default_rng(width)
        volume = rng.uniform(size=(4, 5, width)).astype(np.float32)
        before = volume.copy()
        want = np.zeros_like(volume)
        for paths, (dy, dx) in enumerate(_DIRECTIONS_8, start=1):
            ref = _reference_aggregate(volume, dy, dx, self.P1, self.P2)
            assert aggregate_path(volume, dy, dx, self.P1, self.P2).tobytes() == (
                ref.tobytes()
            ), (dy, dx)
            want += ref
            if paths in (2, 4, 8):
                got = aggregate_volume(volume, self.P1, self.P2, paths)
                assert got.tobytes() == want.tobytes(), paths
        assert volume.tobytes() == before.tobytes()

    def test_zero_penalties_pinned(self):
        # the smallest penalties the zero-padded restarts allow
        volume = np.random.default_rng(4).uniform(size=(5, 6, 7))
        want = np.zeros_like(volume)
        for dy, dx in _DIRECTIONS_8:
            ref = _reference_aggregate(volume, dy, dx, 0.0, 0.0)
            assert np.array_equal(aggregate_path(volume, dy, dx, 0.0, 0.0), ref)
            want += ref
        assert np.array_equal(aggregate_volume(volume, 0.0, 0.0), want)


class TestSGMFailsClosed:
    @pytest.mark.parametrize(
        "p1,p2", [(-0.1, 0.5), (0.05, -1.0), (np.nan, 0.5), (0.05, np.nan)]
    )
    def test_negative_or_nan_penalty_raises(self, p1, p2):
        # padded restarts are exact only for P1, P2 >= 0
        left, right = synthetic_pair(d=2, size=(12, 20))
        volume = np.random.default_rng(0).uniform(size=(4, 5, 6))
        for call in (
            lambda: sgm(left, right, 4, p1=p1, p2=p2),
            lambda: aggregate_path(volume, 1, 1, p1, p2),
            lambda: aggregate_volume(volume, p1, p2),
        ):
            with pytest.raises(ValueError, match="p1 and p2 must be >= 0"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_raises(self, bad):
        # regression: a NaN column used to come back as an all-finite
        # map whose every disparity was 0.0
        left, right = synthetic_pair(d=2, size=(32, 48))
        broken = left.copy()
        broken[:, 7] = bad
        for pair in ((broken, right), (left, broken)):
            with pytest.raises(ValueError, match="finite"):
                sgm(*pair, 8)


class TestBlockMatchFailsClosed:
    """BM and the guided search refuse input they cannot search (on a
    32x48 pair each case used to come back as a garbage map)."""

    @pytest.fixture(scope="class")
    def pair(self):
        return synthetic_pair(d=2, size=(32, 48))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_raises(self, pair, bad):
        left, right = pair
        broken = left.copy()
        broken[:, 7] = bad
        init = np.full(left.shape, 2.0)
        for a, b in ((broken, right), (left, broken)):
            for call in (
                lambda: sad_cost_volume(a, b, 8),
                lambda: block_match(a, b, 8),
                lambda: guided_block_match(a, b, init),
            ):
                with pytest.raises(ValueError, match="finite"):
                    call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_init_raises(self, pair, bad):
        left, right = pair
        init = np.full(left.shape, 2.0)
        init[3, 5] = bad
        with pytest.raises(ValueError, match="init disparity must be finite"):
            guided_block_match(left, right, init)

    def test_mismatched_views_raise(self, pair):
        left, right = pair
        with pytest.raises(ValueError, match="share a shape"):
            guided_block_match(left, right[:, :40], np.full(left.shape, 2.0))
        with pytest.raises(ValueError, match="share a shape"):
            block_match(left, right[:, :40], 8)

    def test_search_range_past_the_frame_raises(self, pair):
        left, right = pair
        for max_disp in (49, 60):
            with pytest.raises(ValueError, match="max_disp must be <= the frame width"):
                block_match(left, right, max_disp)
            with pytest.raises(ValueError, match="max_disp must be <= the frame width"):
                sgm(left, right, max_disp)
        disp = block_match(left, right, 48)  # [0, 48) is the whole frame
        assert np.isfinite(disp).all() and disp.max() < 48

    @pytest.mark.parametrize("shape", [(0, 48), (32, 0), (0, 0)])
    def test_empty_frame_raises(self, shape):
        # a 0x48 frame used to come back as a (0, 48) map from BM, SGM
        # and the guided search
        empty = np.zeros(shape)
        for call in (
            lambda: sad_cost_volume(empty, empty, 1),
            lambda: block_match(empty, empty, 1),
            lambda: sgm(empty, empty, 1),
            lambda: guided_block_match(empty, empty, empty),
        ):
            with pytest.raises(ValueError, match="at least one row and one column"):
                call()


class TestSGM:
    def test_beats_plain_bm_on_scene(self, frame):
        bm = block_match(frame.left, frame.right, MAX_DISP)
        sg = sgm(frame.left, frame.right, MAX_DISP)
        assert error_rate(sg, frame.disparity) < error_rate(bm, frame.disparity) + 2.0

    def test_paths_validation(self, frame):
        with pytest.raises(ValueError):
            sgm(frame.left, frame.right, 8, paths=3)

    def test_more_paths_not_worse(self, frame):
        e4 = error_rate(sgm(frame.left, frame.right, MAX_DISP, paths=4), frame.disparity)
        e8 = error_rate(sgm(frame.left, frame.right, MAX_DISP, paths=8), frame.disparity)
        assert e8 <= e4 + 2.0

    def test_smoothness_reduces_speckle(self, frame):
        bm = block_match(frame.left, frame.right, MAX_DISP, subpixel=False)
        sg = sgm(frame.left, frame.right, MAX_DISP, subpixel=False)
        # total variation should drop under the smoothness prior
        tv = lambda d: np.abs(np.diff(d, axis=1)).sum()
        assert tv(sg) < tv(bm)


class TestELASAndGCSF:
    def test_elas_reasonable(self, frame):
        disp = elas(frame.left, frame.right, MAX_DISP)
        assert error_rate(disp, frame.disparity) < 30.0

    def test_gcsf_reasonable(self, frame):
        disp = gcsf(frame.left, frame.right, MAX_DISP)
        assert error_rate(disp, frame.disparity) < 30.0

    def test_gcsf_all_pixels_assigned(self, frame):
        disp = gcsf(frame.left, frame.right, MAX_DISP)
        assert (disp >= 0).all()
