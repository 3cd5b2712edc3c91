"""Tests for refinement, triangulation, metrics and matcher internals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.stereo import (
    BUMBLEBEE2,
    StereoCamera,
    end_point_error,
    error_rate,
    fill_invalid,
    left_right_check,
    median_clean,
    three_pixel_error,
)
from repro.stereo.elas import interpolate_prior, support_points
from repro.stereo.refine import fill_background, median2d
from repro.stereo.seeds import grow_seeds


class TestTriangulation:
    def test_bumblebee2_constants(self):
        assert BUMBLEBEE2.baseline_m == 0.120
        assert BUMBLEBEE2.focal_length_m == 2.5e-3
        assert BUMBLEBEE2.pixel_size_m == 7.4e-6

    def test_depth_disparity_roundtrip(self):
        depths = np.array([1.0, 5.0, 10.0, 30.0])
        disp = BUMBLEBEE2.disparity_from_depth(depths)
        back = BUMBLEBEE2.depth_from_disparity(disp)
        assert np.allclose(back, depths)

    @settings(max_examples=40, deadline=None)
    @given(depth=st.floats(0.5, 100.0))
    def test_roundtrip_property(self, depth):
        d = BUMBLEBEE2.disparity_from_depth(depth)
        assert float(BUMBLEBEE2.depth_from_disparity(d)) == pytest.approx(depth)

    def test_zero_disparity_is_infinite_depth(self):
        assert BUMBLEBEE2.depth_from_disparity(0.0) == np.inf

    def test_nearer_means_larger_disparity(self):
        d_near = BUMBLEBEE2.disparity_from_depth(2.0)
        d_far = BUMBLEBEE2.disparity_from_depth(20.0)
        assert d_near > d_far

    def test_depth_error_grows_quadratically(self):
        e10 = BUMBLEBEE2.depth_error(10.0, 0.1)
        e20 = BUMBLEBEE2.depth_error(20.0, 0.1)
        assert 3.0 < float(e20 / e10) < 5.0  # ~(20/10)^2 to first order

    def test_paper_headline(self):
        """0.2 px error at moderate range costs 0.5-5 m (Sec. 2.2)."""
        errs = [float(BUMBLEBEE2.depth_error(d, 0.2)) for d in (10, 15, 30)]
        assert 0.4 < errs[0] < 1.0
        assert 2.5 < errs[2] < 5.5

    def test_invalid_camera_raises(self):
        with pytest.raises(ValueError):
            StereoCamera(0.0, 1e-3, 1e-6)


class TestMetrics:
    def test_perfect_prediction(self):
        gt = np.full((8, 8), 5.0)
        assert three_pixel_error(gt, gt) == 0.0
        assert end_point_error(gt, gt) == 0.0

    def test_all_wrong(self):
        gt = np.full((8, 8), 5.0)
        assert three_pixel_error(gt + 10.0, gt) == 1.0

    def test_threshold_boundary(self):
        gt = np.zeros((4, 4))
        assert three_pixel_error(gt + 2.99, gt) == 0.0
        assert three_pixel_error(gt + 3.0, gt) == 1.0

    def test_error_rate_is_percentage(self):
        gt = np.zeros((2, 2))
        pred = np.array([[0.0, 0.0], [10.0, 10.0]])
        assert error_rate(pred, gt) == pytest.approx(50.0)

    def test_valid_mask_respected(self):
        gt = np.zeros((2, 2))
        pred = np.array([[0.0, 10.0], [0.0, 0.0]])
        valid = np.array([[True, False], [True, True]])
        assert three_pixel_error(pred, gt, valid) == 0.0

    def test_nan_gt_excluded(self):
        gt = np.array([[np.nan, 0.0]])
        pred = np.array([[99.0, 0.0]])
        assert three_pixel_error(pred, gt) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            three_pixel_error(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_no_valid_pixels_raises(self):
        gt = np.full((2, 2), np.nan)
        with pytest.raises(ValueError):
            three_pixel_error(np.zeros((2, 2)), gt)


class TestLeftRightCheck:
    def test_consistent_maps_pass(self):
        dl = np.full((6, 20), 4.0)
        dr = np.full((6, 20), 4.0)
        mask = left_right_check(dl, dr)
        assert mask[:, :-4].all()

    def test_inconsistent_fails(self):
        dl = np.full((6, 20), 4.0)
        dr = np.full((6, 20), 9.0)
        assert not left_right_check(dl, dr).any()

    def test_out_of_frame_fails(self):
        dl = np.full((4, 10), 50.0)  # correspondence beyond image edge
        dr = np.full((4, 10), 50.0)
        assert not left_right_check(dl, dr).any()


class TestFills:
    def test_fill_invalid_interpolates(self):
        disp = np.array([[1.0, 0.0, 3.0]])
        valid = np.array([[True, False, True]])
        out = fill_invalid(disp, valid)
        assert out[0, 1] == pytest.approx(2.0)

    def test_fill_invalid_all_bad_row(self):
        out = fill_invalid(np.ones((1, 4)), np.zeros((1, 4), dtype=bool))
        assert (out == 0).all()

    def test_fill_background_takes_min(self):
        disp = np.array([[10.0, 0.0, 2.0]])
        valid = np.array([[True, False, True]])
        out = fill_background(disp, valid)
        assert out[0, 1] == 2.0  # the farther neighbour

    def test_fill_background_edge_holes(self):
        disp = np.array([[0.0, 5.0, 7.0, 0.0]])
        valid = np.array([[False, True, True, False]])
        out = fill_background(disp, valid)
        assert out[0, 0] == 5.0 and out[0, 3] == 7.0

    def test_fill_background_keeps_valid(self):
        disp = np.array([[1.0, 2.0, 3.0]])
        valid = np.ones((1, 3), dtype=bool)
        assert np.array_equal(fill_background(disp, valid), disp)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fill_background_no_new_extremes(self, seed):
        rng = np.random.default_rng(seed)
        disp = rng.uniform(0, 30, size=(6, 24))
        valid = rng.random((6, 24)) > 0.3
        if not valid.any():
            valid[0, 0] = True
        out = fill_background(disp, valid)
        # row-wise: filled values come from valid values in that row
        for y in range(6):
            if valid[y].any():
                assert out[y].max() <= disp[y][valid[y]].max() + 1e-9
                assert out[y].min() >= min(0.0, disp[y][valid[y]].min())

    def test_median_clean_removes_speckle(self):
        disp = np.full((7, 7), 4.0)
        disp[3, 3] = 40.0
        out = median_clean(disp, 3)
        assert out[3, 3] == 4.0


class TestMedian2d:
    @pytest.mark.parametrize("size", [3, 5, 7])
    @pytest.mark.parametrize("shape", [(29, 41), (4, 29, 41)])
    def test_matches_scipy_and_owns_its_memory(self, shape, size):
        a = np.random.default_rng(size).standard_normal(shape)
        out = median2d(a, size)
        ref = ndimage.median_filter(a, size=(1,) * (a.ndim - 2) + (size, size))
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()
        # a view would keep the whole window buffer alive
        assert out.base is None

    @staticmethod
    def _assert_scipy_bytes(a, size, mode):
        out = median2d(a, size, mode)
        ref = ndimage.median_filter(
            a, size=(1,) * (a.ndim - 2) + (size, size), mode=mode
        )
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes(), (a.shape, size, mode)

    @pytest.mark.parametrize("mode", ["nearest", "reflect"])
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 9), (9, 1), (2, 2), (7, 5), (3, 40, 33)]
    )
    def test_size3_selection_on_edge_shapes(self, shape, mode):
        rng = np.random.default_rng(sum(shape))
        for a in (
            rng.standard_normal(shape),
            np.full(shape, 2.5),
            rng.integers(0, 3, shape).astype(np.float64),  # tie-heavy
            rng.integers(-2, 3, shape).astype(np.float32),
            rng.integers(0, 5, shape),                     # integer dtype
        ):
            self._assert_scipy_bytes(a, 3, mode)

    @pytest.mark.parametrize("seed", range(20))
    def test_size3_selection_random_ties_and_infinities(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 70, size=2))
        a = rng.integers(0, 4, shape).astype(np.float64)
        a[rng.random(shape) < 0.05] = np.inf
        a[rng.random(shape) < 0.05] = -np.inf
        for mode in ("nearest", "reflect"):
            self._assert_scipy_bytes(a, 3, mode)

    @pytest.mark.parametrize("size", [5, 7])
    def test_network_across_row_blocks(self, size):
        from repro.stereo.refine import _BLOCK_ROWS as B

        # heights around multiples of the block height put block edges
        # at every offset inside the window
        for height in (B - 1, B, B + 1, 2 * B, 2 * B + 1, 2 * B + 6):
            rng = np.random.default_rng(height * size)
            for a in (
                rng.standard_normal((height, 23)),
                rng.integers(0, 3, (2, height, 23)).astype(np.float64),
            ):
                for mode in ("nearest", "reflect"):
                    self._assert_scipy_bytes(a, size, mode)

    @pytest.mark.parametrize("size", [5, 7])
    @pytest.mark.parametrize("mode", ["nearest", "reflect"])
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 9), (9, 1), (2, 2), (4, 4), (3, 1, 1), (2, 11, 6)]
    )
    def test_network_on_edge_shapes(self, shape, mode, size):
        rng = np.random.default_rng(sum(shape) * size)
        infs = rng.integers(0, 3, shape).astype(np.float64)
        infs[rng.random(shape) < 0.2] = np.inf
        infs[rng.random(shape) < 0.2] = -np.inf
        for a in (
            rng.standard_normal(shape),
            np.full(shape, -1.5),
            rng.integers(0, 2, shape).astype(np.float64),  # tie-heavy
            rng.standard_normal(shape).astype(np.float32),
            rng.integers(-3, 3, shape).astype(np.int16),   # integer dtype
            rng.integers(0, 200, shape).astype(np.uint8),
            infs,
            np.asfortranarray(infs),                       # not C-contiguous
        ):
            self._assert_scipy_bytes(a, size, mode)

    @pytest.mark.parametrize("size", [3, 5])
    def test_column_sorter_sorts_every_01_column(self, size):
        # 0-1 principle: a comparator network that sorts every 0-1
        # input sorts every input
        from repro.stereo.refine import _median_program, _run

        prog = _median_program(size)
        bits = (np.arange(2 ** size)[:, None] >> np.arange(size)) & 1
        n = len(bits)
        rows = [np.ascontiguousarray(bits[:, dy], dtype=np.uint8) for dy in range(size)]
        bases = rows + list(np.zeros((prog.bases - size, n), np.uint8))
        _run(prog.ops[: prog.sort_ops], prog.views, bases, n)
        ranks = np.array([bases[c] for c in prog.columns])
        assert np.array_equal(ranks, np.sort(bits.T, axis=0))

    @pytest.mark.parametrize("size", [3, 5])
    def test_window_program_selects_the_median_of_sorted_01_columns(self, size):
        # with sorted columns (the test above), the 0-1 principle needs
        # only the (size + 1) ** size matrices of sorted 0-1 columns: a
        # column of `size` sorted bits is fixed by its count of ones
        from itertools import product

        from repro.stereo.refine import _median_program, _run

        prog = _median_program(size)
        ones = np.array(list(product(range(size + 1), repeat=size)))
        n = ones.size  # window i reads its columns at lanes size*i + c
        bases = [np.zeros(n, np.uint8)] * size + list(
            np.zeros((prog.bases - size, n + size - 1), np.uint8)
        )
        for k, c in enumerate(prog.columns):
            bases[c][:n] = (ones.ravel() >= size - k)  # rank k is 1 iff
        v = _run(prog.ops[prog.sort_ops:], prog.views, bases, n)
        median = v[prog.result][::size]
        assert np.array_equal(median, ones.sum(axis=1) > size * size // 2)

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.sampled_from([3, 5, 7, 9]),
        mode=st.sampled_from(["nearest", "reflect"]),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 24), st.integers(1, 24)),
        stack=st.booleans(),
        levels=st.integers(2, 50),
        seed=st.integers(0, 2 ** 16),
    )
    def test_network_matches_scipy_property(self, size, mode, shape, stack, levels, seed):
        a = np.random.default_rng(seed).integers(0, levels, shape).astype(np.float64)
        if not stack:
            a = a[0]
        out = median2d(a, size, mode)
        ref = ndimage.median_filter(
            a, size=(1,) * (a.ndim - 2) + (size, size), mode=mode
        )
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
        assert out.base is None

    @pytest.mark.parametrize("size", [3, 5])
    def test_nan_or_negative_zero_stays_on_scipy(self, size):
        # both would let a selection and scipy's rank filter pick
        # different bits for the same window
        rng = np.random.default_rng(size)
        a = rng.integers(0, 2, (20, 30)).astype(np.float64)
        a[rng.random(a.shape) < 0.4] = -0.0
        self._assert_scipy_bytes(a, size, "nearest")
        a[3, 4] = np.nan
        self._assert_scipy_bytes(a, size, "reflect")

    @pytest.mark.parametrize("size", [3, 5])
    @pytest.mark.parametrize("dtype", [np.float16, np.complex128])
    def test_dtype_scipy_refuses_raises_scipys_error(self, dtype, size):
        # the selection would return a result where scipy has none
        a = np.arange(48).reshape(6, 8).astype(dtype)
        with pytest.raises((RuntimeError, TypeError)) as ref:
            ndimage.median_filter(a, size)
        with pytest.raises(type(ref.value), match=str(ref.value)):
            median2d(a, size)

    def test_median_clean_is_the_nearest_mode_median(self):
        disp = np.abs(np.random.default_rng(4).normal(10, 4, (45, 60)))
        for size in (3, 5, 4):
            assert median_clean(disp, size).tobytes() == ndimage.median_filter(
                disp, size=size, mode="nearest"
            ).tobytes()


class TestSupportPointsAndPriors:
    def test_support_points_on_uniform_shift(self):
        from tests.test_stereo_matchers import synthetic_pair

        left, right = synthetic_pair(d=5, size=(60, 100), seed=3)
        ys, xs, ds = support_points(left, right, 12, grid_step=8)
        assert ds.size > 5
        assert np.abs(ds - 5).mean() < 1.0

    def test_interpolate_prior_constant(self):
        ys = np.array([5, 5, 25, 25])
        xs = np.array([5, 35, 5, 35])
        ds = np.array([7.0, 7.0, 7.0, 7.0])
        prior = interpolate_prior(ys, xs, ds, (30, 40))
        assert np.allclose(prior, 7.0)

    def test_interpolate_prior_gradient(self):
        ys = np.array([0, 0, 29, 29])
        xs = np.array([0, 39, 0, 39])
        ds = np.array([0.0, 0.0, 29.0, 29.0])
        prior = interpolate_prior(ys, xs, ds, (30, 40))
        assert prior[0].mean() < prior[-1].mean()

    def test_interpolate_prior_empty(self):
        prior = interpolate_prior(
            np.array([]), np.array([]), np.array([]), (8, 8)
        )
        assert (prior == 0).all()

    def test_interpolate_prior_few_points(self):
        prior = interpolate_prior(
            np.array([2]), np.array([3]), np.array([6.0]), (8, 8)
        )
        assert np.allclose(prior, 6.0)


class TestGrowSeeds:
    def test_grows_from_single_seed(self):
        cost = np.zeros((4, 10, 12))  # disparity 0..3, all costs equal
        cost[1] -= 1.0                # disparity 1 is everywhere best
        seeds = (np.array([5]), np.array([6]), np.array([1]))
        disp = grow_seeds(cost, seeds, accept_cost=0.0)
        assert (disp == 1).all()

    def test_respects_accept_threshold(self):
        cost = np.ones((3, 6, 6))
        seeds = (np.array([0]), np.array([0]), np.array([0]))
        disp = grow_seeds(cost, seeds, accept_cost=-1.0)  # nothing accepted
        assert disp[0, 0] == 0          # the seed itself is placed
        assert (disp < 0).sum() == 35   # nothing else grows
