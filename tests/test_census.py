"""Tests for the census-transform matching cost."""

import numpy as np
import pytest

from repro.datasets import sceneflow_scene
from repro.stereo import (
    census_block_match,
    census_transform,
    error_rate,
    hamming_cost_volume,
)
from repro.stereo.census import _POPCOUNT_TABLE, _popcount64
from tests.test_stereo_matchers import synthetic_pair


def _census_loop_reference(img, window):
    """Scalar uint64 shift/or loop the byte-plane transform replaced."""
    img = np.asarray(img, dtype=np.float64)
    r = window // 2
    h, w = img.shape
    padded = np.pad(img, r, mode="edge")
    code = np.zeros((h, w), dtype=np.uint64)
    bit = np.uint64(0)
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dy == 0 and dx == 0:
                continue
            neighbour = padded[r + dy : r + dy + h, r + dx : r + dx + w]
            code |= (neighbour < img).astype(np.uint64) << bit
            bit += np.uint64(1)
    return code


class TestCensusTransform:
    def test_constant_image_zero_code(self):
        code = census_transform(np.full((10, 10), 5.0))
        assert (code == 0).all()

    def test_code_shape_and_dtype(self):
        img = np.random.default_rng(0).normal(size=(12, 16))
        code = census_transform(img, window=5)
        assert code.shape == (12, 16)
        assert code.dtype == np.uint64

    def test_monotonic_brightness_invariance(self):
        """The defining census property: any monotonic intensity map
        leaves the code unchanged."""
        img = np.random.default_rng(1).normal(size=(20, 20))
        warped = 3.0 * img + 7.0
        assert np.array_equal(census_transform(img), census_transform(warped))

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            census_transform(np.zeros((8, 8)), window=4)

    def test_too_large_window_rejected(self):
        with pytest.raises(ValueError):
            census_transform(np.zeros((16, 16)), window=11)

    def test_bit_semantics(self):
        """A single dark pixel sets exactly the neighbour bits of the
        pixels around it."""
        img = np.ones((7, 7))
        img[3, 3] = 0.0
        code = census_transform(img, window=3)
        assert code[3, 3] == 0           # all neighbours brighter
        assert code[3, 2] != 0           # sees the dark pixel

    @pytest.mark.parametrize("window", [3, 5, 7])
    @pytest.mark.parametrize(
        "shape", [(23, 36), (1, 30), (30, 1), (5, 5), (96, 160)]
    )
    def test_byteplane_matches_scalar_loop(self, shape, window):
        """The byte-plane transform must reproduce the scalar uint64
        shift/or loop exactly — same bit order, every shape including
        one-row and one-column images."""
        img = np.random.default_rng(hash(shape) % 2**32).normal(size=shape)
        assert np.array_equal(
            census_transform(img, window), _census_loop_reference(img, window)
        )


class TestPopcount:
    def test_matches_table_fallback(self):
        """The ``np.bitwise_count`` fast path and the byte-table
        fallback must agree on arbitrary 64-bit patterns."""
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2**63, size=(64,), dtype=np.int64).view(np.uint64)
        x[0], x[1] = np.uint64(0), np.uint64(2**64 - 1)
        table = _POPCOUNT_TABLE[
            np.ascontiguousarray(x).view(np.uint8).reshape(x.shape + (8,))
        ].sum(axis=-1)
        got = _popcount64(x)
        assert np.array_equal(got.astype(np.uint64), table.astype(np.uint64))
        assert int(got[0]) == 0 and int(got[1]) == 64

    def test_matches_python_bit_count(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2**63, size=(3, 7), dtype=np.int64).view(np.uint64)
        want = np.vectorize(lambda v: int(v).bit_count())(x)
        assert np.array_equal(_popcount64(x).astype(int), want)


class TestPrecomputedRightCodes:
    def test_cost_volume_identical(self):
        left, right = synthetic_pair(d=4, size=(30, 50), seed=6)
        codes = census_transform(right, window=5)
        direct = hamming_cost_volume(left, right, 10, window=5)
        via_codes = hamming_cost_volume(
            left, None, 10, window=5, right_codes=codes
        )
        assert np.array_equal(direct, via_codes)

    def test_block_match_identical(self):
        left, right = synthetic_pair(d=4, size=(30, 50), seed=7)
        codes = census_transform(right, window=7)
        assert np.array_equal(
            census_block_match(left, right, 10, window=7),
            census_block_match(left, None, 10, window=7, right_codes=codes),
        )

    def test_right_ignored_when_codes_given(self):
        left, right = synthetic_pair(d=3, size=(20, 40), seed=8)
        codes = census_transform(right)
        garbage = np.zeros_like(right)
        assert np.array_equal(
            hamming_cost_volume(left, garbage, 8, right_codes=codes),
            hamming_cost_volume(left, right, 8),
        )

    def test_missing_both_rejected(self):
        with pytest.raises(ValueError, match="right or right_codes"):
            hamming_cost_volume(np.zeros((8, 8)), None, 4)

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ValueError, match="uint64"):
            hamming_cost_volume(
                np.zeros((8, 8)), None, 4,
                right_codes=np.zeros((8, 8), dtype=np.int64),
            )

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            hamming_cost_volume(
                np.zeros((8, 8)), None, 4,
                right_codes=np.zeros((4, 8), dtype=np.uint64),
            )


class TestHammingCost:
    def test_recovers_uniform_disparity(self):
        left, right = synthetic_pair(d=5, size=(50, 90), seed=2)
        disp = census_block_match(left, right, 10, window=7)
        inner = disp[6:-6, 6:-11]
        assert np.abs(inner - 5).mean() < 1.0

    def test_robust_to_brightness_change_where_sad_is_not(self):
        """Gain/offset between the two cameras: census keeps matching,
        SAD degrades badly."""
        from repro.stereo import block_match

        left, right = synthetic_pair(d=5, size=(60, 100), seed=3)
        right_warped = 2.5 * right + 1.0
        gt = np.full(left.shape, 5.0)
        census_err = error_rate(
            census_block_match(left, right_warped, 10, window=7), gt
        )
        sad_err = error_rate(block_match(left, right_warped, 10), gt)
        assert census_err < sad_err * 0.5

    def test_cost_volume_shape(self):
        frame = sceneflow_scene(1, size=(48, 80)).render(0)
        cost = hamming_cost_volume(frame.left, frame.right, 8)
        assert cost.shape == (8, 48, 80)

    def test_invalid_max_disp(self):
        with pytest.raises(ValueError):
            hamming_cost_volume(np.zeros((8, 8)), np.zeros((8, 8)), 0)

    def test_scene_accuracy_reasonable(self):
        frame = sceneflow_scene(9, size=(100, 180)).render(0)
        disp = census_block_match(frame.left, frame.right, 48, window=7)
        assert error_rate(disp, frame.disparity) < 30.0


class TestCensusFailsClosed:
    """Census matching refuses input it cannot search (on a 32x48 pair
    a NaN column came back as an all-finite map, ``max_disp=60`` as
    disparities up to 45.5, a 40-pixel right view as a NumPy broadcast
    error and a 0x48 frame as "can't extend empty axis")."""

    @pytest.fixture(scope="class")
    def pair(self):
        return synthetic_pair(d=2, size=(32, 48))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_raises(self, pair, bad):
        left, right = pair
        broken = left.copy()
        broken[:, 7] = bad
        codes = census_transform(right)
        for call in (
            lambda: hamming_cost_volume(broken, right, 8),
            lambda: census_block_match(broken, right, 8),
            lambda: census_block_match(left, broken, 8),
            lambda: census_block_match(broken, None, 8, right_codes=codes),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_mismatched_views_raise(self, pair):
        left, right = pair
        with pytest.raises(ValueError, match="share a shape"):
            census_block_match(left, right[:, :40], 8)

    def test_search_range_past_the_frame_raises(self, pair):
        left, right = pair
        codes = census_transform(right)
        for max_disp in (49, 60):
            with pytest.raises(ValueError, match="max_disp must be <= the frame width"):
                census_block_match(left, right, max_disp)
            with pytest.raises(ValueError, match="max_disp must be <= the frame width"):
                hamming_cost_volume(left, None, max_disp, right_codes=codes)
        disp = census_block_match(left, right, 48)  # [0, 48) is the whole frame
        assert np.isfinite(disp).all() and disp.max() < 48

    @pytest.mark.parametrize("shape", [(0, 48), (32, 0), (0, 0)])
    def test_empty_frame_raises(self, shape):
        empty = np.zeros(shape)
        for call in (
            lambda: census_block_match(empty, empty, 1),
            lambda: hamming_cost_volume(
                empty, None, 1, right_codes=np.zeros(shape, np.uint64)
            ),
        ):
            with pytest.raises(ValueError, match="at least one row and one column"):
                call()
