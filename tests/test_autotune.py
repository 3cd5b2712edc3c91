"""DSE autotuner: a deterministic model, pinned picks, a live default.

The autotuner's contract has three parts: the analytical latency model
behaves (positive, burst-amortised bandwidth, sane scaling), the
search is **deterministic** (same inputs, same pick — every band
height ``tile_rows="auto"`` resolves to is pinned below), and
``TileExecutor(tile_rows="auto")`` actually consumes it.
"""

import pytest

from repro.parallel import TileExecutor, autotune
from repro.parallel.autotune import (
    DEFAULT_MODEL,
    SIZES,
    WORKER_GRID,
    LatencyModel,
    predict_latency,
    search_config,
    tuned_tile_rows,
)

KERNELS = ("bm", "census", "farneback", "guided", "sgm")

#: every grid pick, as the table the model once shipped recorded it:
#: kernel -> size -> ``tile_rows`` at each worker count of WORKER_GRID
PINNED_GRID_PICKS = {
    "bm": {
        (96, 160): (96, 48, 24, 16, 16),
        (270, 480): (256, 48, 24, 48, 24),
        (540, 960): (256, 96, 48, 24, 48),
        (1080, 1920): (256, 192, 96, 48, 24),
    },
    "census": {
        (96, 160): (96, 48, 48, 32, 32),
        (270, 480): (256, 48, 96, 48, 48),
        (540, 960): (256, 96, 48, 96, 48),
        (1080, 1920): (256, 192, 96, 48, 96),
    },
    "farneback": {
        (96, 160): (96, 48, 24, 24, 16),
        (270, 480): (256, 192, 96, 48, 24),
        (540, 960): (256, 96, 48, 96, 48),
        (1080, 1920): (256, 192, 96, 48, 96),
    },
    "guided": {
        (96, 160): (96, 48, 48, 32, 32),
        (270, 480): (256, 48, 96, 48, 48),
        (540, 960): (256, 96, 48, 96, 96),
        (1080, 1920): (256, 192, 96, 48, 96),
    },
    "sgm": {
        (96, 160): (96, 48, 24, 24, 16),
        (270, 480): (256, 48, 24, 48, 48),
        (540, 960): (256, 96, 48, 24, 24),
        (1080, 1920): (256, 192, 96, 48, 48),
    },
}

#: off-grid lookups: (size, workers) -> ``tile_rows`` per kernel of
#: KERNELS.  The first three are the frames the e2e ``ism-tiled``
#: workload bands at 2 workers, 280x470 is the docs' example, 360x720
#: and 720x1440 sit at exact log-area ties between two grid sizes, and
#: 3 and 12 workers tie between two grid worker counts.
PINNED_OFF_GRID_PICKS = {
    ((135, 240), 2): (48, 48, 48, 48, 48),
    ((68, 120), 2): (48, 48, 48, 48, 48),
    ((34, 60), 2): (48, 48, 48, 48, 48),
    ((280, 470), 4): (24, 96, 96, 96, 24),
    ((360, 720), 2): (48, 48, 192, 48, 48),
    ((720, 1440), 2): (192, 192, 192, 192, 192),
    ((270, 480), 3): (48, 48, 192, 48, 48),
    ((270, 480), 12): (48, 48, 48, 48, 48),
}


class TestLatencyModel:
    def test_effective_bandwidth_below_raw(self):
        eff = DEFAULT_MODEL.effective_bandwidth(20.0, 1 << 20)
        assert 0 < eff < 20.0e9

    def test_effective_bandwidth_grows_with_burst(self):
        small = DEFAULT_MODEL.effective_bandwidth(20.0, 1 << 12)
        large = DEFAULT_MODEL.effective_bandwidth(20.0, 1 << 26)
        assert small < large

    def test_transfer_seconds_zero_for_empty(self):
        assert DEFAULT_MODEL.transfer_seconds(20.0, 0) == 0.0

    @pytest.mark.parametrize(
        "kernel", ["bm", "census", "farneback", "guided", "sgm"]
    )
    def test_predictions_positive(self, kernel):
        for workers in (1, 2, 8):
            assert predict_latency(kernel, (270, 480), 32, workers) > 0

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            predict_latency("orb", (270, 480), 32, 2)

    def test_parallel_beats_serial_on_big_frames(self):
        """On a large frame the model must reward real parallelism —
        otherwise the whole search would degenerate to workers=1."""
        serial = predict_latency("sgm", (540, 960), 64, 1)
        parallel = predict_latency("sgm", (540, 960), 64, 8)
        assert parallel < serial

    def test_tiny_bands_pay_dispatch(self):
        """One-row bands on a big frame pay per-job dispatch overhead;
        the model must see that or it would always pick tile_rows=1."""
        tiny = predict_latency("bm", (540, 960), 1, 4)
        sane = predict_latency("bm", (540, 960), 32, 4)
        assert sane < tiny


class TestSearchDeterminism:
    def test_same_inputs_same_config(self):
        a = search_config("sgm", (270, 480), workers=4)
        b = search_config("sgm", (270, 480), workers=4)
        assert a == b

    def test_workers_pinned(self):
        cfg = search_config("bm", (270, 480), workers=2)
        assert cfg.workers == 2

    def test_custom_model_changes_table(self):
        """The table of picks is a function of the model, not a constant."""
        slow_dispatch = LatencyModel(dispatch_us=50000.0)

        def picks(model):
            return [
                search_config(kernel, (270, 480), workers, model).tile_rows
                for kernel in KERNELS
                for workers in WORKER_GRID
            ]

        assert picks(slow_dispatch) != picks(DEFAULT_MODEL)


class TestPinnedPicks:
    def test_grid_picks_unchanged(self):
        assert set(PINNED_GRID_PICKS) == set(KERNELS)  # all 100 points
        for kernel, per_size in PINNED_GRID_PICKS.items():
            assert tuple(per_size) == SIZES
            for size, rows in per_size.items():
                got = tuple(tuned_tile_rows(kernel, size, w) for w in WORKER_GRID)
                assert got == rows, (kernel, size)

    def test_off_grid_picks_unchanged(self):
        for (size, workers), rows in PINNED_OFF_GRID_PICKS.items():
            got = tuple(tuned_tile_rows(k, size, workers) for k in KERNELS)
            assert got == rows, (size, workers)

    def test_each_grid_point_searched_once(self, monkeypatch):
        calls = []
        real = autotune.search_config
        monkeypatch.setattr(
            autotune, "search_config", lambda *a: calls.append(a) or real(*a)
        )
        autotune._grid_pick.cache_clear()
        try:
            for size in ((270, 480), (280, 470), (260, 490)):
                tuned_tile_rows("bm", size, 4)
            assert calls == [("bm", (270, 480), 4)]
        finally:
            autotune._grid_pick.cache_clear()


class TestTunedLookup:
    def test_exact_size_hit(self):
        rows = tuned_tile_rows("sgm", (270, 480), 4)
        assert isinstance(rows, int) and rows >= 1

    def test_off_grid_size_snaps_to_nearest(self):
        near = tuned_tile_rows("bm", (280, 470), 4)
        assert near == tuned_tile_rows("bm", (270, 480), 4)

    def test_off_grid_workers_snap(self):
        assert tuned_tile_rows("bm", (270, 480), 3) in {
            tuned_tile_rows("bm", (270, 480), 2),
            tuned_tile_rows("bm", (270, 480), 4),
        }

    def test_unknown_kernel_returns_none(self):
        assert tuned_tile_rows("orb", (270, 480), 4) is None


class TestExecutorAutoDefault:
    def test_auto_is_the_default(self):
        assert TileExecutor().tile_rows == "auto"

    def test_single_worker_resolves_to_one_band(self):
        ex = TileExecutor(workers=1)
        assert ex._n_bands(270, "sad_cost", (270, 480)) == 1

    def test_multi_worker_consults_table(self):
        ex = TileExecutor(workers=4)
        tuned = tuned_tile_rows("sgm", (270, 480), 4)
        rows = min(tuned, -(-270 // 4))  # clamped: never fewer bands than workers
        assert ex._n_bands(270, "sad_cost", (270, 480)) == -(-270 // rows)

    def test_small_frame_still_feeds_every_worker(self):
        """Snapping a tiny frame to a big table entry must not collapse
        the banding below one band per worker."""
        ex = TileExecutor(workers=2)
        assert ex._n_bands(32, "bm", (32, 48)) >= 2
