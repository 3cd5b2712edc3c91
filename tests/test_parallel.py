"""Tiled multi-core kernel execution: seams must be invisible.

The contract of :mod:`repro.parallel` is *bit-identity*: splitting a
frame into halo-padded row bands and stitching the results must
reproduce whole-frame execution exactly — for every matcher, any band
count (including bands far smaller than the search range), odd
heights, both worker pools, and both precisions.  These tests pin
that contract; the speed side lives in ``benchmarks/bench_kernels.py``.
"""

import glob
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import sceneflow_scene
from repro.flow import farneback_flow, flow_iteration, poly_expansion
from repro.parallel import TileExecutor, available_kernels, shm_available, split_rows
from repro.parallel import executor as executor_module
from repro.pipeline import QualityProbe, sceneflow_stream
from repro.stereo import (
    block_match,
    census_block_match,
    guided_block_match,
    sgm,
)

SIZE = (23, 36)  # deliberately odd height
MAX_DISP = 18    # larger than every band height exercised below
RADIUS = 6       # likewise larger than the smallest bands

#: whole-frame reference call per kernel name
_REFERENCE = {
    "bm": lambda f, **kw: block_match(f.left, f.right, MAX_DISP, **kw),
    "census": lambda f, **kw: census_block_match(f.left, f.right, MAX_DISP, **kw),
    "sgm": lambda f, **kw: sgm(f.left, f.right, MAX_DISP, paths=8, **kw),
    "guided": lambda f, **kw: guided_block_match(
        f.left, f.right, f.disparity, radius=RADIUS, **kw
    ),
}


def _tiled(executor, name, f):
    call = {
        "bm": lambda: executor.block_match(f.left, f.right, MAX_DISP),
        "census": lambda: executor.census_block_match(f.left, f.right, MAX_DISP),
        "sgm": lambda: executor.sgm(f.left, f.right, MAX_DISP, paths=8),
        "guided": lambda: executor.guided_block_match(
            f.left, f.right, f.disparity, radius=RADIUS
        ),
    }
    return call[name]()


@pytest.fixture(scope="module")
def frame():
    return sceneflow_scene(11, size=SIZE, max_disp=12).render(0)


@pytest.fixture(scope="module")
def references(frame):
    return {name: _REFERENCE[name](frame) for name in available_kernels()}


class TestSplitRows:
    def test_payloads_tile_exactly(self):
        for height in (1, 2, 7, 23, 100):
            for n in (1, 2, 3, 7, height + 5):
                bands = split_rows(height, n, halo=3)
                assert bands[0].start == 0 and bands[-1].stop == height
                for a, b in zip(bands, bands[1:]):
                    assert a.stop == b.start  # no gap, no overlap
                assert len(bands) == min(n, height)

    def test_heights_balanced(self):
        rows = [b.rows for b in split_rows(23, 5, halo=0)]
        assert sum(rows) == 23
        assert max(rows) - min(rows) <= 1

    def test_halo_clamped_to_image(self):
        bands = split_rows(10, 3, halo=100)
        assert all(b.lo == 0 and b.hi == 10 for b in bands)

    def test_crop_recovers_payload(self):
        for band in split_rows(31, 4, halo=2):
            lo, hi = band.crop
            assert band.lo + lo == band.start
            assert band.lo + hi == band.stop

    @pytest.mark.parametrize(
        "height,n,halo", [(0, 1, 0), (4, 0, 0), (4, 1, -1)]
    )
    def test_validation(self, height, n, halo):
        with pytest.raises(ValueError):
            split_rows(height, n, halo)


class TestExecutorValidation:
    def test_bad_workers(self):
        with pytest.raises(ValueError):
            TileExecutor(workers=0)

    def test_bad_pool(self):
        with pytest.raises(ValueError):
            TileExecutor(pool="greenlet")

    def test_bad_tile_rows(self):
        with pytest.raises(ValueError):
            TileExecutor(tile_rows=0)

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            TileExecutor(precision="float16")

    def test_process_pool_needs_shared_memory(self, monkeypatch):
        # a multi-worker process pool moves every operand through shm;
        # without it construction fails instead of falling back
        monkeypatch.setattr(executor_module, "shm_available", lambda: False)
        with pytest.raises(ValueError, match="shared memory"):
            TileExecutor(workers=2, pool="process")
        assert TileExecutor(workers=2, pool="thread").workers == 2
        assert TileExecutor(workers=1, pool="process").workers == 1

    def test_tile_rows_auto_accepted(self):
        assert TileExecutor(tile_rows="auto").tile_rows == "auto"
        with pytest.raises(ValueError):
            TileExecutor(tile_rows="adaptive")

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            TileExecutor().kernel("orb")

    def test_kernel_accessor_names(self):
        ex = TileExecutor()
        for name in available_kernels():
            assert callable(ex.kernel(name))

    def test_sgm_paths_validated(self, frame):
        with pytest.raises(ValueError):
            TileExecutor().sgm(frame.left, frame.right, 8, paths=3)


class TestSeamEquivalence:
    """Tiled output must be bit-identical to whole-frame output."""

    @pytest.mark.parametrize("name", available_kernels())
    @pytest.mark.parametrize("tile_rows", [1, 4, 7])
    def test_many_small_bands(self, frame, references, name, tile_rows):
        # tile_rows as small as one row: far below MAX_DISP and RADIUS,
        # which must not matter — the search is horizontal, the bands
        # keep full width, and the halo covers the filter window
        with TileExecutor(workers=2, pool="thread", tile_rows=tile_rows) as ex:
            assert np.array_equal(_tiled(ex, name, frame), references[name])

    @pytest.mark.parametrize("name", available_kernels())
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_band_per_worker(self, frame, references, name, workers):
        with TileExecutor(workers=workers, pool="thread") as ex:
            assert np.array_equal(_tiled(ex, name, frame), references[name])

    @pytest.mark.parametrize("name", available_kernels())
    def test_single_worker_is_whole_frame(self, frame, references, name):
        assert np.array_equal(
            _tiled(TileExecutor(), name, frame), references[name]
        )

    def test_process_pool_identical(self, frame, references):
        with TileExecutor(workers=2, pool="process") as ex:
            for name in ("bm", "sgm"):
                assert np.array_equal(_tiled(ex, name, frame), references[name])

    @pytest.mark.parametrize("name", available_kernels())
    def test_float32_tiling_identical(self, frame, name):
        want = _REFERENCE[name](frame, precision="float32")
        with TileExecutor(
            workers=2, pool="thread", tile_rows=5, precision="float32"
        ) as ex:
            assert np.array_equal(_tiled(ex, name, frame), want)

    def test_single_row_image(self):
        rng = np.random.default_rng(0)
        left, right = rng.normal(size=(2, 1, 30))
        with TileExecutor(workers=3, pool="thread") as ex:
            assert np.array_equal(
                ex.block_match(left, right, 8),
                block_match(left, right, 8),
            )


class _StubPool:
    """Records the peak number of in-flight (submitted, unconsumed)
    futures; results resolve synchronously."""

    def __init__(self):
        self.pending = 0
        self.peak = 0
        self.submitted = 0

    def submit(self, fn, *args):
        self.pending += 1
        self.submitted += 1
        self.peak = max(self.peak, self.pending)
        pool = self

        class _Future:
            def result(_self):
                pool.pending -= 1
                return fn(*args)

        return _Future()

    def shutdown(self):
        pass


class TestBoundedSubmission:
    """Regression: `_iter_map` must not submit every job eagerly.

    Eager submission once held all 8 SGM cost-volume copies in flight
    at once; the fix bounds in-flight submissions to the worker
    count."""

    def test_peak_in_flight_is_worker_count(self):
        ex = TileExecutor(workers=3, pool="thread")
        stub = _StubPool()
        ex._pool = stub
        jobs = [(i,) for i in range(11)]
        assert list(ex._iter_map(lambda i: i * 2, jobs)) == [2 * i for i in range(11)]
        assert stub.submitted == 11
        assert stub.peak == 3  # never more than `workers` in flight

    def test_single_job_runs_inline(self):
        ex = TileExecutor(workers=3, pool="thread")
        stub = _StubPool()
        ex._pool = stub
        assert list(ex._iter_map(lambda i: i + 1, [(41,)])) == [42]
        assert stub.submitted == 0  # one job never touches the pool

    def test_results_stay_in_job_order(self):
        ex = TileExecutor(workers=2, pool="thread")
        ex._pool = _StubPool()
        jobs = [(i,) for i in range(7)]
        assert list(ex._iter_map(lambda i: i, jobs)) == list(range(7))


@pytest.mark.skipif(not shm_available(), reason="no POSIX shared memory")
class TestSharedMemoryTransport:
    """A multi-worker process pool moves every operand through shared
    memory, and that must be invisible: bit-identical results for
    every kernel, band count and precision, and no leaked segments."""

    def _segments(self):
        shm_dir = Path("/dev/shm")
        if not shm_dir.exists():  # non-Linux: can't audit by name
            return None
        return set(glob.glob("/dev/shm/asv_*"))

    @pytest.mark.parametrize("name", available_kernels())
    @pytest.mark.parametrize("tile_rows", [3, 7, None])
    def test_seams_identical(self, frame, references, name, tile_rows):
        with TileExecutor(workers=2, pool="process", tile_rows=tile_rows) as ex:
            assert np.array_equal(_tiled(ex, name, frame), references[name])

    @pytest.mark.parametrize("name", available_kernels())
    def test_float32_identical(self, frame, name):
        want = _REFERENCE[name](frame, precision="float32")
        with TileExecutor(
            workers=2, pool="process", tile_rows=5, precision="float32"
        ) as ex:
            assert np.array_equal(_tiled(ex, name, frame), want)

    def test_no_leaked_segments(self, frame):
        before = self._segments()
        with TileExecutor(workers=2, pool="process") as ex:
            for name in available_kernels():
                _tiled(ex, name, frame)
        after = self._segments()
        if before is not None:
            assert after <= before, f"leaked shm segments: {after - before}"

    def test_dead_worker_leaves_executor_usable(self, frame, references, monkeypatch):
        parent = os.getpid()

        def die_in_worker(img, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return np.array(img, dtype=np.float64)

        # forked workers inherit the patched registry; jobs name the kernel
        monkeypatch.setitem(executor_module._BAND_KERNELS, "die", die_in_worker)
        before = self._segments()
        with TileExecutor(workers=2, pool="process", tile_rows=None) as ex:
            with pytest.raises(BrokenProcessPool):
                ex._tiled("die", (frame.left,), {}, halo=0)
            assert ex._pool is None  # the broken pool was dropped
            assert np.array_equal(
                ex.block_match(frame.left, frame.right, MAX_DISP), references["bm"]
            )
        after = self._segments()
        if before is not None:
            assert after <= before, f"leaked shm segments: {after - before}"


class TestQualityProbeWorkers:
    def test_probe_scores_identical_across_workers(self):
        stream = lambda: sceneflow_stream(
            seed=3, size=(32, 48), n_frames=4, max_disp=16, pw=2
        )
        serial = QualityProbe(matcher="bm", max_disp=16).score_plan(stream())
        tiled = QualityProbe(
            matcher="bm", max_disp=16, workers=2, pool="thread"
        ).score_plan(stream())
        assert serial.frames == tiled.frames  # bit-identical scores

    def test_probe_float32_runs(self):
        q = QualityProbe(
            matcher="census", max_disp=16, precision="float32"
        ).score_plan(
            sceneflow_stream(seed=5, size=(32, 48), n_frames=2, max_disp=16)
        )
        assert np.isfinite(q.epe_px)

    def test_probe_repr_reports_workers(self):
        assert "workers=3" in repr(
            QualityProbe(matcher="bm", workers=3, pool="thread")
        )

    def test_probe_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            QualityProbe(matcher="bm", precision="bf16")

    def test_probe_context_manager_closes_executor(self):
        with QualityProbe(matcher="bm", workers=2, pool="thread") as probe:
            probe.score_plan(sceneflow_stream(
                seed=1, size=(32, 48), n_frames=2, max_disp=16))
            assert probe.executor._pool is not None
        assert probe.executor._pool is None
        probe.close()  # idempotent


class TestFlowSeamEquivalence:
    """The tiled non-key flow kernels: every banding, pool and
    precision must be bit-identical to the single-core functions."""

    @pytest.fixture(scope="class")
    def frames(self):
        scene = sceneflow_scene(31, size=(63, 82), max_disp=12, max_speed=2.0)
        return scene.render(0), scene.render(1)

    @pytest.fixture(scope="class")
    def flow_reference(self, frames):
        f0, f1 = frames
        return farneback_flow(f0.left, f1.left, levels=3, iterations=2,
                              window_sigma=2.5)

    @pytest.mark.parametrize("tile_rows", [1, 4, 7])
    def test_poly_expansion_many_small_bands(self, frames, tile_rows):
        img = np.asarray(frames[0].left, dtype=np.float64)
        A_ref, b_ref = poly_expansion(img)
        with TileExecutor(workers=3, pool="thread", tile_rows=tile_rows) as ex:
            A, b = ex.poly_expansion(img)
        assert np.array_equal(A, A_ref)
        assert np.array_equal(b, b_ref)

    @pytest.mark.parametrize("tile_rows", [1, 5, 9])
    def test_flow_iteration_bands(self, frames, tile_rows):
        f0, f1 = frames
        A1, b1 = poly_expansion(np.asarray(f0.left, dtype=np.float64))
        A2, b2 = poly_expansion(np.asarray(f1.left, dtype=np.float64))
        flow = np.zeros(A1.shape[:2] + (2,))
        ref = flow_iteration(A1, b1, A2, b2, flow, window_sigma=2.5)
        with TileExecutor(workers=3, pool="thread", tile_rows=tile_rows) as ex:
            got = ex.flow_iteration(A1, b1, A2, b2, flow, window_sigma=2.5)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_farneback_flow_thread_pool(self, frames, flow_reference, workers):
        f0, f1 = frames
        with TileExecutor(workers=workers, pool="thread", tile_rows=6) as ex:
            got = ex.farneback_flow(f0.left, f1.left, levels=3, iterations=2,
                                    window_sigma=2.5)
        assert np.array_equal(got, flow_reference)

    @pytest.mark.skipif(not shm_available(), reason="no POSIX shared memory")
    def test_farneback_flow_process_pool(self, frames, flow_reference):
        f0, f1 = frames
        with TileExecutor(workers=2, pool="process", tile_rows=7) as ex:
            got = ex.farneback_flow(f0.left, f1.left, levels=3, iterations=2,
                                    window_sigma=2.5)
        assert np.array_equal(got, flow_reference)

    def test_float32_tiling_identical(self, frames):
        f0, f1 = frames
        ref = farneback_flow(f0.left, f1.left, levels=2, iterations=2,
                             precision="float32")
        with TileExecutor(workers=3, pool="thread", tile_rows=5,
                          precision="float32") as ex:
            got = ex.farneback_flow(f0.left, f1.left, levels=2, iterations=2)
        assert got.dtype == np.float32
        assert np.array_equal(got, ref)

    def test_expansion_object_interchangeable(self, frames):
        """Executor-built expansions are bit-identical to single-core
        ones, so the ISM cache can mix the two freely."""
        from repro.flow import expand_frame, flow_from_expansions

        f0, f1 = frames
        with TileExecutor(workers=2, pool="thread", tile_rows=6) as ex:
            tiled_exp = ex.expand_frame(f0.left, levels=2)
        plain_exp = expand_frame(f0.left, levels=2)
        assert tiled_exp.shapes == plain_exp.shapes
        for (At, bt), (Ap, bp) in zip(tiled_exp.coeffs, plain_exp.coeffs):
            assert np.array_equal(At, Ap)
            assert np.array_equal(bt, bp)
        other = expand_frame(f1.left, levels=2)
        assert np.array_equal(
            flow_from_expansions(tiled_exp, other),
            flow_from_expansions(plain_exp, other),
        )

    def test_ism_with_executor_flow_bitwise(self, frames):
        """An ISM whose flow= is a multi-worker executor serves the
        same disparities as the plain single-core ISM."""
        from repro.core import ISM, ISMConfig

        video = sceneflow_scene(
            32, size=(63, 82), max_disp=12, max_speed=2.0
        ).sequence(3)
        config = ISMConfig(propagation_window=4)
        plain = ISM(dnn=lambda f: f.disparity, config=config).run_sequence(video)
        with TileExecutor(workers=2, pool="thread", tile_rows=8) as ex:
            tiled = ISM(
                dnn=lambda f: f.disparity, config=config,
                refiner=ex.guided_block_match, flow=ex,
            ).run_sequence(video)
        for a, b in zip(plain.disparities, tiled.disparities):
            assert np.array_equal(a, b)
