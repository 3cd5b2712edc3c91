"""Tiled multi-core kernel execution: seams must be invisible.

The contract of :mod:`repro.parallel` is *bit-identity*: splitting a
frame into one halo-padded row band per worker and stitching the
results must reproduce whole-frame execution exactly — for every
matcher, any worker count (including enough workers for bands far
smaller than the search range), odd heights, both worker pools, and
both precisions.  These tests pin that contract; the speed side lives
in ``benchmarks/bench_kernels.py``.
"""

import glob
import os
import subprocess
import sys
import threading
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.core import ISM, ISMConfig
from repro.core.correspondence import ExpansionCache, propagate_correspondences
from repro.datasets import sceneflow_scene
from repro.flow import (
    FrameExpansion,
    expand_frame,
    flow_from_expansions,
    flow_iteration,
    poly_expansion,
)
from repro.flow import farneback as farneback_module
from repro.parallel import TileExecutor, available_kernels, shm_available, split_rows
from repro.parallel import executor as executor_module
from repro.pipeline import QualityProbe, kitti_stream, sceneflow_stream
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


#: pools a multi-worker executor can run on here
_POOL_PARAMS = [
    "thread",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(not shm_available(), reason="no POSIX shared memory"),
    ),
]


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
        # only an integer >= 1: no silent truncation of 2.5, no bool
        # standing in for 1, and a ValueError rather than a TypeError;
        # QualityProbe(workers=) inherits the check
        for make in (TileExecutor, QualityProbe):
            for bad in (0, 2.5, True, "2"):
                with pytest.raises(ValueError, match="workers must be an integer"):
                    make(workers=bad)

    def test_bad_pool(self):
        with pytest.raises(ValueError):
            TileExecutor(pool="greenlet")

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

    @pytest.mark.parametrize("block_size", [4, 6, 8])
    @pytest.mark.parametrize("pool", _POOL_PARAMS)
    def test_even_block_size_rejected(self, frame, pool, block_size):
        # an even block has no centre row, so `block_size // 2` would
        # be no exact halo; every matcher refuses it up front, on every pool
        with TileExecutor(workers=2, pool=pool) as ex:
            for call in (
                lambda: ex.block_match(frame.left, frame.right, 8, block_size),
                lambda: ex.guided_block_match(
                    frame.left, frame.right, frame.disparity, block_size=block_size
                ),
                lambda: ex.sgm(frame.left, frame.right, 8, block_size),
            ):
                with pytest.raises(ValueError, match="block_size must be odd"):
                    call()
            assert ex._pool is None  # refused before any pool or shm work

    @pytest.mark.parametrize("pool", _POOL_PARAMS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sgm_bad_penalty_or_pixel_rejected(self, frame, pool, workers):
        # a negative or NaN penalty breaks the zero-padded restarts, and
        # a NaN pixel used to come back as an all-finite map; both raise
        # before any pool or shm work, inline and on every pool
        broken = frame.left.copy()
        broken[:, 7] = np.nan
        with TileExecutor(workers=workers, pool=pool) as ex:
            for call, match in (
                (lambda: ex.sgm(frame.left, frame.right, 8, p1=-0.1), "p1 and p2"),
                (lambda: ex.sgm(frame.left, frame.right, 8, p2=np.nan), "p1 and p2"),
                (lambda: ex.sgm(broken, frame.right, 8), "finite"),
                (lambda: ex.sgm(frame.left, broken, 8), "finite"),
            ):
                with pytest.raises(ValueError, match=match):
                    call()
            assert ex._pool is None


def test_kernels_do_not_import_the_executor():
    """The stereo and flow kernels sit below `repro.parallel`: importing
    them loads no executor module, so no import cycle can return."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys, repro.stereo, repro.flow; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.parallel')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestBandingRule:
    """One band per worker is the executor's only banding rule."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_call_cuts_one_band_per_worker(self, monkeypatch, workers):
        asked = []

        def recording_split_rows(height, n_bands, halo):
            asked.append(n_bands)
            return split_rows(height, n_bands, halo)

        monkeypatch.setattr(executor_module, "split_rows", recording_split_rows)
        f0 = sceneflow_scene(7, size=(135, 48), max_disp=8).render(0)
        with TileExecutor(workers=workers, pool="thread") as ex:
            ex.block_match(f0.left, f0.right, 8)
            ex.census_block_match(f0.left, f0.right, 8)
            ex.guided_block_match(f0.left, f0.right, f0.disparity)
            ex.sgm(f0.left, f0.right, 8)
            if workers == 1:
                assert ex._pool is None  # inline: no pool was ever built
        assert asked == [workers] * 4


class TestSeamEquivalence:
    """Tiled output must be bit-identical to whole-frame output."""

    @pytest.mark.parametrize("name", available_kernels())
    @pytest.mark.parametrize("workers", [2, 3, 4, 5, 6, 23])
    def test_band_per_worker(self, frame, references, name, workers):
        # 23 workers cut one-row bands: far below MAX_DISP and RADIUS,
        # which must not matter — the search is horizontal, the bands
        # keep full width, and the halo covers the filter window
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
        with TileExecutor(workers=5, pool="thread", precision="float32") as ex:
            assert np.array_equal(_tiled(ex, name, frame), want)

    def test_every_band_kernel_is_seam_checked(self, frame, references, monkeypatch):
        # closes the seam suite over the band-kernel registry: a kernel
        # registered without a whole-frame comparison here fails the
        # last assert.  Both worker counts are needed: "census" is
        # reached only inline, "census_coded" only banded
        seen = set()
        for name, kernel in list(executor_module._BAND_KERNELS.items()):
            def record(*args, _name=name, _kernel=kernel, **kwargs):
                seen.add(_name)
                return _kernel(*args, **kwargs)

            monkeypatch.setitem(executor_module._BAND_KERNELS, name, record)
        for workers in (6, 1):
            with TileExecutor(workers=workers, pool="thread") as ex:
                for name in available_kernels():
                    assert np.array_equal(_tiled(ex, name, frame), references[name])
        assert seen == set(executor_module._BAND_KERNELS)

    def test_single_row_image(self):
        rng = np.random.default_rng(0)
        left, right = rng.normal(size=(2, 1, 30))
        with TileExecutor(workers=3, pool="thread") as ex:
            assert np.array_equal(
                ex.block_match(left, right, 8),
                block_match(left, right, 8),
            )


class TestSGMAggregationPaths:
    """Every worker count bands the cost volume and aggregates it with
    the fused ``aggregate_volume``; each configuration equals serial
    ``sgm`` byte for byte on a street scene, in both precisions."""

    @pytest.fixture(scope="class")
    def street(self):
        return next(
            kitti_stream(seed=3, size=(48, 160), n_frames=1, max_disp=24).frames()
        )

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("paths", [2, 4, 8])
    def test_every_executor_path_matches_sgm(self, street, precision, paths):
        want = sgm(street.left, street.right, 24, paths=paths, precision=precision)
        configs = [(1, "thread"), (2, "thread")]
        if shm_available():
            configs.append((2, "process"))
        for workers, pool in configs:
            with TileExecutor(workers=workers, pool=pool, precision=precision) as ex:
                got = ex.sgm(street.left, street.right, 24, paths=paths)
            assert got.tobytes() == want.tobytes(), (workers, pool)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_worker_count_runs_the_fused_kernel(
        self, frame, references, monkeypatch, workers
    ):
        # looked up on the executor module, so a tracer can wrap it
        calls = []
        fused = executor_module.aggregate_volume
        monkeypatch.setattr(
            executor_module, "aggregate_volume",
            lambda *a, **kw: calls.append("fused") or fused(*a, **kw),
        )
        monkeypatch.setattr(
            executor_module, "aggregate_path",
            lambda *a, **kw: pytest.fail("sgm aggregated direction by direction"),
        )
        with TileExecutor(workers=workers, pool="thread") as ex:
            got = ex.sgm(frame.left, frame.right, MAX_DISP, paths=8)
        assert calls == ["fused"]
        assert np.array_equal(got, references["sgm"])


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
    @pytest.mark.parametrize("workers", [8, 4, 2])
    def test_seams_identical(self, frame, references, name, workers):
        with TileExecutor(workers=workers, pool="process") as ex:
            assert np.array_equal(_tiled(ex, name, frame), references[name])

    @pytest.mark.parametrize("name", available_kernels())
    def test_float32_identical(self, frame, name):
        want = _REFERENCE[name](frame, precision="float32")
        with TileExecutor(workers=5, pool="process", precision="float32") as ex:
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
        with TileExecutor(workers=2, pool="process") as ex:
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


def _same_bytes(got, want) -> bool:
    """Whether two flow results hold the same arrays, dtype and bytes."""
    def arrays(value):
        if isinstance(value, FrameExpansion):
            return [a for pair in value.coeffs for a in pair]
        return list(value) if isinstance(value, tuple) else [value]

    return all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(arrays(got), arrays(want), strict=True)
    )


class TestFlowSeamEquivalence:
    """The executor's flow methods are whole-frame calls into
    :mod:`repro.flow.farneback` at the executor's precision: no bands,
    no pool, and the same bytes as the plain kernels."""

    @pytest.fixture(scope="class")
    def frames(self):
        scene = sceneflow_scene(31, size=(63, 82), max_disp=12, max_speed=2.0)
        return scene.render(0), scene.render(1)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("pool", _POOL_PARAMS)
    def test_flow_methods_are_whole_frame(self, frames, monkeypatch, pool, workers):
        def no_bands(*args):
            raise AssertionError("a flow method cut row bands")

        monkeypatch.setattr(executor_module, "split_rows", no_bands)
        f0, f1 = (np.asarray(f.left, dtype=np.float64) for f in frames)
        for precision in ("float64", "float32"):
            exp0 = expand_frame(f0, levels=2, precision=precision)
            exp1 = expand_frame(f1, levels=2, precision=precision)
            (A1, b1), (A2, b2) = exp0.coeffs[0], exp1.coeffs[0]
            flow = np.full(A1.shape[:2] + (2,), 0.75, A1.dtype)  # warp off-grid
            want = {
                "poly_expansion": poly_expansion(f0, precision=precision),
                "expand_frame": exp0,
                "flow_iteration": flow_iteration(A1, b1, A2, b2, flow, 2.5),
                "flow_from_expansions": flow_from_expansions(exp0, exp1, 2, 2.5),
            }
            # precision=None throughout: the executor's own precision
            with TileExecutor(workers=workers, pool=pool, precision=precision) as ex:
                got = {
                    "poly_expansion": ex.poly_expansion(f0),
                    "expand_frame": ex.expand_frame(f0, levels=2),
                    "flow_iteration": ex.flow_iteration(A1, b1, A2, b2, flow, 2.5),
                    "flow_from_expansions": ex.flow_from_expansions(exp0, exp1, 2, 2.5),
                }
                assert ex._pool is None  # nothing was fanned out
            assert got["expand_frame"].precision == precision
            for name in want:
                assert _same_bytes(got[name], want[name]), (name, precision)

    def test_expansion_object_interchangeable(self, frames):
        """Executor-built expansions are bit-identical to single-core
        ones, so the ISM cache can mix the two freely."""
        f0, f1 = frames
        with TileExecutor(workers=11, pool="thread") as ex:
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
        video = sceneflow_scene(
            32, size=(63, 82), max_disp=12, max_speed=2.0
        ).sequence(3)
        config = ISMConfig(propagation_window=4)
        plain = ISM(dnn=lambda f: f.disparity, config=config).run_sequence(video)
        with TileExecutor(workers=8, pool="thread") as ex:
            tiled = ISM(
                dnn=lambda f: f.disparity, config=config,
                refiner=ex.guided_block_match, flow=ex,
            ).run_sequence(video)
        for a, b in zip(plain.disparities, tiled.disparities):
            assert np.array_equal(a, b)


class TestStreamSplitFlow:
    """At ``workers > 1`` the ISM splits flow by stream: the right
    stream runs on a per-call helper thread, the left on the caller's,
    each through the plain :mod:`repro.flow.farneback` kernels."""

    @pytest.fixture(scope="class")
    def scene(self):
        return sceneflow_scene(33, size=(63, 82), max_disp=12, max_speed=2.0)

    def _propagate(self, scene, flow, cache=None):
        prev, cur = scene.render(0), scene.render(1)
        return propagate_correspondences(
            prev, cur, prev.disparity, cache=cache, flow=flow
        )

    @pytest.fixture
    def flow_calls(self, monkeypatch):
        """``(thread id, exp1, step)`` of every ``flow_from_expansions``
        call, whoever makes it."""
        calls = []
        original = farneback_module.flow_from_expansions

        def recording(exp0, exp1, *args, **kwargs):
            calls.append((threading.get_ident(), exp1, kwargs.get("step")))
            return original(exp0, exp1, *args, **kwargs)

        monkeypatch.setattr(farneback_module, "flow_from_expansions", recording)
        return calls

    @pytest.mark.parametrize("pool", _POOL_PARAMS)
    def test_streams_run_on_two_threads(self, scene, flow_calls, pool):
        cache = ExpansionCache()
        with TileExecutor(workers=2, pool=pool) as ex:
            self._propagate(scene, ex, cache)
        by_stream = {id(exp1): (ident, step) for ident, exp1, step in flow_calls}
        assert len(flow_calls) == 2
        left_ident, left_step = by_stream[id(cache.left)]
        right_ident, right_step = by_stream[id(cache.right)]
        assert left_ident == threading.get_ident()
        assert right_ident != left_ident
        # whole-frame plain kernels, not the executor's banded ones
        assert left_step is None and right_step is None

    def test_single_worker_flow_stays_on_the_executor(self, scene, flow_calls):
        with TileExecutor(workers=1) as ex:
            self._propagate(scene, ex)
        assert len(flow_calls) == 2
        for ident, _exp1, step in flow_calls:
            assert ident == threading.get_ident()
            assert step.__func__ is TileExecutor.flow_iteration
            assert step.__self__ is ex

    @pytest.mark.parametrize("pool", _POOL_PARAMS)
    def test_ism_bitwise_without_hangs(self, scene, pool):
        video = scene.sequence(6)
        config = ISMConfig(propagation_window=4)
        plain = ISM(dnn=lambda f: f.disparity, config=config).run_sequence(video)
        results = []
        ex = TileExecutor(workers=2, pool=pool)
        # start the pool on this thread, so no fork happens while the
        # watched thread is alive
        ex.block_match(video[0].left, video[0].right, 12)
        ism = ISM(
            dnn=lambda f: f.disparity, config=config,
            refiner=ex.guided_block_match, flow=ex,
        )
        worker = threading.Thread(
            target=lambda: results.append(ism.run_sequence(video)),
            daemon=True,
        )
        # switch threads often, so the two streams' cache writes
        # interleave as finely as the interpreter allows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive(), "the two-stream ISM deadlocked"
        ex.close()  # only now: closing a deadlocked pool would hang
        assert len(results) == 1
        assert results[0].key_frames == plain.key_frames
        for a, b in zip(plain.disparities, results[0].disparities, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_failing_stream_propagates_and_joins(self, scene, monkeypatch, side):
        class StreamFailure(RuntimeError):
            pass

        failing = getattr(scene.render(1), side)
        original = farneback_module.expand_frame

        def expand(frame, *args, **kwargs):
            if np.array_equal(frame, failing):
                raise StreamFailure(side)
            return original(frame, *args, **kwargs)

        monkeypatch.setattr(farneback_module, "expand_frame", expand)
        before = threading.active_count()
        with TileExecutor(workers=2, pool="thread") as ex:
            with pytest.raises(StreamFailure, match=side):
                self._propagate(scene, ex)
            assert threading.active_count() == before
