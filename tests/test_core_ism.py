"""End-to-end tests of the ISM algorithm and key-frame policies."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import (
    ISM,
    ISMConfig,
    MotionAdaptivePolicy,
    StaticKeyFramePolicy,
    compose_flows,
    nonkey_frame_ops,
    propagate_correspondences,
    reconstruct_correspondences,
    refine_correspondences,
)
from repro.datasets import sceneflow_scene
from repro.flow import bilinear_sample
from repro.models.proxy import StereoDNNProxy
from repro.parallel import TileExecutor, shm_available
from repro.pipeline import kitti_stream, sceneflow_stream
from repro.stereo import error_rate


@pytest.fixture(scope="module")
def video():
    return sceneflow_scene(21, size=(160, 280), max_disp=40, max_speed=2.0).sequence(4)


class TestKeyFramePolicies:
    def test_static_pw2(self):
        policy = StaticKeyFramePolicy(2)
        assert [policy.is_key(i) for i in range(5)] == [
            True, False, True, False, True,
        ]

    def test_static_pw1_always_key(self):
        policy = StaticKeyFramePolicy(1)
        assert all(policy.is_key(i) for i in range(4))

    def test_static_invalid(self):
        with pytest.raises(ValueError):
            StaticKeyFramePolicy(0)

    def test_adaptive_rekeys_on_motion(self):
        policy = MotionAdaptivePolicy(max_window=10, motion_threshold=2.0)
        assert policy.is_key(0)
        calm = {"last_flow": np.zeros((4, 4, 2))}
        assert not policy.is_key(1, calm)
        fast = {"last_flow": np.full((4, 4, 2), 5.0)}
        assert policy.is_key(2, fast)

    def test_adaptive_max_window(self):
        policy = MotionAdaptivePolicy(max_window=2)
        calm = {"last_flow": np.zeros((4, 4, 2))}
        keys = [policy.is_key(i, calm) for i in range(6)]
        assert keys[0] and sum(keys) >= 3  # at least every other frame


class TestCorrespondenceSteps:
    def test_reconstruct_matches_eq2(self):
        disp = np.array([[1.0, 2.0], [0.5, 3.0]])
        left, right = reconstruct_correspondences(disp)
        assert np.allclose(right[..., 1] - left[..., 1], disp)
        assert np.allclose(right[..., 0], left[..., 0])  # y_r = y_l

    def test_propagate_zero_motion_preserves(self, video):
        frame = video[0]
        disp, known, flow = propagate_correspondences(frame, frame, frame.disparity)
        assert np.abs(flow).mean() < 0.2
        assert error_rate(disp, frame.disparity) < 5.0

    def test_propagate_tracks_motion(self, video):
        f0, f1 = video[0], video[1]
        disp, _, _ = propagate_correspondences(f0, f1, f0.disparity)
        # propagated estimate must be much closer to the new ground
        # truth than just reusing the old disparity naively... at least
        # it must be a usable initialisation
        assert error_rate(disp, f1.disparity) < 15.0

    def test_refine_improves_initialisation(self, video):
        f1 = video[1]
        rng = np.random.default_rng(0)
        rough = f1.disparity + rng.normal(0, 1.0, f1.shape)
        refined = refine_correspondences(f1, rough)
        assert error_rate(refined, f1.disparity) <= error_rate(
            rough, f1.disparity
        ) + 2.0


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_compose_flows_equals_two_bilinear_samples(self, dtype):
        # the one-pass gather against the per-component formula it
        # replaced: float64 arithmetic, cast into the flow's dtype
        rng = np.random.default_rng(21)
        h, w = 37, 50
        first = rng.normal(scale=3.0, size=(h, w, 2)).astype(dtype)  # clamps too
        then = rng.normal(scale=2.0, size=(h, w, 2)).astype(dtype)
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
        my, mx = yy + first[..., 0], xx + first[..., 1]
        want = np.empty_like(first)
        want[..., 0] = first[..., 0] + bilinear_sample(then[..., 0], my, mx)
        want[..., 1] = first[..., 1] + bilinear_sample(then[..., 1], my, mx)
        # channel-last and channel-first storage alike
        planar = [np.moveaxis(np.moveaxis(f, -1, 0).copy(), 0, -1) for f in (first, then)]
        for args in ((first, then), planar):
            got = compose_flows(*args)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestISMPipeline:
    def test_oracle_dnn_small_loss(self, video):
        """With a perfect key-frame oracle, non-key frames must stay
        accurate: the propagation + refinement pipeline works."""
        ism = ISM(dnn=lambda f: f.disparity, config=ISMConfig(propagation_window=4))
        result = ism.run_sequence(video)
        assert result.key_frames == [True, False, False, False]
        errors = [
            error_rate(d, f.disparity) for d, f in zip(result.disparities, video)
        ]
        assert errors[0] < 1e-9  # oracle on the key frame
        assert all(e < 12.0 for e in errors[1:])

    def test_pw2_tracks_dnn_accuracy(self, video):
        proxy = StereoDNNProxy("DispNet", seed=0)
        dnn_err = np.mean(
            [error_rate(StereoDNNProxy("DispNet", seed=0)(f), f.disparity)
             for f in video]
        )
        ism = ISM(dnn=proxy, config=ISMConfig(propagation_window=2))
        result = ism.run_sequence(video)
        ism_err = np.mean(
            [error_rate(d, f.disparity) for d, f in zip(result.disparities, video)]
        )
        # the paper's Fig. 9: PW-2 retains DNN-level accuracy
        assert abs(ism_err - dnn_err) < 3.0

    def test_pw1_equals_dnn_every_frame(self, video):
        calls = []
        def dnn(frame):
            calls.append(1)
            return frame.disparity
        ism = ISM(dnn=dnn, config=ISMConfig(propagation_window=1))
        result = ism.run_sequence(video)
        assert len(calls) == len(video)
        assert all(result.key_frames)

    def test_key_frame_count_matches_pw(self, video):
        ism = ISM(dnn=lambda f: f.disparity, config=ISMConfig(propagation_window=4))
        result = ism.run_sequence(video)
        assert result.n_key_frames == 1

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ISMConfig(propagation_window=0)
        with pytest.raises(ValueError):
            ISMConfig(search_radius=0)

    @pytest.mark.parametrize("block_size", [4, 6, 8])
    def test_even_block_size_rejected(self, block_size):
        with pytest.raises(ValueError, match="block_size must be odd"):
            ISMConfig(block_size=block_size)


class TestNonKeyOps:
    def test_orders_of_magnitude_cheaper_than_dnn(self):
        """Sec. 3.3: non-key frames are 10^2-10^4x cheaper than DNNs."""
        from repro.models import network_specs
        from repro.nn.workload import total_macs

        ops = nonkey_frame_ops(540, 960)["total"]
        for net in ("DispNet", "FlowNetC", "GC-Net", "PSMNet"):
            dnn = total_macs(network_specs(net))
            assert 10 < dnn / ops < 100_000

    def test_components_sum(self):
        parts = nonkey_frame_ops(100, 200)
        assert parts["total"] == (
            parts["motion_estimation"]
            + parts["correspondence_search"]
            + parts["bookkeeping"]
        )


class TestClassicBackend:
    def test_ism_accepts_classic_matcher_as_keyframe_engine(self, video):
        """ISM is agnostic to the key-frame matcher: an all-classic
        configuration (SGM on key frames) runs end to end."""
        from repro.stereo import sgm

        ism = ISM(
            dnn=lambda f: sgm(f.left, f.right, 48),
            config=ISMConfig(propagation_window=3),
        )
        result = ism.run_sequence(video[:3])
        assert result.key_frames == [True, False, False]
        errs = [
            error_rate(d, f.disparity)
            for d, f in zip(result.disparities, video)
        ]
        assert all(e < 25.0 for e in errs)


class TestOnlineAPI:
    def test_step_matches_run_sequence(self, video):
        """The streaming API and the batch API are the same pipeline."""
        proxy = StereoDNNProxy("DispNet", seed=3)
        batch = ISM(dnn=proxy, config=ISMConfig(propagation_window=2))
        batch_result = batch.run_sequence(video)

        online = ISM(
            dnn=StereoDNNProxy("DispNet", seed=3),
            config=ISMConfig(propagation_window=2),
        )
        for i, frame in enumerate(video):
            disp, is_key = online.step(frame)
            assert is_key == batch_result.key_frames[i]
            assert np.allclose(disp, batch_result.disparities[i])

    def test_reset_restarts_keying(self, video):
        ism = ISM(dnn=lambda f: f.disparity, config=ISMConfig(propagation_window=4))
        _, key0 = ism.step(video[0])
        _, key1 = ism.step(video[1])
        assert key0 and not key1
        ism.reset()
        _, key_again = ism.step(video[2])
        assert key_again

    def test_step_refuses_a_bad_frame_before_any_state_changes(self, video):
        ism = ISM(dnn=lambda f: f.disparity, config=ISMConfig(propagation_window=4))
        ism.step(video[0])
        broken = video[1].left.copy()
        broken[:, 7] = np.nan
        for bad, match in (
            (dataclasses.replace(video[1], left=broken), "finite"),
            (dataclasses.replace(video[1], right=broken), "finite"),
            (dataclasses.replace(video[1], right=video[1].right[:, :-8]), "share a shape"),
        ):
            for is_key in (None, True, False):
                with pytest.raises(ValueError, match=match):
                    ism.step(bad, is_key=is_key)
        assert ism._index == 1 and ism._prev_frame is video[0]
        disp, key = ism.step(video[1])
        assert not key and np.isfinite(disp).all()

    @pytest.mark.parametrize("shape", [(0, 48), (32, 0)])
    def test_step_refuses_an_empty_frame(self, video, shape):
        ism = ISM(dnn=lambda f: f.disparity, config=ISMConfig(propagation_window=4))
        ism.step(video[0])
        empty = np.zeros(shape)
        bad = dataclasses.replace(video[1], left=empty, right=empty)
        for is_key in (None, True, False):
            with pytest.raises(ValueError, match="at least one row and one column"):
                ism.step(bad, is_key=is_key)
        assert ism._index == 1 and ism._prev_frame is video[0]

    def test_run_sequence_resets_state(self, video):
        """Two consecutive batch runs are independent."""
        ism = ISM(dnn=lambda f: f.disparity, config=ISMConfig(propagation_window=4))
        a = ism.run_sequence(video[:2])
        b = ism.run_sequence(video[:2])
        assert a.key_frames == b.key_frames
        assert np.allclose(a.disparities[1], b.disparities[1])


class TestExpansionCache:
    """The cross-frame expansion cache: bit-identical A/B toggle,
    invalidated whenever the consecutive-frame chain breaks."""

    @pytest.fixture(scope="class")
    def short_video(self):
        return sceneflow_scene(
            23, size=(64, 96), max_disp=16, max_speed=2.0
        ).sequence(5)

    def test_cached_bitwise_equals_uncached(self, short_video):
        config = ISMConfig(propagation_window=4)
        cached = ISM(dnn=lambda f: f.disparity, config=config)
        plain = ISM(
            dnn=lambda f: f.disparity, config=config, expansion_cache=False
        )
        a = cached.run_sequence(short_video)
        b = plain.run_sequence(short_video)
        assert cached._cache is not None and plain._cache is None
        for da, db in zip(a.disparities, b.disparities):
            assert np.array_equal(da, db)

    def test_steady_state_populates_cache(self, short_video):
        ism = ISM(dnn=lambda f: f.disparity, config=ISMConfig(propagation_window=4))
        ism.step(short_video[0])
        assert ism._cache.left is None  # key frame: nothing cached yet
        ism.step(short_video[1])
        assert ism._cache.left is not None
        assert ism._cache.right is not None

    def test_key_frame_invalidates(self, short_video):
        ism = ISM(dnn=lambda f: f.disparity, config=ISMConfig(propagation_window=2))
        ism.step(short_video[0])
        ism.step(short_video[1])
        assert ism._cache.left is not None
        ism.step(short_video[2], is_key=True)  # re-key breaks the chain
        assert ism._cache.left is None and ism._cache.right is None

    def test_reset_clears(self, short_video):
        ism = ISM(dnn=lambda f: f.disparity, config=ISMConfig(propagation_window=4))
        ism.step(short_video[0])
        ism.step(short_video[1])
        ism.reset()
        assert ism._cache.left is None and ism._cache.right is None

    def test_stale_entry_recomputed_not_reused(self, short_video):
        """A cached expansion whose parameters no longer match must be
        recomputed: same disparities as a fresh uncached run."""
        from repro.core.correspondence import ExpansionCache
        from repro.flow import expand_frame

        cache = ExpansionCache()
        # poison the cache with an expansion of the wrong frame size
        cache.left = expand_frame(np.zeros((8, 10)), levels=3)
        cache.right = expand_frame(np.zeros((8, 10)), levels=3)
        prev, cur = short_video[0], short_video[1]
        key = np.asarray(prev.disparity, dtype=np.float64)
        with_cache, _, _ = propagate_correspondences(
            prev, cur, key, cache=cache
        )
        without, _, _ = propagate_correspondences(prev, cur, key)
        assert np.array_equal(with_cache, without)


class TestISMDigestPins:
    """Every disparity and accumulated flow of 12-frame ISM runs, pinned
    by SHA-256 with ``==``.

    The pipeline is built the way ``benchmarks/e2e/serve.py`` builds
    it (BM key frames, PW-4, guided refinement and flow through a
    :class:`~repro.parallel.TileExecutor`), on two SceneFlow sizes and
    a KITTI stream (whose PW-4 windows span scene cuts), in both
    precisions, serially and at two workers on threads and on
    processes: 18 cases, one digest per scene and precision.  Any
    optimisation of the non-key kernels (flow, the medians, the
    composition, the guided search) must leave them unchanged; only a
    deliberate algorithm change re-captures them.
    """

    SCENES = {
        "sceneflow-68x120": (sceneflow_stream, 5, (68, 120), 24),
        "sceneflow-135x240": (sceneflow_stream, 5, (135, 240), 48),
        "kitti-72x200": (kitti_stream, 6, (72, 200), 32),
    }
    DIGESTS = {
        ("sceneflow-68x120", "float64"):
            "85d987171d60e0a901837e2b450de1197681bd16c97feb4107481a52e9140f9d",
        ("sceneflow-68x120", "float32"):
            "33c36aa173fb586df4ff0cb1dca7a2d055f3b291b3a303850e69cd57f0a05dcb",
        ("sceneflow-135x240", "float64"):
            "f2682b039ca2e5ba220b991c14d2e53372ec39f585f19614b1a7d7a4fcdf7db9",
        ("sceneflow-135x240", "float32"):
            "b315a51163775a5caa50be1fd51ac9b7621a25b856bc97d9578ea7c727c4c548",
        ("kitti-72x200", "float64"):
            "08d6582f0df4014fa709f5d188b707a692f2df1eed25f063e9b3c3b1fd525f51",
        ("kitti-72x200", "float32"):
            "fef9f982f1e8504f04e635679cb0c54955c260404dde1c449eb9d673701cb6ea",
    }

    @pytest.mark.parametrize(
        "workers,pool",
        [
            (1, "process"),
            (2, "thread"),
            pytest.param(
                2, "process",
                marks=pytest.mark.skipif(
                    not shm_available(), reason="no POSIX shared memory"
                ),
            ),
        ],
    )
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("scene", list(SCENES))
    def test_digest(self, scene, precision, workers, pool):
        make, seed, size, max_disp = self.SCENES[scene]
        frames = make(seed=seed, size=size, n_frames=12, max_disp=max_disp).frames()
        digest = hashlib.sha256()
        with TileExecutor(workers=workers, pool=pool, precision=precision) as ex:
            matcher = ex.kernel("bm")
            ism = ISM(
                lambda f: matcher(f.left, f.right, max_disp),
                config=ISMConfig(),
                refiner=ex.kernel("guided"),
                flow=ex,
            )
            for frame in frames:
                disp, key = ism.step(frame)
                digest.update(np.ascontiguousarray(disp).tobytes())
                if not key:
                    for flow in ism._accumulated:
                        digest.update(str(flow.dtype).encode())
                        digest.update(np.ascontiguousarray(flow).tobytes())
        assert digest.hexdigest() == self.DIGESTS[scene, precision]
