"""The invariant-based stereo matching (ISM) pipeline (paper Sec. 3).

ISM exploits the *correspondence invariant*: two pixels that are
projections of the same scene point remain a correspondence pair in
every frame, even as their image locations move.  Expensive stereo
DNN inference therefore only runs on key frames; in between, the
key-frame correspondences are propagated by dense optical flow and
refined by a cheap local block-matching search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.correspondence import (
    ExpansionCache,
    propagate_correspondences,
    refine_correspondences,
)
from repro.core.keyframe import StaticKeyFramePolicy
from repro.datasets.scenes import StereoFrame
from repro.flow.farneback import farneback_ops
from repro.stereo.block_matching import guided_block_match_ops

__all__ = [
    "ISMConfig",
    "ISMResult",
    "ISM",
    "NonKeyOpCounts",
    "nonkey_op_counts",
    "nonkey_frame_ops",
]


@dataclass(frozen=True)
class ISMConfig:
    """Algorithm parameters (defaults follow Sec. 3.3 / Sec. 7.2)."""

    propagation_window: int = 4   # PW-k
    search_radius: int = 4        # half-width of the guided 1-D search
    block_size: int = 9           # SAD block for the refinement
    flow_levels: int = 3
    flow_iterations: int = 2

    def __post_init__(self):
        if self.propagation_window < 1:
            raise ValueError("propagation window must be >= 1")
        if self.search_radius < 1 or self.block_size < 3:
            raise ValueError("invalid search parameters")
        if self.block_size % 2 == 0:
            raise ValueError(f"block_size must be odd, got {self.block_size}")


@dataclass
class ISMResult:
    """Outputs of a sequence run."""

    disparities: list[np.ndarray] = field(default_factory=list)
    key_frames: list[bool] = field(default_factory=list)

    @property
    def n_key_frames(self) -> int:
        return sum(self.key_frames)


class ISM:
    """Stereo over video with key-frame DNN + propagation.

    ``dnn`` is any callable mapping a :class:`StereoFrame` to a
    disparity map — a :class:`repro.models.proxy.StereoDNNProxy`, a
    classic matcher, or a real network.  ``refiner`` likewise swaps
    the non-key guided-search implementation (same signature as
    :func:`~repro.stereo.block_matching.guided_block_match`), and
    ``flow`` the motion estimator (an object with ``expand_frame`` /
    ``flow_from_expansions`` methods); the serving stack passes a
    :class:`repro.parallel.TileExecutor` bound method / the executor
    itself here so non-key frames run multi-core: tiled guided
    refinement, and at ``workers > 1`` the two streams' flow at the
    same time (see
    :func:`~repro.core.correspondence.propagate_correspondences`).

    The estimator is *stateful and online*: :meth:`step` consumes one
    frame at a time (the shape a robot control loop needs);
    :meth:`run_sequence` is the batch convenience over it.  Motion is
    estimated between consecutive frames (cheap, small displacements)
    but composed back to the key frame, so every non-key frame
    propagates the *key frame's* correspondences — the invariant the
    algorithm is named after — rather than re-propagating
    already-refined estimates.

    With ``expansion_cache=True`` (the default) the estimator carries
    each frame's polynomial-expansion pyramids forward in an
    :class:`~repro.core.correspondence.ExpansionCache`, so
    steady-state non-key stepping computes one new expansion per
    stream instead of two.  The cache is invalidated on
    :meth:`reset` and on every key frame (re-keying breaks the
    consecutive-frame chain), and the cached path is bit-identical to
    ``expansion_cache=False`` by construction — the A/B toggle exists
    for benchmarking, not for accuracy trade-offs.
    """

    def __init__(
        self,
        dnn,
        config: ISMConfig | None = None,
        policy=None,
        refiner=None,
        flow=None,
        expansion_cache: bool = True,
    ):
        self.dnn = dnn
        self.config = config or ISMConfig()
        self.policy = policy or StaticKeyFramePolicy(self.config.propagation_window)
        self.refiner = refiner
        self.flow = flow
        self.expansion_cache = expansion_cache
        self.reset()

    def reset(self) -> None:
        """Forget all temporal state (start of a new video)."""
        self._index = 0
        self._prev_frame: StereoFrame | None = None
        self._key_disp: np.ndarray | None = None
        self._accumulated = None
        self._context: dict = {}
        self._cache = ExpansionCache() if self.expansion_cache else None

    def step(
        self, frame: StereoFrame, is_key: bool | None = None
    ) -> tuple[np.ndarray, bool]:
        """Process the next frame; returns ``(disparity, is_key_frame)``.

        ``is_key`` overrides the key-frame policy when given — the
        serving stack's :class:`~repro.pipeline.quality.QualityProbe`
        replays decisions an engine actually made (including ``shed``
        re-keying after a drop), so the decision comes from outside.
        ``None`` (the default) consults the policy as before.  A
        forced key is reported to the policy through its optional
        ``sync_forced_key(index)`` hook (the same contract
        :func:`repro.pipeline.costing.plan_keys` honours), so a
        stateful policy's last-key state tracks what was actually
        served if the caller later resumes policy-driven stepping.
        """
        if is_key is None:
            is_key = self._key_disp is None or self.policy.is_key(
                self._index, self._context
            )
        elif not is_key and self._key_disp is None:
            raise ValueError(
                "cannot serve a non-key frame before any key frame"
            )
        elif is_key:
            sync = getattr(self.policy, "sync_forced_key", None)
            if sync is not None:
                sync(self._index)
        if is_key:
            disp = np.asarray(self.dnn(frame), dtype=np.float64)
            self._key_disp = disp
            self._accumulated = None
            if self._cache is not None:
                # the cached expansions describe the pre-key chain;
                # the first non-key after a (re-)key starts fresh
                self._cache.clear()
        else:
            initial, _, self._accumulated = propagate_correspondences(
                self._prev_frame,
                frame,
                self._key_disp,
                flow_kwargs=dict(
                    levels=self.config.flow_levels,
                    iterations=self.config.flow_iterations,
                ),
                accumulated=self._accumulated,
                key_disparity=self._key_disp,
                cache=self._cache,
                flow=self.flow,
            )
            self._context["last_flow"] = self._accumulated[0]
            disp = refine_correspondences(
                frame,
                initial,
                radius=self.config.search_radius,
                block_size=self.config.block_size,
                matcher=self.refiner,
            )
        self._prev_frame = frame
        self._index += 1
        return disp, is_key

    def run_sequence(self, frames: list[StereoFrame]) -> ISMResult:
        """Process a stereo video, returning per-frame disparities."""
        self.reset()
        result = ISMResult()
        for frame in frames:
            disp, is_key = self.step(frame)
            result.disparities.append(disp)
            result.key_frames.append(is_key)
        return result


@dataclass(frozen=True)
class NonKeyOpCounts:
    """Arithmetic-operation budget of one non-key frame (Sec. 3.3).

    The single source of truth for the Farneback + guided-BM op
    accounting: both the algorithm-side budget report
    (:func:`nonkey_frame_ops`) and the hardware-side cost models
    (:meth:`repro.backends.ExecutionBackend.nonkey_frame`) derive
    their numbers from these counts rather than re-deriving them.
    """

    flow: int           # motion estimation, both video streams
    search: int         # guided block-matching refinement (SAD passes)
    pixel_updates: int  # per-pixel point ops (matrix update / compute
                        # flow per iteration per stream + WTA compares)
    bookkeeping: int    # coordinate reconstruction + warps/fills
    streamed_elems: int  # DRAM-streamed elements: current + key frame
                         # pixels for both views, two flow fields,
                         # in/out disparity maps

    @property
    def array_ops(self) -> int:
        """Convolution-shaped work that maps onto a PE array."""
        return self.flow + self.search

    @property
    def total(self) -> int:
        """The paper's Sec. 3.3 budget (flow + search + bookkeeping)."""
        return self.flow + self.search + self.bookkeeping


def nonkey_op_counts(
    height: int, width: int, config: ISMConfig | None = None
) -> NonKeyOpCounts:
    """Op counts of one ISM non-key frame at a given resolution.

    Motion estimation runs on *both* video streams; the refinement
    search is a ``2r+1``-wide guided block matching.  At qHD the total
    is on the order of 10^8 operations versus 10^10-10^12 MACs for the
    stereo DNNs — the 2-4 orders-of-magnitude gap the paper reports.
    """
    config = config or ISMConfig()
    flow = 2 * farneback_ops(
        height, width,
        levels=config.flow_levels, iterations=config.flow_iterations,
    )
    search = guided_block_match_ops(
        height, width, radius=config.search_radius, block_size=config.block_size
    )
    # point-wise pixel updates: matrix update + compute flow per pixel
    # per iteration per stream, plus the WTA comparisons of the
    # refinement (Sec. 5.1's scalar-unit mapping)
    pixel_updates = (
        2 * 2 * config.flow_iterations * height * width
        + (2 * config.search_radius + 1) * height * width
    )
    reconstruct = height * width         # coordinate arithmetic
    propagate_misc = 4 * height * width  # warps + fills
    return NonKeyOpCounts(
        flow=flow,
        search=search,
        pixel_updates=pixel_updates,
        bookkeeping=reconstruct + propagate_misc,
        streamed_elems=(4 + 4 + 2) * height * width,
    )


def nonkey_frame_ops(
    height: int, width: int, config: ISMConfig | None = None
) -> dict[str, int]:
    """Per-component op budget of one non-key frame, as a dict.

    Thin view over :func:`nonkey_op_counts` kept for the budget
    reports (Fig. 3 discussion, Sec. 7.1 overhead analysis).
    """
    ops = nonkey_op_counts(height, width, config)
    return {
        "motion_estimation": ops.flow,
        "correspondence_search": ops.search,
        "bookkeeping": ops.bookkeeping,
        "total": ops.total,
    }
