"""The four ISM steps on correspondences (paper Sec. 3.2, Fig. 5).

1. **DNN inference** produces the key frame's disparity map (the
   caller supplies the network / proxy).
2. **Reconstruct correspondences** — by Eq. 2, every left pixel
   ``<x, y>`` with disparity ``d`` pairs with right pixel
   ``<x + d, y>``; the disparity map *is* the correspondence set, so
   reconstruction is a coordinate-view, provided here for clarity and
   for tests.
3. **Propagate correspondences** — dense optical flow on the left and
   right video streams moves both endpoints; the propagated disparity
   is the horizontal offset of the moved pair.
4. **Refine correspondences** — local block matching seeded by the
   propagated estimate.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.datasets.scenes import StereoFrame
from repro.flow import farneback as _farneback
from repro.flow.farneback import FrameExpansion
from repro.flow.warp import _grid, bilinear_sample, forward_warp_disparity
from repro.stereo.block_matching import guided_block_match
from repro.stereo.refine import fill_background, median2d, median_clean

__all__ = [
    "ExpansionCache",
    "reconstruct_correspondences",
    "compose_flows",
    "propagate_correspondences",
    "refine_correspondences",
]


@dataclass
class ExpansionCache:
    """Per-stream polynomial expansions carried between consecutive
    :func:`propagate_correspondences` calls.

    Frame ``t``'s expansion pyramid serves both the ``(t-1, t)`` and
    the ``(t, t+1)`` flow computations; caching it halves the
    steady-state expansion cost of the ISM non-key path with
    bit-identical results (the expansion depends only on the frame and
    the flow parameters).  The cache is owned by whoever owns the
    frame sequence — :class:`repro.core.ism.ISM` carries one and
    clears it on :meth:`~repro.core.ism.ISM.reset` and on every key
    frame (a key frame breaks the consecutive-frame chain the cached
    entries describe).  Entries whose recorded shape or flow
    parameters no longer match are recomputed, never reused.
    """

    left: FrameExpansion | None = None
    right: FrameExpansion | None = None

    def clear(self) -> None:
        """Drop both cached expansions (chain broken / new video)."""
        self.left = None
        self.right = None


def reconstruct_correspondences(
    disparity: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Left/right pixel coordinate pairs implied by a disparity map.

    Returns ``(left_xy, right_xy)`` as (H, W, 2) arrays of (y, x)
    coordinates; ``right_xy[..., 1] = x + d`` per Eq. 2.
    """
    h, w = disparity.shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    left = np.stack([yy, xx], axis=-1)
    right = np.stack([yy, xx + disparity], axis=-1)
    return left, right


def compose_flows(first: np.ndarray, then: np.ndarray) -> np.ndarray:
    """Concatenate two motion fields: ``p -> p + first(p) + then(p + first(p))``.

    Used to accumulate per-frame motion from the key frame so that the
    key-frame correspondences (the trusted DNN output) can always be
    propagated directly, instead of re-propagating already-refined
    estimates and compounding their noise.
    """
    h, w = first.shape[:2]
    yy, xx = _grid(h, w, np.float64)
    my = yy + first[..., 0]
    mx = xx + first[..., 1]
    out = np.empty_like(first)
    out[..., 0] = first[..., 0] + bilinear_sample(then[..., 0], my, mx)
    out[..., 1] = first[..., 1] + bilinear_sample(then[..., 1], my, mx)
    return out


def propagate_correspondences(
    prev: StereoFrame,
    cur: StereoFrame,
    prev_disparity: np.ndarray,
    flow_kwargs: dict | None = None,
    accumulated: tuple[np.ndarray, np.ndarray] | None = None,
    key_disparity: np.ndarray | None = None,
    cache: ExpansionCache | None = None,
    flow=None,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """ISM step 3: move the correspondence set to the next frame.

    Estimates dense motion on the left and right streams separately
    between consecutive frames, composes it with the motion
    ``accumulated`` since the key frame, forward-warps the *key-frame*
    disparity along the composed motion while adjusting it by the
    differential horizontal motion of the right endpoints, and fills
    pixels nothing landed on.

    ``flow_kwargs`` tunes the Farneback estimator (``levels``,
    ``iterations``, ``sigma``, ``window_sigma``, ``precision``,
    ``median_size``).  ``cache`` is an :class:`ExpansionCache` that
    carries ``prev``'s polynomial expansions in and receives ``cur``'s
    back out, so a caller stepping through a video computes one new
    expansion per stream per call instead of two — the caller must
    clear it whenever ``prev`` is not the frame the cached entries
    were computed for.  ``flow`` swaps the flow implementation: any
    object with :func:`~repro.flow.farneback.expand_frame` /
    :func:`~repro.flow.farneback.flow_from_expansions` methods (e.g. a
    single-worker :class:`repro.parallel.TileExecutor`); ``None`` runs
    the plain single-core functions.  An executor with ``workers > 1``
    splits flow by stream: the right stream runs on a helper thread
    that lives for this call only, while the calling thread runs the
    left, each whole-frame through the plain
    :mod:`repro.flow.farneback` kernels at the executor's
    ``precision`` (a ``precision`` in ``flow_kwargs`` still wins).
    The flow median and every later step run after both streams
    finish, on the calling thread.

    Returns ``(propagated_disparity, known_mask, accumulated_flows)``
    where ``accumulated_flows`` is the ``(left, right)`` motion from
    the key frame to ``cur``, to be passed back in on the next call.
    """
    kw = dict(levels=3, iterations=2, window_sigma=2.5)
    if flow_kwargs:
        kw.update(flow_kwargs)
    median_size = kw.pop("median_size", 5)
    by_stream = getattr(flow, "workers", 1) > 1
    impl = _farneback if flow is None or by_stream else flow
    expand_kw = dict(levels=kw.pop("levels"), sigma=kw.pop("sigma", 1.5))
    if "precision" in kw:
        expand_kw["precision"] = kw.pop("precision")
    elif by_stream:
        expand_kw["precision"] = flow.precision
    iter_kw = dict(
        iterations=kw.pop("iterations"), window_sigma=kw.pop("window_sigma")
    )
    if kw:
        raise TypeError(f"unknown flow_kwargs: {sorted(kw)}")

    def stream_flow(side: str, prev_img, cur_img) -> np.ndarray:
        prev_exp = getattr(cache, side) if cache is not None else None
        if prev_exp is not None and not prev_exp.matches(
            np.asarray(prev_img).shape[:2],
            expand_kw["levels"],
            expand_kw["sigma"],
            None,
            expand_kw.get("precision", prev_exp.precision),
        ):
            prev_exp = None
        if prev_exp is None:
            prev_exp = impl.expand_frame(prev_img, **expand_kw)
        cur_exp = impl.expand_frame(cur_img, **expand_kw)
        if cache is not None:
            setattr(cache, side, cur_exp)
        return impl.flow_from_expansions(prev_exp, cur_exp, **iter_kw)

    if by_stream:
        # the streams share nothing (each writes only its own cache
        # side), so the right one runs on a helper that the ``with``
        # joins before returning or propagating either stream's error
        with ThreadPoolExecutor(max_workers=1) as helper:
            right = helper.submit(stream_flow, "right", prev.right, cur.right)
            flow_l = stream_flow("left", prev.left, cur.left)
            flow_r = right.result()
    else:
        flow_l = stream_flow("left", prev.left, cur.left)
        flow_r = stream_flow("right", prev.right, cur.right)
    if median_size:
        # median filtering sharpens motion boundaries the Gaussian
        # window of the flow estimator smears across object edges
        comps = median2d(
            np.stack([flow_l[..., 0], flow_l[..., 1],
                      flow_r[..., 0], flow_r[..., 1]]),
            median_size,
        )
        flow_l[..., 0], flow_l[..., 1] = comps[0], comps[1]
        flow_r[..., 0], flow_r[..., 1] = comps[2], comps[3]
    if accumulated is not None:
        flow_l = compose_flows(accumulated[0], flow_l)
        flow_r = compose_flows(accumulated[1], flow_r)
    source = prev_disparity if key_disparity is None else key_disparity
    disp, known = forward_warp_disparity(source, flow_l, flow_r)
    # pixels nothing landed on are disocclusions: fill from background
    disp = fill_background(disp, known)
    return disp, known, (flow_l, flow_r)


def refine_correspondences(
    frame: StereoFrame,
    initial: np.ndarray,
    radius: int = 4,
    block_size: int = 9,
    matcher=None,
) -> np.ndarray:
    """ISM step 4: local search around the propagated estimate.

    ``matcher`` swaps the guided search implementation — e.g. a
    :meth:`repro.parallel.TileExecutor.guided_block_match` bound
    method for tiled multi-core execution; ``None`` runs the plain
    single-core :func:`~repro.stereo.block_matching.
    guided_block_match`.  Any replacement must keep its signature.
    """
    match = guided_block_match if matcher is None else matcher
    disp = match(
        frame.left, frame.right, initial, radius=radius, block_size=block_size
    )
    return median_clean(disp, size=3)
