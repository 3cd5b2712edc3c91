"""Dense optical flow substrate (paper Sec. 3.3's motion estimation)."""

from repro.flow.farneback import (
    FrameExpansion,
    expand_frame,
    farneback_flow,
    farneback_ops,
    flow_from_expansions,
    flow_iteration,
    flow_update,
    poly_expansion,
)
from repro.flow.gaussian import (
    batched_gaussian_blur,
    blur_kernel1d,
    downsample2,
    gaussian_blur,
    gaussian_blur_ops,
    gaussian_kernel1d,
)
from repro.flow.warp import bilinear_sample, forward_warp_disparity, warp_backward

__all__ = [
    "FrameExpansion",
    "batched_gaussian_blur",
    "bilinear_sample",
    "blur_kernel1d",
    "downsample2",
    "expand_frame",
    "farneback_flow",
    "farneback_ops",
    "flow_from_expansions",
    "flow_iteration",
    "flow_update",
    "forward_warp_disparity",
    "gaussian_blur",
    "gaussian_blur_ops",
    "gaussian_kernel1d",
    "poly_expansion",
    "warp_backward",
]
