"""Deconvolution optimizations (paper Sec. 4).

* :mod:`repro.deconv.transform` — the deconvolution-to-convolution
  rewriting (DCT) and its numeric gather path.
* :mod:`repro.deconv.lowering` — layer geometry to schedulable work.
* :mod:`repro.deconv.optimizer` — the constrained-optimization tiling
  scheduler with the greedy knapsack filter packer (ConvR/ILAR).
* :mod:`repro.deconv.exhaustive` — the baseline static-partition
  scheduler with exhaustive offline partition search.
"""

from repro.deconv.exhaustive import (
    Partition,
    best_static_partition,
    schedule_with_partition,
)
from repro.deconv.lowering import (
    lower_conv,
    lower_naive_deconv,
    lower_network,
    lower_spec,
    lower_transformed,
)
from repro.deconv.optimizer import (
    balanced_split,
    build_schedule,
    optimize_layer,
    optimize_layers,
    pack_filter_groups,
)
from repro.deconv.runtime import TransformedDeconv, transform_network
from repro.deconv.transform import (
    SubConvGeometry,
    decompose_geometry,
    decompose_kernel,
    deconv_via_subconvolutions,
    transformed_specs,
)

__all__ = [
    "Partition",
    "SubConvGeometry",
    "TransformedDeconv",
    "transform_network",
    "balanced_split",
    "best_static_partition",
    "build_schedule",
    "decompose_geometry",
    "decompose_kernel",
    "deconv_via_subconvolutions",
    "lower_conv",
    "lower_naive_deconv",
    "lower_network",
    "lower_spec",
    "lower_transformed",
    "optimize_layer",
    "optimize_layers",
    "pack_filter_groups",
    "schedule_with_partition",
    "transformed_specs",
]
