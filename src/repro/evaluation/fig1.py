"""Fig. 1 — the accuracy/performance frontier.

Places every system on the (error rate, FPS) plane:

* four classic algorithms (BM stands alongside GCSF; SGBN/HH are the
  4-/8-path SGM configurations; ELAS is the support-point matcher),
  with error measured on the synthetic KITTI-like pairs and FPS from
  their arithmetic-operation counts on an embedded-CPU cost model;
* the four stereo DNNs on the baseline accelerator ("-Acc") and the
  mobile GPU ("-GPU"), error from the calibrated proxies;
* ASV: full DCO + ISM at PW-4, whose error is the ISM pipeline's and
  whose FPS comes from the co-designed system model.

The paper's qualitative claim to verify: classic algorithms are fast
but inaccurate, DNNs accurate but slow, and ASV reaches the
upper-left corner (>= 30 FPS at DNN-class accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import get_backend
from repro.core import ISM, ASVSystem, ISMConfig
from repro.datasets import kitti_pairs
from repro.evaluation.common import ExperimentScale, default_scale, render_table
from repro.models import QHD, STEREO_NETWORKS
from repro.models.proxy import StereoDNNProxy
from repro.parallel import TileExecutor
from repro.stereo import elas, error_rate, gcsf
from repro.stereo.block_matching import block_match_ops
from repro.stereo.sgm import sgm_ops

__all__ = ["FrontierPoint", "run_fig1", "format_fig1"]

#: Sustained arithmetic throughput of the embedded CPU the classic
#: algorithms run on (a big-core mobile CPU with NEON).
CPU_OPS_PER_SEC = 2.0e10


@dataclass(frozen=True)
class FrontierPoint:
    name: str
    kind: str          # classic | dnn-acc | dnn-gpu | asv
    error_pct: float
    fps: float


def _classic_points(scale: ExperimentScale, executor: TileExecutor):
    h, w = scale.accuracy_size
    md = scale.accuracy_max_disp
    # BM / SGM run through the tiled executor (multi-core when the
    # caller asked for workers); GCSF / ELAS have no tiled adapter
    sgm, block_match = executor.kernel("sgm"), executor.kernel("bm")
    algos = {
        "GCSF": (lambda f: gcsf(f.left, f.right, md),
                 0.35 * block_match_ops(*QHD, 160)),
        "SGBN": (lambda f: sgm(f.left, f.right, md, paths=4),
                 sgm_ops(*QHD, 160, paths=4)),
        "HH": (lambda f: sgm(f.left, f.right, md, paths=8),
               sgm_ops(*QHD, 160, paths=8)),
        "ELAS": (lambda f: elas(f.left, f.right, md),
                 0.25 * block_match_ops(*QHD, 160)),
        "BM": (lambda f: block_match(f.left, f.right, md),
               block_match_ops(*QHD, 160)),
    }
    frames = [
        pair[0]
        for pair in kitti_pairs(
            n_scenes=max(2, scale.n_kitti_scenes // 3),
            size=scale.accuracy_size,
            max_disp=md,
            seed=scale.seed,
        )
    ]
    points = []
    for name, (fn, qhd_ops) in algos.items():
        errs = [error_rate(fn(f), f.disparity) for f in frames]
        points.append(
            FrontierPoint(name, "classic", float(np.mean(errs)),
                          CPU_OPS_PER_SEC / qhd_ops)
        )
    return points, frames


def run_fig1(
    scale: ExperimentScale | None = None, workers: int = 1
) -> list[FrontierPoint]:
    """All frontier points (classic, DNN-Acc, DNN-GPU, ASV).

    ``workers > 1`` runs the kernel-backed classic points (BM and the
    SGM configurations) through a tiled multi-core
    :class:`~repro.parallel.TileExecutor`, one row band per worker on
    a shared-memory process pool; the numbers are bit-identical either
    way.
    """
    scale = scale or default_scale()
    with TileExecutor(workers=workers) as executor:
        points, frames = _classic_points(scale, executor)
    system = ASVSystem()
    gpu = get_backend("gpu")

    for net in STEREO_NETWORKS:
        errs = [
            error_rate(StereoDNNProxy(net, seed=i)(f), f.disparity)
            for i, f in enumerate(frames)
        ]
        err = float(np.mean(errs))
        acc = system.frame_cost(net, use_ism=False, mode="baseline")
        points.append(
            FrontierPoint(f"{net}-Acc", "dnn-acc", err, acc.fps(system.hw))
        )
        gpu_s = gpu.network_seconds(net, mode="baseline", size=QHD)
        points.append(FrontierPoint(f"{net}-GPU", "dnn-gpu", err, 1.0 / gpu_s))

    # ASV: DispNet under full DCO + ISM at PW-4
    ism_errs = []
    for i, pair in enumerate(
        kitti_pairs(n_scenes=max(2, scale.n_kitti_scenes // 3),
                    size=scale.accuracy_size, max_disp=scale.accuracy_max_disp,
                    seed=scale.seed)
    ):
        ism = ISM(StereoDNNProxy("DispNet", seed=i),
                  config=ISMConfig(propagation_window=2))
        res = ism.run_sequence(pair)
        ism_errs.extend(
            error_rate(d, f.disparity) for d, f in zip(res.disparities, pair)
        )
    asv_cost = system.frame_cost("DispNet", use_ism=True, mode="ilar", pw=4)
    points.append(
        FrontierPoint("ASV", "asv", float(np.mean(ism_errs)),
                      asv_cost.fps(system.hw))
    )
    return points


def format_fig1(points: list[FrontierPoint]) -> str:
    rows = [[p.name, p.kind, p.error_pct, p.fps] for p in points]
    return render_table(
        "Fig. 1 — accuracy/performance frontier (qHD)",
        ["system", "kind", "error (%)", "FPS"],
        rows,
    )
