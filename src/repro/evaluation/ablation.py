"""Scheduler design-choice ablations (beyond the paper's figures).

DESIGN.md calls out three design decisions in the tiling scheduler
worth isolating; this driver quantifies each on a representative
transformed deconvolution group:

* **β (reuse order, Eq. 7)** — forcing ifmap-resident or
  weight-resident scheduling versus letting the optimizer choose;
* **knapsack filter packing** — the paper's greedy packer versus a
  degenerate one-filter-per-round packer (the value of batching
  filters against the buffer);
* **static partition** — the per-layer optimizer versus the baseline's
  network-wide static buffer split.

Also includes the propagation-window sweep (PW-1 ... PW-8): the
latency/energy side of the paper's Sec. 7.2 key-frame discussion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import ASVSystem
from repro.deconv.exhaustive import Partition, schedule_with_partition
from repro.deconv.lowering import lower_transformed
from repro.deconv.optimizer import build_schedule, optimize_layer
from repro.evaluation.common import render_table
from repro.hw.config import ASV_BASE, HWConfig
from repro.hw.systolic import SystolicModel
from repro.models import QHD
from repro.nn.workload import ConvSpec

__all__ = [
    "BandwidthRow",
    "SchedulerAblationRow",
    "format_bandwidth_sweep",
    "run_bandwidth_sweep",
    "run_scheduler_ablation",
    "format_scheduler_ablation",
    "PWSweepRow",
    "run_pw_sweep",
    "format_pw_sweep",
]


@dataclass(frozen=True)
class SchedulerAblationRow:
    strategy: str
    cycles: int
    dram_bytes: int
    energy_mj: float


def _default_layer() -> ConvSpec:
    """A FlowNetC-scale deconvolution: big enough that tiling matters."""
    return ConvSpec(
        "deconv3", 769, 128, (4, 4), (68, 120), 2, 1, deconv=True, stage="DR"
    )


def run_scheduler_ablation(
    spec: ConvSpec | None = None, hw: HWConfig = ASV_BASE
) -> list[SchedulerAblationRow]:
    spec = spec or _default_layer()
    model = SystolicModel(hw)
    (group,) = lower_transformed(spec, ilar=True)
    rows = []

    def add(label, sched):
        res = model.run_schedule(sched, validate=False)
        rows.append(
            SchedulerAblationRow(
                label, res.cycles, res.dram_bytes, 1e3 * res.energy_j
            )
        )

    third = hw.usable_buffer_bytes // 3
    static = schedule_with_partition(
        group, hw, Partition(third, third, third), model
    )
    if static is not None:
        add("static partition (even thirds)", static)

    add("optimizer, beta=ifmap-resident",
        optimize_layer(group, hw, model, beta_choices=(False,)))
    add("optimizer, beta=weight-resident",
        optimize_layer(group, hw, model, beta_choices=(True,)))

    # degenerate packing: one filter per round
    groups = [
        tuple(1 if k == j else 0 for k in range(len(group.subconvs)))
        for j in range(len(group.subconvs))
        for _ in range(group.subconvs[j].filters)
    ]
    best_single = None
    for n_row in (4, 8, 16):
        for n_ic in (1, 4, 16, 64):
            if n_ic > group.in_channels:
                continue
            try:
                sched = build_schedule(group, hw, n_row, 1, n_ic, groups, False)
                sched.validate(hw)
            except ValueError:
                continue
            res = model.run_schedule(sched, validate=False)
            if best_single is None or res.cycles < best_single[1].cycles:
                best_single = (sched, res)
    if best_single:
        add("one filter per round (no knapsack)", best_single[0])

    add("optimizer, full (paper)", optimize_layer(group, hw, model))
    return rows


def format_scheduler_ablation(rows: list[SchedulerAblationRow]) -> str:
    table = [
        [r.strategy, r.cycles, r.dram_bytes, r.energy_mj] for r in rows
    ]
    return render_table(
        "Scheduler ablation — one transformed deconvolution group",
        ["strategy", "cycles", "DRAM bytes", "energy (mJ)"],
        table,
    )


@dataclass(frozen=True)
class BandwidthRow:
    bandwidth_gbps: float
    baseline_mcycles: float
    dco_mcycles: float
    speedup: float


def run_bandwidth_sweep(
    network: str = "FlowNetC",
    bandwidths_gbps=(6.4, 12.8, 25.6, 51.2, 102.4),
    size=(270, 480),
) -> list[BandwidthRow]:
    """DRAM-bandwidth sensitivity of the deconvolution optimizations.

    Probes the Fig. 12 discussion directly: as bandwidth shrinks the
    baseline's redundant zero traffic becomes the bottleneck and DCO's
    traffic elimination is worth more; with abundant bandwidth the gain
    converges to the pure MAC reduction.
    """
    from repro.deconv.exhaustive import best_static_partition
    from repro.deconv.lowering import lower_network
    from repro.deconv.optimizer import optimize_layers
    from repro.models import network_specs

    specs = network_specs(network, size)
    rows = []
    for bw in bandwidths_gbps:
        hw = ASV_BASE.with_resources(
            name=f"bw{bw}", dram_bytes_per_sec=bw * 1e9
        )
        model = SystolicModel(hw)
        _, base_scheds = best_static_partition(
            lower_network(specs, transform=False), hw, model
        )
        base = model.run_schedules(base_scheds, validate=False)
        opt = model.run_schedules(
            optimize_layers(
                lower_network(specs, transform=True, ilar=True), hw, model
            ),
            validate=False,
        )
        rows.append(
            BandwidthRow(
                bandwidth_gbps=bw,
                baseline_mcycles=base.cycles / 1e6,
                dco_mcycles=opt.cycles / 1e6,
                speedup=base.cycles / opt.cycles,
            )
        )
    return rows


def format_bandwidth_sweep(rows: list[BandwidthRow], network="FlowNetC") -> str:
    table = [
        [f"{r.bandwidth_gbps:g}", r.baseline_mcycles, r.dco_mcycles, r.speedup]
        for r in rows
    ]
    return render_table(
        f"DRAM-bandwidth sensitivity of DCO — {network}",
        ["GB/s", "baseline Mcyc", "DCO Mcyc", "speedup (x)"],
        table,
    )


@dataclass(frozen=True)
class PWSweepRow:
    pw: int
    speedup: float
    energy_reduction_pct: float
    fps: float


def run_pw_sweep(
    network: str = "DispNet", windows=(1, 2, 4, 8), hw: HWConfig | None = None
) -> list[PWSweepRow]:
    system = ASVSystem(hw) if hw else ASVSystem()
    rows = []
    for pw in windows:
        sp, er = system.speedup_over_baseline(
            network, use_ism=pw > 1, mode="ilar", pw=pw
        )
        cost = system.frame_cost(
            network, use_ism=pw > 1, mode="ilar", pw=pw, size=QHD
        )
        rows.append(PWSweepRow(pw, sp, 100.0 * er, cost.fps(system.hw)))
    return rows


def format_pw_sweep(rows: list[PWSweepRow], network: str = "DispNet") -> str:
    table = [[r.pw, r.speedup, r.energy_reduction_pct, r.fps] for r in rows]
    return render_table(
        f"Propagation-window sweep — {network} with DCO",
        ["PW", "speedup (x)", "energy red. (%)", "FPS"],
        table,
    )
