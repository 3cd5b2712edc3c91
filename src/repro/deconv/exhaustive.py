"""Baseline scheduler: exhaustively-searched *static* buffer partition.

The paper's baseline accelerator (Sec. 6.1/6.2) statically splits the
on-chip buffer between ifmap, weights and ofmap, chooses the partition
by exhaustive offline search over the whole network, and then uses the
*same* partition for every layer.  Deconvolutions run naively (dense
over the zero-stuffed map) unless the caller lowers them transformed
(the paper's DCT-only ablation runs the transformed network on this
same static-partition baseline scheduler).

Contrast with :mod:`repro.deconv.optimizer`, which re-solves the tiling
per layer and additionally exploits inter-layer activation reuse.

Like the per-layer search, the partition search runs once per process
for each ``(layers, hw, granularity)``, and every caller receives its
own partition, list and schedules.
"""

from __future__ import annotations

from repro.cache import LRUCache
from repro.deconv.optimizer import (
    _build_schedule,
    _check_model,
    _geometric_candidates,
    _own,
    _resolve_tiles,
)
from repro.hw.config import HWConfig
from repro.hw.schedule import LayerWork, Schedule
from repro.hw.systolic import SystolicModel

__all__ = ["Partition", "schedule_with_partition", "best_static_partition"]

#: Solved whole-network partition searches kept per process.
_PARTITION_MEMO_SIZE = 64
_partition_memo = LRUCache(maxsize=_PARTITION_MEMO_SIZE)


class Partition:
    """A static (ifmap, weight, ofmap) byte split of the usable buffer."""

    def __init__(self, ifmap_bytes: int, weight_bytes: int, ofmap_bytes: int):
        if min(ifmap_bytes, weight_bytes, ofmap_bytes) <= 0:
            raise ValueError("every partition section needs capacity")
        self.ifmap_bytes = ifmap_bytes
        self.weight_bytes = weight_bytes
        self.ofmap_bytes = ofmap_bytes

    @property
    def total(self) -> int:
        return self.ifmap_bytes + self.weight_bytes + self.ofmap_bytes

    def __repr__(self):
        mb = 1024 * 1024
        return (
            f"Partition(if={self.ifmap_bytes / mb:.2f}MB, "
            f"w={self.weight_bytes / mb:.2f}MB, of={self.ofmap_bytes / mb:.2f}MB)"
        )


def _first_fit_grid(layer: LayerWork, hw: HWConfig, part: Partition):
    """Smallest tile grid whose ifmap chunk fits the ifmap section."""
    bpe = hw.bytes_per_elem
    max_rows = max(s.out_rows for s in layer.subconvs)
    max_cols = max(s.out_cols for s in layer.subconvs)
    for n_col in [c for c in _geometric_candidates(max_cols) if c <= 16]:
        for n_ic in _geometric_candidates(layer.in_channels):
            for n_row in _geometric_candidates(max_rows):
                geom = _resolve_tiles(layer, n_row, n_col, n_ic)
                chunk = geom.max_tile_elems_per_channel * max(geom.ic_chunks) * bpe
                if chunk <= part.ifmap_bytes:
                    return geom
    return None


def _greedy_groups(layer, geom, hw, part: Partition):
    """Fill filter groups against the static weight/ofmap sections."""
    bpe = hw.bytes_per_elem
    n_subs = len(layer.subconvs)
    max_r = [geom.max_share("rows", k) for k in range(n_subs)]
    max_c = [geom.max_share("cols", k) for k in range(n_subs)]
    w_cost = [s.taps * layer.in_channels * bpe for s in layer.subconvs]
    p_cost = [max_r[k] * max_c[k] * bpe for k in range(n_subs)]
    remaining = [s.filters for s in layer.subconvs]
    groups = []
    # large sub-kernels first, as many filters per group as both the
    # weight and ofmap sections allow
    order = sorted(range(n_subs), key=lambda k: -w_cost[k])
    while any(remaining):
        w_room, p_room = part.weight_bytes, part.ofmap_bytes
        group = [0] * n_subs
        for k in order:
            if not remaining[k]:
                continue
            fit = min(
                remaining[k],
                w_room // w_cost[k] if w_cost[k] else remaining[k],
                p_room // p_cost[k] if p_cost[k] else remaining[k],
            )
            group[k] = fit
            w_room -= fit * w_cost[k]
            p_room -= fit * p_cost[k]
        if not any(group):
            return None  # not even one filter fits this partition
        groups.append(tuple(group))
        for k in range(n_subs):
            remaining[k] -= group[k]
    return groups


def schedule_with_partition(
    layer: LayerWork,
    hw: HWConfig,
    part: Partition,
    model: SystolicModel | None = None,
) -> Schedule | None:
    """Schedule one layer under a fixed buffer partition, or ``None``
    if the partition cannot host the layer at all.  ``model`` must be
    built for ``hw``; a mismatch raises :class:`ValueError`."""
    model = _check_model(model, hw)
    geom = _first_fit_grid(layer, hw, part)
    if geom is None:
        return None
    groups = _greedy_groups(layer, geom, hw, part)
    if groups is None:
        return None
    best = None
    best_cycles = None
    for weight_resident in (False, True):
        # resident full-I weights only fit the weight section when not chunked
        try:
            sched = _build_schedule(
                layer, geom, groups, weight_resident, label=f"static:{part!r}"
            )
            sched.validate(hw)
        except ValueError:
            continue
        cycles = model.run_schedule(sched, validate=False).cycles
        if best_cycles is None or cycles < best_cycles:
            best, best_cycles = sched, cycles
    return best


def best_static_partition(
    layers,
    hw: HWConfig,
    model: SystolicModel | None = None,
    granularity: int | None = None,
) -> tuple[Partition, list[Schedule]]:
    """Exhaustive offline partition search (the paper's strong baseline).

    Enumerates every (ifmap, weight, ofmap) split of the usable buffer
    at bank/2 granularity, schedules the *whole network* under each,
    and returns the partition minimising total latency together with
    its per-layer schedules.  ``model`` must be built for ``hw``; a
    mismatch raises :class:`ValueError`.  The search runs once per
    process for equal inputs unless ``model`` is a
    :class:`SystolicModel` subclass.
    """
    model = _check_model(model, hw)
    layers = tuple(layers)

    def search() -> tuple[Partition, list[Schedule]]:
        return _search_partition(layers, hw, model, granularity)

    if type(model) is not SystolicModel:
        return search()
    part, schedules = _partition_memo.get_or_create(
        (layers, hw, granularity), search
    )
    own_part = Partition(part.ifmap_bytes, part.weight_bytes, part.ofmap_bytes)
    return own_part, [_own(s) for s in schedules]


def _search_partition(
    layers: tuple[LayerWork, ...],
    hw: HWConfig,
    model: SystolicModel,
    granularity: int | None,
) -> tuple[Partition, list[Schedule]]:
    """The un-memoized search behind :func:`best_static_partition`."""
    # partition granularity tracks the buffer so the search always sees
    # ~12 allocation units, whatever the SRAM capacity
    gran = granularity or max(
        min(hw.bank_bytes // 2, hw.usable_buffer_bytes // 12), 4096
    )
    units = hw.usable_buffer_bytes // gran
    if units < 3:
        raise ValueError("buffer too small for a three-way partition")
    best = None
    best_cycles = None
    for i in range(1, units - 1):
        for w in range(1, units - i):
            o = units - i - w
            part = Partition(i * gran, w * gran, o * gran)
            schedules = []
            for layer in layers:
                sched = schedule_with_partition(layer, hw, part, model)
                if sched is None:
                    schedules = None
                    break
                schedules.append(sched)
            if schedules is None:
                continue
            cycles = sum(
                model.run_schedule(s, validate=False).cycles for s in schedules
            )
            if best_cycles is None or cycles < best_cycles:
                best, best_cycles = (part, schedules), cycles
    if best is None:
        raise ValueError(f"no static partition can host this network on {hw.name}")
    return best
