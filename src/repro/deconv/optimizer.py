"""Constrained-optimization tiling scheduler (paper Sec. 4.2).

Minimises per-layer latency (Eq. 3) subject to the hardware resource
constraints (Eq. 4/10): PE array size, usable on-chip buffer, and DRAM
bandwidth.  The optimization variables are the ifmap tile shape, the
input-channel chunking, the per-sub-kernel filter allocation of every
round (the vector C of Eq. 11), and the reuse order β (Eq. 7).

Following the paper, the filter allocation is solved as a Knapsack:
each filter of each sub-kernel is an item whose *weight* is its buffer
footprint and whose *value* is the MACs it retires.  A greedy solver
that prioritises filters from large sub-kernels runs standard dynamic
programming over the (discretised) capacity, and is applied iteratively
until every filter is scheduled — unlike 0/1 Knapsack, all items must
eventually be consumed.  Tile-shape and β candidates are enumerated
(the space is small once filter packing is delegated to the knapsack)
and each complete schedule is evaluated on the systolic latency model;
the fastest feasible schedule wins.

A schedule is a pure function of the lowered layer and the
:class:`HWConfig`, so the search runs once per process for each
``(layer, hw, max_candidates, beta_choices)``: every backend, model and
figure driver on the same hardware shares the solved schedule.  Each
caller receives its own :class:`Schedule` (fresh ``rounds``/``counts``
lists over the shared, frozen round plans), so no caller can alter what
the next one receives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.cache import LRUCache
from repro.hw.config import HWConfig
from repro.hw.schedule import LayerWork, RoundPlan, Schedule, SubAllocation
from repro.hw.systolic import SystolicModel

__all__ = [
    "balanced_split",
    "pack_filter_groups",
    "build_schedule",
    "optimize_layer",
    "optimize_layers",
]


#: Solved layer schedules kept per process (a fixed bound: one entry per
#: lowered layer and hardware configuration).
_SCHEDULE_MEMO_SIZE = 1024
_schedule_memo = LRUCache(maxsize=_SCHEDULE_MEMO_SIZE)


def _check_model(model: SystolicModel | None, hw: HWConfig) -> SystolicModel:
    """The model that ranks candidates; it must describe ``hw`` itself."""
    if model is None:
        return SystolicModel(hw)
    if model.hw != hw:
        raise ValueError(
            f"model is built for {model.hw!r}, but the schedule is "
            f"searched for {hw!r}"
        )
    return model


def _own(sched: Schedule) -> Schedule:
    """A caller-owned copy: fresh lists over the shared frozen rounds."""
    return replace(sched, rounds=list(sched.rounds), counts=list(sched.counts))


def balanced_split(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` non-negative chunks differing by <= 1."""
    if parts < 1:
        raise ValueError("parts must be positive")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _geometric_candidates(limit: int) -> list[int]:
    """1, 2, 4, ... up to and including ``limit``."""
    out = []
    v = 1
    while v < limit:
        out.append(v)
        v *= 2
    out.append(limit)
    return sorted(set(out))


@dataclass(frozen=True)
class _TileGeometry:
    """Resolved tile extents for one (row, col, ic) grid choice.

    Tiles are stored as equivalence classes: a balanced split yields at
    most two distinct shares per sub-convolution, so a grid of any size
    collapses to a handful of ``(per-sub shares, resident extent,
    multiplicity)`` classes.  The first class always contains tile 0.
    """

    n_row_tiles: int
    n_col_tiles: int
    n_ic_chunks: int
    # (per-sub out extent tuple, resident ifmap extent, count), in tile order
    row_classes: tuple[tuple[tuple[int, ...], int, int], ...]
    col_classes: tuple[tuple[tuple[int, ...], int, int], ...]
    ic_chunks: tuple[int, ...]

    @property
    def max_tile_rows(self) -> int:
        return max(c[1] for c in self.row_classes)

    @property
    def max_tile_cols(self) -> int:
        return max(c[1] for c in self.col_classes)

    @property
    def max_tile_elems_per_channel(self) -> int:
        return self.max_tile_rows * self.max_tile_cols

    def max_share(self, axis: str, k: int) -> int:
        classes = self.row_classes if axis == "rows" else self.col_classes
        return max(c[0][k] for c in classes)


def _axis_classes(layer: LayerWork, n_tiles: int, axis: str):
    """Equivalence classes of a balanced split along one axis."""
    if axis == "rows":
        totals = [s.out_rows for s in layer.subconvs]
        need = [s.rows_for for s in layer.subconvs]
        cap = layer.ifmap_rows
    else:
        totals = [s.out_cols for s in layer.subconvs]
        need = [s.cols_for for s in layer.subconvs]
        cap = layer.ifmap_cols
    bases = [t // n_tiles for t in totals]
    extras = [t % n_tiles for t in totals]
    # class boundaries: tiles j < extra_k get base_k + 1
    bounds = sorted({0, n_tiles, *extras})
    classes = []
    for lo, hi in zip(bounds, bounds[1:]):
        shares = tuple(
            bases[k] + (1 if lo < extras[k] else 0) for k in range(len(totals))
        )
        resident = min(cap, max(f(s) for f, s in zip(need, shares)))
        classes.append((shares, resident, hi - lo))
    return tuple(classes)


def _resolve_tiles(layer: LayerWork, n_row: int, n_col: int, n_ic: int) -> _TileGeometry:
    return _TileGeometry(
        n_row_tiles=n_row,
        n_col_tiles=n_col,
        n_ic_chunks=n_ic,
        row_classes=_axis_classes(layer, n_row, "rows"),
        col_classes=_axis_classes(layer, n_col, "cols"),
        ic_chunks=tuple(balanced_split(layer.in_channels, n_ic)),
    )


def pack_filter_groups(
    layer: LayerWork,
    capacity_bytes: int,
    weight_cost_per_filter: list[int],
    psum_cost_per_filter: list[int],
    value_per_filter: list[int],
) -> list[tuple[int, ...]]:
    """Iterated greedy-DP knapsack over filters (paper's solver).

    Returns a list of *groups*; each group is a per-sub-conv filter
    count tuple.  Every filter appears in exactly one group.  Within a
    group, the total footprint (weights + partial sums) fits
    ``capacity_bytes``.
    """
    n_subs = len(layer.subconvs)
    remaining = [s.filters for s in layer.subconvs]
    cost = [weight_cost_per_filter[k] + psum_cost_per_filter[k] for k in range(n_subs)]
    if capacity_bytes < min(cost):
        raise ValueError(
            f"{layer.name}: no single filter fits the remaining buffer "
            f"({capacity_bytes} B < {min(cost)} B)"
        )

    # discretise capacity so the DP stays small; ceil keeps it safe
    scale = max(1, capacity_bytes // 2048)
    cap = capacity_bytes // scale
    scaled = [max(1, math.ceil(c / scale)) for c in cost]

    groups: list[tuple[int, ...]] = []
    while any(remaining):
        take = _bounded_knapsack(cap, scaled, value_per_filter, remaining)
        if not any(take):
            # capacity fits some filter type but DP chose nothing only if
            # every remaining type is too large — force smallest
            k = min(
                (k for k in range(n_subs) if remaining[k]),
                key=lambda k: scaled[k],
            )
            if scaled[k] > cap:
                raise ValueError(f"{layer.name}: filter of sub {k} cannot fit")
            take = [0] * n_subs
            take[k] = 1
        groups.append(tuple(take))
        for k in range(n_subs):
            remaining[k] -= take[k]
    return groups


def _bounded_knapsack(cap, weights, values, counts):
    """Maximise value under ``cap`` with per-type counts.

    Greedy pre-pass in decreasing item size (the paper's 'prioritise
    filters from large sub-kernels'), then a DP refinement over the
    residual capacity using binary-split bounded items.
    """
    n = len(weights)
    take = [0] * n
    # greedy: large sub-kernels (heavier filters) first
    order = sorted(range(n), key=lambda k: -weights[k])
    room = cap
    for k in order:
        if counts[k] == 0 or weights[k] == 0:
            continue
        fit = min(counts[k], room // weights[k])
        take[k] = fit
        room -= fit * weights[k]
    if room == 0:
        return take
    # DP refinement on what is still unscheduled, over the residual room
    items = []
    for k in range(n):
        rem = counts[k] - take[k]
        mult = 1
        while rem > 0:
            use = min(mult, rem)
            items.append((k, use, weights[k] * use, values[k] * use))
            rem -= use
            mult *= 2
    best = [0] * (room + 1)
    # choice[r]: the items behind best[r]; filled only where best[r]
    # improves, an absent entry is the empty pick
    choice: dict[int, dict[int, int]] = {}
    for k, use, w, v in items:
        if w > room:
            continue
        for r in range(room, w - 1, -1):
            cand = best[r - w] + v
            if cand > best[r]:
                best[r] = cand
                picked = dict(choice.get(r - w, ()))
                picked[k] = picked.get(k, 0) + use
                choice[r] = picked
    for k, cnt in choice.get(room, {}).items():
        take[k] += cnt
    return take


def _runs(values) -> list[tuple[object, int]]:
    """Run-length encode a sequence (order preserved)."""
    out = []
    for v in values:
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return [(v, n) for v, n in out]


def build_schedule(
    layer: LayerWork,
    hw: HWConfig,
    n_row_tiles: int,
    n_col_tiles: int,
    n_ic_chunks: int,
    groups: list[tuple[int, ...]],
    weight_resident: bool,
    label: str = "",
) -> Schedule:
    """Materialise the round sequence for one tiling choice.

    ``weight_resident`` is the β of Eq. 7: when True, each filter
    group's weights stay in the buffer while ifmap tiles stream past
    (loop order group → tile → ic-chunk); when False the ifmap tile is
    the resident operand and weights stream (tile → group → ic-chunk).

    Rounds are aggregated combinatorially: the balanced splits produce
    at most two distinct row shares, two column shares, two ic-chunk
    widths and a handful of distinct filter groups, so the schedule is
    emitted as O(classes) :class:`RoundPlan` entries with
    multiplicities rather than one object per round.
    """
    geom = _resolve_tiles(layer, n_row_tiles, n_col_tiles, n_ic_chunks)
    return _build_schedule(layer, geom, groups, weight_resident, label)


def _build_schedule(
    layer: LayerWork,
    geom: _TileGeometry,
    groups: list[tuple[int, ...]],
    weight_resident: bool,
    label: str,
) -> Schedule:
    """:func:`build_schedule` on an already resolved tile geometry."""
    subs = layer.subconvs
    n_subs = len(subs)

    # equivalence classes along each loop axis: ((shares, resident), count)
    row_classes = [((sh, res), n) for sh, res, n in geom.row_classes]
    col_classes = [((sh, res), n) for sh, res, n in geom.col_classes]
    # ic chunks: all but the last are interchangeable; the last stores
    ic_body = _runs(geom.ic_chunks[:-1])
    ic_last = geom.ic_chunks[-1]
    group_classes = _runs(groups)

    def weights_elems(group, ic):
        return sum(subs[k].taps * ic * group[k] for k in range(n_subs))

    def make_plan(rk, ck, group, ic, is_last_chunk, ifmap_loaded, w_load, w_res):
        (r_shares, t_rows), (c_shares, t_cols) = rk, ck
        allocs = tuple(
            SubAllocation(
                sub_index=k,
                filters=group[k],
                out_rows=r_shares[k],
                out_cols=c_shares[k],
                in_channels=ic,
            )
            for k in range(n_subs)
        )
        psum = sum(
            group[k] * r_shares[k] * c_shares[k] for k in range(n_subs)
        )
        ifmap_elems = t_rows * t_cols * ic
        return RoundPlan(
            allocations=allocs,
            ifmap_resident_elems=ifmap_elems,
            ifmap_loads_elems=ifmap_elems if ifmap_loaded else 0,
            weight_resident_elems=w_res,
            weight_loads_elems=w_load,
            psum_resident_elems=psum,
            output_store_elems=psum if is_last_chunk else 0,
        )

    sched = Schedule(layer=layer, rounds=[], counts=[], label=label)

    def ic_iter():
        """(ic, count, is_last) classes of the chunk loop."""
        for ic, n in ic_body:
            yield ic, n, False
        yield ic_last, 1, True

    if weight_resident:
        # loop order: group -> tile -> chunk; weights loaded at first tile
        first_rk, first_ck = row_classes[0][0], col_classes[0][0]
        for group, g_count in group_classes:
            w_res = weights_elems(group, layer.in_channels)
            for ic, q_count, is_last in ic_iter():
                w_load = weights_elems(group, ic)
                # the first tile of each group instance loads this chunk's
                # weights; every other tile re-streams the ifmap only
                sched.add(
                    make_plan(first_rk, first_ck, group, ic, is_last,
                              True, w_load, w_res),
                    g_count * q_count,
                )
                for i_r, (rk, r_count) in enumerate(row_classes):
                    for i_c, (ck, c_count) in enumerate(col_classes):
                        tiles = r_count * c_count
                        if i_r == 0 and i_c == 0:
                            tiles -= 1  # first tile emitted above
                        if tiles <= 0:
                            continue
                        sched.add(
                            make_plan(rk, ck, group, ic, is_last,
                                      True, 0, w_res),
                            g_count * q_count * tiles,
                        )
    else:
        # loop order: tile -> group -> chunk; ifmap chunk resident across
        # groups only when not swapped out by ic-chunking
        for rk, r_count in row_classes:
            for ck, c_count in col_classes:
                tiles = r_count * c_count
                for gi, (group, g_count) in enumerate(_runs(groups)):
                    for ic, q_count, is_last in ic_iter():
                        w = weights_elems(group, ic)
                        if geom.n_ic_chunks > 1:
                            sched.add(
                                make_plan(rk, ck, group, ic, is_last,
                                          True, w, w),
                                tiles * g_count * q_count,
                            )
                        elif gi == 0:
                            # first group instance loads the tile once
                            sched.add(
                                make_plan(rk, ck, group, ic, is_last,
                                          True, w, w),
                                tiles,
                            )
                            if g_count > 1:
                                sched.add(
                                    make_plan(rk, ck, group, ic, is_last,
                                              False, w, w),
                                    tiles * (g_count - 1),
                                )
                        else:
                            sched.add(
                                make_plan(rk, ck, group, ic, is_last,
                                          False, w, w),
                                tiles * g_count,
                            )
    return sched


def _candidate_grids(layer: LayerWork, hw: HWConfig):
    """Enumerate the tile geometries worth evaluating."""
    max_rows = max(s.out_rows for s in layer.subconvs)
    max_cols = max(s.out_cols for s in layer.subconvs)
    rows = _geometric_candidates(max_rows)
    cols = [c for c in _geometric_candidates(max_cols) if c <= 16]
    ics = _geometric_candidates(layer.in_channels)
    cap = hw.usable_buffer_bytes
    bpe = hw.bytes_per_elem
    for n_col in cols:
        for n_ic in ics:
            for n_row in rows:
                geom = _resolve_tiles(layer, n_row, n_col, n_ic)
                chunk = (
                    geom.max_tile_elems_per_channel * max(geom.ic_chunks) * bpe
                )
                if chunk < cap:  # leave room for >= one filter
                    yield geom


def optimize_layer(
    layer: LayerWork,
    hw: HWConfig,
    model: SystolicModel | None = None,
    max_candidates: int = 64,
    beta_choices: tuple[bool, ...] = (False, True),
) -> Schedule:
    """Best-latency schedule for one layer group (ties broken by DRAM
    traffic, mirroring the paper's latency-first objective).

    ``beta_choices`` restricts the reuse-order variable of Eq. 7 — the
    default explores both orders; passing a single value ablates the
    choice (used by the scheduler-ablation study).  ``model`` must be
    built for ``hw``; a mismatch raises :class:`ValueError`.

    The search runs once per process for equal inputs (a ``model``
    that is a :class:`SystolicModel` subclass bypasses the memo), and
    every call returns a schedule of its own:

    >>> from repro.deconv import lower_conv
    >>> from repro.hw import ASV_BASE
    >>> from repro.nn.workload import ConvSpec
    >>> layer = lower_conv(ConvSpec("doc", 8, 8, (3, 3), (16, 24), (1, 1), (1, 1)))
    >>> searches = _schedule_memo.cache_info().misses
    >>> first = optimize_layer(layer, ASV_BASE)
    >>> again = optimize_layer(layer, ASV_BASE)
    >>> _schedule_memo.cache_info().misses - searches
    1
    >>> again.to_dict() == first.to_dict() and again is not first
    True
    """
    model = _check_model(model, hw)
    beta = tuple(beta_choices)

    def search() -> Schedule:
        return _search_layer(layer, hw, model, max_candidates, beta)

    if type(model) is not SystolicModel:
        return search()
    key = (layer, hw, max_candidates, beta)
    return _own(_schedule_memo.get_or_create(key, search))


def _search_layer(
    layer: LayerWork,
    hw: HWConfig,
    model: SystolicModel,
    max_candidates: int,
    beta_choices: tuple[bool, ...],
) -> Schedule:
    """The un-memoized tiling search behind :func:`optimize_layer`."""
    bpe = hw.bytes_per_elem
    cap = hw.usable_buffer_bytes
    n_subs = len(layer.subconvs)
    value = [
        s.taps * layer.in_channels * s.out_rows * s.out_cols
        for s in layer.subconvs
    ]
    best = None
    best_key = None
    seen = 0
    for geom in _candidate_grids(layer, hw):
        ifmap_bytes = geom.max_tile_elems_per_channel * max(geom.ic_chunks) * bpe
        budget = cap - ifmap_bytes
        if budget <= 0:
            continue
        max_r = [geom.max_share("rows", k) for k in range(n_subs)]
        max_c = [geom.max_share("cols", k) for k in range(n_subs)]
        p_cost = [max_r[k] * max_c[k] * bpe for k in range(n_subs)]
        for weight_resident in beta_choices:
            ic_for_cost = (
                layer.in_channels if weight_resident else max(geom.ic_chunks)
            )
            w_cost = [s.taps * ic_for_cost * bpe for s in layer.subconvs]
            try:
                groups = pack_filter_groups(layer, budget, w_cost, p_cost, value)
                sched = _build_schedule(
                    layer, geom, groups, weight_resident,
                    label=f"r{geom.n_row_tiles}c{geom.n_col_tiles}"
                    f"i{geom.n_ic_chunks}b{int(weight_resident)}",
                )
                sched.validate(hw)
            except ValueError:
                continue
            result = model.run_schedule(sched, validate=False)
            key = (result.cycles, result.dram_bytes)
            if best_key is None or key < best_key:
                best, best_key = sched, key
        seen += 1
        if seen >= max_candidates and best is not None:
            break
    if best is None:
        raise ValueError(f"{layer.name}: no feasible schedule on {hw.name}")
    return best


def optimize_layers(
    layers, hw: HWConfig, model: SystolicModel | None = None
) -> list[Schedule]:
    """Optimize a lowered network layer by layer (layer-wise execution)."""
    model = _check_model(model, hw)
    return [optimize_layer(l, hw, model) for l in layers]
