"""Tests for lowering, the tiling optimizer and the static baseline."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.deconv import (
    balanced_split,
    best_static_partition,
    exhaustive,
    lower_conv,
    lower_naive_deconv,
    lower_network,
    lower_spec,
    lower_transformed,
    optimize_layer,
    optimize_layers,
    optimizer,
    pack_filter_groups,
    schedule_with_partition,
)
from repro.deconv.exhaustive import Partition
from repro.hw import ASV_BASE, SystolicModel
from repro.models.stereo_networks import network_specs
from repro.nn.workload import ConvSpec

HW = ASV_BASE
MODEL = SystolicModel(HW)


def conv_spec(**kw):
    base = dict(
        name="conv",
        in_channels=32,
        out_channels=64,
        kernel=(3, 3),
        input_size=(64, 96),
        stride=(1, 1),
        padding=(1, 1),
    )
    base.update(kw)
    return ConvSpec(**base)


def deconv_spec(**kw):
    base = dict(
        name="deconv",
        in_channels=64,
        out_channels=32,
        kernel=(4, 4),
        input_size=(32, 48),
        stride=(2, 2),
        padding=(1, 1),
        deconv=True,
        stage="DR",
    )
    base.update(kw)
    return ConvSpec(**base)


class TestBalancedSplit:
    def test_even(self):
        assert balanced_split(12, 3) == [4, 4, 4]

    def test_uneven(self):
        assert balanced_split(13, 3) == [5, 4, 4]

    def test_more_parts_than_items(self):
        assert balanced_split(2, 4) == [1, 1, 0, 0]

    @settings(max_examples=50, deadline=None)
    @given(total=st.integers(0, 10_000), parts=st.integers(1, 64))
    def test_properties(self, total, parts):
        split = balanced_split(total, parts)
        assert sum(split) == total
        assert len(split) == parts
        assert max(split) - min(split) <= 1


class TestLowering:
    def test_conv_lowering(self):
        work = lower_conv(conv_spec())
        assert len(work.subconvs) == 1
        assert work.total_macs == conv_spec().macs
        assert work.ifmap_elems == conv_spec().ifmap_elems
        assert work.ofmap_elems == conv_spec().ofmap_elems

    def test_conv_lowering_rejects_deconv(self):
        with pytest.raises(ValueError):
            lower_conv(deconv_spec())

    def test_naive_deconv_pays_dense_macs(self):
        spec = deconv_spec()
        work = lower_naive_deconv(spec)
        assert work.total_macs == spec.macs  # zero-stuffed dense count

    def test_naive_deconv_ifmap_includes_zeros(self):
        spec = deconv_spec()
        work = lower_naive_deconv(spec)
        assert work.ifmap_elems == spec.in_channels * math.prod(spec.upsampled_size)
        assert work.ifmap_elems > spec.ifmap_elems

    def test_transformed_macs_match_effective(self):
        spec = deconv_spec()
        (group,) = lower_transformed(spec, ilar=True)
        assert group.total_macs == spec.macs_effective
        assert len(group.subconvs) == 4

    def test_transformed_no_ilar_splits_groups(self):
        spec = deconv_spec()
        works = lower_transformed(spec, ilar=False)
        assert len(works) == 4
        assert sum(w.total_macs for w in works) == spec.macs_effective

    def test_transformed_output_preserved(self):
        spec = deconv_spec()
        (group,) = lower_transformed(spec)
        assert group.ofmap_elems == spec.ofmap_elems

    def test_3d_lowering_flattens_rows(self):
        spec = ConvSpec(
            "c3", 16, 16, (3, 3, 3), (8, 24, 32), (1, 1, 1), (1, 1, 1)
        )
        work = lower_conv(spec)
        assert work.ifmap_rows == 8 * 24
        assert work.ifmap_cols == 32
        assert work.total_macs == spec.macs

    def test_lower_network_mixes(self):
        specs = [conv_spec(), deconv_spec()]
        assert len(lower_network(specs, transform=True, ilar=True)) == 2
        assert len(lower_network(specs, transform=True, ilar=False)) == 5
        assert len(lower_network(specs, transform=False)) == 2


class TestKnapsack:
    def test_all_filters_scheduled(self):
        layer = lower_transformed(deconv_spec())[0]
        w_cost = [s.taps * layer.in_channels * 2 for s in layer.subconvs]
        p_cost = [64 for _ in layer.subconvs]
        value = [s.taps * layer.in_channels * s.out_rows * s.out_cols
                 for s in layer.subconvs]
        groups = pack_filter_groups(layer, 200_000, w_cost, p_cost, value)
        for k, sub in enumerate(layer.subconvs):
            assert sum(g[k] for g in groups) == sub.filters

    def test_capacity_respected(self):
        layer = lower_transformed(deconv_spec())[0]
        w_cost = [s.taps * layer.in_channels * 2 for s in layer.subconvs]
        p_cost = [64 for _ in layer.subconvs]
        value = [1 for _ in layer.subconvs]
        cap = 8_000
        groups = pack_filter_groups(layer, cap, w_cost, p_cost, value)
        for g in groups:
            used = sum(
                g[k] * (w_cost[k] + p_cost[k]) for k in range(len(g))
            )
            assert used <= cap

    def test_too_small_capacity_raises(self):
        layer = lower_transformed(deconv_spec())[0]
        w_cost = [10_000 for _ in layer.subconvs]
        p_cost = [0 for _ in layer.subconvs]
        value = [1 for _ in layer.subconvs]
        with pytest.raises(ValueError):
            pack_filter_groups(layer, 100, w_cost, p_cost, value)

    def test_prefers_fewer_groups_with_more_room(self):
        layer = lower_transformed(deconv_spec())[0]
        w_cost = [s.taps * layer.in_channels * 2 for s in layer.subconvs]
        p_cost = [64 for _ in layer.subconvs]
        value = [s.taps for s in layer.subconvs]
        small = pack_filter_groups(layer, 20_000, w_cost, p_cost, value)
        large = pack_filter_groups(layer, 400_000, w_cost, p_cost, value)
        assert len(large) <= len(small)


    @settings(max_examples=200, deadline=None)
    @given(
        cap=st.integers(1, 400),
        items=st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 100), st.integers(0, 20)),
            min_size=1, max_size=4,
        ),
    )
    def test_lazy_choice_table_matches_eager_reference(self, cap, items):
        weights, values, counts = (list(col) for col in zip(*items))
        assert optimizer._bounded_knapsack(cap, weights, values, counts) == (
            _eager_knapsack(cap, weights, values, counts)
        )


def _eager_knapsack(cap, weights, values, counts):
    """``_bounded_knapsack`` with its choice table built up front: the
    reference the lazily filled table must match."""
    n = len(weights)
    take = [0] * n
    room = cap
    for k in sorted(range(n), key=lambda k: -weights[k]):
        if counts[k] == 0 or weights[k] == 0:
            continue
        fit = min(counts[k], room // weights[k])
        take[k] = fit
        room -= fit * weights[k]
    if room == 0:
        return take
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
    choice = [dict() for _ in range(room + 1)]
    for k, use, w, v in items:
        if w > room:
            continue
        for r in range(room, w - 1, -1):
            cand = best[r - w] + v
            if cand > best[r]:
                best[r] = cand
                picked = dict(choice[r - w])
                picked[k] = picked.get(k, 0) + use
                choice[r] = picked
    for k, cnt in choice[room].items():
        take[k] += cnt
    return take


class TestOptimizer:
    def test_schedule_valid_for_conv(self):
        work = lower_conv(conv_spec())
        sched = optimize_layer(work, HW, MODEL)
        sched.validate(HW)
        assert sched.total_macs == work.total_macs

    def test_schedule_valid_for_transformed_deconv(self):
        (work,) = lower_transformed(deconv_spec())
        sched = optimize_layer(work, HW, MODEL)
        sched.validate(HW)

    def test_transformed_beats_naive_by_stride_squared(self):
        spec = deconv_spec(in_channels=128, out_channels=128)
        naive = optimize_layer(lower_naive_deconv(spec), HW, MODEL)
        (t,) = lower_transformed(spec)
        trans = optimize_layer(t, HW, MODEL)
        speedup = MODEL.run_schedule(naive).cycles / MODEL.run_schedule(trans).cycles
        assert 3.0 < speedup < 5.0  # ~4x for 2-D stride 2, compute bound

    def test_3d_transformed_speedup_near_8x(self):
        spec = ConvSpec(
            "d3", 32, 16, (3, 3, 3), (12, 34, 60), (2, 2, 2), (1, 1, 1),
            deconv=True,
        )
        naive = optimize_layer(lower_naive_deconv(spec), HW, MODEL)
        (t,) = lower_transformed(spec)
        trans = optimize_layer(t, HW, MODEL)
        speedup = MODEL.run_schedule(naive).cycles / MODEL.run_schedule(trans).cycles
        assert 6.0 < speedup < 10.0

    def test_ilar_reduces_dram_traffic_vs_convr(self):
        """The unique ILAR claim: sharing the ifmap across sub-convs cuts
        DRAM traffic when the ifmap dominates."""
        spec = deconv_spec(
            in_channels=32, out_channels=32, input_size=(128, 192)
        )
        (ilar,) = lower_transformed(spec, ilar=True)
        convr = lower_transformed(spec, ilar=False)
        r_ilar = MODEL.run_schedule(optimize_layer(ilar, HW, MODEL))
        r_convr = [
            MODEL.run_schedule(optimize_layer(w, HW, MODEL)) for w in convr
        ]
        assert r_ilar.dram_bytes < sum(r.dram_bytes for r in r_convr)

    def test_optimized_never_slower_than_static(self):
        work = lower_conv(conv_spec())
        part = Partition(256 * 1024, 256 * 1024, 256 * 1024)
        static = schedule_with_partition(work, HW, part, MODEL)
        opt = optimize_layer(work, HW, MODEL)
        assert (
            MODEL.run_schedule(opt).cycles
            <= MODEL.run_schedule(static).cycles
        )

    def test_huge_layer_schedulable(self):
        """A 3-D cost-volume layer far larger than the buffer must still
        find a feasible schedule via ic-chunking + tiling."""
        spec = ConvSpec(
            "cv", 64, 64, (3, 3, 3), (48, 135, 240), (1, 1, 1), (1, 1, 1)
        )
        work = lower_conv(spec)
        assert work.ifmap_elems * HW.bytes_per_elem > HW.buffer_bytes
        sched = optimize_layer(work, HW, MODEL)
        sched.validate(HW)

    def test_infeasible_hardware_raises(self):
        """A kernel whose single-channel receptive field exceeds the
        usable buffer cannot be tiled at all."""
        tiny = HW.with_resources(buffer_bytes=8 * 1024, bank_bytes=4 * 1024)
        spec = ConvSpec("fat", 4, 4, (48, 48), (48, 48), (1, 1), (0, 0))
        work = lower_conv(spec)
        with pytest.raises(ValueError):
            optimize_layer(work, tiny, SystolicModel(tiny))


class TestStaticPartitionBaseline:
    def _network(self):
        return lower_network(
            [
                conv_spec(name="c1"),
                conv_spec(name="c2", in_channels=64, out_channels=64,
                          input_size=(32, 48)),
                deconv_spec(name="d1"),
            ],
            transform=False,
        )

    def test_partition_requires_positive_sections(self):
        with pytest.raises(ValueError):
            Partition(0, 1024, 1024)

    def test_best_partition_schedules_all_layers(self):
        layers = self._network()
        part, scheds = best_static_partition(layers, HW, MODEL)
        assert len(scheds) == len(layers)
        for s in scheds:
            s.validate(HW)
        assert part.total <= HW.usable_buffer_bytes

    def test_same_partition_used_for_all_layers(self):
        layers = self._network()
        part, scheds = best_static_partition(layers, HW, MODEL)
        for s in scheds:
            assert repr(part) in s.label

    def test_partition_none_when_layer_cannot_fit(self):
        spec = ConvSpec("big", 512, 512, (3, 3), (2048, 2048), (1, 1), (1, 1))
        work = lower_conv(spec)
        tiny_part = Partition(8 * 1024, 4 * 1024, 4 * 1024)
        assert schedule_with_partition(work, HW, tiny_part, MODEL) is None


class TestModelMismatch:
    """A model built for other hardware would rank candidates by the
    wrong latency model, so every search entry point fails closed."""

    OTHER = SystolicModel(HW.with_resources(pe_rows=12, pe_cols=12))

    def test_optimize_layer(self):
        with pytest.raises(ValueError, match="model is built for"):
            optimize_layer(lower_conv(conv_spec()), HW, self.OTHER)

    def test_optimize_layers(self):
        with pytest.raises(ValueError, match="model is built for"):
            optimize_layers([lower_conv(conv_spec())], HW, self.OTHER)

    def test_schedule_with_partition(self):
        part = Partition(256 * 1024, 256 * 1024, 256 * 1024)
        with pytest.raises(ValueError, match="model is built for"):
            schedule_with_partition(lower_conv(conv_spec()), HW, part, self.OTHER)

    def test_best_static_partition(self):
        with pytest.raises(ValueError, match="model is built for"):
            best_static_partition([lower_conv(conv_spec())], HW, self.OTHER)


#: SHA-256 of ``repr(network_result("DispNet", mode, PIN_SIZE).layers)``,
#: recorded from the search before it was memoized
PIN_SIZE = (68, 120)
PINNED_RESULTS = {
    ("systolic", "baseline"): "29f326a05ee6a64eb8e51e030e31c1cfba8ee61e6bdd18e5a7835460f4152b0f",
    ("systolic", "dct"): "9cd8c64b1a8676c54bb1eacf511248e09485640bab69469b7ec361ef591bdf86",
    ("systolic", "convr"): "535320f3d6610ef4b969fbca21926437ffed63052c9a42b0ce66acbebc6a28e5",
    ("systolic", "ilar"): "7479cbc68e929b9fe6920a39f368927c2cbc13bfe97ae8fd017cb698c98a0f45",
    ("eyeriss", "baseline"): "d3ac3eca632b673c6c41e446672f1602a040ccbe7fad327c961020a31cf9b36f",
    ("eyeriss", "dct"): "166a563296c5fa00329bce178430a037e03fd086a2bf36529df144c20059adda",
}
#: SHA-256 of the JSON of DispNet's ILAR schedules at ``PIN_SIZE``
PINNED_ILAR_SCHEDULES = "27b01434c85ae0d31c09e1b309769ef2847b76ff5c3de8cf17af5b1f3fcbd649"


class TestPinnedSchedules:
    @staticmethod
    def _digests():
        def sha(text):
            return hashlib.sha256(text.encode()).hexdigest()

        results = {
            (name, mode): sha(repr(
                get_backend(name).network_result("DispNet", mode, PIN_SIZE).layers
            ))
            for name, mode in PINNED_RESULTS
        }
        layers = lower_network(
            network_specs("DispNet", PIN_SIZE), transform=True, ilar=True
        )
        schedules = sha(json.dumps([s.to_dict() for s in optimize_layers(layers, HW)]))
        return results, schedules

    def test_cold_and_warm_passes_match_the_pins(self):
        optimizer._schedule_memo.clear()
        exhaustive._partition_memo.clear()
        cold = self._digests()
        assert cold == (PINNED_RESULTS, PINNED_ILAR_SCHEDULES)
        assert self._digests() == cold
