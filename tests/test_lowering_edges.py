"""Edge-case tests for the lowering and model-summary paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deconv.lowering import lower_spec
from repro.deconv.optimizer import build_schedule, optimize_layer, pack_filter_groups
from repro.hw import ASV_BASE, SystolicModel
from repro.models.summary import network_summary, zoo_summary
from repro.nn.ops import avg_pool2d
from repro.nn.workload import ConvSpec

MODEL = SystolicModel(ASV_BASE)


class TestLoweringEdgeCases:
    def test_projection_deconv_1x1_input(self):
        """GAN z-projection: deconv over a 1x1 map (stride 1, pad 0)."""
        spec = ConvSpec("g1", 100, 512, (4, 4), (1, 1), 1, 0, deconv=True)
        (group,) = lower_spec(spec)
        sched = optimize_layer(group, ASV_BASE, MODEL)
        res = MODEL.run_schedule(sched)
        assert res.macs == spec.macs_effective == spec.macs  # stride 1: dense

    def test_one_by_one_kernel_conv(self):
        spec = ConvSpec("pw", 256, 64, (1, 1), (68, 120), 1, 0)
        (layer,) = lower_spec(spec)
        sched = optimize_layer(layer, ASV_BASE, MODEL)
        assert MODEL.run_schedule(sched).macs == spec.macs

    def test_1d_spec_lowers(self):
        spec = ConvSpec("c1d", 8, 16, (5,), (200,), (1,), (2,))
        (layer,) = lower_spec(spec)
        assert layer.ifmap_rows == 1
        assert layer.ifmap_cols == 200
        sched = optimize_layer(layer, ASV_BASE, MODEL)
        assert MODEL.run_schedule(sched).macs == spec.macs

    def test_kernel_smaller_than_stride_deconv(self):
        """k < stride leaves some ofmap positions without any taps —
        the parity classes are empty there and the effective MACs drop
        below 1/s^2 of the dense count."""
        spec = ConvSpec("sparse", 8, 8, (2, 2), (10, 10), 3, 0, deconv=True)
        groups = lower_spec(spec, transform=True, ilar=True)
        total = sum(g.total_macs for g in groups)
        assert total == spec.macs_effective
        assert total < spec.macs / 4

    def test_anisotropic_deconv_lowers(self):
        spec = ConvSpec("a", 16, 8, (4, 2), (12, 20), (2, 1), (1, 0),
                        deconv=True)
        (group,) = lower_spec(spec)
        sched = optimize_layer(group, ASV_BASE, MODEL)
        assert MODEL.run_schedule(sched).macs == spec.macs_effective


class TestBuildScheduleProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        n_row=st.integers(1, 12),
        n_col=st.sampled_from([1, 2, 4]),
        n_ic=st.sampled_from([1, 2, 8]),
        weight_resident=st.booleans(),
    )
    def test_arbitrary_grids_conserve_work(self, n_row, n_col, n_ic, weight_resident):
        """Any grid + any legal filter grouping covers the layer exactly."""
        spec = ConvSpec("d", 16, 12, (4, 4), (24, 40), 2, 1, deconv=True)
        (group,) = lower_spec(spec)
        w_cost = [s.taps * 16 * 2 for s in group.subconvs]
        p_cost = [64] * len(group.subconvs)
        groups = pack_filter_groups(group, 100_000, w_cost, p_cost)
        sched = build_schedule(
            group, ASV_BASE, n_row, n_col, n_ic, groups, weight_resident
        )
        sched.check_complete()  # Eq. 11 for every grid shape

    def test_zero_capacity_rejected(self):
        spec = ConvSpec("d", 16, 12, (4, 4), (24, 40), 2, 1, deconv=True)
        (group,) = lower_spec(spec)
        with pytest.raises(ValueError):
            pack_filter_groups(group, 10, [1000] * 4, [0] * 4)


class TestModelSummaries:
    def test_network_summary_contains_layers(self):
        text = network_summary("FlowNetC", size=(135, 240))
        assert "deconv5" in text and "TOTAL" in text and "GMACs" in text

    def test_gan_summary_by_name(self):
        text = network_summary("DCGAN")
        assert "generator" in text

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            network_summary("NotANet")

    def test_zoo_summary_lists_all(self):
        text = zoo_summary(size=(135, 240))
        for name in ("DispNet", "FlowNetC", "GC-Net", "PSMNet"):
            assert name in text


class TestPoolingStride:
    def test_avg_pool_custom_stride(self):
        x = np.arange(36, dtype=float).reshape(1, 6, 6)
        out = avg_pool2d(x, 2, stride=1)
        assert out.shape == (1, 5, 5)
        assert np.isclose(out[0, 0, 0], np.mean([0, 1, 6, 7]))
