"""Tests for the Fig. 5 performance model."""

import pytest

from repro.core import naming
from repro.ir import workloads
from repro.perf.model import ArrayConfig, PerfModel


@pytest.fixture(scope="module")
def model():
    return PerfModel(ArrayConfig(rows=16, cols=16))


def evaluate_named(model, statement, name):
    """The single-entry-point spelling of the old ``evaluate_named``."""
    return model.evaluate(naming.spec_from_name(statement, name))


@pytest.fixture(scope="module")
def gemm():
    return workloads.gemm(256, 256, 256)


class TestArrayConfig:
    def test_paper_setup(self):
        cfg = ArrayConfig()
        assert cfg.pes == 256
        # 32 GB/s at 320 MHz = 100 bytes/cycle = 50 INT16 elements
        assert cfg.bytes_per_cycle == 100.0
        assert cfg.elements_per_cycle == 50.0

    def test_valid_fields_are_accepted(self):
        cfg = ArrayConfig(rows=1, cols=3, freq_mhz=100, onchip_bw_gbps=0.5, dtype_bytes=1)
        assert cfg.elements_per_cycle == 5.0

    @pytest.mark.parametrize(
        "field, exc",
        [
            ({"rows": 0}, ValueError),
            ({"cols": -4}, ValueError),
            ({"dtype_bytes": 0}, ValueError),
            ({"freq_mhz": 0}, ValueError),
            ({"onchip_bw_gbps": 0.0}, ValueError),
            ({"freq_mhz": float("nan")}, ValueError),
            ({"onchip_bw_gbps": float("inf")}, ValueError),
            ({"rows": True}, TypeError),
            ({"dtype_bytes": 2.0}, TypeError),
            ({"freq_mhz": True}, TypeError),
            ({"onchip_bw_gbps": "32"}, TypeError),
        ],
    )
    def test_bad_fields_raise_at_construction(self, field, exc):
        with pytest.raises(exc, match=next(iter(field))):
            ArrayConfig(**field)


class TestBasicInvariants:
    def test_normalized_at_most_one(self, model, gemm):
        for name in ["MNK-SST", "MNK-MTM", "MNK-STS", "MNK-SSS"]:
            r = evaluate_named(model, gemm, name)
            assert 0.0 < r.normalized <= 1.0

    def test_peak_cycles(self, model, gemm):
        r = evaluate_named(model, gemm, "MNK-SST")
        assert r.peak_cycles == gemm.macs() / 256

    def test_cycles_at_least_peak(self, model, gemm):
        for name in ["MNK-SST", "MNK-MTM", "MNK-TSS"]:
            r = evaluate_named(model, gemm, name)
            assert r.cycles >= r.peak_cycles * 0.999


class TestPaperFindings:
    """Qualitative claims of paper §VI-A, one test each."""

    def test_multicast_beats_systolic_gemm(self, model, gemm):
        """'the performance of multicast dataflows (MTM) is better than
        systolic dataflow' — smaller pipeline overhead."""
        mtm = evaluate_named(model, gemm, "MNK-MTM")
        sst = evaluate_named(model, gemm, "MNK-SST")
        assert mtm.normalized > sst.normalized

    def test_systolic_skew_shrinks_with_longer_time_loop(self, model):
        small = evaluate_named(model, workloads.gemm(64, 64, 64), "MNK-SST")
        large = evaluate_named(model, workloads.gemm(64, 64, 1024), "MNK-SST")
        assert large.normalized > small.normalized

    def test_batched_gemv_bandwidth_bound(self, model):
        """Unicast A makes Batched-GEMV bandwidth-bound (~5x stall)."""
        bg = workloads.batched_gemv(64, 256, 256)
        r = evaluate_named(model, bg, "MNK-UST")
        assert r.bandwidth_stall > 4.0
        assert r.normalized < 0.25

    def test_unicast_worse_than_reuse_dataflows_mttkrp(self, model):
        mt = workloads.mttkrp(64, 64, 64, 64)
        unicast = evaluate_named(model, mt, "IKL-UBBB")
        reuse = evaluate_named(model, mt, "IJK-SSBT")
        assert unicast.normalized < reuse.normalized

    def test_small_kernel_loops_waste_pes(self, model):
        """Selecting p (extent 3) spatially uses 15/16 rows (packed)."""
        conv = workloads.conv2d(k=64, c=64, y=56, x=56, p=3, q=3)
        spec = naming.spec_from_name(conv, "XPQ-MMT")
        r = model.evaluate(spec)
        assert r.utilization < 1.0
        assert r.utilization >= 15 / 16 * 0.9

    def test_resnet_layer5_worse_than_layer2_for_xy_dataflows(self, model):
        """x = y = 7 cannot fill a 16-wide array (paper Fig. 5f vs 5g)."""
        l2 = naming.spec_from_name(workloads.conv2d_resnet_layer2(), "XYP-MST")
        l5 = naming.spec_from_name(workloads.conv2d_resnet_layer5(), "XYP-MST")
        r2, r5 = model.evaluate(l2), model.evaluate(l5)
        assert r5.utilization < r2.utilization

    def test_kcx_best_for_conv(self, model):
        """'selecting KCX iterations can deliver better performance because
        it becomes standard GEMM with large loop bounds'."""
        layer = workloads.conv2d_resnet_layer2()
        score = lambda s: model.evaluate(s).normalized
        kcx = naming.best_spec_from_name(layer, "KCX-SST", score)
        xyp = naming.best_spec_from_name(layer, "XYP-MST", score)
        assert model.evaluate(kcx).normalized > model.evaluate(xyp).normalized

    def test_communication_delay_dominates_short_stages(self, model):
        """KPX-MST-style dataflows idle on communication when the execution
        window is small (paper §VI-A)."""
        conv = workloads.conv2d_resnet_layer5()
        spec = naming.spec_from_name(conv, "KPX-MST")
        r = model.evaluate(spec)
        assert r.breakdown["skew"] > r.breakdown["exec"] * 0.3
        assert r.normalized < 0.5

    def test_depthwise_multicast_best(self, model):
        """KPX/XYP-MMM-style all-multicast dataflows win for Depthwise."""
        dw = workloads.depthwise_conv(k=64, y=56, x=56, p=3, q=3)
        score = lambda s: model.evaluate(s).normalized
        mmm = naming.best_spec_from_name(dw, "KQX-MMM", score)
        # KXY selects (k, x, y): A and C have full-rank access -> unicast,
        # the paper's bandwidth-bound worst case for this workload.
        unicast = naming.best_spec_from_name(dw, "KXY-UBU", score)
        assert model.evaluate(mmm).normalized > model.evaluate(unicast).normalized


class TestPacking:
    def test_packing_toggle(self):
        conv = workloads.conv2d(k=64, c=64, y=56, x=56, p=3, q=3)
        spec = naming.spec_from_name(conv, "XPQ-MMT")
        packed = PerfModel(ArrayConfig()).evaluate(spec)
        unpacked = PerfModel(ArrayConfig(), allow_packing=False).evaluate(spec)
        assert packed.utilization > unpacked.utilization
        assert packed.cycles < unpacked.cycles


class TestActivePes:
    """The memoized active-PE count equals walking every tile point."""

    @staticmethod
    def brute(space_rows, tile):
        import itertools

        return len(
            {
                tuple(sum(c * v for c, v in zip(row, x)) for row in space_rows)
                for x in itertools.product(*(range(t) for t in tile))
            }
        )

    def test_matches_brute_force(self):
        from repro.perf.model import _active_pes

        for matrix in naming._candidate_matrices(1)[::59]:
            space_rows = matrix[:2]
            for tile in ((1, 1, 1), (16, 16, 1), (4, 3, 5), (2, 16, 7)):
                assert _active_pes(space_rows, tile) == self.brute(space_rows, tile)

    def test_huge_tiles_fall_back_to_the_footprint(self):
        from repro.perf.model import _active_pes

        # 1001 x 1001 relevant points: the count is the box image, not a walk
        assert _active_pes(((1, 0, 0), (0, 1, 0)), (1001, 1001, 3)) == 1001 * 1001
        assert _active_pes(((1, 1, 0), (0, 1, 0)), (1001, 1001, 3)) == 2001 * 1001
