"""Unit tests for the data-copy cost model (step 4)."""

import pytest

from repro.core.datacopy import DataCopyAction, copy_cost
from repro.hardware.memory import MemoryInstance, level


@pytest.fixture
def levels():
    lb = MemoryInstance.sram("LB_IO", 64 * 1024)
    gb = MemoryInstance.sram("GB_IO", 1 << 20)
    dram = MemoryInstance.dram()
    return level(lb, "IO"), level(gb, "IO"), level(dram, "WIO")


def action(elems, src, dst, bits=8):
    return DataCopyAction(elems=elems, bits=bits, src=src, dst=dst)


class TestCopyCost:
    def test_same_instance_is_free(self, levels):
        lb, _gb, _dram = levels
        cost = copy_cost([action(1000, lb, lb)])
        assert cost.energy_pj == 0
        assert cost.latency_cycles == 0

    def test_zero_elems_free(self, levels):
        lb, gb, _ = levels
        cost = copy_cost([action(0, gb, lb)])
        assert cost.energy_pj == 0

    def test_energy_is_read_plus_write(self, levels):
        lb, gb, _ = levels
        cost = copy_cost([action(1000, gb, lb)])
        expected = 1000 * (
            gb.instance.r_energy_pj_per_byte + lb.instance.w_energy_pj_per_byte
        )
        assert cost.energy_pj == pytest.approx(expected)

    def test_traffic_recorded_as_copy_category(self, levels):
        lb, gb, _ = levels
        cost = copy_cost([action(1000, gb, lb)])
        assert cost.traffic[("copy", "GB_IO")].reads_elems == 1000
        assert cost.traffic[("copy", "LB_IO")].writes_elems == 1000

    def test_precision_scales_bytes(self, levels):
        lb, gb, _ = levels
        one = copy_cost([action(1000, gb, lb, bits=8)])
        two = copy_cost([action(1000, gb, lb, bits=16)])
        assert two.energy_pj == pytest.approx(2 * one.energy_pj)


class TestPortConflicts:
    def test_parallel_actions_different_memories(self, levels):
        lb, gb, dram = levels
        # DRAM->GB and LB->LB'... use distinct pairs: DRAM->LB and GB->LB
        # share LB: serialized there.
        a = action(8000, dram, gb)
        b = action(8000, gb, lb)
        both = copy_cost([a, b])
        # GB carries both transfers: it is the conflict point.
        gb_bytes = 16000
        gb_bw = gb.instance.bandwidth_bytes * gb.instance.ports
        assert both.latency_cycles >= gb_bytes / gb_bw

    def test_dram_is_slowest_port(self, levels):
        lb, _gb, dram = levels
        cost = copy_cost([action(8000, dram, lb)])
        assert cost.latency_cycles == pytest.approx(8000 / 8.0)

    def test_latency_is_max_not_sum_when_disjoint(self, levels):
        lb, gb, dram = levels
        lb2 = level(MemoryInstance.sram("LB_B", 64 * 1024), "IO")
        a = action(8000, dram, lb)
        b = action(100, gb, lb2)
        cost = copy_cost([a, b])
        assert cost.latency_cycles == pytest.approx(8000 / 8.0)
