"""Unit tests for the accelerator model."""

import dataclasses
import pickle

import pytest

from repro.hardware.accelerator import build_accelerator
from repro.hardware.memory import MemoryInstance, level
from repro.workloads.layer import LayerSpec, OpType


def small_accel():
    w_reg = MemoryInstance.register("W_reg", 1)
    o_reg = MemoryInstance.register("O_reg", 2)
    lb = MemoryInstance.sram("LB_IO", 4 * 1024)
    dram = MemoryInstance.dram()
    return build_accelerator(
        "small",
        {"K": 4, "OX": 2, "OY": 2},
        [level(w_reg, "W"), level(o_reg, "O"), level(lb, "IO"), level(dram, "WIO")],
    )


def layer(**kw):
    base = dict(k=8, c=4, ox=16, oy=16, fx=3, fy=3, px=1, py=1)
    base.update(kw)
    return LayerSpec(name="t", **base)


class TestValidation:
    def test_requires_dram_top(self):
        lb = MemoryInstance.sram("LB_IO", 1024)
        with pytest.raises(ValueError):
            build_accelerator("bad", {"K": 2}, [level(lb, "WIO")])

    def test_requires_each_operand_served(self):
        dram = MemoryInstance.dram()
        with pytest.raises(ValueError):
            build_accelerator("bad", {"K": 2}, [level(dram, "IO")])

    def test_rejects_unknown_spatial_dim(self):
        dram = MemoryInstance.dram()
        with pytest.raises(ValueError):
            build_accelerator("bad", {"Z": 2}, [level(dram, "WIO")])


class TestPEArray:
    def test_pe_count(self):
        assert small_accel().pe_count == 16

    def test_full_utilization(self):
        assert small_accel().spatial_utilization(layer()) == pytest.approx(1.0)

    def test_underutilized_small_k(self):
        # k=1 uses 1 of 4 K lanes.
        util = small_accel().spatial_utilization(layer(k=1))
        assert util == pytest.approx(0.25)

    def test_underutilized_1x1_tile(self):
        # The Fig. 14(b) effect: a (1,1) tile wastes the OX/OY lanes.
        util = small_accel().spatial_utilization(layer(ox=1, oy=1))
        assert util == pytest.approx(1 / 4)

    def test_nondividing_dim(self):
        # k=6 on K4 lanes: ceil(6/4)=2 passes, 6/8 utilization.
        util = small_accel().spatial_utilization(layer(k=6))
        assert util == pytest.approx(6 / 8)


class TestSpatialReuse:
    def test_weight_reuse_over_ox_oy(self):
        # W is irrelevant to OX/OY: one weight read serves 4 PEs.
        assert small_accel().spatial_reuse(layer(), "W") == pytest.approx(4.0)

    def test_weight_reuse_collapses_for_1x1_tile(self):
        assert small_accel().spatial_reuse(layer(ox=1, oy=1), "W") == pytest.approx(1.0)

    def test_input_reuse_over_k(self):
        assert small_accel().spatial_reuse(layer(), "I") == pytest.approx(4.0)

    def test_output_reduction_none_without_c_unroll(self):
        assert small_accel().spatial_reuse(layer(), "O") == pytest.approx(1.0)

    def test_depthwise_input_reuse_is_one(self):
        dw = LayerSpec(
            name="dw", op_type=OpType.DEPTHWISE, c=1, k=8, ox=16, oy=16,
            fx=3, fy=3, px=1, py=1,
        )
        # K is input-relevant for depthwise: no broadcast over K lanes.
        assert small_accel().spatial_reuse(dw, "I") == pytest.approx(1.0)


class TestHierarchy:
    def test_hierarchies(self):
        accel = small_accel()
        assert [l.name for l in accel.hierarchy("W")] == ["W_reg", "DRAM"]
        assert [l.name for l in accel.hierarchy("I")] == ["LB_IO", "DRAM"]
        assert [l.name for l in accel.hierarchy("O")] == ["O_reg", "LB_IO", "DRAM"]

    def test_level_rank_ordering(self):
        accel = small_accel()
        ranks = [accel.level_rank(l) for l in accel.hierarchy("O")]
        assert ranks == sorted(ranks)

    def test_instances_deduplicated(self):
        accel = small_accel()
        names = [i.name for i in accel.instances()]
        assert names.count("LB_IO") == 1

    def test_on_chip_capacity_excludes_dram(self):
        assert small_accel().on_chip_capacity_bytes() == 1 + 2 + 4 * 1024

    def test_top_weight_buffer(self):
        # Only the per-PE register holds W on-chip here.
        top = small_accel().top_weight_buffer()
        assert top is not None and top.name == "W_reg"

    @staticmethod
    def lookups(accel):
        """Everything the memoized hierarchy lookups answer, by value."""
        out = {}
        for op in ("W", "I", "O"):
            hierarchy = accel.hierarchy(op)
            out[op] = (
                [(lvl.name, sorted(lvl.operands)) for lvl in hierarchy],
                accel.top_level_index(op),
                [accel.level_rank(lvl) for lvl in hierarchy],
            )
        out["levels"] = [accel.level_rank(lvl) for lvl in accel.levels]
        return out

    @pytest.mark.parametrize(
        "copy",
        [
            lambda a: pickle.loads(pickle.dumps(a)),
            lambda a: dataclasses.replace(a, name=a.name),
            lambda a: dataclasses.replace(a, levels=a.levels[1:]),
        ],
        ids=["pickle", "replace", "replace-levels"],
    )
    def test_memos_follow_copies(self, copy):
        """A memo built on one accelerator never answers for a copy:
        after a pickle round trip (fresh level objects, new ids) or
        ``dataclasses.replace``, lookups match a fresh accelerator's."""
        accel = small_accel()
        self.lookups(accel)  # fill every memo on the original
        copied = copy(accel)
        fresh = build_accelerator(
            copied.name, copied.spatial_unrolling, list(copied.levels)
        )
        assert self.lookups(copied) == self.lookups(fresh)
        for lvl in copied.levels:
            assert copied.level_rank(lvl) == copied.levels.index(lvl)

    def test_pickle_drops_memos(self):
        accel = small_accel()
        self.lookups(accel)
        state = pickle.loads(pickle.dumps(accel)).__dict__
        assert not [key for key in state if key.startswith("_")]

    def test_level_rank_of_an_equal_level(self):
        """An equal but distinct level object ranks like the original."""
        accel = small_accel()
        lb = accel.hierarchy("I")[0]
        twin = level(lb.instance, "IO")
        assert twin is not lb and accel.level_rank(twin) == accel.level_rank(lb)

    def test_unknown_operand_rejected(self):
        with pytest.raises(ValueError, match="unknown operand"):
            small_accel().hierarchy("X")
        with pytest.raises(ValueError, match="unknown operand"):
            small_accel().top_level_index("X")


class TestFingerprint:
    """Stability of the structural digest the persistent mapping cache
    keys on: it must survive re-construction (fresh instances, other
    dict orders) and must change when the hardware actually changes."""

    def _build(self, unroll_items, lb_bytes=4 * 1024):
        """A fresh accelerator (all-new memory instances) with the
        spatial unrolling dict built in the given item order."""
        w_reg = MemoryInstance.register("W_reg", 1)
        o_reg = MemoryInstance.register("O_reg", 2)
        lb = MemoryInstance.sram("LB_IO", lb_bytes)
        dram = MemoryInstance.dram()
        return build_accelerator(
            "small",
            dict(unroll_items),
            [
                level(w_reg, "W"),
                level(o_reg, "O"),
                level(lb, "IO"),
                level(dram, "WIO"),
            ],
        )

    def test_stable_across_reconstruction(self):
        items = [("K", 4), ("OX", 2), ("OY", 2)]
        assert self._build(items).fingerprint() == self._build(items).fingerprint()

    def test_stable_across_spatial_dict_order(self):
        forward = self._build([("K", 4), ("OX", 2), ("OY", 2)])
        backward = self._build([("OY", 2), ("OX", 2), ("K", 4)])
        assert forward.fingerprint() == backward.fingerprint()

    def test_matches_zoo_reconstruction(self):
        from repro.hardware.zoo import get_accelerator

        assert (
            get_accelerator("meta_proto_like_df").fingerprint()
            == get_accelerator("meta_proto_like_df").fingerprint()
        )

    def test_changes_when_memory_level_changes(self):
        base = self._build([("K", 4), ("OX", 2), ("OY", 2)])
        bigger_lb = self._build(
            [("K", 4), ("OX", 2), ("OY", 2)], lb_bytes=8 * 1024
        )
        assert base.fingerprint() != bigger_lb.fingerprint()

    def test_changes_when_unroll_changes(self):
        base = self._build([("K", 4), ("OX", 2), ("OY", 2)])
        wider = self._build([("K", 8), ("OX", 2), ("OY", 2)])
        assert base.fingerprint() != wider.fingerprint()

    def test_zoo_architectures_are_distinct(self):
        from repro.hardware.zoo import ACCELERATOR_FACTORIES

        prints = {
            factory().fingerprint()
            for factory in ACCELERATOR_FACTORIES.values()
        }
        assert len(prints) == len(ACCELERATOR_FACTORIES)
