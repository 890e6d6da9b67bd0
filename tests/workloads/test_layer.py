"""Unit tests for LayerSpec: geometry, volumes, operand relevance and
the mapping-cache token."""

import dataclasses

import pytest

from repro.workloads.layer import LayerSpec, OpType


def conv(name="c", **kw):
    base = dict(k=8, c=4, ox=16, oy=12, fx=3, fy=3, px=1, py=1)
    base.update(kw)
    return LayerSpec(name=name, **base)


class TestValidation:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            LayerSpec(name="bad", k=0)

    def test_rejects_negative_padding(self):
        with pytest.raises(ValueError):
            LayerSpec(name="bad", px=-1)

    def test_depthwise_requires_c1(self):
        with pytest.raises(ValueError):
            LayerSpec(name="bad", op_type=OpType.DEPTHWISE, c=2, k=8)

    def test_depthwise_with_c1_ok(self):
        layer = LayerSpec(name="dw", op_type=OpType.DEPTHWISE, c=1, k=8)
        assert layer.in_channels == 8


class TestGeometry:
    def test_same_padding_keeps_size(self):
        layer = conv()
        assert layer.ix == 16
        assert layer.iy == 12

    def test_no_padding_grows_input(self):
        layer = conv(px=0, py=0)
        assert layer.ix == 18
        assert layer.iy == 14

    def test_stride_two(self):
        layer = conv(sx=2, sy=2, px=0, py=0)
        assert layer.ix == (16 - 1) * 2 + 3
        assert layer.iy == (12 - 1) * 2 + 3

    def test_dilation(self):
        layer = conv(dx=2, dy=2, px=0, py=0)
        assert layer.ix == 15 + 2 * 2 + 1

    def test_clip_overrides_derived_span(self):
        layer = conv(px=0, py=0, ix_clip=17, iy_clip=13)
        assert layer.ix == 17
        assert layer.iy == 13


class TestVolumes:
    def test_mac_count(self):
        layer = conv()
        assert layer.mac_count == 8 * 4 * 16 * 12 * 9

    def test_weight_count_conv(self):
        assert conv().weight_count == 8 * 4 * 9

    def test_weight_count_pool_is_zero(self):
        layer = LayerSpec(name="p", op_type=OpType.POOL, k=8, c=1, ox=8, oy=8, fx=2, fy=2, sx=2, sy=2)
        assert layer.weight_count == 0
        assert layer.weight_bytes == 0

    def test_output_bytes_uses_act_bits(self):
        layer = conv(act_bits=16)
        assert layer.output_bytes == 8 * 16 * 12 * 2

    def test_input_count_uses_in_channels(self):
        layer = LayerSpec(
            name="dw", op_type=OpType.DEPTHWISE, c=1, k=8, ox=8, oy=8, fx=3, fy=3, px=1, py=1
        )
        assert layer.input_count == 8 * 8 * 8


class TestRelevance:
    def test_weight_relevance_conv(self):
        assert conv().relevant_dims("W") == frozenset({"K", "C", "FX", "FY"})

    def test_weight_relevance_pool_empty(self):
        layer = LayerSpec(name="p", op_type=OpType.POOL, k=8, c=1, ox=8, oy=8)
        assert layer.relevant_dims("W") == frozenset()

    def test_input_relevance_conv_excludes_k(self):
        assert "K" not in conv().relevant_dims("I")

    def test_input_relevance_depthwise_includes_k(self):
        layer = LayerSpec(name="dw", op_type=OpType.DEPTHWISE, c=1, k=8, ox=8, oy=8)
        assert "K" in layer.relevant_dims("I")

    def test_output_relevance(self):
        assert conv().relevant_dims("O") == frozenset({"K", "OX", "OY"})

    def test_unknown_operand_raises(self):
        with pytest.raises(ValueError):
            conv().relevant_dims("X")


class TestScaledToTile:
    def test_tile_dims(self):
        tile = conv().scaled_to_tile(4, 6)
        assert (tile.ox, tile.oy) == (4, 6)
        assert (tile.px, tile.py) == (0, 0)

    def test_tile_input_clip(self):
        tile = conv().scaled_to_tile(4, 6, ix=5, iy=7)
        assert tile.ix == 5
        assert tile.iy == 7

    def test_rejects_empty_tile(self):
        with pytest.raises(ValueError):
            conv().scaled_to_tile(0, 4)

    def test_preserves_precision(self):
        tile = conv(act_bits=16, w_bits=4).scaled_to_tile(4, 4)
        assert tile.act_bits == 16
        assert tile.w_bits == 4


class TestCacheToken:
    def test_name_is_not_in_the_token(self):
        assert conv("a").cache_token() == conv("b").cache_token()

    def test_every_other_field_moves_the_token(self):
        """The run-time side of CACHE001: changing any field outside
        NON_SEMANTIC changes the token, so two layers that search
        differently never share a cache entry."""
        base = conv()
        for field in dataclasses.fields(LayerSpec):
            if field.name in LayerSpec.NON_SEMANTIC:
                continue
            value = getattr(base, field.name)
            if field.name == "op_type":
                changed = OpType.POOL
            elif value is None:  # a clip: any span but the derived one
                changed = getattr(base, field.name[:2]) + 1
            else:
                changed = value + 1
            other = dataclasses.replace(base, **{field.name: changed})
            assert other.cache_token() != base.cache_token(), field.name
