"""Interval geometry for depth-first tile back-calculation.

All regions are half-open integer intervals per spatial axis.  Because
the paper's tiling is axis-separable (tiles are rectangles, layer
transforms act per axis, branch combination is a per-axis bounding box),
DeFiNES' step 2 can be computed independently along x and y and combined
multiplicatively — which is also what makes tile-type discovery cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads.layer import LayerSpec


@dataclass(frozen=True, order=True, slots=True)
class Interval:
    """Half-open integer interval ``[lo, hi)``; empty when ``hi <= lo``."""

    lo: int
    hi: int

    @property
    def width(self) -> int:
        return max(0, self.hi - self.lo)

    @property
    def empty(self) -> bool:
        return self.hi <= self.lo

    def clip(self, lo: int, hi: int) -> "Interval":
        """Intersection with ``[lo, hi)``."""
        return Interval(max(self.lo, lo), min(self.hi, hi))

    def hull(self, other: "Interval") -> "Interval":
        """Bounding interval of two intervals (the paper's 'combine all
        outermost edges' rule for branches, Fig. 8)."""
        if self.empty:
            return other
        if other.empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))


EMPTY = Interval(0, 0)


def layer_kernel_extent(layer: LayerSpec, axis: str) -> int:
    """Effective kernel extent along ``axis`` ('x' or 'y')."""
    if axis == "x":
        return (layer.fx - 1) * layer.dx + 1
    if axis == "y":
        return (layer.fy - 1) * layer.dy + 1
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def axis_params(layer: LayerSpec, axis: str) -> tuple[int, int, int, int]:
    """``(stride, pad, kernel extent, input size)`` of ``layer`` along
    ``axis``: the arguments :func:`input_span` takes after the span."""
    extent = layer_kernel_extent(layer, axis)
    if axis == "x":
        return layer.sx, layer.px, extent, layer.ix
    return layer.sy, layer.py, extent, layer.iy


def input_span(
    lo: int, hi: int, stride: int, pad: int, extent: int, size: int
) -> tuple[int, int]:
    """Input span ``(lo, hi)`` needed to compute the output span
    ``[lo, hi)``: the convolution relation ``in = [lo*s - p,
    (hi-1)*s - p + kernel_extent)`` clipped to the valid input range
    ``[0, size)``, so padding pixels are neither fetched nor counted.
    An empty output span needs ``(0, 0)``."""
    if hi <= lo:
        return 0, 0
    return max(lo * stride - pad, 0), min((hi - 1) * stride - pad + extent, size)


def input_interval(layer: LayerSpec, out: Interval, axis: str) -> Interval:
    """Input span needed to compute the output span ``out`` along
    ``axis`` (:func:`input_span` on :class:`Interval` objects)."""
    if out.empty:
        return EMPTY
    return Interval(*input_span(out.lo, out.hi, *axis_params(layer, axis)))


def tile_edges(total: int, tile: int) -> list[Interval]:
    """Partition ``[0, total)`` into spans of at most ``tile`` (the last
    span may be a remainder, as in Fig. 6 where 540 = 72*7 + 36)."""
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    return [Interval(lo, min(lo + tile, total)) for lo in range(0, total, tile)]
