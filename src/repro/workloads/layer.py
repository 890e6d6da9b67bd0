"""Layer specification for DNN workloads.

A layer is described by the seven classic convolution loop dimensions
(``K, C, OX, OY, FX, FY`` plus an implicit batch of one) together with
stride, padding and dilation.  The same representation covers regular
convolutions, depthwise convolutions, pooling, elementwise operations and
fully-connected layers; the :class:`OpType` selects how the three operands
(weights ``W``, inputs ``I``, outputs ``O``) relate to the loop dimensions.

This mirrors the workload input of DeFiNES (Fig. 5 of the paper): the
depth-first cost model only needs the loop-nest view of each layer plus the
spatial in/out geometry used for tile back-calculation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpType(enum.Enum):
    """The kind of operation a layer performs.

    The op type determines operand relevance (which loop dimensions index
    which operand) and whether the layer carries weights at all.
    """

    CONV = "conv"
    DEPTHWISE = "depthwise"
    POOL = "pool"
    ADD = "add"
    FC = "fc"

    @property
    def has_weights(self) -> bool:
        """Whether the layer has a weight operand with a memory footprint."""
        return self in (OpType.CONV, OpType.DEPTHWISE, OpType.FC)


#: Loop dimension names used throughout the mapping machinery.
LOOP_DIMS = ("K", "C", "OX", "OY", "FX", "FY")


@dataclass(frozen=True)
class LayerSpec:
    """A single DNN layer as a loop nest plus spatial geometry.

    Parameters
    ----------
    name:
        Unique name within a workload graph.
    op_type:
        The operation kind; see :class:`OpType`.
    k:
        Number of output channels.
    c:
        Number of input channels per group.  For depthwise layers this is 1
        and ``k`` equals the channel count.
    ox, oy:
        Output feature-map spatial width and height.
    fx, fy:
        Kernel spatial width and height.
    sx, sy:
        Stride in x and y.
    px, py:
        Padding (left/right symmetric in x, top/bottom symmetric in y).
    dx, dy:
        Dilation in x and y.
    act_bits, w_bits, psum_bits:
        Operand precisions in bits (activation, weight, partial sum).
    """

    name: str
    op_type: OpType = OpType.CONV
    k: int = 1
    c: int = 1
    ox: int = 1
    oy: int = 1
    fx: int = 1
    fy: int = 1
    sx: int = 1
    sy: int = 1
    px: int = 0
    py: int = 0
    dx: int = 1
    dy: int = 1
    act_bits: int = 8
    w_bits: int = 8
    psum_bits: int = 16
    #: Optional exact input spans (set for tile-scaled layers whose input
    #: window is clipped at feature-map borders); ``None`` = derived.
    ix_clip: int | None = None
    iy_clip: int | None = None

    #: Fields that cannot affect results and are therefore excluded
    #: from :meth:`cache_token` (checked by ``repro check`` CACHE001):
    #: a layer's name labels it; its search problem is its shape.
    NON_SEMANTIC = frozenset({"name"})

    def __post_init__(self) -> None:
        for attr in ("k", "c", "ox", "oy", "fx", "fy", "sx", "sy", "dx", "dy"):
            value = getattr(self, attr)
            if value < 1:
                raise ValueError(f"{self.name}: {attr} must be >= 1, got {value}")
        if self.px < 0 or self.py < 0:
            raise ValueError(f"{self.name}: padding must be >= 0")
        if self.op_type is OpType.DEPTHWISE and self.c != 1:
            raise ValueError(
                f"{self.name}: depthwise layers must have c == 1 (got {self.c})"
            )

    def cache_token(self) -> tuple:
        """The layer's part of a mapping-cache key: every field but the
        name.  ``px``/``py`` and ``ix_clip``/``iy_clip`` enter through
        the input spans ``ix``/``iy`` they determine."""
        return (
            self.op_type.value,
            self.k,
            self.c,
            self.ox,
            self.oy,
            self.fx,
            self.fy,
            self.sx,
            self.sy,
            self.dx,
            self.dy,
            self.act_bits,
            self.w_bits,
            self.psum_bits,
            self.ix,
            self.iy,
        )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def ix(self) -> int:
        """Input feature-map width (clipped span for tile layers)."""
        if self.ix_clip is not None:
            return self.ix_clip
        return (self.ox - 1) * self.sx + (self.fx - 1) * self.dx + 1 - 2 * self.px

    @property
    def iy(self) -> int:
        """Input feature-map height (clipped span for tile layers)."""
        if self.iy_clip is not None:
            return self.iy_clip
        return (self.oy - 1) * self.sy + (self.fy - 1) * self.dy + 1 - 2 * self.py

    @property
    def in_channels(self) -> int:
        """Channel count of the input feature map.

        Depthwise, pooling and elementwise layers tie their input channel
        to the ``K`` loop (``c`` is 1 for them).
        """
        if self.op_type in (OpType.DEPTHWISE, OpType.POOL, OpType.ADD):
            return self.k
        return self.c

    @property
    def loop_sizes(self) -> dict[str, int]:
        """Loop-dimension sizes keyed by dimension name."""
        return {
            "K": self.k,
            "C": self.c,
            "OX": self.ox,
            "OY": self.oy,
            "FX": self.fx,
            "FY": self.fy,
        }

    # ------------------------------------------------------------------
    # Operation / data volume
    # ------------------------------------------------------------------
    @property
    def mac_count(self) -> int:
        """Total number of MAC (or ALU) operations in the layer."""
        return self.k * self.c * self.ox * self.oy * self.fx * self.fy

    @property
    def weight_count(self) -> int:
        """Number of weight elements (0 for weight-less layers)."""
        if not self.op_type.has_weights:
            return 0
        return self.k * self.c * self.fx * self.fy

    @property
    def weight_bytes(self) -> int:
        """Weight footprint in bytes."""
        return (self.weight_count * self.w_bits + 7) // 8

    @property
    def output_count(self) -> int:
        """Number of output feature-map elements."""
        return self.k * self.ox * self.oy

    @property
    def output_bytes(self) -> int:
        """Output feature-map footprint in bytes (activation precision)."""
        return (self.output_count * self.act_bits + 7) // 8

    @property
    def input_count(self) -> int:
        """Number of input feature-map elements (without halo clipping)."""
        return self.in_channels * self.ix * self.iy

    @property
    def input_bytes(self) -> int:
        """Input feature-map footprint in bytes."""
        return (self.input_count * self.act_bits + 7) // 8

    # ------------------------------------------------------------------
    # Operand relevance (used by the access-count model)
    # ------------------------------------------------------------------
    def relevant_dims(self, operand: str) -> frozenset[str]:
        """Loop dimensions that index ``operand`` (one of ``W``, ``I``, ``O``).

        Irrelevant dimensions provide temporal/spatial reuse for the
        operand.  Depthwise and pooling layers tie the input channel to the
        ``K`` loop, which is why ``K`` is input-relevant for them.
        """
        if operand == "W":
            if not self.op_type.has_weights:
                return frozenset()
            return frozenset({"K", "C", "FX", "FY"})
        if operand == "I":
            dims = {"C", "OX", "OY", "FX", "FY"}
            if self.op_type in (OpType.DEPTHWISE, OpType.POOL, OpType.ADD):
                dims.add("K")
            return frozenset(dims)
        if operand == "O":
            return frozenset({"K", "OX", "OY"})
        raise ValueError(f"unknown operand {operand!r}")

    def operand_bits(self, operand: str) -> int:
        """Storage precision of one element of ``operand``."""
        if operand == "W":
            return self.w_bits
        if operand == "I":
            return self.act_bits
        if operand == "O":
            return self.act_bits
        raise ValueError(f"unknown operand {operand!r}")

    def scaled_to_tile(
        self,
        ox: int,
        oy: int,
        ix: int | None = None,
        iy: int | None = None,
        name_suffix: str = "",
    ) -> "LayerSpec":
        """Return a copy of this layer restricted to an ``ox`` x ``oy``
        output tile, used when evaluating one tile of a fused stack.

        Padding is dropped: tile halos are handled explicitly by the
        depth-first geometry, and ``ix``/``iy`` pin the exact input span
        (the window may be clipped at feature-map borders).
        """
        if ox < 1 or oy < 1:
            raise ValueError(f"tile size must be >= 1, got ({ox}, {oy})")
        return LayerSpec(
            name=self.name + name_suffix,
            op_type=self.op_type,
            k=self.k,
            c=self.c,
            ox=ox,
            oy=oy,
            fx=self.fx,
            fy=self.fy,
            sx=self.sx,
            sy=self.sy,
            px=0,
            py=0,
            dx=self.dx,
            dy=self.dy,
            act_bits=self.act_bits,
            w_bits=self.w_bits,
            psum_bits=self.psum_bits,
            ix_clip=ix,
            iy_clip=iy,
        )
