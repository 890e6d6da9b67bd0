"""Workload graph: a DAG of layers.

DeFiNES operates on whole networks, including branched topologies (Fig. 8
of the paper): residual connections, multi-consumer feature maps, and
joins.  We represent a workload as a directed acyclic graph whose nodes are
:class:`~repro.workloads.layer.LayerSpec` objects; an edge ``a -> b`` means
layer ``b`` consumes the output feature map of layer ``a``.  Layers without
predecessors consume the network input.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .layer import LayerSpec


class WorkloadGraph:
    """A DAG of :class:`LayerSpec` nodes keyed by layer name."""

    def __init__(self, name: str = "workload") -> None:
        self.name = name
        self._layers: dict[str, LayerSpec] = {}
        self._preds: dict[str, list[LayerSpec]] = {}
        self._succs: dict[str, list[LayerSpec]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_layer(self, layer: LayerSpec, inputs: Iterable[str] = ()) -> LayerSpec:
        """Add ``layer`` to the graph, consuming the outputs of ``inputs``.

        ``inputs`` is an iterable of existing layer names (a repeated name
        is one edge); an empty iterable marks the layer as consuming the
        external network input.  Every input is checked before the graph
        changes, so a rejected layer leaves no trace.  The new node only
        gains in-edges from existing nodes, so it cannot close a cycle.
        """
        if layer.name in self._layers:
            raise ValueError(f"duplicate layer name {layer.name!r}")
        inputs = list(dict.fromkeys(inputs))
        for src in inputs:
            if src == layer.name:
                raise ValueError(f"adding {layer.name!r} would create a cycle")
            if src not in self._layers:
                raise KeyError(f"unknown input layer {src!r} for {layer.name!r}")
        self._layers[layer.name] = layer
        self._preds[layer.name] = [self._layers[src] for src in inputs]
        self._succs[layer.name] = []
        for src in inputs:
            self._succs[src].append(layer)
        return layer

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.topological_layers())

    def _lookup(self, table: dict, name: str):
        if name not in table:
            raise KeyError(f"no layer named {name!r} in {self.name!r}")
        return table[name]

    def layer(self, name: str) -> LayerSpec:
        """Look up a layer by name."""
        return self._lookup(self._layers, name)

    def layers(self) -> list[LayerSpec]:
        """All layers in insertion-stable topological order."""
        return self.topological_layers()

    def topological_layers(self) -> list[LayerSpec]:
        """Layers in insertion order, which builders keep topological.

        ``add_layer`` only accepts already-present layers as inputs, so
        insertion order is always a valid topological order.
        """
        return list(self._layers.values())

    def predecessors(self, name: str) -> list[LayerSpec]:
        """Producing layers of ``name`` in input order (empty for input layers)."""
        return list(self._lookup(self._preds, name))

    def successors(self, name: str) -> list[LayerSpec]:
        """Consuming layers of ``name``, in the order they were added."""
        return list(self._lookup(self._succs, name))

    def is_source(self, name: str) -> bool:
        """Whether the layer consumes the external network input."""
        return not self._lookup(self._preds, name)

    def is_sink(self, name: str) -> bool:
        """Whether the layer produces a network output."""
        return not self._lookup(self._succs, name)

    def sources(self) -> list[LayerSpec]:
        """Layers consuming the external network input."""
        return [l for l in self.topological_layers() if self.is_source(l.name)]

    def sinks(self) -> list[LayerSpec]:
        """Layers producing network outputs."""
        return [l for l in self.topological_layers() if self.is_sink(l.name)]

    def has_branches(self) -> bool:
        """Whether any feature map has more than one consumer or producer."""
        return any(len(e) > 1 for e in (*self._preds.values(), *self._succs.values()))

    def subgraph(self, names: Iterable[str]) -> "WorkloadGraph":
        """A new workload graph restricted to ``names`` (edges preserved)."""
        names = list(names)
        sub = WorkloadGraph(name=f"{self.name}[{len(names)} layers]")
        keep = set(names)
        for layer in self.topological_layers():
            if layer.name in keep:
                inputs = [p.name for p in self._preds[layer.name] if p.name in keep]
                sub.add_layer(layer, inputs)
        return sub

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_mac_count(self) -> int:
        """Total MACs over all layers."""
        return sum(l.mac_count for l in self.topological_layers())

    @property
    def total_weight_bytes(self) -> int:
        """Total weight footprint over all layers, in bytes."""
        return sum(l.weight_bytes for l in self.topological_layers())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkloadGraph({self.name!r}, {len(self)} layers)"
