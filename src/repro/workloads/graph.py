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

import networkx as nx

from .layer import LayerSpec


class WorkloadGraph:
    """A DAG of :class:`LayerSpec` nodes keyed by layer name."""

    def __init__(self, name: str = "workload") -> None:
        self.name = name
        self._graph: nx.DiGraph = nx.DiGraph()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_layer(self, layer: LayerSpec, inputs: Iterable[str] = ()) -> LayerSpec:
        """Add ``layer`` to the graph, consuming the outputs of ``inputs``.

        ``inputs`` is an iterable of existing layer names; an empty iterable
        marks the layer as consuming the external network input.  Every
        input is checked before the graph changes, so a rejected layer
        leaves no trace.  The new node only gains in-edges from existing
        nodes, so it cannot close a cycle.
        """
        if layer.name in self._graph:
            raise ValueError(f"duplicate layer name {layer.name!r}")
        inputs = list(inputs)
        for src in inputs:
            if src == layer.name:
                raise ValueError(f"adding {layer.name!r} would create a cycle")
            if src not in self._graph:
                raise KeyError(f"unknown input layer {src!r} for {layer.name!r}")
        self._graph.add_node(layer.name, layer=layer)
        for src in inputs:
            self._graph.add_edge(src, layer.name)
        return layer

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._graph

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.topological_layers())

    def layer(self, name: str) -> LayerSpec:
        """Look up a layer by name."""
        try:
            return self._graph.nodes[name]["layer"]
        except KeyError as exc:
            raise KeyError(f"no layer named {name!r} in {self.name!r}") from exc

    def layers(self) -> list[LayerSpec]:
        """All layers in insertion-stable topological order."""
        return self.topological_layers()

    def topological_layers(self) -> list[LayerSpec]:
        """Layers in insertion order, which builders keep topological.

        ``add_layer`` only accepts already-present layers as inputs, so
        insertion order is always a valid topological order.
        """
        return [self._graph.nodes[n]["layer"] for n in self._graph.nodes]

    def predecessors(self, name: str) -> list[LayerSpec]:
        """Producing layers of ``name`` (empty for input layers)."""
        return [self._graph.nodes[p]["layer"] for p in self._graph.predecessors(name)]

    def successors(self, name: str) -> list[LayerSpec]:
        """Consuming layers of ``name``."""
        return [self._graph.nodes[s]["layer"] for s in self._graph.successors(name)]

    def is_source(self, name: str) -> bool:
        """Whether the layer consumes the external network input."""
        return self._graph.in_degree(name) == 0

    def is_sink(self, name: str) -> bool:
        """Whether the layer produces a network output."""
        return self._graph.out_degree(name) == 0

    def sources(self) -> list[LayerSpec]:
        """Layers consuming the external network input."""
        return [l for l in self.topological_layers() if self.is_source(l.name)]

    def sinks(self) -> list[LayerSpec]:
        """Layers producing network outputs."""
        return [l for l in self.topological_layers() if self.is_sink(l.name)]

    def has_branches(self) -> bool:
        """Whether any feature map has more than one consumer or producer."""
        return any(
            self._graph.out_degree(n) > 1 or self._graph.in_degree(n) > 1
            for n in self._graph.nodes
        )

    def subgraph(self, names: Iterable[str]) -> "WorkloadGraph":
        """A new workload graph restricted to ``names`` (edges preserved)."""
        names = list(names)
        sub = WorkloadGraph(name=f"{self.name}[{len(names)} layers]")
        keep = set(names)
        for layer in self.topological_layers():
            if layer.name not in keep:
                continue
            inputs = [p.name for p in self.predecessors(layer.name) if p.name in keep]
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
