"""``WorkloadGraph.add_layer`` checks its inputs before changing the
graph, and subgraphs keep the parent graph's edge order."""

import pytest

from repro import get_accelerator, get_workload
from repro.core.stacks import partition_stacks
from repro.workloads.graph import WorkloadGraph
from repro.workloads.layer import LayerSpec
from repro.workloads.zoo import WORKLOAD_FACTORIES


def layer(name):
    return LayerSpec(name=name, k=4, c=4, ox=8, oy=8, fx=3, fy=3, px=1, py=1)


def shape(graph):
    """Layers in order, and each layer's predecessors and successors."""
    return [
        (
            l.name,
            [p.name for p in graph.predecessors(l.name)],
            [s.name for s in graph.successors(l.name)],
        )
        for l in graph.layers()
    ]


@pytest.fixture
def chain():
    g = WorkloadGraph("chain")
    g.add_layer(layer("a"))
    g.add_layer(layer("x"), ["a"])
    return g


class TestRejectedAdd:
    def test_unknown_input_leaves_the_graph_unchanged(self, chain):
        before = shape(chain)
        with pytest.raises(KeyError, match="missing"):
            chain.add_layer(layer("b"), ["a", "missing"])
        assert shape(chain) == before
        assert "b" not in chain
        chain.add_layer(layer("b"), ["a", "x"])
        assert shape(chain) == [
            ("a", [], ["x", "b"]),
            ("x", ["a"], ["b"]),
            ("b", ["a", "x"], []),
        ]

    @pytest.mark.parametrize("inputs", [["b"], ["a", "b"]])
    def test_self_input_is_a_cycle(self, chain, inputs):
        before = shape(chain)
        with pytest.raises(ValueError, match="would create a cycle"):
            chain.add_layer(layer("b"), inputs)
        assert shape(chain) == before
        chain.add_layer(layer("b"), ["a"])
        assert len(chain) == 3

    def test_repeated_input_is_one_edge(self, chain):
        chain.add_layer(layer("b"), ["x", "x"])
        assert shape(chain) == [("a", [], ["x"]), ("x", ["a"], ["b"]), ("b", ["x"], [])]
        assert not chain.has_branches()
        chain.add_layer(layer("c"), ["b", "a", "b"])
        assert [p.name for p in chain.predecessors("c")] == ["b", "a"]
        assert [s.name for s in chain.successors("b")] == ["c"]

    def test_inputs_may_be_an_iterator(self, chain):
        chain.add_layer(layer("b"), iter(["a", "x"]))
        assert [p.name for p in chain.predecessors("b")] == ["a", "x"]


@pytest.mark.parametrize("name", list(WORKLOAD_FACTORIES))
def test_subgraph_keeps_edge_order(name):
    """Every stack's subgraph lists predecessors and successors in the
    parent graph's order, filtered to the stack."""
    wl = get_workload(name)
    for accel in ("meta_proto_like_df", "tpu_like"):
        for stack in partition_stacks(wl, get_accelerator(accel), fuse_depth=3):
            keep = set(stack.layer_names)
            sub = stack.workload
            assert [l.name for l in sub.layers()] == list(stack.layer_names)
            for n in stack.layer_names:
                assert [p.name for p in sub.predecessors(n)] == [
                    p.name for p in wl.predecessors(n) if p.name in keep
                ]
                assert [s.name for s in sub.successors(n)] == [
                    s.name for s in wl.successors(n) if s.name in keep
                ]
