"""Unit tests for the workload DAG."""

import pytest

from repro.workloads.graph import WorkloadGraph
from repro.workloads.layer import LayerSpec


def layer(name, **kw):
    return LayerSpec(name=name, k=4, c=4, ox=8, oy=8, fx=3, fy=3, px=1, py=1, **kw)


@pytest.fixture
def chain():
    g = WorkloadGraph("chain")
    g.add_layer(layer("a"))
    g.add_layer(layer("b"), ["a"])
    g.add_layer(layer("c"), ["b"])
    return g


class TestConstruction:
    def test_duplicate_name_rejected(self, chain):
        with pytest.raises(ValueError):
            chain.add_layer(layer("a"))

    def test_unknown_input_rejected(self, chain):
        with pytest.raises(KeyError):
            chain.add_layer(layer("d"), ["nope"])

    def test_lookup(self, chain):
        assert chain.layer("b").name == "b"
        with pytest.raises(KeyError):
            chain.layer("zzz")

    def test_len_and_iter(self, chain):
        assert len(chain) == 3
        assert [l.name for l in chain] == ["a", "b", "c"]


class TestTopology:
    def test_topological_order_is_insertion_order(self, chain):
        assert [l.name for l in chain.topological_layers()] == ["a", "b", "c"]

    def test_sources_and_sinks(self, chain):
        assert [l.name for l in chain.sources()] == ["a"]
        assert [l.name for l in chain.sinks()] == ["c"]

    def test_predecessors_successors(self, chain):
        assert [l.name for l in chain.predecessors("b")] == ["a"]
        assert [l.name for l in chain.successors("b")] == ["c"]

    @pytest.mark.parametrize(
        "query", ["predecessors", "successors", "is_source", "is_sink"]
    )
    def test_unknown_name_is_a_key_error(self, chain, query):
        with pytest.raises(KeyError, match="no layer named 'zzz' in 'chain'"):
            getattr(chain, query)("zzz")

    def test_no_branches_in_chain(self, chain):
        assert not chain.has_branches()

    def test_branch_detection(self):
        g = WorkloadGraph("branchy")
        g.add_layer(layer("a"))
        g.add_layer(layer("b"), ["a"])
        g.add_layer(layer("c"), ["a"])
        assert g.has_branches()


class TestSubgraph:
    def test_subgraph_keeps_internal_edges(self, chain):
        sub = chain.subgraph(["a", "b"])
        assert len(sub) == 2
        assert [l.name for l in sub.predecessors("b")] == ["a"]

    def test_subgraph_drops_external_edges(self, chain):
        sub = chain.subgraph(["b", "c"])
        assert sub.is_source("b")


class TestAggregates:
    def test_total_macs(self, chain):
        assert chain.total_mac_count == sum(l.mac_count for l in chain)

    def test_total_weight_bytes(self, chain):
        assert chain.total_weight_bytes == sum(l.weight_bytes for l in chain)
