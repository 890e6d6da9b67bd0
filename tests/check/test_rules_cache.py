"""CACHE0xx cache-token purity: trigger and near-miss fixtures."""

from __future__ import annotations

from repro.check.registry import get_rule
from repro.check.runner import run_checks

from .conftest import REPO_ROOT, fixture_source

LAYER = "src/repro/workloads/layer.py"
ACCELERATOR = "src/repro/hardware/accelerator.py"


def test_cache001_trigger(tree):
    root = tree(
        {"src/repro/dse/space.py": fixture_source("cache001_trigger.py")}
    )
    report = run_checks(root, rules=[get_rule("CACHE001")])
    messages = sorted(finding.message for finding in report.new)
    assert len(messages) == 2
    # An out-of-token field and a contract class missing its method.
    assert any("DesignPoint.comment" in m for m in messages)
    assert any("no to_json() method" in m for m in messages)


def test_cache001_clean(tree):
    """Token references, NON_SEMANTIC entries, private and ClassVar
    attributes all satisfy the contract — and the allowlist is fresh."""
    root = tree(
        {"src/repro/dse/space.py": fixture_source("cache001_clean.py")}
    )
    report = run_checks(
        root, rules=[get_rule("CACHE001"), get_rule("CACHE002")]
    )
    assert report.new == []


def test_cache002_stale_allowlist_entry(tree):
    root = tree(
        {"src/repro/dse/space.py": fixture_source("cache002_trigger.py")}
    )
    report = run_checks(root, rules=[get_rule("CACHE002")])
    assert len(report.new) == 1
    assert "'ghost'" in report.new[0].message


def test_contract_is_keyed_to_the_file(tree):
    """The same class at a non-contract path is out of scope."""
    root = tree(
        {"src/repro/dse/other.py": fixture_source("cache001_trigger.py")}
    )
    report = run_checks(
        root, rules=[get_rule("CACHE001"), get_rule("CACHE002")]
    )
    assert report.new == []


def cache_findings(tree, rel, source):
    root = tree({rel: source})
    report = run_checks(
        root, rules=[get_rule("CACHE001"), get_rule("CACHE002")]
    )
    return sorted(finding.message for finding in report.new)


def mutated(rel, old, new):
    source = (REPO_ROOT / rel).read_text()
    assert source.count(old) == 1
    return source.replace(old, new)


def test_layer_token_reaches_padding_and_clips_through_ix(tree):
    """Only the derived span ix reads px and ix_clip: a token without
    it leaves exactly those two fields uncovered."""
    source = mutated(LAYER, "            self.ix,\n", "")
    messages = cache_findings(tree, LAYER, source)
    assert len(messages) == 2
    assert "LayerSpec.ix_clip " in messages[0]
    assert "LayerSpec.px " in messages[1]


def test_new_layer_field_must_enter_the_token(tree):
    source = mutated(
        LAYER,
        "    iy_clip: int | None = None\n",
        "    iy_clip: int | None = None\n    groups: int = 1\n",
    )
    (message,) = cache_findings(tree, LAYER, source)
    assert "LayerSpec.groups" in message


def test_new_accelerator_field_must_enter_the_fingerprint(tree):
    source = mutated(
        ACCELERATOR,
        "    mac_energy_pj: float = energy_model.MAC_ENERGY_PJ\n",
        "    mac_energy_pj: float = energy_model.MAC_ENERGY_PJ\n"
        "    clock_mhz: float = 1000.0\n",
    )
    (message,) = cache_findings(tree, ACCELERATOR, source)
    assert "Accelerator.clock_mhz" in message
    assert "fingerprint()" in message


def test_properties_are_followed_transitively_methods_are_not(tree):
    source = """
from dataclasses import dataclass


@dataclass(frozen=True)
class LayerSpec:
    name: str
    a: int = 1
    b: int = 1
    c: int = 1

    NON_SEMANTIC = frozenset({"name"})

    @property
    def outer(self):
        return self.inner + 1

    @property
    def inner(self):
        return self.a * self.b

    def helper(self):
        return self.c

    def cache_token(self):
        return (self.outer, self.helper())
"""
    (message,) = cache_findings(tree, LAYER, source)
    assert "LayerSpec.c " in message


def test_mutually_recursive_properties_terminate(tree):
    source = """
from dataclasses import dataclass


@dataclass(frozen=True)
class LayerSpec:
    name: str
    a: int = 1
    b: int = 1

    NON_SEMANTIC = frozenset({"name"})

    @property
    def ping(self):
        return self.pong + self.a

    @property
    def pong(self):
        return self.ping - 1

    def cache_token(self):
        return (self.ping,)
"""
    (message,) = cache_findings(tree, LAYER, source)
    assert "LayerSpec.b " in message
