"""CACHE0xx — cache-token purity for key-carrying config classes.

The mapping cache, DSE checkpoints and golden fixtures are keyed by
serialized config objects.  A config field that affects results but is
missing from the class's token method silently aliases distinct
configurations onto one cache entry — the bug class PR 6 dodged by
*deliberately* excluding ``SearchConfig.engine`` (the engines are
bit-identical, so the exclusion is sound, but it must be explicit).

These rules generalize that audit: every field of a class listed in
:data:`TOKEN_CONTRACTS` must either be referenced by its token method
(``cache_token``/``to_json``/``fingerprint``) or be named in a
``NON_SEMANTIC`` class-level allowlist — a ``frozenset`` of field names
documented as not affecting results.  A token that reads one of the
class's own properties references every field that property reads,
transitively (``LayerSpec.ix`` stands for ``ox``, ``sx``, ``fx``,
``dx``, ``px`` and ``ix_clip``).

* **CACHE001** — a field appears in neither the token method nor
  ``NON_SEMANTIC``.
* **CACHE002** — a ``NON_SEMANTIC`` entry names no current field
  (stale allowlist).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from . import astutil
from .context import CheckContext
from .findings import Finding
from .registry import rule

#: (file, class, token method) triples under the purity contract.
TOKEN_CONTRACTS = (
    ("src/repro/mapping/loma.py", "SearchConfig", "cache_token"),
    ("src/repro/workloads/layer.py", "LayerSpec", "cache_token"),
    ("src/repro/hardware/accelerator.py", "Accelerator", "fingerprint"),
    ("src/repro/dse/space.py", "DesignPoint", "to_json"),
    ("src/repro/dse/space.py", "DesignSpace", "to_json"),
)

#: Name of the class-level allowlist attribute.
ALLOWLIST_NAME = "NON_SEMANTIC"


@dataclass
class _TokenClass:
    node: ast.ClassDef
    fields: dict[str, int]
    allowlist: dict[str, int]
    allowlist_line: int | None
    token_method: ast.FunctionDef | None
    properties: dict[str, ast.FunctionDef]


def _is_property(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "property"
        for d in node.decorator_list
    )


def _collect(node: ast.ClassDef, token_method: str) -> _TokenClass:
    fields: dict[str, int] = {}
    allowlist: dict[str, int] = {}
    allowlist_line: int | None = None
    method: ast.FunctionDef | None = None
    properties: dict[str, ast.FunctionDef] = {}
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            name = item.target.id
            annotation = ast.dump(item.annotation)
            if not name.startswith("_") and "ClassVar" not in annotation:
                fields[name] = item.lineno
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == ALLOWLIST_NAME
                ):
                    allowlist_line = item.lineno
                    for element in ast.walk(item.value):
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            allowlist[element.value] = element.lineno
        elif isinstance(item, ast.FunctionDef):
            if item.name == token_method:
                method = item
            if _is_property(item):
                properties[item.name] = item
    return _TokenClass(
        node=node,
        fields=fields,
        allowlist=allowlist,
        allowlist_line=allowlist_line,
        token_method=method,
        properties=properties,
    )


def _referenced_fields(
    method: ast.FunctionDef, properties: dict[str, ast.FunctionDef]
) -> set[str]:
    """Names the token method reads as ``self.<name>``, directly or
    through the class's own ``properties`` (followed transitively)."""
    refs: set[str] = set()
    pending = [method]
    while pending:
        for node in ast.walk(pending.pop()):
            name = astutil.self_attribute(node)
            if name is None or name in refs:
                continue
            refs.add(name)
            if name in properties:
                pending.append(properties[name])
    return refs


def _token_classes(
    ctx: CheckContext,
) -> Iterator[tuple[str, str, _TokenClass]]:
    by_file: dict[str, list[tuple[str, str]]] = {}
    for rel, cls, method in TOKEN_CONTRACTS:
        by_file.setdefault(rel, []).append((cls, method))
    for file in ctx.python_files():
        wanted = by_file.get(file.rel)
        if not wanted:
            continue
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for cls, method in wanted:
                if node.name == cls:
                    yield file.rel, method, _collect(node, method)


@rule(
    "CACHE001",
    "field missing from cache token",
    "Every field of SearchConfig/LayerSpec/Accelerator/DesignPoint/"
    "DesignSpace must be referenced by its token method "
    "(cache_token/fingerprint/to_json), directly or through the class's "
    "own properties, or listed in the class's NON_SEMANTIC allowlist "
    "with a comment saying why it cannot affect results.",
)
def check_token_coverage(ctx: CheckContext) -> Iterator[Finding]:
    for rel, method_name, info in _token_classes(ctx):
        if info.token_method is None:
            yield Finding(
                file=rel,
                line=info.node.lineno,
                code="CACHE001",
                message=f"{info.node.name} is under the cache-token "
                f"purity contract but has no {method_name}() method",
            )
            continue
        referenced = _referenced_fields(info.token_method, info.properties)
        for name in sorted(info.fields):
            if name in referenced or name in info.allowlist:
                continue
            yield Finding(
                file=rel,
                line=info.fields[name],
                code="CACHE001",
                message=f"field {info.node.name}.{name} appears in "
                f"neither {method_name}() nor {ALLOWLIST_NAME}; a "
                "result-affecting field outside the token aliases "
                "distinct configs onto one cache entry",
            )


@rule(
    "CACHE002",
    "stale NON_SEMANTIC entry",
    "Every name in a NON_SEMANTIC allowlist must be a current field of "
    "its class (a stale entry hides future coverage gaps).",
)
def check_allowlist_fresh(ctx: CheckContext) -> Iterator[Finding]:
    for rel, _method_name, info in _token_classes(ctx):
        for name in sorted(info.allowlist):
            if name not in info.fields:
                yield Finding(
                    file=rel,
                    line=info.allowlist[name],
                    code="CACHE002",
                    message=f"{ALLOWLIST_NAME} entry {name!r} on "
                    f"{info.node.name} names no current field; remove "
                    "the stale entry",
                )
