"""Every package name the benchmark in ``bench/`` reads still resolves.

``bench/test_bench.py`` finds a missing name only after minutes of traced
runs; this reads the same names from the benchmark's source text, without
importing it, and fails in a second.
"""

from __future__ import annotations

import ast
import importlib
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# what bench/tracing.py's _count_result reads off the wrapped calls' results,
# and the method it counts calls of
RESULT_ATTRIBUTES = [
    ("trie", "Trie", "ancestors"),
    ("spans", "PStarGraph", "closed_spans"),
    ("trie", "TrieLikeGraph", "span_edges"),
    ("layered", "LayeredGraph", "groups"),
    ("layered", "Group", "pushed"),
    ("layered", "LayeredGraph", "merge_events"),
    ("layered", "MergeEvent", "degenerate"),
    ("subsets", "PipelineAnswer", "per_subgraph"),
    ("subsets", "RootedSubgraph", "instances"),
]


def _wraps() -> tuple[tuple[str, str, str], ...]:
    """``WRAPS`` from bench/tracing.py, read as a literal."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py assigns no WRAPS")


def _module_names() -> set[tuple[str, str]]:
    """Every ``pkg.<module>.<name>`` the benchmark's scripts call or read."""
    found = set()
    for path in BENCH.glob("*.py"):
        found.update(re.findall(r"\bpkg\.(\w+)\.(\w+)", path.read_text()))
    return found


def test_the_names_are_read():
    # the parametrized tests below would pass on an empty list
    assert ("cli", "main", "cli.main") in _wraps()
    assert ("harness", "audit_bounds") in _module_names()


@pytest.mark.parametrize(
    "module, attr",
    sorted({(module, attr) for module, attr, _ in _wraps()} | _module_names()),
)
def test_every_wrapped_or_called_name_resolves(module, attr):
    assert hasattr(importlib.import_module(f"twomaxsat.{module}"), attr)


@pytest.mark.parametrize("module, cls, attr", RESULT_ATTRIBUTES)
def test_every_result_attribute_the_tracer_reads_resolves(module, cls, attr):
    owner = getattr(importlib.import_module(f"twomaxsat.{module}"), cls)
    # a dataclass field without a default is not a class attribute
    assert hasattr(owner, attr) or (
        is_dataclass(owner) and attr in {f.name for f in fields(owner)}
    )
