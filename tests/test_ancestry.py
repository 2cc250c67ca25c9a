"""The trie's cached ``branch`` table and ``ancestors`` against parent-pointer
walks, and the duplicate classification the build runs (``layered._case``)
against the walk-based reference on every set of nodes the build can pass."""

from __future__ import annotations

import functools
import itertools
import random

from tests.conftest import seed1_formula
from tests.layered_reference import assert_ancestry_matches_walks, walk_case
from twomaxsat.formula import Variable, parse_cnf
from twomaxsat.harness import (
    FuzzParams,
    builtin_by_name,
    family,
    family_ordering,
    random_formula,
    tie_consistent_orderings,
)
from twomaxsat.layered import _case
from twomaxsat.pipeline import front_end
from twomaxsat.sequences import ItemTag
from twomaxsat.trie import Trie, TrieLikeGraph, TrieNode


def _two_branches() -> TrieLikeGraph:
    # two root branches, v2 (n2) and v1 (n6), with v1 also under v2 (n4)
    v1, v2 = Variable(0, "v1"), Variable(1, "v2")
    trie = Trie(
        [
            TrieNode(1, ItemTag.START, None, None, [2, 6]),
            TrieNode(2, ItemTag.VAR, v2, 1, [3, 4]),
            TrieNode(3, ItemTag.END, None, 2, [], frozenset({"b"})),
            TrieNode(4, ItemTag.VAR, v1, 2, [5]),
            TrieNode(5, ItemTag.END, None, 4, [], frozenset({"c"})),
            TrieNode(6, ItemTag.VAR, v1, 1, [7]),
            TrieNode(7, ItemTag.END, None, 6, [], frozenset({"a"})),
        ]
    )
    return TrieLikeGraph(trie, node_map={}, runs={})  # no span edge


@functools.cache
def _small_graphs() -> list[tuple[str, TrieLikeGraph]]:
    graphs = [("two branches", _two_branches())]
    for name in ("ce1", "ce2", "ce3"):
        spec = builtin_by_name(name)
        graphs.append((name, front_end(parse_cnf(spec.dimacs), spec.ordering).trielike))
    graphs.append(("family(6)", front_end(family(6), family_ordering(6)).trielike))
    # the tries behind exactly the items fuzz(42, 100) checks
    params = FuzzParams()
    rng = random.Random(42)
    for i in range(100):
        f = random_formula(rng, params)
        for ordering in tie_consistent_orderings(f, params.orderings_per_formula):
            graphs.append((f"fuzz 42 #{i} {ordering}", front_end(f, list(ordering)).trielike))
    return graphs


def test_table_matches_parent_walks():
    assert len(_small_graphs()) > 500
    for name, g in _small_graphs():
        assert_ancestry_matches_walks(g.trie, name)
    for n0 in range(8, 33):
        assert_ancestry_matches_walks(front_end(seed1_formula(n0), "frequency").trie, n0)


def test_classification_matches_reference_on_pairs_and_triples():
    # a merge's generators are members of one group, so the build only ever
    # classifies distinct nodes of one label: no such set lies on one root path
    checked = 0
    for name, g in _small_graphs():
        by_label: dict[str, list[int]] = {}
        for node in g.trie.nodes:
            by_label.setdefault(node.label_text, []).append(node.id)
        for ids in by_label.values():
            for size in (2, 3):
                for occ in itertools.combinations(ids, size):
                    want = walk_case(g, occ)
                    assert want != "case2", (name, occ)
                    assert _case(sorted(occ), g.trie.branch) == want, (name, occ)
                    checked += 1
    assert checked > 10_000
