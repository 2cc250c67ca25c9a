"""The trie's cached ancestry table against parent-pointer walks, and the
interval-based duplicate classification against the walk-based reference."""

from __future__ import annotations

import functools
import itertools
import random

from tests.layered_reference import classify_duplicate_case as ref_classify
from tests.layered_reference import walk_ancestors
from twomaxsat.formula import Variable, parse_cnf
from twomaxsat.harness import (
    FuzzParams,
    builtin_by_name,
    family,
    family_ordering,
    random_formula,
    tie_consistent_orderings,
)
from twomaxsat.layered import classify_duplicate_case
from twomaxsat.pipeline import front_end
from twomaxsat.trie import NodeKind, Trie, TrieLikeGraph, TrieNode


def _shuffled_ids() -> TrieLikeGraph:
    # preorder over children is n1 n4 n6 n3 n7 n2 n5: ids are not preorder
    v1, v2 = Variable(0, "v1"), Variable(1, "v2")
    trie = Trie(
        [
            TrieNode(1, NodeKind.START, None, None, [4, 2]),
            TrieNode(2, NodeKind.VAR, v1, 1, [5]),
            TrieNode(3, NodeKind.VAR, v1, 4, [7]),
            TrieNode(4, NodeKind.VAR, v2, 1, [6, 3]),
            TrieNode(5, NodeKind.END, None, 2, [], frozenset({"a"})),
            TrieNode(6, NodeKind.END, None, 4, [], frozenset({"b"})),
            TrieNode(7, NodeKind.END, None, 3, [], frozenset({"c"})),
        ]
    )
    return TrieLikeGraph(trie, {}, {})


@functools.cache
def _small_graphs() -> list[tuple[str, TrieLikeGraph]]:
    graphs = [("shuffled ids", _shuffled_ids())]
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


def test_shuffled_trie_is_not_in_preorder():
    table = _shuffled_ids().trie.ancestry
    assert sorted(range(1, 8), key=table.pre.__getitem__) == [1, 4, 6, 3, 7, 2, 5]


def test_table_matches_parent_walks():
    assert len(_small_graphs()) > 400
    for name, g in _small_graphs():
        trie = g.trie
        table = trie.ancestry
        chains = {node.id: walk_ancestors(trie, node.id) for node in trie.nodes}
        for nid, chain in chains.items():
            assert table.ancestors[nid] == tuple(chain), (name, nid)
            assert trie.ancestors(nid) == chain, (name, nid)
            assert table.branch[nid] == (chain[1] if len(chain) > 1 else nid), (name, nid)
            for other, other_chain in chains.items():
                in_subtree = other == nid or nid in other_chain
                in_interval = table.pre[nid] <= table.pre[other] <= table.last[nid]
                assert in_interval == in_subtree, (name, nid, other)


def test_classification_matches_reference_on_pairs_and_triples():
    for name, g in _small_graphs():
        ids = [node.id for node in g.trie.nodes]
        for size in (2, 3):
            for occ in itertools.combinations(ids, size):
                assert classify_duplicate_case(g, occ) == ref_classify(g, occ), (name, occ)
