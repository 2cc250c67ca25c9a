"""Trie merging, node numbering, and span overlay."""

from __future__ import annotations

import pytest

from tests.layered_reference import walk_parents
from tests.test_ancestry import _small_graphs
from twomaxsat.errors import UnmappedPositionError
from twomaxsat.formula import cnf_to_dnf, pad_missing
from twomaxsat.pipeline import resolve_ordering, run_pipeline
from twomaxsat.sequences import build_sequences
from twomaxsat.spans import build_pgraph, close_spans
from twomaxsat.trie import merge_main_paths, overlay_spans


def _stages(f, ordering_spec):
    d = cnf_to_dnf(f)
    padded = pad_missing(d)
    ordering = resolve_ordering(d, padded, ordering_spec)
    seqs = build_sequences(padded, ordering)
    pgraphs = [build_pgraph(s) for s in seqs]
    pstars = [close_spans(p) for p in pgraphs]
    return seqs, pgraphs, pstars


def test_running_trie_shape(running):
    seqs, pgraphs, _ = _stages(running, "lexical")
    trie, node_map = merge_main_paths(pgraphs)
    assert trie.vertex_count == 16
    assert sorted(tuple(sorted(n.conjunction_labels)) for n in trie.leaves()) == [
        ("a",),
        ("b",),
        ("c",),
        ("d",),
    ]
    # the b branch reads #, v1, v3, y2, $
    path_b = [trie.node(nid).label_text for nid in node_map["b"]]
    assert path_b == ["#", "v1", "v3", "y2", "$"]


def test_ce1_trie_exact_numbering(ce1):
    _, pgraphs, _ = _stages(ce1, "y1>y2>v1")
    trie, node_map = merge_main_paths(pgraphs)
    assert [(n.name, n.label_text, tuple(sorted(n.conjunction_labels))) for n in trie.nodes] == [
        ("n1", "#", ()),
        ("n2", "y1", ()),
        ("n3", "$", ("d",)),
        ("n4", "y2", ()),
        ("n5", "$", ("a", "c")),
        ("n6", "y2", ()),
        ("n7", "$", ("b",)),
    ]
    assert node_map["a"] == (1, 2, 4, 5)
    assert node_map["b"] == (1, 6, 7)
    assert node_map["c"] == (1, 2, 4, 5)
    assert node_map["d"] == (1, 2, 3)


def test_ce3_trie_exact_numbering(ce3):
    _, pgraphs, _ = _stages(ce3, "y2>y1>v1")
    trie, _ = merge_main_paths(pgraphs)
    expect = [
        ("n1", "#"),
        ("n2", "y2"),
        ("n3", "$"),
        ("n4", "y1"),
        ("n5", "$"),
        ("n6", "v1"),
        ("n7", "$"),
        ("n8", "y1"),
        ("n9", "v1"),
        ("n10", "$"),
    ]
    assert [(n.name, n.label_text) for n in trie.nodes] == expect
    labels = {n.name: tuple(sorted(n.conjunction_labels)) for n in trie.leaves()}
    assert labels == {"n3": ("b",), "n5": ("a",), "n7": ("c",), "n10": ("d",)}


def test_single_pgraph_is_a_path(running):
    _, pgraphs, _ = _stages(running, "lexical")
    trie, node_map = merge_main_paths(pgraphs[:1])
    assert trie.vertex_count == len(pgraphs[0].items)
    assert node_map["a"] == tuple(range(1, len(pgraphs[0].items) + 1))
    assert all(len(n.children) <= 1 for n in trie.nodes)


def test_path_fidelity(running, ce1, ce2, ce3):
    for f, spec in (
        (running, "lexical"),
        (ce1, "y1>y2>v1"),
        (ce2, "v1>y1>y2"),
        (ce3, "y2>y1>v1"),
    ):
        seqs, pgraphs, _ = _stages(f, spec)
        trie, node_map = merge_main_paths(pgraphs)
        for seq in seqs:
            trail = [trie.node(nid) for nid in node_map[seq.label]]
            expected = [
                item.display() if item.variable is None else item.variable.name
                for item in seq.items
            ]
            assert [n.label_text for n in trail] == expected
            # walking the map must follow parent->child tree edges
            for parent, child in zip(trail, trail[1:]):
                assert child.id in parent.children


def test_leaf_partition(running, ce1):
    for f, spec in ((running, "lexical"), (ce1, "y1>y2>v1")):
        _, pgraphs, _ = _stages(f, spec)
        trie, _ = merge_main_paths(pgraphs)
        seen: list[str] = []
        for leaf in trie.leaves():
            seen.extend(leaf.conjunction_labels)
        assert sorted(seen) == sorted(p.label for p in pgraphs)
        for node in trie.nodes:
            assert bool(node.conjunction_labels) == (node.kind == "$")
            child_labels = [trie.node(c).label_text for c in node.children]
            assert len(child_labels) == len(set(child_labels))


def test_ce1_span_overlay_exact(ce1):
    _, pgraphs, pstars = _stages(ce1, "y1>y2>v1")
    trie, node_map = merge_main_paths(pgraphs)
    g = overlay_spans(trie, node_map, pstars)
    edges = {(e.child, e.parent): set(e.labels) for e in g.span_edges}
    assert edges == {
        (3, 1): {"d"},
        (5, 2): {"a"},
        (4, 1): {"c"},
        (7, 1): {"b"},
    }


def test_running_span_overlay_count_and_dedup(running):
    run = run_pipeline(running, ordering="lexical", algorithm=1)
    g = run.trielike
    assert len(g.span_edges) == 19  # 4+6+6+4 raw spans with one a/d duplicate merged
    shared = [e for e in g.span_edges if len(e.labels) == 2]
    assert len(shared) == 1 and shared[0].labels == frozenset({"a", "d"})


def test_zero_spans_gives_bare_trie():
    from twomaxsat.formula import parse_cnf

    f = parse_cnf("p cnf 1 1\n1 0\n")  # conjunction a = (v1 ^ y1) has nothing starred
    _, pgraphs, pstars = _stages(f, "lexical")
    trie, node_map = merge_main_paths(pgraphs[:1])
    g = overlay_spans(trie, node_map, pstars[:1])
    assert g.span_edges == ()


def test_overlay_unmapped_position(ce1):
    _, pgraphs, pstars = _stages(ce1, "y1>y2>v1")
    trie, node_map = merge_main_paths(pgraphs)
    broken = dict(node_map)
    del broken["a"]
    with pytest.raises(UnmappedPositionError):
        overlay_spans(trie, broken, pstars)


def test_trie_bounds(running, ce1):
    for f, spec in ((running, "lexical"), (ce1, "y1>y2>v1")):
        run = run_pipeline(f, ordering=spec, algorithm=1)
        n, m = run.dnf.n, run.dnf.m
        assert run.trielike.vertex_count <= n * (m + 2) - 1
        assert run.trie.edge_count <= (m + 1) * n
        assert run.trielike.edge_count <= (m + 2) * (m + 1) * n // 2


def test_parent_table_matches_walks_and_repeats_no_parent():
    # CE1-CE3, family(6) and the front ends fuzz(42, 100) checks
    graphs = _small_graphs()
    assert len(graphs) > 400
    for name, g in graphs:
        assert len(g.parents) == len(g.labels) == g.vertex_count + 1, name
        for node in g.trie.nodes:
            row = g.parents[node.id]
            assert row == walk_parents(g, node.id), (name, node.id)
            # distinct parents give the layered search one edge per (member, parent)
            assert len({pid for pid, _ in row}) == len(row), (name, node.id)
            assert g.labels[node.id] == node.label_text, (name, node.id)
