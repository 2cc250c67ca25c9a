"""Trie merging, node numbering, and span overlay."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.layered_reference import (
    assert_ancestry_matches_walks,
    assert_trie_matches_reference,
    walk_parents,
)
from tests.test_ancestry import _small_graphs
from twomaxsat.formula import Variable, cnf_to_dnf, pad_missing
from twomaxsat.pipeline import resolve_ordering, run_pipeline
from twomaxsat.sequences import END_ITEM, START_ITEM, ItemTag, SeqItem, build_sequences
from twomaxsat.spans import PGraph, build_pgraph, close_spans
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
            assert bool(node.conjunction_labels) == (node.kind is ItemTag.END)
            child_labels = [trie.node(c).label_text for c in node.children]
            assert len(child_labels) == len(set(child_labels))


def test_stack_merge_matches_recursive_reference():
    # the builtins, the seed-1 formulas n0 = 8..32 and the front ends fuzz(42, 100) checks
    from tests.conftest import seed1_formula
    from tests.layered_reference import fuzz_fronts
    from twomaxsat.formula import parse_cnf
    from twomaxsat.harness import builtin_counterexamples
    from twomaxsat.pipeline import front_end

    for spec in builtin_counterexamples():
        assert_trie_matches_reference(front_end(parse_cnf(spec.dimacs), spec.ordering).pgraphs)
    for n0 in range(8, 33):
        assert_trie_matches_reference(front_end(seed1_formula(n0), "frequency").pgraphs)
    fronts = 0
    for front, algorithm in fuzz_fronts(42, 100):
        if algorithm == 1:
            assert_trie_matches_reference(front.pgraphs)
            fronts += 1
    assert fronts > 100


_ITEMS = st.builds(
    SeqItem,
    st.sampled_from((ItemTag.VAR, ItemTag.STARRED)),
    st.sampled_from([Variable(i, f"v{i}") for i in (1, 2, 3)]),
)
# '#'-only paths, '#$' paths and '#', up to four variable items, '$'; drawn
# from a small pool, so lists share prefixes and repeat whole paths
_PATHS = st.one_of(
    st.just((START_ITEM,)),
    st.lists(_ITEMS, max_size=4).map(lambda items: (START_ITEM, *items, END_ITEM)),
)
_PGRAPH_LISTS = st.lists(_PATHS, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=8)
).map(lambda paths: [PGraph(f"c{k}", items, ()) for k, items in enumerate(paths)])


@given(_PGRAPH_LISTS)
@settings(max_examples=400, deadline=None)
def test_stack_merge_matches_reference_on_arbitrary_pgraphs(pgraphs):
    assert_trie_matches_reference(pgraphs)
    assert_ancestry_matches_walks(merge_main_paths(pgraphs)[0], [pg.label for pg in pgraphs])


def test_ce1_span_overlay_exact(ce1):
    _, pgraphs, pstars = _stages(ce1, "y1>y2>v1")
    trie, node_map = merge_main_paths(pgraphs)
    g = overlay_spans(trie, node_map, pstars)
    edges = {key: set(labels) for key, labels in g.span_edges}
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
    shared = [labels for _, labels in g.span_edges if len(labels) == 2]
    assert len(shared) == 1 and set(shared[0]) == {"a", "d"}


def test_zero_spans_gives_bare_trie():
    from twomaxsat.formula import parse_cnf

    f = parse_cnf("p cnf 1 1\n1 0\n")  # conjunction a = (v1 ^ y1) has nothing starred
    _, pgraphs, pstars = _stages(f, "lexical")
    trie, node_map = merge_main_paths(pgraphs[:1])
    g = overlay_spans(trie, node_map, pstars[:1])
    assert g.span_edges == []


def test_overlay_unmapped_position(ce1):
    _, pgraphs, pstars = _stages(ce1, "y1>y2>v1")
    trie, node_map = merge_main_paths(pgraphs)
    broken = dict(node_map)
    del broken["a"]
    with pytest.raises(ValueError, match="no node map entry for conjunction a"):
        overlay_spans(trie, broken, pstars)


def test_overlay_short_mapped_path(ce1):
    # d's node map ends one position early: its run's last span lands past it
    _, pgraphs, pstars = _stages(ce1, "y1>y2>v1")
    trie, node_map = merge_main_paths(pgraphs)
    broken = dict(node_map)
    broken["d"] = node_map["d"][:-1]
    with pytest.raises(ValueError, match=r"0\.\.2 of d .* 2 positions"):
        overlay_spans(trie, broken, pstars)


def test_merge_rejects_pgraph_without_start(ce1):
    _, pgraphs, _ = _stages(ce1, "y1>y2>v1")
    headless = PGraph(pgraphs[1].label, pgraphs[1].items[1:], ())
    with pytest.raises(ValueError, match="^p-graph b does not begin with '#'$"):
        merge_main_paths([pgraphs[0], headless])


def test_run_closure_and_overlay_match_per_span_reference():
    # the builtins, the seed-1 formulas n0 = 8..16 and the front ends fuzz(42, 100) checks
    from tests.conftest import seed1_formula
    from tests.layered_reference import assert_front_matches_reference, fuzz_fronts
    from twomaxsat.formula import parse_cnf
    from twomaxsat.harness import builtin_counterexamples
    from twomaxsat.pipeline import front_end

    for spec in builtin_counterexamples():
        assert_front_matches_reference(front_end(parse_cnf(spec.dimacs), spec.ordering))
    for n0 in range(8, 17):
        assert_front_matches_reference(front_end(seed1_formula(n0), "frequency"))
    fronts = 0
    for front, algorithm in fuzz_fronts(42, 100):
        if algorithm == 1:
            assert_front_matches_reference(front)
            fronts += 1
    assert fronts > 100


def test_derived_owners_match_eager_overlay():
    # every tie-consistent ordering of the formulas with n0, m0 <= 2, the front
    # ends fuzz(42, 100) checks and the seed-1 formulas n0 = 8..16
    from tests.conftest import all_formulas, seed1_formula
    from tests.layered_reference import assert_owners_match_eager_overlay, fuzz_fronts
    from twomaxsat.harness import tie_consistent_orderings
    from twomaxsat.pipeline import front_end

    fronts = [
        front_end(f, list(ordering))
        for f in all_formulas(2, 2)
        for ordering in tie_consistent_orderings(f, 10**6)
    ]
    fronts += [front for front, algorithm in fuzz_fronts(42, 100) if algorithm == 1]
    fronts += [front_end(seed1_formula(n0), "frequency") for n0 in range(8, 17)]
    for front in fronts:
        assert_owners_match_eager_overlay(front)
    assert sum(bool(front.trielike.owners) for front in fronts) > 300


def test_search_never_builds_the_owner_map():
    # the search reads the parent rows alone; only the diagnosis and
    # span_edges, which both trie-like exports read, build the owners
    from tests.conftest import seed1_formula

    for algorithm in (1, 3):
        run = run_pipeline(seed1_formula(12), algorithm=algorithm)
        assert run.answer.max_count > 0
        assert "owners" not in run.trielike.__dict__, algorithm


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
        assert not hasattr(g, "parents"), name  # parent_ids is the only parent table
        assert len(g.parent_ids) == len(g.labels) == g.vertex_count + 1, name
        for node in g.trie.nodes:
            row = g.parent_ids[node.id]
            # an entry's kind is its position: the main parent first, then the span targets
            assert list(g.parent_edges(node.id)) == walk_parents(g, node.id), (name, node.id)
            # distinct parents give the layered search one edge per (member, parent)
            assert len(set(row)) == len(row), (name, node.id)
            assert g.labels[node.id] == node.label_text, (name, node.id)


def test_search_audit_and_fuzz_build_no_closed_span_objects(monkeypatch):
    # only build_pgraph's base spans are objects; closed spans are built on
    # read, by the pstars export, and the span edges are listed on read, by
    # both trie-like exports
    from tests.conftest import criterion7_stream, seed1_formula
    from twomaxsat import pipeline
    from twomaxsat.export import STAGES, export_stage
    from twomaxsat.formula import formula_from_ints, parse_cnf
    from twomaxsat.harness import (
        LAYERED_EDGE_BOUND,
        LAYERED_VERTEX_BOUND,
        SPAN_BOUND,
        audit_bounds,
        builtin_by_name,
        builtin_counterexamples,
        fuzz,
        run_counterexample,
    )
    from twomaxsat.pipeline import front_end, search
    from twomaxsat.spans import Span
    from twomaxsat.trie import TrieLikeGraph

    base = [False]
    real_build_pgraph = pipeline.build_pgraph

    def build_pgraph(seq):
        base[0] = True
        try:
            return real_build_pgraph(seq)
        finally:
            base[0] = False

    def refuse_span(self):
        if not base[0]:
            raise AssertionError(f"{self} was built")

    def refuse_edges(self):
        raise AssertionError("TrieLikeGraph.span_edges was read")

    monkeypatch.setattr(pipeline, "build_pgraph", build_pgraph)
    monkeypatch.setattr(Span, "__post_init__", refuse_span)
    monkeypatch.setattr(TrieLikeGraph, "span_edges", property(refuse_edges))
    # criterion 7's 1005 audits
    audits = [(formula_from_ints(c, m0), "frequency") for m0, c in criterion7_stream(1000)]
    audits += [(parse_cnf(s.dimacs), s.ordering) for s in builtin_counterexamples()]
    reports = [audit_bounds(f, ordering=ordering) for f, ordering in audits]
    layered_bounds = {LAYERED_VERTEX_BOUND, LAYERED_EDGE_BOUND}
    assert sum(not r.all_pass for r in reports) == 180
    assert all(b.ok or b.name in layered_bounds for r in reports for b in r.bounds)
    assert fuzz(42, 20)
    assert run_counterexample(builtin_by_name("ce1"))["runs"]
    front = front_end(seed1_formula(12), "frequency")
    runs = [search(front, 1), pipeline.run_pipeline(seed1_formula(12), algorithm=3)]
    small = front_end(seed1_formula(6), "frequency")
    refused = {"pstars": "was built", "trielike": "span_edges was read"}
    for run in (search(small, 1), search(small, 3)):
        for stage in STAGES:
            for fmt in ("dot", "json"):
                if stage in refused:
                    with pytest.raises(AssertionError, match=refused[stage]):
                        export_stage(run, stage, fmt)
                else:
                    export_stage(run, stage, fmt)
    monkeypatch.undo()
    # every counter reads what the materialised spans and span edges give
    for (f, ordering), report in zip(audits, reports):
        run = pipeline.run_pipeline(f, ordering=ordering)
        closed = [len(ps.closed_spans) for ps in run.pstars]
        assert report.counters["closed_spans"] == sum(closed)
        assert report.counters["span_edges"] == len(run.trielike.span_edges)
        assert report.counters["base_spans"] == sum(len(p.spans) for p in run.pgraphs)
        span_bound = next(b for b in report.bounds if b.name == SPAN_BOUND)
        assert span_bound.measured == max(closed)
    assert runs[0].trielike.edge_count == runs[0].trie.edge_count + len(runs[0].trielike.span_edges)
