"""Layered graph construction: SEARCH, the improved variant, and its
duplicate-node classification."""

from __future__ import annotations

import json

import pytest

from tests.layered_reference import unfold
from twomaxsat.errors import NotADuplicateError
from twomaxsat.formula import cnf_to_dnf, pad_missing, parse_cnf
from twomaxsat.layered import build_layered_alg1, build_layered_alg3, classify_duplicate_case
from twomaxsat.pipeline import resolve_ordering, run_pipeline
from twomaxsat.sequences import build_sequences
from twomaxsat.spans import build_pgraph, close_spans
from twomaxsat.trie import merge_main_paths, overlay_spans


def _trielike(f, ordering_spec, only=None):
    d = cnf_to_dnf(f)
    padded = pad_missing(d)
    ordering = resolve_ordering(d, padded, ordering_spec)
    seqs = build_sequences(padded, ordering)
    pgraphs = [build_pgraph(s) for s in seqs]
    if only is not None:
        pgraphs = pgraphs[:only]
    pstars = [close_spans(p) for p in pgraphs]
    trie, node_map = merge_main_paths(pgraphs)
    return overlay_spans(trie, node_map, pstars)


def _names(lg, layer_index):
    return [lg.source.trie.node(i.trie_node).name for i in lg.layer(layer_index)]


def test_ce1_alg1_layers_and_group(ce1):
    g = _trielike(ce1, "y1>y2>v1")
    lg = build_layered_alg1(g)
    unfolded = unfold(lg)
    assert lg.layer_count == 3
    assert _names(unfolded, 1) == ["n3", "n5", "n7"]
    assert _names(unfolded, 2) == ["n2", "n1", "n4", "n6"]
    assert _names(unfolded, 3) == ["n2", "n1"]
    y2_groups = [
        grp for grp in lg.groups if grp.label == "y2" and grp.layer == 2 and grp.pushed
    ]
    assert len(y2_groups) == 1
    members = {g.trie.node(unfolded.instances[i].trie_node).name for i in y2_groups[0].members}
    assert members == {"n4", "n6"}
    assert lg.edge_count == 9


def test_running_alg1_layer_profile(running):
    run = run_pipeline(running, ordering="lexical", algorithm=1)
    lg = unfold(run.layered)
    assert [len(layer) for layer in lg.layers] == [4, 8, 10, 9, 6, 2]
    by_label: dict[str, int] = {}
    for inst in lg.layer(2):
        label = lg.source.trie.node(inst.trie_node).label_text
        by_label[label] = by_label.get(label, 0) + 1
    assert by_label == {"y1": 1, "v3": 2, "y2": 3, "#": 1, "v1": 1}
    pushed_l2 = [g for g in lg.groups if g.layer == 2 and g.pushed]
    assert sorted((g.label, len(g.members)) for g in pushed_l2) == [("v3", 2), ("y2", 3)]


def test_single_path_stops_at_layer_two():
    # one conjunction, nothing starred: the trie-like graph is a bare path
    f = parse_cnf("p cnf 1 1\n1 0\n")
    g = _trielike(f, "lexical", only=1)
    assert not g.span_edges
    assert build_layered_alg1(g).layer_count == 2
    lg1 = unfold(build_layered_alg1(g))
    assert len(lg1.layer(2)) == 1
    lg3 = unfold(build_layered_alg3(g))
    assert [len(l) for l in lg3.layers] == [len(l) for l in lg1.layers]
    assert [(e.child, e.parent) for e in lg3.edges] == [(e.child, e.parent) for e in lg1.edges]
    assert lg3.merge_events == []


def test_edge_provenance(running, ce1, ce3):
    for f, spec in ((running, "lexical"), (ce1, "y1>y2>v1"), (ce3, "y2>y1>v1")):
        g = _trielike(f, spec)
        for lg in map(unfold, (build_layered_alg1(g), build_layered_alg3(g))):
            span_pairs = {(e.child, e.parent) for e in g.span_edges}
            for edge in lg.edges:
                child = lg.instances[edge.child]
                parent = lg.instances[edge.parent]
                assert parent.layer == child.layer + 1
                pair = (child.trie_node, parent.trie_node)
                if edge.kind == "main":
                    assert g.trie.node(child.trie_node).parent == parent.trie_node
                else:
                    assert pair in span_pairs


def test_footnote_constraint(running):
    # every pushed group's members are parents of members of one child group
    run = run_pipeline(running, ordering="lexical", algorithm=1)
    lg = unfold(run.layered)
    by_id = {g.group_id: g for g in lg.groups}
    parent_of = {}
    for edge in lg.edges:
        parent_of.setdefault(edge.parent, set()).add(edge.child)
    for grp in lg.groups:
        if grp.child_group is None or not grp.pushed:
            continue
        child_members = set(by_id[grp.child_group].members)
        for iid in grp.members:
            assert parent_of[iid] & child_members


def test_layer_count_bounded_by_trie_depth(running, ce1, ce2, ce3):
    for f, spec in (
        (running, "lexical"),
        (ce1, "y1>y2>v1"),
        (ce2, "v1>y1>y2"),
        (ce3, "y2>y1>v1"),
    ):
        g = _trielike(f, spec)
        depth = 1 + max(len(g.trie.ancestors(leaf.id)) for leaf in g.trie.leaves())
        for build in (build_layered_alg1, build_layered_alg3):
            assert build(g).layer_count <= depth


def test_ce1_alg3_structure(ce1):
    g = _trielike(ce1, "y1>y2>v1")
    lg = build_layered_alg3(g)
    unfolded = unfold(lg)
    assert lg.layer_count == 4
    assert _names(unfolded, 2) == ["n2", "n1", "n4", "n6"]
    assert _names(unfolded, 3) == ["n2", "n1"]
    assert _names(unfolded, 4) == ["n1"]
    assert len(lg.merge_events) == 3
    assert all(e.degenerate for e in lg.merge_events)
    reasons = sorted(e.reason for e in lg.merge_events)
    assert reasons == ["anchor-not-on-path", "anchor-not-on-path", "non-case1-merge"]
    # no layer holds two instances of one trie node on this input
    for layer in unfolded.layers:
        nodes = [unfolded.instances[i].trie_node for i in layer]
        assert len(nodes) == len(set(nodes))


def test_alg3_dedup_within_expansion(ce2):
    g = _trielike(ce2, "v1>y1>y2")
    lg = unfold(build_layered_alg3(g))
    for layer in lg.layers:
        nodes = [lg.instances[i].trie_node for i in layer]
        assert len(nodes) == len(set(nodes))


def test_classify_cases(ce1, running):
    g = _trielike(ce1, "y1>y2>v1")
    # n3 and n7 generated parent n1 from different root branches
    assert classify_duplicate_case(g, {3, 7}) == "case1"
    # n3 and n5 share the branch through n2 without lying on one path
    assert classify_duplicate_case(g, {3, 5}) == "case3"
    # two nodes on one root-to-leaf path
    gr = _trielike(running, "lexical")
    assert classify_duplicate_case(gr, {2, 4}) == "case2"
    with pytest.raises(NotADuplicateError):
        classify_duplicate_case(g, {3})


def test_every_public_name_resolves():
    import twomaxsat

    for name in twomaxsat.__all__:
        assert hasattr(twomaxsat, name), name


def test_every_merge_degenerates_on_pipeline_graphs():
    # span edges point at ancestors on the owner's root path, so duplicated
    # non-root parents never classify as Case 1 and a Case 1 repeat can only
    # be the anchorless root: no merge reaches reachable subsets or upper boundaries
    import random

    from twomaxsat.formula import formula_from_ints
    from twomaxsat.harness import tie_consistent_orderings

    rng = random.Random(555)
    for _ in range(80):
        n0 = rng.randint(1, 6)
        m0 = rng.randint(1, 5)
        clauses = [
            [
                rng.randint(1, m0) * rng.choice((1, -1)),
                rng.randint(1, m0) * rng.choice((1, -1)),
            ]
            for _ in range(n0)
        ]
        f = formula_from_ints(clauses, m0)
        ordering = tie_consistent_orderings(f, 1)[0]
        run = run_pipeline(f, ordering=list(ordering), algorithm=3)
        g = run.trielike
        for edge in g.span_edges:
            assert edge.parent in g.trie.ancestors(edge.child)
        for event in run.layered.merge_events:
            assert event.degenerate
            if event.case == "case1":
                assert event.trie_node == 1  # only the root repeats as Case 1


def test_ce1_alg3_witness_and_count(ce1):
    run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=3)
    assert run.answer.max_count == 3
    assert run.layered.layer_count == 4
    top = unfold(run.layered).layer(4)
    assert len(top) == 1
    assert run.layered.source.trie.node(top[0].trie_node).label_text == "#"


def test_alg3_running_same_answer_as_alg1(running):
    one = run_pipeline(running, ordering="lexical", algorithm=1)
    three = run_pipeline(running, ordering="lexical", algorithm=3)
    assert one.answer.max_count == three.answer.max_count == 2


def test_case1_merge_below_the_root_is_an_internal_error():
    # hand-built: a span edge from leaf n5 (branch n4) to n2 (branch n2) leaves
    # its owner's root path, so n2 repeats as a Case 1 merge with anchor n1;
    # the memo and the reference builder both refuse it
    from tests import layered_reference
    from twomaxsat.errors import InternalError
    from twomaxsat.formula import Variable
    from twomaxsat.trie import NodeKind, Trie, TrieLikeGraph, TrieNode

    v1, v2 = Variable(0, "v1"), Variable(1, "v2")
    trie = Trie(
        [
            TrieNode(1, NodeKind.START, None, None, [2, 4]),
            TrieNode(2, NodeKind.VAR, v1, 1, [3]),
            TrieNode(3, NodeKind.END, None, 2, [], frozenset({"a"})),
            TrieNode(4, NodeKind.VAR, v2, 1, [5]),
            TrieNode(5, NodeKind.END, None, 4, [], frozenset({"b"})),
        ]
    )
    g = TrieLikeGraph(trie, {}, {(5, 2): ["b"]})
    assert classify_duplicate_case(g, {3, 5}) == "case1"
    assert build_layered_alg1(g).vertex_count == 4  # n2 and n4 form no group
    for build in (build_layered_alg3, layered_reference.build_layered_alg3):
        with pytest.raises(InternalError, match="n2"):
            build(g)


def test_memo_matches_reference_on_all_small_formulas():
    # every formula with n0 <= 3 clauses over m0 <= 3 variables (52,440),
    # both algorithms, default ordering
    from tests.conftest import all_formulas
    from tests.layered_reference import (
        assert_front_matches_reference,
        assert_matches_reference,
        assert_trie_matches_reference,
    )
    from twomaxsat.pipeline import front_end

    for f in all_formulas(3, 3):
        front = front_end(f, "frequency")
        assert_trie_matches_reference(front.pgraphs)
        assert_front_matches_reference(front)
        for algorithm in (1, 3):
            assert_matches_reference(front, algorithm)


def test_memo_matches_reference_on_fuzz_stream():
    # exactly the (formula, ordering, algorithm) items fuzz(42, 100) checks
    from tests.layered_reference import assert_matches_reference, fuzz_fronts

    items = 0
    for front, algorithm in fuzz_fronts(42, 100):
        assert_matches_reference(front, algorithm)
        items += 1
    assert items > 200


def test_family_counts_follow_closed_forms():
    # family(n) under family_ordering(n), n = 2..24: every total the memo adds
    # up, against closed forms; family() stops at 12, so the clauses are built here
    from twomaxsat.formula import formula_from_ints
    from twomaxsat.harness import family_ordering
    from twomaxsat.pipeline import front_end

    def cos_term(k):  # 2cos(pi k / 3): period 6
        return [2, 1, -1, -2, -1, 1][k % 6]

    for n in range(2, 25):
        g = front_end(formula_from_ints([[-1, -1]] * n, 1), family_ordering(n)).trielike
        one, three = build_layered_alg1(g), build_layered_alg3(g)
        assert (one.vertex_count, one.edge_count, one.layer_count, one.root_count) == (
            5 * 2 ** (n - 1) - 1,
            9 * 2 ** (n - 1) - 2 * n - 5,
            n + 1,
            2**n,
        ), n
        thirds = (
            7 * 2**n + cos_term(n - 2),
            11 * 2**n - 3 * n - 9 + cos_term(n - 3),
            2 ** (n + 1) + cos_term(n - 3),
        )
        assert all(x % 3 == 0 for x in thirds), n
        assert (three.vertex_count, three.edge_count, three.merge_event_count) == tuple(
            x // 3 for x in thirds
        ), n
        assert (three.layer_count, three.root_count) == (n + 2, 2**n), n


def test_search_derives_edges_only_on_the_witness_chain():
    # findSubset ORs masks along the parent rows; only the witness closure
    # reads the derived edges, one memo entry per layer of its chain at most
    from tests.conftest import seed1_formula

    for algorithm in (1, 3):
        lg = run_pipeline(seed1_formula(16), algorithm=algorithm).layered
        entries, stack = {}, [lg.top]
        while stack:
            exp = stack.pop()
            if id(exp) not in entries:
                entries[id(exp)] = exp
                stack.extend(child for _, child in exp.children)
        derived = [exp for exp in entries.values() if "edges" in vars(exp)]
        assert len(entries) > 100, algorithm
        assert lg.top in derived and len(derived) <= lg.layer_count, algorithm
        # the derived entries form one chain down from the top
        below = {id(child) for exp in derived for _, child in exp.children}
        assert all(id(exp) in below for exp in derived if exp is not lg.top), algorithm


def test_search_audit_repro_and_fuzz_never_unfold(monkeypatch):
    # unfolding builds a Group for every group and a MergeEvent for every
    # merge: with both refused, nothing below may unfold
    from tests.conftest import seed1_formula as seeded
    from tests.layered_reference import refusing_groups
    from twomaxsat import subsets
    from twomaxsat.export import export_stage
    from twomaxsat.harness import audit_bounds, builtin_by_name, fuzz, run_counterexample

    with refusing_groups():
        f = seeded(14)
        run = run_pipeline(f)
        # per_subgraph lists every root on purpose here; nothing below may
        assert len(run.answer.per_subgraph) > 1_000_000
        assert run.answer.max_count == max(count for _, count in run.answer.per_subgraph)
        assert run.layered.root_count == len(run.answer.per_subgraph)
        lg = run.layered
        del run  # two million roots are enough to hold at once

        def refuse_roots(lg):
            raise AssertionError("the roots were listed")

        monkeypatch.setattr(subsets, "_root_counts", refuse_roots)
        report = audit_bounds(f)
        assert report.counters["layered_instances"] == lg.vertex_count
        assert report.counters["layered_edges"] == lg.edge_count
        assert report.counters["groups"] == lg.group_count
        assert report.counters["rooted_subgraphs"] == lg.root_count
        family_report = run_counterexample(builtin_by_name("family(12)"), strict=False)
        assert family_report["runs"][0]["pipeline"] == 2 * 12 - 1
        assert fuzz(42, 20)
        small = run_pipeline(seeded(6), algorithm=3)
        payload = json.loads(export_stage(small, "layered", "json"))
        assert len(payload["instances"]) == small.layered.vertex_count == 3_344
        assert len(payload["merge_events"]) == small.layered.merge_event_count == 1_206
        dot = export_stage(small, "layered", "dot")
        assert dot.count(" -> ") == small.layered.edge_count
        # 17,304,034 instances and 9,699,328 roots: the unpruned walk filled
        # 138,516 memo entries, the branch and bound fills 65 (Algorithm 3: 10)
        big = run_pipeline(seeded(16))
        assert big.answer.max_count == 26
        assert big.answer.witness.root.instance_id == 9_461_917
        assert big.layered.root_count == 9_699_328
        assert big.answer.walk_states == 65
        assert run_pipeline(seeded(16), algorithm=3).answer.walk_states == 10
        # 4.8e9 instances; the unpruned walk took 3,335,052 states, 29 s and 1.2 GB
        # to find these answers
        # (vertex_count, edge_count, merge_event_count, layer_count): the
        # Algorithm 3 merges are classified one by one as they are made
        for algorithm, answer, counts in [
            (1, (37, 3_546_210_574), (4_833_149_551, 8_330_161_189, 0, 32)),
            (3, (32, 33), (4_821_282_863, 6_923_346_578, 1_400_911_038, 33)),
        ]:
            huge = run_pipeline(seeded(24), algorithm=algorithm)
            assert (huge.answer.max_count, huge.answer.witness.root.instance_id) == answer
            lg24 = huge.layered
            assert (
                lg24.vertex_count, lg24.edge_count, lg24.merge_event_count, lg24.layer_count
            ) == counts
        with pytest.raises(AssertionError, match="unfolded"):
            lg.groups
        with pytest.raises(AssertionError, match="unfolded"):
            small.layered.merge_events
        with pytest.raises(AssertionError, match="listed"):
            big.answer.per_subgraph
