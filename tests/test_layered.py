"""Layered graph construction: SEARCH, the improved variant, and its
duplicate-node classification."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from tests.layered_reference import unfold
from twomaxsat.formula import cnf_to_dnf, pad_missing, parse_cnf
from twomaxsat.layered import _case, build_layered_alg1, build_layered_alg3
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


def _entries(lg):
    """The distinct ``Expansion``s reachable from the top: the memo's entries."""
    seen, stack = {}, [lg.top]
    while stack:
        exp = stack.pop()
        if id(exp) not in seen:
            seen[id(exp)] = exp
            stack.extend(child for _, child in exp.children)
    return list(seen.values())


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


def _classify(g, generators):
    """The case the build gives a merge of these distinct generator nodes."""
    return _case(sorted(generators), g.trie.branch)


def test_classify_cases(ce1):
    g = _trielike(ce1, "y1>y2>v1")
    # n3 and n7 generated parent n1 from different root branches
    assert _classify(g, {3, 7}) == "case1"
    # n3 and n5 share the branch through n2 without lying on one path
    assert _classify(g, {3, 5}) == "case3"


def test_every_public_name_resolves():
    import twomaxsat

    for name in twomaxsat.__all__:
        assert hasattr(twomaxsat, name), name


def test_public_surface_is_used():
    # every public top-level def/class and every __all__ name has a user: code
    # in src/ outside __init__.py (docstrings do not count), bench/, or README
    import ast
    import re
    from pathlib import Path

    import twomaxsat

    root = Path(__file__).resolve().parents[1]
    public = set(twomaxsat.__all__)
    used = set()
    for path in sorted((root / "src" / "twomaxsat").glob("*.py")):
        tree = ast.parse(path.read_text())
        public.update(
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        )
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    texts = [p.read_text() for p in sorted((root / "bench").glob("*.py"))]
    texts.append((root / "README.md").read_text())
    used.update(
        name for name in public if any(re.search(rf"\b{name}\b", text) for text in texts)
    )
    unused = sorted(public - used)
    assert not unused, f"public names that src/, bench/ and README.md never use: {unused}"


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


def test_algorithm3_never_makes_a_case2_merge():
    # a merge's generators are members of one group, so they share one label,
    # and a root path names each label once: no two generators lie on one
    # root path, and the only Case 1 merges are at the trie root, node 1;
    # the walk-based reference, which still knows Case 2, classifies each one
    from tests.conftest import all_formulas
    from tests.layered_reference import fuzz_fronts, walk_case
    from twomaxsat.harness import tie_consistent_orderings
    from twomaxsat.pipeline import front_end

    graphs = [front.trielike for front, algorithm in fuzz_fronts(42, 100) if algorithm == 3]
    for f in all_formulas(2, 2):
        for ordering in tie_consistent_orderings(f, 10**6):
            graphs.append(front_end(f, list(ordering)).trielike)
    cases = Counter()
    for g in graphs:
        for exp in _entries(build_layered_alg3(g)):
            for c, generators, case in exp.merges:
                assert walk_case(g, generators) == case, generators
                cases[case] += 1
                if case == "case1":
                    assert exp.created[c] == 1
    assert set(cases) == {"case1", "case3"}, cases


def test_ce1_alg3_witness_and_count(ce1):
    run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=3)
    assert run.answer.max_count == 3
    assert run.layered.layer_count == 4
    top = unfold(run.layered).layer(4)
    assert len(top) == 1
    assert run.layered.source.trie.node(top[0].trie_node).label_text == "#"


def test_replay_skips_the_pops_that_create_nothing():
    # Algorithm 3 pushes the parentless trie root as a merge-sibling singleton;
    # popping it creates nothing, so replay yields no pop for it
    from tests.conftest import seed1_formula
    from twomaxsat.layered import replay
    from twomaxsat.pipeline import front_end, search

    front = front_end(seed1_formula(10), "frequency")
    for algorithm, skipped in ((1, 0), (3, 1_522)):
        lg = search(front, algorithm).layered
        pops = [exp for exp, *_ in replay(lg)]
        assert all(exp.created for exp in pops)
        assert lg.expanded_group_count - len(pops) == skipped


def test_search_rejects_an_unknown_algorithm(ce1):
    from twomaxsat.pipeline import front_end, search

    with pytest.raises(ValueError, match="must be 1 or 3, got 2"):
        search(front_end(ce1, "frequency"), 2)


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
    from twomaxsat.sequences import ItemTag
    from twomaxsat.trie import Trie, TrieLikeGraph, TrieNode

    v1, v2 = Variable(0, "v1"), Variable(1, "v2")
    trie = Trie(
        [
            TrieNode(1, ItemTag.START, None, None, [2, 4]),
            TrieNode(2, ItemTag.VAR, v1, 1, [3]),
            TrieNode(3, ItemTag.END, None, 2, [], frozenset({"a"})),
            TrieNode(4, ItemTag.VAR, v2, 1, [5]),
            TrieNode(5, ItemTag.END, None, 4, [], frozenset({"b"})),
        ]
    )
    g = TrieLikeGraph(trie, {}, {(5, 2): ["b"]})
    assert _classify(g, {3, 5}) == "case1"
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
    # family(n) under family_ordering(n), n = 2..40: every total the memo adds
    # up, and the memo's size, against closed forms; family() stops at 12, so
    # the clauses are built here
    from twomaxsat.formula import formula_from_ints
    from twomaxsat.harness import family_ordering
    from twomaxsat.pipeline import front_end

    def cos_term(k):  # 2cos(pi k / 3): period 6
        return [2, 1, -1, -2, -1, 1][k % 6]

    broken: dict[str, int] = {}  # bound -> first n at which Algorithm 1 breaks it
    for n in range(2, 41):
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
        assert (len(_entries(one)), len(_entries(three))) == (n, 2 * n - 1), n
        dnf_n, m = 2 * n, n + 1  # n clauses over v1 give 2n conjunctions over v1, y1..yn
        for bound, measured, limit in (
            ("vertex", one.vertex_count, (dnf_n * (m + 2) - 1) * (m + 2)),
            ("edge", one.edge_count, (m + 2) * (m + 1) ** 2 * dnf_n // 2),
            ("216*n0^6", one.vertex_count, 216 * n**6),
        ):
            if measured > limit:
                broken.setdefault(bound, n)
    assert broken == {"vertex": 11, "edge": 14, "216*n0^6": 38}


@pytest.mark.parametrize(
    "build, below, above",
    [
        (build_layered_alg1, (27, 55_360_619_383), (28, 110_721_238_583)),
        (build_layered_alg3, (28, 99_781_587_142), (29, 198_615_276_467)),
    ],
    ids=["alg1", "alg3"],
)
def test_seed1_counts_cross_the_frame(build, below, above):
    # criterion 7's clause rule drawn from Random(1): the layered instance
    # count passes the audit's 216*n0^6 frame between these n0; only the
    # eager counts are built, with no findSubset and no oracle
    from tests.conftest import seed1_formula
    from twomaxsat.pipeline import front_end

    for (n0, count), crossed in ((below, False), (above, True)):
        lg = build(front_end(seed1_formula(n0), "frequency").trielike)
        assert lg.vertex_count == count, n0
        assert (lg.vertex_count > 216 * n0**6) is crossed, n0


def test_layered_exports_leave_no_edge_list_on_memo_entries():
    # both layered writers walk the parent rows: no memo entry keeps or offers an edge list
    from tests.conftest import seed1_formula
    from twomaxsat.export import export_stage

    small = run_pipeline(seed1_formula(6), algorithm=3)
    export_stage(small, "layered", "json")
    export_stage(small, "layered", "dot")
    entries, stack = {}, [small.layered.top]
    while stack:
        exp = stack.pop()
        if id(exp) not in entries:
            entries[id(exp)] = exp
            stack.extend(child for _, child in exp.children)
    assert len(entries) > 10
    assert not any(hasattr(exp, "edges") for exp in entries.values())


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

        def refuse_roots(*args):
            raise AssertionError("the roots were listed")

        monkeypatch.setattr(subsets, "_walk_roots", refuse_roots)
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
