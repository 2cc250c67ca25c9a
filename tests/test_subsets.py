"""Rooted subgraph enumeration and the findSubset answer."""

from __future__ import annotations

import pytest

from twomaxsat.formula import cnf_to_dnf, pad_missing, parse_cnf
from twomaxsat.layered import build_layered_alg1
from twomaxsat.pipeline import resolve_ordering, run_pipeline
from twomaxsat.sequences import build_sequences
from twomaxsat.spans import build_pgraph, close_spans
from twomaxsat.subsets import find_subset_alg2
from twomaxsat.trie import merge_main_paths, overlay_spans

from tests.layered_reference import enumerate_rooted_subgraphs, unfold


def test_running_contains_shaded_subgraph(running):
    run = run_pipeline(running, ordering="lexical", algorithm=1)
    subgraphs = enumerate_rooted_subgraphs(run.layered)
    trie = run.trie
    shaded = [
        sg
        for sg in subgraphs
        if sg.root.layer == 5
        and trie.node(sg.root.trie_node).label_text == "#"
        and sg.leaf_labels == frozenset({"a", "c"})
    ]
    assert shaded


def test_ce1_two_three_label_subgraphs(ce1):
    run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=1)
    subgraphs = enumerate_rooted_subgraphs(run.layered)
    triples = [sg for sg in subgraphs if len(sg.leaf_labels) == 3]
    assert len(triples) == 2
    assert {frozenset(sg.leaf_labels) for sg in triples} == {
        frozenset({"a", "c", "d"}),
        frozenset({"a", "b", "c"}),
    }


def test_single_path_single_subgraph():
    # one conjunction with nothing starred: the layered graph is the path itself
    f = parse_cnf("p cnf 1 1\n1 0\n")
    d = cnf_to_dnf(f)
    padded = pad_missing(d)
    ordering = resolve_ordering(d, padded, "lexical")
    pgraphs = [build_pgraph(s) for s in build_sequences(padded, ordering)][:1]
    trie, node_map = merge_main_paths(pgraphs)
    g = overlay_spans(trie, node_map, [close_spans(pgraphs[0])])
    lg = build_layered_alg1(g)
    subgraphs = enumerate_rooted_subgraphs(lg)
    assert len(subgraphs) == 1
    assert subgraphs[0].leaf_labels == frozenset({"a"})
    assert subgraphs[0].instances == set(unfold(lg).instances)


def test_satisfied_counts(ce1, ce3):
    ce1_run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=1)
    assert ce1_run.answer.witness.leaf_labels == frozenset({"a", "c", "d"})
    ce3_run = run_pipeline(ce3, ordering="y2>y1>v1", algorithm=1)
    assert ce3_run.answer.witness.leaf_labels == frozenset({"c", "d"})


def test_subgraph_with_single_leaf(running):
    # a subgraph whose only reachable leaf holds {b} claims exactly {b}
    run = run_pipeline(running, ordering="lexical", algorithm=1)
    singles = [
        sg
        for sg in enumerate_rooted_subgraphs(run.layered)
        if sg.leaf_labels == frozenset({"b"})
    ]
    assert singles


def test_satisfiable_single_clause_matches_oracle():
    # (v1 v v1): the oracle gives 1 and the pipeline must agree here
    from twomaxsat.oracle import oracle_max_sat

    f = parse_cnf("p cnf 1 1\n1 0\n")
    for ordering in ("frequency", "lexical", "y1>v1", "v1>y1"):
        for algorithm in (1, 3):
            run = run_pipeline(f, ordering=ordering, algorithm=algorithm)
            assert run.answer.max_count == 1 == oracle_max_sat(f).max_count


def test_find_subset_values(running, ce1, ce3):
    assert run_pipeline(running, ordering="lexical", algorithm=1).answer.max_count == 2
    assert run_pipeline(ce1, ordering="y1>y2>v1", algorithm=1).answer.max_count == 3
    assert run_pipeline(ce3, ordering="y2>y1>v1", algorithm=1).answer.max_count == 2


def test_witness_tie_break_smallest_root(ce1):
    run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=1)
    answer = run.answer
    best = [iid for iid, count in answer.per_subgraph if count == answer.max_count]
    assert answer.witness.root.instance_id == min(best)
    # the winner is the y1-labeled instance in layer 2
    assert run.trie.node(answer.witness.root.trie_node).label_text == "y1"
    assert answer.witness.root.layer == 2


def test_witness_consistency_and_range(running, ce1, ce2, ce3):
    for f, spec in (
        (running, "lexical"),
        (ce1, "y1>y2>v1"),
        (ce2, "v1>y1>y2"),
        (ce3, "y2>y1>v1"),
    ):
        for algorithm in (1, 3):
            answer = run_pipeline(f, ordering=spec, algorithm=algorithm).answer
            assert len(answer.witness.leaf_labels) == answer.max_count
            assert 1 <= answer.max_count <= 2 * f.n0
            assert answer.max_count == max(count for _, count in answer.per_subgraph)


def test_ce1_implied_assignment_matches_flaw_narrative(ce1):
    # the witness claims a and c together by setting y1 true and v1, y2 false,
    # even though c actually needs y2 true: exactly the skip-over inconsistency
    run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=1)
    names = [v.name for v in run.dnf.variables]
    assignment = run.answer.witness.implied_assignment(names)
    assert assignment == {"v1": False, "y1": True, "y2": False}


def test_closure_well_formed(running):
    run = run_pipeline(running, ordering="lexical", algorithm=1)
    lg = unfold(run.layered)
    children: dict[int, list[int]] = {}
    for edge in lg.edges:
        children.setdefault(edge.parent, []).append(edge.child)
    leaf_layer = set(lg.layers[0])
    for sg in enumerate_rooted_subgraphs(run.layered):
        # reachability from the root
        seen = set()
        stack = [sg.root.instance_id]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(children.get(cur, ()))
        assert seen == set(sg.instances)
        leaves_with_labels = {
            iid
            for iid in sg.instances
            if iid in leaf_layer
        }
        collected = set()
        for iid in leaves_with_labels:
            collected |= lg.source.trie.node(lg.instances[iid].trie_node).conjunction_labels
        assert collected == set(sg.leaf_labels)


def test_counts_match_full_closures_on_random_formulas():
    # dual route: the memo walk versus explicit closure enumeration
    import random

    from twomaxsat.formula import formula_from_ints
    from twomaxsat.harness import tie_consistent_orderings

    rng = random.Random(31337)
    for _ in range(60):
        n0 = rng.randint(1, 5)
        m0 = rng.randint(1, 4)
        clauses = [
            [
                rng.randint(1, m0) * rng.choice((1, -1)),
                rng.randint(1, m0) * rng.choice((1, -1)),
            ]
            for _ in range(n0)
        ]
        f = formula_from_ints(clauses, m0)
        for ordering in tie_consistent_orderings(f, 2):
            for algorithm in (1, 3):
                run = run_pipeline(f, ordering=list(ordering), algorithm=algorithm)
                answer = run.answer
                assert 1 <= answer.max_count <= run.dnf.n
                assert len(answer.witness.leaf_labels) == answer.max_count
                subgraphs = enumerate_rooted_subgraphs(run.layered)
                by_root = {sg.root.instance_id: len(sg.leaf_labels) for sg in subgraphs}
                assert run.layered.root_count == len(subgraphs)
                assert dict(answer.per_subgraph) == by_root
                # the witness rebuilt from the memo equals the unfolded closure,
                # edges (in creation order) and instances included
                assert answer.witness in subgraphs


def _assert_walks_agree(front, algorithm):
    from tests.layered_reference import unpruned_best
    from twomaxsat.pipeline import search
    from twomaxsat.subsets import _best, _leaf_masks

    run = search(front, algorithm)
    lg = run.layered
    masks = tuple(_leaf_masks(lg))
    reference: dict = {}
    count, offset = unpruned_best(lg.top, masks, reference)
    memo: dict = {}
    assert _best(lg.top, masks, memo) == (count, offset)
    assert run.answer.max_count == count
    assert run.answer.witness.root.instance_id == len(lg.leaves) + 1 + offset
    assert run.answer.walk_states == len(memo) <= len(reference)
    # the pruned walk fills a subset of the unpruned entries, each exact
    for key, value in memo.items():
        assert reference[key] == value
    return len(memo), len(reference)


def test_pruned_walk_matches_unpruned_on_seed1_formulas():
    from tests.conftest import seed1_formula
    from twomaxsat.pipeline import front_end

    pruned = unpruned = 0
    for n0 in range(8, 17):
        front = front_end(seed1_formula(n0), "frequency")
        for algorithm in (1, 3):
            states = _assert_walks_agree(front, algorithm)
            pruned += states[0]
            unpruned += states[1]
    assert pruned < unpruned


def test_pruned_walk_matches_unpruned_on_fuzz_stream():
    from tests.layered_reference import fuzz_fronts

    for front, algorithm in fuzz_fronts(42, 100):
        _assert_walks_agree(front, algorithm)
