"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two criteria pin the refutation's measured results rather than the claims
being refuted:

* criterion 5 (family growth): findSubset reports the maximum over all
  rooted subgraphs, and on family(n) that maximum is 2n-1 -- the layer-2 y1
  singleton root reaches every conjunction except b.  The paper's figure n+1
  is the count of one illegal rooted subgraph, so the test asserts that such
  a subgraph exists (a lower bound on the claim) and that the claim is 2n-1,
  against an oracle of n.
* criterion 7 (size bounds): the audit exists to measure Proposition 1's
  bounds, not to confirm them.  The span and trie-like bounds hold on every
  audit and every builtin passes all bounds, but the layered-graph bounds
  break on 180 of the 1005 audits, because the search re-pushes the same
  label-groups at successive layers.  The test pins that count.

Every criterion must pass.
"""

from __future__ import annotations

import json
import random
from collections import Counter

from twomaxsat.formula import (
    Assignment,
    cnf_to_dnf,
    formula_from_ints,
    parse_cnf,
)
from twomaxsat.harness import (
    LAYERED_EDGE_BOUND,
    LAYERED_VERTEX_BOUND,
    FuzzParams,
    audit_bounds,
    builtin_counterexamples,
    family,
    family_ordering,
    fuzz,
    run_counterexample,
)
from twomaxsat.oracle import oracle_max_sat
from twomaxsat.pipeline import run_pipeline
from twomaxsat.spans import build_pgraph, close_spans
from tests.conftest import all_formulas, criterion7_stream
from tests.layered_reference import unfold
from tests.test_oracle import dnf_max_count
from tests.test_spans import closure_oracle, fixpoint_closure, sequence_from_pattern


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


def check(criterion: str, ok: bool, detail: str = "") -> None:
    _report(criterion, ok, detail)
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_running_example_fidelity(running):
    from twomaxsat.export import export_stage

    run = run_pipeline(running, ordering="lexical", algorithm=1)
    oracle = oracle_max_sat(running)
    exported = json.loads(export_stage(run, "trie", "json"))
    leaf_sets = sorted(
        tuple(node["conjunctions"]) for node in exported["nodes"] if node["conjunctions"]
    )
    ok = (
        run.answer.max_count == 2
        and oracle.max_count == 2
        and len(exported["nodes"]) == 16
        and run.trie.vertex_count == 16
        and leaf_sets == [("a",), ("b",), ("c",), ("d",)]
    )
    check(
        "1 running-example",
        ok,
        f"pipeline={run.answer.max_count} oracle={oracle.max_count} "
        f"exported-trie={len(exported['nodes'])} leaves={leaf_sets}",
    )


def test_criterion_02_counterexample_1(ce1):
    run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=1)
    oracle = oracle_max_sat(ce1)
    lg = run.layered
    y2_groups = [
        g for g in lg.groups if g.layer == 2 and g.pushed and g.label == "y2"
    ]
    instances = unfold(lg).instances
    group_names = (
        {lg.source.trie.node(instances[i].trie_node).name for i in y2_groups[0].members}
        if y2_groups
        else set()
    )
    ok = (
        run.answer.max_count == 3
        and oracle.max_count == 2
        and lg.layer_count == 3
        and group_names == {"n4", "n6"}
    )
    check(
        "2 counterexample-1",
        ok,
        f"pipeline={run.answer.max_count} oracle={oracle.max_count} "
        f"layers={lg.layer_count} y2-group={sorted(group_names)}",
    )


def test_criterion_03_counterexample_2(ce2):
    run = run_pipeline(ce2, ordering="v1>y1>y2", algorithm=1)
    oracle = oracle_max_sat(ce2)
    ok = run.answer.max_count == 3 and oracle.max_count == 2
    check(
        "3 counterexample-2",
        ok,
        f"pipeline={run.answer.max_count} oracle={oracle.max_count}",
    )


def test_criterion_04_counterexample_3(ce3):
    run = run_pipeline(ce3, ordering="y2>y1>v1", algorithm=1)
    oracle = oracle_max_sat(ce3)
    ok = run.answer.max_count == 2 and oracle.max_count == 1
    check(
        "4 counterexample-3",
        ok,
        f"pipeline={run.answer.max_count} oracle={oracle.max_count}",
    )


def test_criterion_05_family_n2_matches_ce1(ce1):
    fam = family(2)
    run = run_pipeline(fam, ordering=family_ordering(2), algorithm=1)
    oracle = oracle_max_sat(fam)
    same_as_ce1 = [
        [lit.dimacs for lit in c.literals] for c in fam.clauses
    ] == [[lit.dimacs for lit in c.literals] for c in ce1.clauses]
    ok = run.answer.max_count == 3 and oracle.max_count == 2 and same_as_ce1
    check(
        "5a family(2)=ce1",
        ok,
        f"pipeline={run.answer.max_count} oracle={oracle.max_count} ce1-equal={same_as_ce1}",
    )


def test_criterion_05_family_growth():
    # findSubset's claim is the maximum over all rooted subgraphs: 2n-1 on
    # family(n), from the layer-2 y1 singleton root.  The paper exhibits one
    # illegal rooted subgraph counting n+1; it must exist, but it is a lower
    # bound on the claim, and the two agree only at n=2 (CE1).
    failures = []
    measured = []
    for n in (2, 3, 4, 5, 6):
        fam = family(n)
        run = run_pipeline(fam, ordering=family_ordering(n), algorithm=1)
        oracle = oracle_max_sat(fam)
        counts = [count for _, count in run.answer.per_subgraph]
        measured.append(
            f"n={n}: claim={run.answer.max_count} (2n-1={2 * n - 1}) "
            f"subgraphs@{n + 1}={counts.count(n + 1)} (paper n+1={n + 1}) "
            f"oracle={oracle.max_count}"
        )
        if oracle.max_count != n:
            failures.append(f"family({n}): oracle={oracle.max_count} expected {n}")
        if n + 1 not in counts:
            failures.append(f"family({n}): no rooted subgraph counts n+1={n + 1}")
        if not run.answer.max_count == max(counts) == 2 * n - 1:
            failures.append(
                f"family({n}): claim={run.answer.max_count} "
                f"max-subgraph={max(counts)} expected {2 * n - 1}"
            )
    check("5b family-growth", not failures, "; ".join(measured + failures))


def test_criterion_06_algorithm_3_failure(ce1):
    run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=3)
    lg = run.layered
    top = unfold(lg).layer(lg.layer_count)
    top_is_single_root = (
        len(top) == 1 and lg.source.trie.node(top[0].trie_node).label_text == "#"
    )
    merges_ok = bool(lg.merge_events) and all(e.degenerate for e in lg.merge_events)
    ok = (
        run.answer.max_count == 3
        and lg.layer_count == 4
        and top_is_single_root
        and merges_ok
    )
    check(
        "6 algorithm-3-failure",
        ok,
        f"pipeline={run.answer.max_count} layers={lg.layer_count} "
        f"top-single-#={top_is_single_root} degenerate-merges={len(lg.merge_events)}",
    )


def test_criterion_07_proposition_1_bounds():
    # The audit measures Proposition 1's bounds; the layered ones break on
    # random formulas (180 of these 1005 audits), everything else holds.
    layered_bounds = {LAYERED_VERTEX_BOUND, LAYERED_EDGE_BOUND}
    checked = 0
    violating = 0
    broken: Counter[str] = Counter()
    non_layered = []
    failures = []
    for m0, clauses in criterion7_stream(1000):
        f = formula_from_ints(clauses, m0)
        report = audit_bounds(f)
        checked += 1
        bad = {b.name for b in report.bounds if not b.ok}
        violating += bool(bad)
        broken.update(bad)
        if bad - layered_bounds:
            non_layered.append(clauses)
    for spec in builtin_counterexamples():
        report = audit_bounds(parse_cnf(spec.dimacs), ordering=spec.ordering)
        checked += 1
        if not report.all_pass:
            failures.append(f"builtin {spec.name}: {report.to_dict()['bounds']}")
    if non_layered:
        failures.append(
            f"{len(non_layered)} audits break a non-layered bound, first {non_layered[0]}"
        )
    if violating != 180:
        failures.append(f"{violating} violating audits, recorded 180")
    check(
        "7 proposition-1-bounds",
        not failures,
        f"{checked} audits, {violating} violating (recorded 180): "
        + ", ".join(f"{name} x{k}" for name, k in sorted(broken.items()))
        + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_08_transformation_soundness():
    checked = 0
    for f in all_formulas(3, 3):
        d = cnf_to_dnf(f)
        assert dnf_max_count(d) == oracle_max_sat(f).max_count, f"disagreement on {f}"
        checked += 1
    # at-most-one-per-pair for every assignment, exhaustively at the same scale
    for f in all_formulas(2, 2):
        d = cnf_to_dnf(f)
        for bits in range(2**d.m):
            a = Assignment(tuple(bool((bits >> i) & 1) for i in range(d.m)))
            for i in range(f.n0):
                pair = d.conjunctions[2 * i : 2 * i + 2]
                true_count = sum(
                    1
                    for c in pair
                    if a.literal(c.literals[0]) and a.literal(c.literals[1])
                )
                assert true_count <= 1
    check("8 transformation-soundness", True, f"{checked} formulas exhaustively")


def test_criterion_09_span_closure_oracle():
    rng = random.Random(909)
    for _ in range(10_000):
        interior = rng.randint(0, 10)  # 12 items including the sentinels
        flags = [rng.random() < 0.5 for _ in range(interior)]
        seq = sequence_from_pattern(flags)
        p = build_pgraph(seq)
        closed = {(s.from_pos, s.to_pos) for s in close_spans(p).closed_spans}
        assert closed == closure_oracle(seq) == fixpoint_closure(p)
    check("9 span-closure-oracle", True, "10000 sequences, two oracles")


def test_criterion_10_determinism():
    def repro_bytes() -> bytes:
        reports = [
            run_counterexample(spec, strict=False)
            for spec in builtin_counterexamples()
        ]
        return json.dumps(reports, indent=2).encode()

    repro_equal = repro_bytes() == repro_bytes()
    params = FuzzParams()
    first = json.dumps([m.to_dict() for m in fuzz(42, 500, params)]).encode()
    second = json.dumps([m.to_dict() for m in fuzz(42, 500, params)]).encode()
    ok = repro_equal and first == second
    check(
        "10 determinism",
        ok,
        f"repro-identical={repro_equal} fuzz-identical={first == second}",
    )


def test_criterion_11_runtime_class_not_asserted(ce1):
    # out of scope by design: the audit only reports counters and the
    # 216*n0^6 frame value as context; no asymptotic class is asserted
    report = audit_bounds(ce1, ordering="y1>y2>v1")
    ok = report.frame_value_n0_6 == 216 * ce1.n0**6 and bool(report.counters)
    check("11 runtime-context-only", ok, f"frame={report.frame_value_n0_6}")
