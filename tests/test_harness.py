"""Harness: builtins, fuzzing, shrinking, diagnosis, and bound audits."""

from __future__ import annotations

import ast
import itertools
import json
import multiprocessing
import os
import random
import sys
import types
from pathlib import Path

import pytest

from tests.conftest import fuzz_forks
from twomaxsat import harness
from twomaxsat.errors import ExpectationFailedError, TooManyVariablesError
from twomaxsat.formula import cnf_to_dnf, formula_from_ints, pad_missing, parse_cnf, render_cnf
from twomaxsat.harness import (
    CE1_DIMACS,
    FuzzParams,
    audit_bounds,
    builtin_by_name,
    builtin_counterexamples,
    check,
    family,
    family_ordering,
    fuzz,
    random_formula,
    run_counterexample,
    shrink,
    tie_consistent_orderings,
)
from twomaxsat.oracle import oracle_max_sat
from twomaxsat.pipeline import run_pipeline
from twomaxsat.report import report_text
from twomaxsat.sequences import sequence_frequencies, tie_consistent


def test_builtin_specs():
    specs = {s.name: s for s in builtin_counterexamples()}
    assert set(specs) == {"running", "ce1", "ce2", "ce3", "family(4)"}
    assert (specs["ce1"].expected_pipeline, specs["ce1"].expected_oracle) == (3, 2)
    assert (specs["ce2"].expected_pipeline, specs["ce2"].expected_oracle) == (3, 2)
    assert (specs["ce3"].expected_pipeline, specs["ce3"].expected_oracle) == (2, 1)
    assert (specs["running"].expected_pipeline, specs["running"].expected_oracle) == (2, 2)
    assert (specs["family(4)"].expected_pipeline, specs["family(4)"].expected_oracle) == (5, 4)
    assert specs["ce1"].algorithms == (1, 3)
    # every rigged ordering only breaks frequency ties
    for name in ("ce1", "ce2", "ce3", "family(4)"):
        padded = pad_missing(cnf_to_dnf(parse_cnf(specs[name].dimacs)))
        assert tie_consistent(padded, specs[name].ordering.split(">")), name


def test_run_counterexample_running_and_ces():
    for name in ("running", "ce1", "ce2", "ce3"):
        report = run_counterexample(builtin_by_name(name))
        assert report["ok"]
        for entry in report["runs"]:
            assert entry["pipeline_ok"]


def test_run_counterexample_ce1_alg3_details():
    report = run_counterexample(builtin_by_name("ce1"))
    alg3 = next(e for e in report["runs"] if e["algorithm"] == 3)
    assert alg3["pipeline"] == 3
    assert alg3["layers"] == 4
    assert alg3["merge_events"] == alg3["degenerate_merges"] == 3


def test_run_counterexample_ce3_mismatch_recorded():
    report = run_counterexample(builtin_by_name("ce3"))
    alg1 = next(e for e in report["runs"] if e["algorithm"] == 1)
    assert alg1["pipeline"] == 2 and report["oracle"] == 1
    assert alg1["mismatch_vs_oracle"]


def test_family_expectation_honestly_fails():
    # The recorded expectation (n+1) understates the measured blow-up (2n-1):
    # the layer-2 y1 singleton root collects the full-sequence leaf plus every
    # all-starred branch leaf.  See the acceptance suite for the criterion.
    spec = builtin_by_name("family(4)")
    with pytest.raises(ExpectationFailedError):
        run_counterexample(spec)
    report = run_counterexample(spec, strict=False)
    assert report["oracle_ok"]  # oracle = n holds
    assert report["runs"][0]["pipeline"] == 7  # 2n-1 for n=4
    assert not report["ok"]


def test_family_measured_growth():
    for n in (2, 3, 4, 5, 6):
        fam = family(n)
        run = run_pipeline(fam, ordering=family_ordering(n), algorithm=1)
        assert oracle_max_sat(fam).max_count == n
        assert run.answer.max_count == 2 * n - 1
        assert run.answer.max_count > oracle_max_sat(fam).max_count  # always a mismatch
        # the winning root is the y1 singleton: it reaches the full-sequence
        # leaf plus every all-starred branch leaf, i.e. everything but b
        all_labels = {c.label for c in run.dnf.conjunctions}
        assert run.answer.witness.leaf_labels == frozenset(all_labels - {"b"})


def test_family_two_is_ce1():
    assert render_cnf(family(2)) == CE1_DIMACS


def test_tie_consistent_orderings_ce1(ce1):
    orderings = tie_consistent_orderings(ce1, 10)
    assert ("y1", "y2", "v1") in orderings
    assert ("y2", "y1", "v1") in orderings
    assert all(names[-1] == "v1" for names in orderings)  # v1 has frequency 0


def _product_orderings(f, cap):
    """The eager enumeration: every tier's permutations, producted in tier order."""
    freq = sequence_frequencies(pad_missing(cnf_to_dnf(f)))
    by_count: dict[int, list[str]] = {}
    for var, count in freq.items():
        by_count.setdefault(count, []).append(var.name)
    tiers = [sorted(by_count[c]) for c in sorted(by_count, reverse=True)]
    combos = itertools.product(*(itertools.permutations(t) for t in tiers))
    return [tuple(itertools.chain.from_iterable(c)) for c in itertools.islice(combos, cap)]


def test_tie_orderings_match_eager_product():
    rng = random.Random(31)
    params = FuzzParams(max_n0=5, max_m0=4)
    for _ in range(300):
        f = random_formula(rng, params)
        for cap in (1, 6, 50):
            assert tie_consistent_orderings(f, cap) == _product_orderings(f, cap)


def test_tie_consistent_is_membership_in_tie_orderings():
    # every permutation of the table is legal exactly when the enumeration
    # (uncapped) lists it
    rng = random.Random(37)
    params = FuzzParams(max_n0=3, max_m0=2)
    for _ in range(60):
        f = random_formula(rng, params)
        d = cnf_to_dnf(f)
        padded = pad_missing(d)
        names = [v.name for v in d.variables]
        legal = set(tie_consistent_orderings(f, 10**6))
        for perm in itertools.permutations(names):
            assert tie_consistent(padded, perm) == (perm in legal)


def test_tie_orderings_wide_tie_is_lazy():
    # v1..v12 all appear in both sequences: a 12-way tie of 12! permutations,
    # of which only the first 6 may be generated
    f = formula_from_ints([[1, 2]], 12)
    tier = sorted(f"v{i}" for i in range(1, 13))
    expected = [head + ("y1",) for head in itertools.islice(itertools.permutations(tier), 6)]
    assert tie_consistent_orderings(f, 6) == expected


def test_fuzz_equals_one_run_per_item():
    # the shared front end and the once-per-formula oracle change no mismatch:
    # the reference is a whole run_pipeline call per item, not harness.check
    params = FuzzParams(max_n0=4, max_m0=3, orderings_per_formula=3)
    rng = random.Random(11)
    expected = []
    for _ in range(40):
        f = random_formula(rng, params)
        truth = oracle_max_sat(f).max_count
        for ordering in tie_consistent_orderings(f, params.orderings_per_formula):
            for algorithm in params.algorithms:
                answer = run_pipeline(f, ordering, algorithm).answer
                if answer.max_count != truth:
                    labels = tuple(sorted(answer.witness.leaf_labels))
                    item = (render_cnf(f), ordering, algorithm, answer.max_count, truth, labels)
                    expected.append(item)
    assert expected
    assert [
        (m.dimacs, m.ordering, m.algorithm, m.pipeline_answer, m.oracle_answer, m.witness_labels)
        for m in fuzz(11, 40, params)
    ] == expected


@pytest.fixture
def oracle_pids(monkeypatch):
    """The process id of each oracle call made in this process; a worker's
    calls append to the worker's copy of the list and are lost."""
    pids = []
    real_oracle = harness.oracle_max_sat

    def oracle(f, cap):
        pids.append(os.getpid())
        return real_oracle(f, cap)

    monkeypatch.setattr(harness, "oracle_max_sat", oracle)
    return pids


def test_fuzz_pool_and_in_process_agree(monkeypatch, oracle_pids):
    params = FuzzParams(max_n0=5, max_m0=4)
    pooled = fuzz(13, 60, params)
    assert oracle_pids == ([] if fuzz_forks() else [os.getpid()] * 60)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    in_process = fuzz(13, 60, params)
    assert oracle_pids[-60:] == [os.getpid()] * 60
    assert len(pooled) > 100
    assert pooled == in_process


def test_fuzz_in_process_before_python_3_11(monkeypatch, oracle_pids):
    # before 3.11 a pool forks its second worker after its manager thread has
    # started, which can deadlock the child (gh-90622)
    import concurrent.futures

    expected = fuzz(42, 100)
    assert oracle_pids == ([] if fuzz_forks() else [os.getpid()] * 100)
    oracle_pids.clear()

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(sys, "version_info", (3, 10, 14, "final", 0))
    assert fuzz(42, 100) == expected
    assert oracle_pids == [os.getpid()] * 100


def test_fuzz_in_process_once_its_module_is_imported_again(monkeypatch, oracle_pids):
    # workers would look _fuzz_formula up in the newer module: a pickling error
    expected = fuzz(13, 20)
    oracle_pids.clear()
    monkeypatch.setitem(sys.modules, harness.__name__, types.ModuleType(harness.__name__))
    assert fuzz(13, 20) == expected
    assert oracle_pids == [os.getpid()] * 20


def test_fuzz_leaves_no_worker_running(monkeypatch):
    assert fuzz(3, 20)
    assert multiprocessing.active_children() == []

    def refuse(f, cap):
        raise TooManyVariablesError(f"refused in process {os.getpid()}")

    monkeypatch.setattr(harness, "oracle_max_sat", refuse)
    with pytest.raises(TooManyVariablesError, match="refused in process"):
        fuzz(3, 20)
    assert multiprocessing.active_children() == []


def test_fuzz_zero_iterations_empty():
    assert fuzz(seed=42, iterations=0) == []


def test_fuzz_negative_iterations_rejected():
    with pytest.raises(ValueError, match="non-negative, got -3"):
        fuzz(seed=42, iterations=-3)


@pytest.mark.parametrize(
    "bad",
    [
        {"algorithms": ()},
        {"algorithms": (2,)},
        {"algorithms": (1, 4)},
        {"orderings_per_formula": 0},
        {"max_n0": 0},
        {"max_m0": -1},
        {"variable_cap": -1},
        {"algorithms": (3, 3)},
    ],
)
def test_fuzz_params_rejected_before_fuzzing(bad):
    # without the check, orderings_per_formula=0 fuzzed nothing and returned []
    # and algorithms=(2,) failed only at the first search
    with pytest.raises(ValueError):
        FuzzParams(**bad)


def test_fuzz_deterministic():
    params = FuzzParams(max_n0=3, max_m0=2, orderings_per_formula=4)
    first = fuzz(7, 40, params)
    second = fuzz(7, 40, params)
    assert [m.to_dict() for m in first] == [m.to_dict() for m in second]


def test_fuzz_stream_reproduces_ce1():
    # seed 0 generates the CE1 formula within 20 iterations at these parameters
    params = FuzzParams(max_n0=2, max_m0=1, orderings_per_formula=6)
    mismatches = fuzz(0, 20, params)
    hits = [
        m
        for m in mismatches
        if m.dimacs == CE1_DIMACS
        and m.ordering == ("y1", "y2", "v1")
        and m.algorithm == 1
    ]
    assert hits
    assert hits[0].pipeline_answer == 3 and hits[0].oracle_answer == 2


def test_single_distinct_literal_clauses_never_mismatch():
    # exhaustive: every 1-clause formula with two distinct variables, every
    # tie-consistent ordering, both algorithms
    for m0 in (2, 3):
        for a in range(1, m0 + 1):
            for b in range(1, m0 + 1):
                if a == b:
                    continue
                for sa in (1, -1):
                    for sb in (1, -1):
                        f = parse_cnf(
                            f"p cnf {m0} 1\n{a * sa} {b * sb} 0\n"
                        )
                        for ordering in tie_consistent_orderings(f, 1000):
                            for algorithm in (1, 3):
                                assert check(f, [ordering], [algorithm]) == []


def test_diagnosis_names_the_skip_over(ce1):
    [found] = check(ce1, [("y1", "y2", "v1")], [1])
    assert found.pipeline_answer == 3 and found.oracle_answer == 2
    # conjunction c rides the a-owned span over y2 (nodes n5 -> n2)
    edges = {(d.child_node, d.parent_node): d for d in found.diagnosis}
    assert (5, 2) in edges
    assert edges[(5, 2)].owners == ("a",)
    assert "c" in edges[(5, 2)].violating


def test_check_takes_an_ordering_spec():
    # the spec string is one ordering, as run_pipeline reads it, not a list of characters
    f = parse_cnf(CE1_DIMACS)
    [found] = check(f, ["y1>y2>v1"], [1])
    assert (found.pipeline_answer, found.oracle_answer) == (3, 2)
    assert found.ordering == ("y1", "y2", "v1")
    [by_names] = check(f, [["y1", "y2", "v1"]], [1])
    assert found.to_dict() == by_names.to_dict()


def test_shrink_family_to_ce1_core():
    fam = family(4)
    [seed_mismatch] = check(fam, [tuple(family_ordering(4).split(">"))], [1])
    small = shrink(seed_mismatch)
    shrunk = parse_cnf(small.dimacs)
    assert shrunk.n0 == 2
    assert small.dimacs == CE1_DIMACS
    assert small.pipeline_answer != small.oracle_answer


def test_shrink_ce1_already_minimal():
    [seed_mismatch] = check(parse_cnf(CE1_DIMACS), [("y1", "y2", "v1")], [1])
    small = shrink(seed_mismatch)
    assert small.dimacs == CE1_DIMACS
    assert parse_cnf(small.dimacs).n0 == 2


def test_shrink_removes_unused_variable():
    # CE1 plus a never-referenced second variable, under a frequency
    # tie-break: v2 is starred in every sequence, so it comes first
    f = parse_cnf("p cnf 2 2\n-1 -1 0\n-1 -1 0\n")
    ordering = ("v2", "y1", "y2", "v1")
    assert tie_consistent(pad_missing(cnf_to_dnf(f)), ordering)
    [found] = check(f, [ordering], [1])
    small = shrink(found)
    assert parse_cnf(small.dimacs).m0 == 1
    assert small.dimacs == CE1_DIMACS


def test_shrink_never_grows():
    params = FuzzParams(max_n0=3, max_m0=2, orderings_per_formula=3)
    for mismatch in fuzz(3, 25, params)[:10]:
        small = shrink(mismatch)
        assert parse_cnf(small.dimacs).n0 <= parse_cnf(mismatch.dimacs).n0
        assert small.pipeline_answer != small.oracle_answer


def test_shrunk_mismatches_keep_legal_orderings():
    # dropping a clause or a variable renames the ordering; a step whose
    # renamed ordering reverses a frequency inequality is not taken
    for mismatch in fuzz(42, 30):
        small = shrink(mismatch)
        padded = pad_missing(cnf_to_dnf(parse_cnf(small.dimacs)))
        assert tie_consistent(padded, small.ordering), small
        assert small.pipeline_answer != small.oracle_answer


def _dumped_report(seed: int, iterations: int, mismatches) -> str:
    """The fuzz report as the indented encoder writes it from the mismatches' dicts."""
    payload = {
        "seed": seed,
        "iterations": iterations,
        "mismatches": [m.to_dict() for m in mismatches],
        "mismatch_count": len(mismatches),
    }
    return json.dumps(payload, indent=2) + "\n"


def test_report_text_matches_json_dumps():
    # the template writer against json.dumps over seeds 0-5 under three
    # parameter sets, shrunk mismatches and an empty campaign
    empty_diagnosis = shared_owners = 0
    for params in (
        FuzzParams(),
        FuzzParams(max_n0=5, max_m0=4),
        FuzzParams(max_n0=3, max_m0=2, orderings_per_formula=2, algorithms=(3,)),
    ):
        for seed in range(6):
            mismatches = fuzz(seed, 20, params)
            text = report_text(seed, 20, mismatches)
            assert text == _dumped_report(seed, 20, mismatches), (seed, params)
            assert text.isascii()
            empty_diagnosis += sum(not m.diagnosis for m in mismatches)
            shared_owners += sum(len(d.owners) > 1 for m in mismatches for d in m.diagnosis)
    assert empty_diagnosis and shared_owners
    shrunk = [shrink(m) for m in fuzz(42, 10)]
    assert shrunk
    assert report_text(42, 10, shrunk) == _dumped_report(42, 10, shrunk)
    assert report_text(-7, 0, []) == _dumped_report(-7, 0, [])


def test_report_module_imports_nothing_from_the_package():
    # read from the source: importing twomaxsat.report runs the package
    # __init__, which imports every module
    source = Path(harness.__file__).with_name("report.py").read_text()
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert "json.encoder" in imported
    assert not [name for name in imported if name.startswith((".", "twomaxsat"))]


def test_audit_running(running):
    report = audit_bounds(running, ordering="lexical")
    assert report.all_pass
    assert report.n == 4 and report.m == 5
    named = {b.name: b for b in report.bounds}
    trie_bound = named["trie_like_vertices<=n(m+2)-1"]
    assert trie_bound.measured == 16 and trie_bound.bound == 27
    assert report.counters["trie_vertices"] == 16
    assert report.frame_value_n0_6 == 216 * 2**6


def test_audit_ce1(ce1):
    report = audit_bounds(ce1, ordering="y1>y2>v1")
    assert report.all_pass
    named = {b.name: b for b in report.bounds}
    assert named["trie_like_vertices<=n(m+2)-1"].measured == 7
    assert named["trie_like_vertices<=n(m+2)-1"].bound == 19
    assert report.to_dict()["relations"] == {"n=2*n0": True, "m=n0+m0": True}


def test_audit_repeated_two_variable_clauses():
    f = parse_cnf("p cnf 2 2\n1 2 0\n1 2 0\n")
    assert audit_bounds(f).all_pass


def test_audit_detects_layered_blowup():
    # Algorithm 1 re-pushes the same label-groups at successive layers, so the
    # recorded layered-graph size bounds fail on larger inputs; the audit's
    # whole job is to measure that.  The trie-like bounds always hold.
    f = parse_cnf(
        "p cnf 8 8\n3 7 0\n-8 -5 0\n-2 -6 0\n-3 -3 0\n4 4 0\n7 -4 0\n-5 -5 0\n4 -5 0\n"
    )
    report = audit_bounds(f)
    named = {b.name: b for b in report.bounds}
    assert not named["layered_vertices<=(n(m+2)-1)(m+2)"].ok
    assert not named["layered_edges<=(m+2)(m+1)^2n/2"].ok
    assert named["trie_like_vertices<=n(m+2)-1"].ok
    assert named["trie_like_edges<=(m+2)(m+1)n/2"].ok
    assert named["max_pstar_spans<=(m+2)(m+1)/2"].ok
    assert not report.all_pass


def test_audit_counters_present(ce2):
    report = audit_bounds(ce2, ordering="v1>y1>y2")
    for key in (
        "conjunctions",
        "base_spans",
        "closed_spans",
        "layered_instances",
        "layered_edges",
        "groups_expanded",
        "merge_events",
        "rooted_subgraphs",
    ):
        assert key in report.counters
