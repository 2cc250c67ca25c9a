"""Stage exports: text syntax, DOT conventions, JSON payloads, determinism."""

from __future__ import annotations

import hashlib
import itertools
import json
import tracemalloc

import pytest

from tests.conftest import criterion7_stream, seed1_formula
from tests.layered_reference import (
    fuzz_fronts,
    reference_layered_dot,
    reference_layered_json,
    reference_trie_json,
    reference_trielike_json,
    refusing_groups,
    unfold,
)
from twomaxsat.export import (
    answer_json,
    export_stage,
    layered_dot,
    layered_json_text,
    pgraph_dot,
    trie_dot,
    trie_json_text,
    trielike_dot,
    trielike_json_text,
)
from twomaxsat.export import STAGES
from twomaxsat.formula import formula_from_ints, parse_cnf
from twomaxsat.harness import builtin_counterexamples, check, fuzz
from twomaxsat.pipeline import front_end, run_pipeline, search
from twomaxsat.report import report_text


def test_sequence_text(running):
    run = run_pipeline(running, ordering="lexical", algorithm=1)
    assert run.sequences[0].display() == "#.v1.(v2,*).(v3,*).y1.(y2,*).$"


def test_pgraph_dot_has_solid_and_dashed(running):
    run = run_pipeline(running, ordering="lexical", algorithm=1)
    dot = pgraph_dot(run.pgraphs[0])
    assert "p0 -> p1 [dir=none];" in dot
    assert "style=dashed" in dot


def test_trie_dot_leaf_annotation(ce1):
    run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=1)
    dot = trie_dot(run.trie)
    assert 'n5 [label="$\\n{a,c}"];' in dot
    assert "n1 -> n2 [dir=none];" in dot


def test_trielike_dot_span_edges(ce1):
    run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=1)
    dot = trielike_dot(run.trielike)
    assert dot.count("style=dashed") == 4
    assert 'n5 -> n2 [style=dashed, constraint=false, tooltip="a"];' in dot


def test_layered_dot_groups_and_witness(ce1):
    run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=1)
    dot = layered_dot(run.layered, run.answer.witness)
    assert "cluster_g" in dot            # the y2 group box
    assert "fillcolor=lightgray" in dot  # shaded witness instances
    assert "penwidth=2" in dot           # bold witness edges
    assert dot.count("rank=same;") == run.layered.layer_count


def test_trielike_json_shape(ce1):
    run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=1)
    payload = json.loads(export_stage(run, "trielike", "json"))
    assert len(payload["nodes"]) == 7
    assert payload["node_map"]["a"] == [1, 2, 4, 5]
    assert {"child": 5, "parent": 2, "labels": ["a"]} in payload["span_edges"]


def test_layered_json_shape(ce1):
    run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=3)
    payload = json.loads(export_stage(run, "layered", "json"))
    assert payload["mode"] == "alg3"
    assert len(payload["layers"]) == 4
    assert all(e["degenerate"] for e in payload["merge_events"])
    kinds = {e["kind"] for e in payload["edges"]}
    assert kinds == {"main", "span"}


def test_answer_json(ce1):
    run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=1)
    payload = answer_json(run)
    assert payload["max_count"] == 3
    assert payload["leaf_labels"] == ["a", "c", "d"]
    assert payload["assignment"] == {"v1": False, "y1": True, "y2": False}
    assert payload["ordering"] == "y1>y2>v1"
    json.dumps(payload)  # serializable


def test_trie_json_format(ce1):
    from twomaxsat.export import export_stage, stage_suffix

    run = run_pipeline(ce1, ordering="y1>y2>v1", algorithm=1)
    payload = json.loads(export_stage(run, "trie", "json"))
    assert len(payload["nodes"]) == 7
    assert {"child": 2, "parent": 1} in payload["tree_edges"]
    assert stage_suffix("trie", "json") == "json"
    assert stage_suffix("trie", "dot") == "dot"
    assert stage_suffix("answer", "dot") == "json"
    assert stage_suffix("dnf", "json") == "txt"
    assert stage_suffix("pgraphs", "json") == "dot"


def test_export_stage_roundtrip_and_determinism(running):
    run1 = run_pipeline(running, ordering="lexical", algorithm=1)
    run2 = run_pipeline(running, ordering="lexical", algorithm=1)
    for stage in ("dnf", "sequences", "pgraphs", "pstars", "trie", "trielike", "layered", "answer"):
        assert export_stage(run1, stage, "dot") == export_stage(run2, stage, "dot")
    assert export_stage(run1, "layered", "json") == export_stage(run2, "layered", "json")
    with pytest.raises(ValueError, match="unknown stage 'bogus'"):
        export_stage(run1, "bogus", "dot")


def test_shared_front_end_exports_match_separate_runs(running, ce1, ce3):
    # the trie-like graph is read-only after the overlay, so Algorithm 3
    # searching the front end Algorithm 1 already searched changes no byte
    for f, spec in ((running, "lexical"), (ce1, "y1>y2>v1"), (ce3, "y2>y1>v1")):
        front = front_end(f, spec)
        for algorithm in (1, 3, 1):
            shared = search(front, algorithm)
            alone = run_pipeline(f, ordering=spec, algorithm=algorithm)
            for stage in STAGES:
                for fmt in ("dot", "json"):
                    assert export_stage(shared, stage, fmt) == export_stage(alone, stage, fmt)


# sha256 over every stage in both formats, for each builtin under its
# recorded ordering and each of its algorithms, in builtin order
PINNED_BUILTIN_EXPORTS = "e338de79a3dd72b3a8627420068531cd3ce1bee7efa82b22e85893a43c1bdaf2"


def test_builtin_export_bytes_pinned():
    digest = hashlib.sha256()
    for spec in builtin_counterexamples():
        f = parse_cnf(spec.dimacs)
        for algorithm in spec.algorithms:
            run = run_pipeline(f, ordering=spec.ordering, algorithm=algorithm)
            for stage in STAGES:
                for fmt in ("dot", "json"):
                    digest.update(export_stage(run, stage, fmt).encode())
    assert digest.hexdigest() == PINNED_BUILTIN_EXPORTS


# CI's grid.cnf: criterion 7's rule with seed 1, n0 = 6, m0 = 8
GRID_DIMACS = "p cnf 8 6\n3 3 0\n-8 7 0\n-2 -2 0\n-7 -1 0\n5 -2 0\n1 1 0\n"

# sha256 over the span-reading exports (p-graph and p*-graph DOT, trie-like
# DOT and JSON) of seed-1 n0 = 8 and 12 and of the grid formula, under the
# frequency ordering; the builtins' fronts have at most 4 clauses
PINNED_FRONT_EXPORTS = "d6fd9686a7325b5df7dc7af09ba0bec5f87b8e6150ff3f4bbd6ee004c4a6ba3b"


def test_front_end_export_bytes_pinned():
    digest = hashlib.sha256()
    for f in (seed1_formula(8), seed1_formula(12), parse_cnf(GRID_DIMACS)):
        run = run_pipeline(f, ordering="frequency", algorithm=1)
        for stage, fmt in (("pgraphs", "dot"), ("pstars", "dot"), ("trielike", "dot"), ("trielike", "json")):
            digest.update(export_stage(run, stage, fmt).encode())
    assert digest.hexdigest() == PINNED_FRONT_EXPORTS


def _assert_layered_exports_match_reference(lg, witness, where: str) -> None:
    # both writers read the memo alone; the references read the unfolded graph
    with refusing_groups():
        text = layered_json_text(lg)
        dots = [layered_dot(lg), layered_dot(lg, witness)]
    ref = unfold(lg)
    assert text == json.dumps(reference_layered_json(ref), indent=2) + "\n", where
    assert dots == [reference_layered_dot(ref), reference_layered_dot(ref, witness)], where


def _assert_trie_json_matches_reference(g, where: str) -> None:
    text = trie_json_text(g.trie)
    assert text == json.dumps(reference_trie_json(g.trie), indent=2) + "\n", where
    text = trielike_json_text(g)
    assert text == json.dumps(reference_trielike_json(g), indent=2) + "\n", where


def test_trie_json_bytes_match_reference():
    # the writers render from the trie and the owner map; the reference dumps a dict
    for spec in builtin_counterexamples():
        front = front_end(parse_cnf(spec.dimacs), spec.ordering)
        _assert_trie_json_matches_reference(front.trielike, spec.name)
    fronts = 0
    for front, algorithm in fuzz_fronts(42, 100):
        if algorithm == 1:
            where = f"{front.formula} / {front.ordering.display()}"
            _assert_trie_json_matches_reference(front.trielike, where)
            fronts += 1
    assert fronts > 100
    # a sample of criterion 7's grid stream, span edges shared by several owners included
    shared = 0
    for m0, clauses in criterion7_stream(200):
        front = front_end(formula_from_ints(clauses, m0), "frequency")
        _assert_trie_json_matches_reference(front.trielike, str(clauses))
        shared += any(len(labels) > 1 for labels in front.trielike.owners.values())
    assert shared > 100


def test_layered_json_bytes_match_reference():
    # the JSON and DOT writers render from the memo; the references write the
    # unfolded graph, the DOT one with and without the witness
    for spec in builtin_counterexamples():
        f = parse_cnf(spec.dimacs)
        for algorithm in (1, 3):
            run = run_pipeline(f, ordering=spec.ordering, algorithm=algorithm)
            where = f"{spec.name} / alg{algorithm}"
            _assert_layered_exports_match_reference(run.layered, run.answer.witness, where)
    for front, algorithm in fuzz_fronts(42, 100):
        where = f"{front.formula} / {front.ordering.display()}"
        run = search(front, algorithm)
        _assert_layered_exports_match_reference(run.layered, run.answer.witness, where)
    # criterion 7's grid stream, graphs of up to 2,000 instances
    grid = merged = 0
    for m0, clauses in criterion7_stream(200):
        front = front_end(formula_from_ints(clauses, m0), "frequency")
        for algorithm in (1, 3):
            run = search(front, algorithm)
            if run.layered.vertex_count <= 2_000:
                where = f"{clauses} / alg{algorithm}"
                _assert_layered_exports_match_reference(run.layered, run.answer.witness, where)
                grid += 1
                merged += run.layered.merge_event_count > 0
    assert grid == 311 and merged == 136


def test_layered_json_with_more_groups_than_instances():
    # Algorithm 3's merge-sibling groups can outnumber the instances, and
    # the writer's id table covers the group ids too
    front = front_end(formula_from_ints([[3, -1], [3, -4]], 4), "v2>v3>v1>y1>v4>y2")
    run = search(front, 3)
    assert run.layered.group_count == 57 and run.layered.vertex_count == 56
    _assert_layered_exports_match_reference(run.layered, run.answer.witness, "more groups")


def _builtin_runs():
    for spec in builtin_counterexamples():
        f = parse_cnf(spec.dimacs)
        for algorithm in spec.algorithms:
            yield f, algorithm, run_pipeline(f, ordering=spec.ordering, algorithm=algorithm)


def test_exports_and_fuzz_reports_are_ascii():
    # the JSON writers decode their bytes as ASCII, and the files are written as text
    runs = (run for _, _, run in _builtin_runs())
    for run in itertools.chain(runs, (search(*item) for item in fuzz_fronts(42, 100))):
        for stage in STAGES:
            for fmt in ("dot", "json"):
                assert export_stage(run, stage, fmt).isascii(), (stage, fmt)
    checked = list(_builtin_runs())
    mismatches = [
        m
        for f, algorithm, run in checked
        for m in check(f, [run.ordering.display().split(">")], [algorithm])
    ]
    assert mismatches
    assert report_text(0, len(checked), mismatches).isascii()
    assert report_text(42, 100, fuzz(42, 100)).isascii()


@pytest.mark.parametrize("n0", [8, 9])
def test_layered_json_peak_memory(n0):
    # the sections are freed before the joined bytes are decoded: a writer
    # that held them through the decode would peak near 3x the text
    lg = run_pipeline(seed1_formula(n0)).layered
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        size = len(layered_json_text(lg))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert size > 9_000_000
    assert peak <= 2.5 * size, peak / size
