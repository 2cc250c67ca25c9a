"""Exact oracle: values, witnesses, the variable cap, and agreement properties."""

from __future__ import annotations

import io
import itertools
import json
import random

import pytest

from twomaxsat.cli import main
from twomaxsat.errors import ResourceCapError
from twomaxsat.formula import (
    Assignment,
    DnfConjunction,
    DnfFormula,
    Literal,
    Variable,
    cnf_to_dnf,
    eval_cnf,
    formula_from_ints,
)
from twomaxsat.harness import CE1_DIMACS, CE3_DIMACS, RUNNING_DIMACS
from twomaxsat.oracle import oracle_max_sat
from tests.conftest import criterion7_clauses


def dnf_max_count(d: DnfFormula) -> int:
    """The most conjunctions of `d` one assignment satisfies, one assignment at a
    time over all 2^m: a check that shares no code with the bit-parallel oracle."""
    pairs = [
        (a.variable.id, a.positive, b.variable.id, b.positive)
        for a, b in (conj.literals for conj in d.conjunctions)
    ]
    return max(
        sum(bits[i] == p and bits[j] == q for i, p, j, q in pairs)
        for bits in itertools.product((False, True), repeat=d.m)
    )


def test_ce1_value_and_witness(ce1):
    result = oracle_max_sat(ce1)
    assert result.max_count == 2
    assert result.witness.values == (False,)
    assert result.assignments_tried == 2


def test_ce3_value(ce3):
    assert oracle_max_sat(ce3).max_count == 1


def test_running_value(running):
    assert oracle_max_sat(running).max_count == 2


def test_witness_is_lexicographically_least(running):
    result = oracle_max_sat(running)
    best = result.max_count
    for idx in range(2**running.m0):
        a = Assignment(tuple(bool((idx >> (running.m0 - 1 - k)) & 1) for k in range(running.m0)))
        if eval_cnf(running, a) == best:
            assert a.values == result.witness.values
            break


def test_witness_reproduces_max(ce1, ce2, ce3, running):
    for f in (ce1, ce2, ce3, running):
        result = oracle_max_sat(f)
        assert eval_cnf(f, result.witness) == result.max_count


def test_oracle_max_dnf_derived(ce1, running):
    assert dnf_max_count(cnf_to_dnf(ce1)) == 2
    assert dnf_max_count(cnf_to_dnf(running)) == 2


def test_oracle_single_conjunction_dnf():
    v = Variable(0, "v1")
    d = DnfFormula(
        (DnfConjunction("a", (Literal(v, True), Literal(v, True))),),
        (v,),
    )
    assert dnf_max_count(d) == 1


@pytest.mark.parametrize(
    "name, k, expected",
    [("ce1", 2, True), ("ce1", 3, False), ("ce3", 2, False), ("running", 2, True)],
)
def test_decide(name, k, expected, capsys, monkeypatch):
    # the decision form "max_count >= k" is answered by oracle --k
    dimacs = {"ce1": CE1_DIMACS, "ce3": CE3_DIMACS, "running": RUNNING_DIMACS}[name]
    monkeypatch.setattr("sys.stdin", io.StringIO(dimacs))
    code = main(["oracle", "-", "--k", str(k)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["satisfiable_at_k"] is expected
    assert code == (0 if expected else 1)


def test_variable_cap():
    f = formula_from_ints([[1, 2], [3, -1]], 3)
    with pytest.raises(ResourceCapError):
        oracle_max_sat(f, variable_cap=2)


def test_oracle_agrees_with_direct_evaluation():
    # dual route: the bit-parallel oracle versus per-assignment eval_cnf
    rng = random.Random(11)
    for _ in range(150):
        m0 = rng.randint(1, 4)
        n0 = rng.randint(1, 5)
        f = formula_from_ints(criterion7_clauses(rng, n0, m0), m0)
        best = max(
            eval_cnf(
                f,
                Assignment(tuple(bool((idx >> (m0 - 1 - k)) & 1) for k in range(m0))),
            )
            for idx in range(2**m0)
        )
        assert oracle_max_sat(f).max_count == best


def test_transformation_agreement_sampled():
    # the DNF maximum of cnf_to_dnf(F) == oracle_max_sat(F) at the 6/6 scale, sampled
    rng = random.Random(23)
    for _ in range(300):
        m0 = rng.randint(1, 6)
        n0 = rng.randint(1, 6)
        f = formula_from_ints(criterion7_clauses(rng, n0, m0), m0)
        assert dnf_max_count(cnf_to_dnf(f)) == oracle_max_sat(f).max_count
