"""Shared fixtures: the recorded example formulas and small-formula enumeration."""

from __future__ import annotations

import itertools
import multiprocessing
import random
import sys

import pytest

from twomaxsat import harness
from twomaxsat.formula import CnfFormula, formula_from_ints, parse_cnf
from twomaxsat.harness import (
    CE1_DIMACS,
    CE2_DIMACS,
    CE3_DIMACS,
    RUNNING_DIMACS,
)

CE1_ORDERING = "y1>y2>v1"
CE2_ORDERING = "v1>y1>y2"
CE3_ORDERING = "y2>y1>v1"


@pytest.fixture
def running() -> CnfFormula:
    return parse_cnf(RUNNING_DIMACS)


@pytest.fixture
def ce1() -> CnfFormula:
    return parse_cnf(CE1_DIMACS)


@pytest.fixture
def ce2() -> CnfFormula:
    return parse_cnf(CE2_DIMACS)


@pytest.fixture
def ce3() -> CnfFormula:
    return parse_cnf(CE3_DIMACS)


def all_clause_shapes(m0: int) -> list[tuple[int, int]]:
    """Every ordered literal pair over m0 variables (duplicates included)."""
    lits = [v * s for v in range(1, m0 + 1) for s in (1, -1)]
    return [(a, b) for a in lits for b in lits]


def all_formulas(max_n0: int, max_m0: int):
    """Exhaustive enumeration of small formulas, all literal combinations."""
    for m0 in range(1, max_m0 + 1):
        shapes = all_clause_shapes(m0)
        for n0 in range(1, max_n0 + 1):
            for combo in itertools.product(shapes, repeat=n0):
                yield formula_from_ints([list(c) for c in combo], m0)


def criterion7_clauses(rng: random.Random, n0: int, m0: int) -> list[list[int]]:
    """Criterion 7's clause rule: literal a, then b = a with probability 0.3.

    The same draws as ``bench/workloads.py::criterion7_clauses``.
    """
    clauses = []
    for _ in range(n0):
        a = rng.randint(1, m0) * rng.choice((1, -1))
        b = a if rng.random() < 0.3 else rng.randint(1, m0) * rng.choice((1, -1))
        clauses.append([a, b])
    return clauses


def criterion7_stream(count: int):
    """The first `count` (m0, clauses) draws of criterion 7's ``random.Random(1789)``
    grid: n0 and m0 in 1..8, then ``criterion7_clauses``."""
    rng = random.Random(1789)
    for _ in range(count):
        n0 = rng.randint(1, 8)
        m0 = rng.randint(1, 8)
        yield m0, criterion7_clauses(rng, n0, m0)


def seed1_formula(n0: int, m0: int = 8) -> CnfFormula:
    """``criterion7_clauses`` drawn from ``random.Random(1)``."""
    return formula_from_ints(criterion7_clauses(random.Random(1), n0, m0), m0)


def fuzz_forks() -> bool:
    """Whether ``fuzz`` of two or more formulas checks them in forked workers."""
    return (
        harness._usable_cpus() > 1
        and "fork" in multiprocessing.get_all_start_methods()
        and sys.version_info >= (3, 11)
    )
