"""Exact 2-MAXSAT ground truth by exhaustive assignment enumeration.

Assignments are indexed so that the first variable is the most significant
bit; index order is then exactly lexicographic order over value tuples, and
the smallest index among the maximizers is the lexicographically-least
witness.  Evaluation is bit-parallel: each variable gets a column integer
with bit a set when assignment a makes it true, clause masks are built from
those columns, and a carry-save accumulator yields the per-assignment counts
as binary digit planes.  All 2^m assignments are covered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ResourceCapError
from .formula import Assignment, CnfFormula, Literal

DEFAULT_VARIABLE_CAP = 24


@dataclass(frozen=True)
class OracleResult:
    max_count: int
    witness: Assignment
    assignments_tried: int


def _columns(m: int) -> tuple[int, ...]:
    size = 1 << m
    cols = []
    for k in range(m):
        half = 1 << (m - 1 - k)
        col = ((1 << half) - 1) << half  # one period: low half 0s, high half 1s
        span = half << 1
        while span < size:
            col |= col << span
            span <<= 1
        cols.append(col)
    return tuple(cols)


def _literal_mask(lit: Literal, cols: Sequence[int], full: int) -> int:
    col = cols[lit.variable.id]
    return col if lit.positive else full & ~col


def _max_and_witness(masks: Sequence[int], m: int) -> tuple[int, int]:
    """Max clause count over all assignment indices and the least argmax index."""
    full = (1 << (1 << m)) - 1
    planes: list[int] = []
    for mask in masks:
        carry = mask
        for i, plane in enumerate(planes):
            planes[i], carry = plane ^ carry, plane & carry
            if not carry:
                break
        if carry:
            planes.append(carry)
    count = 0
    candidates = full
    for b in range(len(planes) - 1, -1, -1):
        hit = candidates & planes[b]
        if hit:
            candidates = hit
            count += 1 << b
    index = (candidates & -candidates).bit_length() - 1
    return count, index


def _decode(index: int, m: int) -> Assignment:
    return Assignment(tuple(bool((index >> (m - 1 - k)) & 1) for k in range(m)))


def oracle_max_sat(f: CnfFormula, variable_cap: int = DEFAULT_VARIABLE_CAP) -> OracleResult:
    """Exact maximum satisfied-clause count with lexicographically-least witness."""
    m = f.m0
    if m > variable_cap:
        raise ResourceCapError(f"{m} variables exceeds the cap of {variable_cap}")
    cols = _columns(m)
    full = (1 << (1 << m)) - 1
    masks = [
        _literal_mask(first, cols, full) | _literal_mask(second, cols, full)
        for first, second in (clause.literals for clause in f.clauses)
    ]
    count, index = _max_and_witness(masks, m)
    return OracleResult(count, _decode(index, m), 1 << m)
