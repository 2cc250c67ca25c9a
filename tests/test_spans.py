"""p-graphs, base spans, and the closure against its characterization and the merge fixpoint."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twomaxsat.formula import Variable, cnf_to_dnf, pad_missing
from twomaxsat.pipeline import resolve_ordering
from twomaxsat.sequences import (
    END_ITEM,
    START_ITEM,
    ItemTag,
    SeqItem,
    VarSequence,
    build_sequences,
)
from twomaxsat.spans import PGraph, Span, build_pgraph, close_spans


def sequence_from_pattern(starred_flags: list[bool]) -> VarSequence:
    """Synthetic sequence: one interior item per flag, starred where True."""
    items = [START_ITEM]
    for i, flag in enumerate(starred_flags):
        tag = ItemTag.STARRED if flag else ItemTag.VAR
        items.append(SeqItem(tag, Variable(i, f"v{i + 1}")))
    items.append(END_ITEM)
    return VarSequence("a", tuple(items))


def closure_oracle(seq: VarSequence) -> set[tuple[int, int]]:
    """Independent characterization: (i, j) with j-i >= 2 and all between starred."""
    starred = {
        pos for pos, item in enumerate(seq.items) if item.tag is ItemTag.STARRED
    }
    n = len(seq.items)
    return {
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if all(p in starred for p in range(i + 1, j))
    }


def fixpoint_closure(p: PGraph) -> set[tuple[int, int]]:
    """The paper's rule, run to a fixpoint: whenever the two-node suffix of one
    span equals the two-node prefix of another, add their union."""
    closed = {(s.from_pos, s.to_pos) for s in p.spans}
    changed = True
    while changed:
        changed = False
        current = sorted(closed)
        for i, j in current:
            for k, l in current:
                if k == j - 1 and l > j and (i, l) not in closed:
                    closed.add((i, l))
                    changed = True
    return closed


def _sequences(f, ordering_spec):
    d = cnf_to_dnf(f)
    padded = pad_missing(d)
    ordering = resolve_ordering(d, padded, ordering_spec)
    return build_sequences(padded, ordering)


def test_base_spans_running_a(running):
    seq_a = _sequences(running, "lexical")[0]
    p = build_pgraph(seq_a)
    assert [(s.from_pos, s.to_pos) for s in p.spans] == [(1, 3), (2, 4), (4, 6)]


def test_no_spans_for_bare_sequence():
    seq = VarSequence("a", (START_ITEM, END_ITEM))
    p = build_pgraph(seq)
    assert p.spans == ()
    assert len(p.items) == 2
    assert close_spans(p).closed_spans == ()


def test_ce1_sequence_d_single_span(ce1):
    seq_d = _sequences(ce1, "y1>y2>v1")[3]
    p = build_pgraph(seq_d)
    assert [(s.from_pos, s.to_pos) for s in p.spans] == [(0, 2)]


def test_close_running_b_all_pairs(running):
    seq_b = _sequences(running, "lexical")[1]
    closed = close_spans(build_pgraph(seq_b)).closed_spans
    expected = {(i, j) for i in range(5) for j in range(i + 2, 5)}
    assert {(s.from_pos, s.to_pos) for s in closed} == expected
    assert len(closed) == 6


def test_close_running_a_adds_one(running):
    seq_a = _sequences(running, "lexical")[0]
    closed = close_spans(build_pgraph(seq_a)).closed_spans
    assert {(s.from_pos, s.to_pos) for s in closed} == {(1, 3), (2, 4), (4, 6), (1, 4)}


def test_close_idempotent(running):
    for seq in _sequences(running, "lexical"):
        once = close_spans(build_pgraph(seq))
        again = close_spans(PGraph(seq.label, seq.items, once.closed_spans))
        assert set(once.closed_spans) == set(again.closed_spans)


def test_span_must_jump():
    with pytest.raises(ValueError):
        Span(1, 2)


def test_closure_matches_characterization_seeded():
    rng = random.Random(2024)
    for _ in range(2000):
        interior = rng.randint(0, 10)
        flags = [rng.random() < 0.5 for _ in range(interior)]
        seq = sequence_from_pattern(flags)
        p = build_pgraph(seq)
        closed = {(s.from_pos, s.to_pos) for s in close_spans(p).closed_spans}
        assert closed == closure_oracle(seq) == fixpoint_closure(p)


@given(st.lists(st.booleans(), min_size=0, max_size=10))
@settings(max_examples=300, deadline=None)
def test_closure_matches_characterization_property(flags):
    seq = sequence_from_pattern(flags)
    p = build_pgraph(seq)
    closed = {(s.from_pos, s.to_pos) for s in close_spans(p).closed_spans}
    assert closed == closure_oracle(seq) == fixpoint_closure(p)


def test_span_count_bound(running, ce1, ce2, ce3):
    # at most (m+2)(m+1)/2 closed spans per graph
    for f, spec in ((running, "lexical"), (ce1, "y1>y2>v1"), (ce2, "v1>y1>y2"), (ce3, "y2>y1>v1")):
        d = cnf_to_dnf(f)
        m = d.m
        for seq in _sequences(f, spec):
            closed = close_spans(build_pgraph(seq)).closed_spans
            assert len(closed) <= (m + 2) * (m + 1) // 2
