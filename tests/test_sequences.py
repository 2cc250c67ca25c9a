"""Ordering construction and sequence building."""

from __future__ import annotations

import random

import pytest

from twomaxsat.errors import OrderingError
from tests.conftest import all_formulas
from twomaxsat.formula import cnf_to_dnf, formula_from_ints, pad_missing, parse_cnf
from twomaxsat.harness import FuzzParams, random_formula
from twomaxsat.sequences import (
    GlobalOrdering,
    ItemTag,
    build_sequences,
    explicit_ordering,
    frequency_ordering,
    lexical_ordering,
    parse_ordering,
    sequence_frequencies,
    tie_consistent,
)
from twomaxsat.pipeline import resolve_ordering


def _padded(f):
    return pad_missing(cnf_to_dnf(f))


def _recorded(f, spec):
    """The recorded ordering `spec`, checked to be a legal frequency tie-break."""
    d = cnf_to_dnf(f)
    padded = pad_missing(d)
    assert tie_consistent(padded, parse_ordering(spec))
    return padded, resolve_ordering(d, padded, spec)


def test_frequency_ordering_ce1_explicit(ce1):
    padded = _padded(ce1)
    freq = {v.name: c for v, c in sequence_frequencies(padded).items()}
    assert freq == {"v1": 0, "y1": 3, "y2": 3}
    _, ordering = _recorded(ce1, "y1>y2>v1")
    assert ordering.display() == "y1>y2>v1"


def test_frequency_forces_recorded_constraints(ce2, ce3):
    # the all-positive case pins v1 first; the mixed case pins v1 last
    freq2 = {v.name: c for v, c in sequence_frequencies(_padded(ce2)).items()}
    assert freq2["v1"] > max(freq2["y1"], freq2["y2"])
    freq3 = {v.name: c for v, c in sequence_frequencies(_padded(ce3)).items()}
    assert freq3["v1"] < min(freq3["y1"], freq3["y2"])


def test_frequency_ordering_ce3_explicit(ce3):
    _, ordering = _recorded(ce3, "y2>y1>v1")
    assert ordering.display() == "y2>y1>v1"


def test_explicit_list_contradiction(ce2):
    # v1 appears un-starred in all four conjunctions; it cannot come after y1
    assert not tie_consistent(_padded(ce2), ["y1", "v1", "y2"])
    assert tie_consistent(_padded(ce2), ["v1", "y1", "y2"])


def test_explicit_list_incomplete(ce1):
    with pytest.raises(OrderingError, match="^ordering misses: v1$"):
        explicit_ordering(cnf_to_dnf(ce1), ["y1", "y2"])
    # the missing names come in table order, so v10 follows v9
    d = cnf_to_dnf(formula_from_ints([[1, 10]], 10))
    missing = ", ".join(f"v{i}" for i in range(2, 11))
    with pytest.raises(OrderingError, match=f"^ordering misses: {missing}$"):
        explicit_ordering(d, ["y1", "v1"])


def test_explicit_list_unknown_name(ce1):
    with pytest.raises(OrderingError, match="^unknown variable name: v9$"):
        explicit_ordering(cnf_to_dnf(ce1), ["y1", "y2", "v9"])


def test_explicit_list_repeated_name(ce1):
    with pytest.raises(OrderingError, match="y1"):
        explicit_ordering(cnf_to_dnf(ce1), ["y1", "y1", "v1"])


def test_single_conjunction_ordering():
    f = parse_cnf("p cnf 1 1\n1 0\n")
    padded = _padded(f)[:1]
    ordering = frequency_ordering(padded)
    assert sorted(v.name for v in ordering.variables) == ["v1", "y1"]


def test_build_sequences_running_lexical(running):
    d = cnf_to_dnf(running)
    seqs = build_sequences(pad_missing(d), lexical_ordering(d))
    assert [s.display() for s in seqs] == [
        "#.v1.(v2,*).(v3,*).y1.(y2,*).$",
        "#.(v1,*).(v3,*).(y2,*).$",
        "#.(v2,*).(v3,*).(y1,*).y2.$",
        "#.(v1,*).(v2,*).v3.(y1,*).$",
    ]


def test_build_sequences_ce1(ce1):
    padded, ordering = _recorded(ce1, "y1>y2>v1")
    seqs = build_sequences(padded, ordering)
    assert [s.display() for s in seqs] == [
        "#.y1.(y2,*).$",
        "#.(y2,*).$",
        "#.(y1,*).y2.$",
        "#.(y1,*).$",
    ]


def test_everything_removed_sequence():
    # both literals negated, no other variables: only the sentinels remain
    f = parse_cnf("p cnf 1 1\n-1 -1 0\n")
    d = cnf_to_dnf(f)
    padded = pad_missing(d)
    ordering = frequency_ordering(padded)
    seqs = build_sequences(padded, ordering)
    assert seqs[1].display() == "#.$"  # (~v1 ^ ~y1) loses every item


def test_parse_ordering(ce1):
    assert parse_ordering("y1>y2>v1") == ["y1", "y2", "v1"]
    assert parse_ordering("v1") == ["v1"]
    with pytest.raises(OrderingError, match="empty name"):
        parse_ordering("y1>>v1")
    # a spec's repeated name is rejected where a name list's is, in explicit_ordering
    d = cnf_to_dnf(ce1)
    with pytest.raises(OrderingError, match="duplicate name in ordering: y2"):
        resolve_ordering(d, pad_missing(d), "y2>y2")


def test_dropped_literal_accounting(ce3):
    padded, ordering = _recorded(ce3, "y2>y1>v1")
    for pc, seq in zip(padded, build_sequences(padded, ordering)):
        positive = {lit.variable.name for lit in pc.base.literals if lit.positive}
        starred = {v.name for v in pc.starred}
        negated = {lit.variable.name for lit in pc.base.literals if not lit.positive}
        interior_names = {item.variable.name for item in seq.items[1:-1]}
        assert interior_names == positive | starred
        assert not interior_names & (negated - positive - starred)


def test_sequences_strictly_sorted(running, ce1, ce2, ce3):
    for f in (running, ce1, ce2, ce3):
        d = cnf_to_dnf(f)
        padded = pad_missing(d)
        ordering = frequency_ordering(padded)
        for seq in build_sequences(padded, ordering):
            ranks = [ordering.variables.index(item.variable) for item in seq.items[1:-1]]
            assert ranks == sorted(ranks)
            assert len(set(ranks)) == len(ranks)
            assert seq.items[0].tag is ItemTag.START
            assert seq.items[-1].tag is ItemTag.END


def test_ce1_structural_facts(ce1):
    padded, ordering = _recorded(ce1, "y1>y2>v1")
    a, b, c, dd = build_sequences(padded, ordering)
    assert {i.variable.name for i in a.items[1:-1]} == {i.variable.name for i in c.items[1:-1]}
    assert all(i.tag is ItemTag.STARRED for i in b.items[1:-1])
    assert all(i.tag is ItemTag.STARRED for i in dd.items[1:-1])


def test_determinism(ce2):
    d = cnf_to_dnf(ce2)
    padded = pad_missing(d)
    one = build_sequences(padded, frequency_ordering(padded))
    two = build_sequences(padded, frequency_ordering(padded))
    assert [s.display() for s in one] == [s.display() for s in two]


def test_resolve_ordering_forms(running):
    d = cnf_to_dnf(running)
    padded = pad_missing(d)
    assert resolve_ordering(d, padded, "lexical").display() == "v1>v2>v3>y1>y2"
    assert resolve_ordering(d, padded, "v3>v2>v1>y2>y1").display() == "v3>v2>v1>y2>y1"
    assert resolve_ordering(d, padded, ["v3", "v2", "v1", "y2", "y1"]).display() == (
        "v3>v2>v1>y2>y1"
    )
    by_freq = resolve_ordering(d, padded, "frequency")
    assert by_freq.display() == "v3>v1>v2>y1>y2"
    # lexical is name order with numeric indices: v9 > v10 and y9 > y10 > y11
    d = cnf_to_dnf(formula_from_ints([[i, -i] for i in range(1, 11)] + [[1, 2]], 10))
    names = [f"v{i}" for i in range(1, 11)] + [f"y{i}" for i in range(1, 12)]
    assert resolve_ordering(d, pad_missing(d), "lexical").display() == ">".join(names)


def _reference_frequencies(padded):
    """Plain and starred items counted one by one, as step 3 emits them."""
    freq = {}
    for pc in padded:
        for lit in pc.base.literals:
            freq[lit.variable] = freq.get(lit.variable, 0) + lit.positive
        for var in pc.starred:
            freq[var] = freq.get(var, 0) + 1
    return freq


def _reference_ordering(padded, freq):
    """Descending frequency, then the first conjunction whose sequence holds
    the variable (len(padded) if none does), then the id."""
    first_idx = {}
    for idx, pc in enumerate(padded):
        for var in {lit.variable for lit in pc.base.literals if lit.positive} | pc.starred:
            first_idx.setdefault(var, idx)
    return sorted(freq, key=lambda v: (-freq[v], first_idx.get(v, len(padded)), v.id))


def test_frequencies_closed_form_matches_counting():
    # every formula with n0, m0 <= 3, then the fuzz baseline's 300 formulas
    rng = random.Random(1)
    stream = [random_formula(rng, FuzzParams(max_n0=5, max_m0=4)) for _ in range(300)]
    for f in [*all_formulas(3, 3), *stream]:
        padded = _padded(f)
        freq = sequence_frequencies(padded)
        assert freq == _reference_frequencies(padded), f
        assert [v.id for v in freq] == sorted(v.id for v in freq)
        assert list(frequency_ordering(padded).variables) == _reference_ordering(padded, freq), f
        n = len(padded)
        assert all(freq[v] == n - 1 for v in freq if v.name.startswith("y")), f


def test_build_sequences_names_the_lowest_uncovered_variable(running, ce1):
    d = cnf_to_dnf(running)
    padded = pad_missing(d)
    full = frequency_ordering(padded)
    assert full.display() == "v3>v1>v2>y1>y2"
    for dropped, named in (({"v3", "v1"}, "v1"), ({"y2", "v2"}, "v2"), ({"y1"}, "y1")):
        partial = GlobalOrdering(tuple(v for v in full.variables if v.name not in dropped))
        with pytest.raises(OrderingError, match=f"does not cover {named}$"):
            build_sequences(padded, partial)
    # v1 is negated in every conjunction of CE1, so no sequence needs it
    padded = _padded(ce1)
    full = explicit_ordering(cnf_to_dnf(ce1), ["y1", "y2", "v1"])
    partial = GlobalOrdering(full.variables[:2])
    assert build_sequences(padded, partial) == build_sequences(padded, full)
