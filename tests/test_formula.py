"""Formula model: parsing, conversion, padding, evaluation."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twomaxsat.errors import FormulaParseError
from twomaxsat.formula import (
    Assignment,
    DnfFormula,
    cnf_to_dnf,
    conjunction_label,
    eval_cnf,
    formula_from_ints,
    pad_missing,
    parse_cnf,
    render_cnf,
)
from tests.conftest import all_formulas


def test_parse_running_style_three_clause():
    f = parse_cnf("p cnf 3 3\n1 2 0\n2 -3 0\n3 -1 0\n")
    assert f.n0 == 3 and f.m0 == 3
    assert str(f.clauses[1]) == "(v2 v ~v3)"


def test_parse_ce1(ce1):
    assert ce1.n0 == 2 and ce1.m0 == 1
    for clause in ce1.clauses:
        assert [lit.dimacs for lit in clause.literals] == [-1, -1]


def test_parse_single_literal_clause_duplicated():
    f = parse_cnf("p cnf 1 1\n1 0\n")
    assert [lit.dimacs for lit in f.clauses[0].literals] == [1, 1]


def test_parse_ignores_comments_and_blank_lines():
    f = parse_cnf("c a comment\n\np cnf 2 1\nc another\n1 -2 0\n")
    assert f.n0 == 1 and f.m0 == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2 0\n", "line 1: clause before header"),
        ("p dnf 2 1\n1 2 0\n", "line 1: expected 'p cnf <m0> <n0>'"),
        ("p cnf 2\n1 2 0\n", "line 1: expected 'p cnf <m0> <n0>'"),
        ("p cnf 2 2\n1 2 0\n", "header declares 2 clauses, found 1"),
        ("p cnf 3 1\n1 2 3 0\n", "line 2: 3 literal slots (need 1 or 2)"),
        ("p cnf 2 1\n0\n", "line 2: 0 literal slots (need 1 or 2)"),
        ("p cnf 2 1\n1 2\n", "line 2: clause not terminated by 0"),
        ("p cnf 2 1\n1 3 0\n", "clause 1: variable index 3 out of range"),
        pytest.param(  # keeps the id it had when the empty-formula fault had its own class
            "p cnf 2 0\n",
            "empty formula rejected (2-MAXSAT needs positive k < n)",
            id="p cnf 2 0\n-EmptyFormulaError",
        ),
        ("p cnf 1_0 1\n1 0\n", "line 1: non-integer header field"),  # int() would read 10
        ("p cnf 1 1\n+1 0\n", "line 2: non-integer token"),
        ("p cnf 1 1\n\u0661 0\n", "line 2: non-integer token"),  # Arabic-Indic digit one
        ("p cnf 1\u20031\n1 0\n", "line 1: expected 'p cnf <m0> <n0>'"),  # em space
        ("p cnf 1 1\n1 0\u3000\n", "line 2: non-integer token"),  # ideographic space
        ("p cnf 1 1\np cnf 1 1\n1 0\n", "line 2: duplicate header"),
        ("p cnf -1 1\n1 0\n", "line 1: negative header field"),
        ("p cnf 2 1\n0 1 0\n", "line 2: embedded 0 in clause"),
        ("c no header\n", "missing 'p cnf' header"),
    ],
)
def test_parse_errors(text, message):
    # one class for every parse fault: the message is what tells them apart
    with pytest.raises(FormulaParseError, match=f"^{re.escape(message)}$"):
        parse_cnf(text)


@pytest.mark.parametrize(
    "pairs, m0, message",
    [
        ([[1, -2], [1, 2, -2]], 2, "clause 2: need 1 or 2 literals, got 3"),
        ([], 2, "formula has no clauses"),
    ],
)
def test_formula_from_ints_errors(pairs, m0, message):
    with pytest.raises(FormulaParseError, match=f"^{re.escape(message)}$"):
        formula_from_ints(pairs, m0)


@pytest.mark.parametrize("text", ["p cnf 1 1\n1\u20030\n", "p cnf 1 1\n1 0\u3000\n"])
def test_parse_rejects_unicode_space_as_text_and_bytes(text):
    # only ASCII whitespace separates or ends tokens, so text and bytes agree
    with pytest.raises(FormulaParseError, match="non-integer token"):
        parse_cnf(text)
    with pytest.raises(UnicodeDecodeError):
        parse_cnf(text.encode())
    assert parse_cnf(text.replace("\u2003", " ").replace("\u3000", "\t")).n0 == 1


def test_cnf_to_dnf_running(running):
    d = cnf_to_dnf(running)
    assert d.n == 4 and d.m == 5
    assert [c.label for c in d.conjunctions] == ["a", "b", "c", "d"]
    assert str(d.conjunctions[0]) == "(v1 ^ y1)"
    assert str(d.conjunctions[1]) == "(~v2 ^ ~y1)"
    assert str(d.conjunctions[2]) == "(~v1 ^ y2)"
    assert str(d.conjunctions[3]) == "(v3 ^ ~y2)"


def test_cnf_to_dnf_ce1(ce1):
    d = cnf_to_dnf(ce1)
    assert [str(c) for c in d.conjunctions] == [
        "(~v1 ^ y1)",
        "(~v1 ^ ~y1)",
        "(~v1 ^ y2)",
        "(~v1 ^ ~y2)",
    ]


def test_cnf_to_dnf_ce3(ce3):
    d = cnf_to_dnf(ce3)
    assert [str(c) for c in d.conjunctions] == [
        "(~v1 ^ y1)",
        "(~v1 ^ ~y1)",
        "(v1 ^ y2)",
        "(v1 ^ ~y2)",
    ]


def test_dnf_size_relations():
    for f in (parse_cnf("p cnf 2 3\n1 2 0\n-1 -2 0\n1 -2 0\n"),):
        d = cnf_to_dnf(f)
        assert d.n == 2 * f.n0
        assert d.m == f.m0 + f.n0
        aux = [v for v in d.variables if v.name.startswith("y")]
        assert len(aux) == f.n0


def test_conjunction_labels_past_zz():
    # bijective base 26: the two-letter labels end at index 701
    expected = {0: "a", 25: "z", 26: "aa", 701: "zz", 702: "aaa"}
    assert {i: conjunction_label(i) for i in expected} == expected
    d = cnf_to_dnf(parse_cnf("p cnf 1 352\n" + "1 1 0\n" * 352))
    assert len({conj.label for conj in d.conjunctions}) == 704


def test_pad_missing_running(running):
    d = cnf_to_dnf(running)
    padded = pad_missing(d)
    a = padded[0]
    assert {(lit.variable.name, lit.positive) for lit in a.base.literals} == {
        ("v1", True),
        ("y1", True),
    }
    assert {v.name for v in a.starred} == {"v2", "v3", "y2"}


def test_pad_missing_nothing_missing():
    # one clause over one variable: the DNF has two variables, conjunction a uses both
    f = parse_cnf("p cnf 1 1\n1 0\n")
    padded = pad_missing(cnf_to_dnf(f))
    assert padded[0].starred == frozenset()


def test_pad_missing_ce1_conjunction_b(ce1):
    padded = pad_missing(cnf_to_dnf(ce1))
    b = padded[1]
    assert {(lit.variable.name, lit.positive) for lit in b.base.literals} == {
        ("v1", False),
        ("y1", False),
    }
    assert {v.name for v in b.starred} == {"y2"}


def test_pad_covers_table_exactly_once(ce1, running):
    # every conjunction shares the DNF's table; its own variables and the
    # starred ones partition it
    for f in (ce1, running, *all_formulas(2, 2)):
        d = cnf_to_dnf(f)
        for pc in pad_missing(d):
            assert pc.variables is d.variables
            own_vars = {lit.variable for lit in pc.base.literals}
            assert own_vars | pc.starred == set(d.variables)
            assert not own_vars & pc.starred


def test_eval_cnf_ce1(ce1):
    assert eval_cnf(ce1, Assignment((False,))) == 2
    assert eval_cnf(ce1, Assignment((True,))) == 0


def test_eval_cnf_ce3(ce3):
    assert eval_cnf(ce3, Assignment((True,))) == 1
    assert eval_cnf(ce3, Assignment((False,))) == 1


def test_eval_cnf_running_all_false(running):
    assert eval_cnf(running, Assignment((False, False, False))) == 2


def test_eval_cnf_partial_assignment(running):
    with pytest.raises(ValueError, match=r"^assignment covers 1 variables, need 3$"):
        eval_cnf(running, Assignment((True,)))


def _satisfied_dnf_labels(d: DnfFormula, a: Assignment) -> frozenset[str]:
    """Labels of the conjunctions a total assignment satisfies."""
    return frozenset(
        conj.label
        for conj in d.conjunctions
        if a.literal(conj.literals[0]) and a.literal(conj.literals[1])
    )


def _eval_dnf(d: DnfFormula, a: Assignment) -> int:
    """Count conjunctions satisfied by a total assignment (range 0..n)."""
    return len(_satisfied_dnf_labels(d, a))


def test_eval_dnf_running_derived(running):
    # v1=T v2=F v3=T y1=T y2=T satisfies only conjunction a = (v1 ^ y1):
    # b needs ~y1, c needs ~v1, d needs ~y2.
    d = cnf_to_dnf(running)
    a = Assignment((True, False, True, True, True))
    assert _satisfied_dnf_labels(d, a) == frozenset({"a"})
    assert _eval_dnf(d, a) == 1


def test_eval_dnf_nothing_satisfied(ce1):
    d = cnf_to_dnf(ce1)
    # v1=T falsifies every base literal ~v1
    assert _eval_dnf(d, Assignment((True, False, False))) == 0


def test_eval_dnf_ce1_derived(ce1):
    d = cnf_to_dnf(ce1)
    a = Assignment((False, True, True))
    assert _satisfied_dnf_labels(d, a) == frozenset({"a", "c"})
    assert _eval_dnf(d, a) == 2


def _assignments(count):
    for bits in itertools.product((False, True), repeat=count):
        yield Assignment(bits)


def test_pairing_soundness_exhaustive_small():
    # at most one conjunction of each origin pair holds, for every assignment
    for f in all_formulas(2, 2):
        d = cnf_to_dnf(f)
        for a in _assignments(d.m):
            for i in range(f.n0):
                first = d.conjunctions[2 * i]
                second = d.conjunctions[2 * i + 1]
                both = (
                    a.literal(first.literals[0])
                    and a.literal(first.literals[1])
                    and a.literal(second.literals[0])
                    and a.literal(second.literals[1])
                )
                assert not both


@st.composite
def clause_ints(draw, max_m0=4):
    m0 = draw(st.integers(1, max_m0))
    n0 = draw(st.integers(1, 4))
    clauses = []
    for _ in range(n0):
        a = draw(st.integers(1, m0)) * (1 if draw(st.booleans()) else -1)
        if draw(st.booleans()):
            b = a
        else:
            b = draw(st.integers(1, m0)) * (1 if draw(st.booleans()) else -1)
        clauses.append([a, b])
    return clauses, m0


@given(clause_ints())
@settings(max_examples=150, deadline=None)
def test_parse_render_roundtrip(data):
    clauses, m0 = data
    f = formula_from_ints(clauses, m0)
    assert render_cnf(parse_cnf(render_cnf(f))) == render_cnf(f)


@given(clause_ints(), st.integers(0, 2**10 - 1))
@settings(max_examples=150, deadline=None)
def test_padding_neutrality(data, bits):
    # a padded conjunction is satisfied iff its base is: starred items are tautologies
    clauses, m0 = data
    f = formula_from_ints(clauses, m0)
    d = cnf_to_dnf(f)
    a = Assignment(tuple(bool((bits >> i) & 1) for i in range(d.m)))
    for pc in pad_missing(d):
        base_true = a.literal(pc.base.literals[0]) and a.literal(pc.base.literals[1])
        padded_true = base_true and all((a[v] or not a[v]) for v in pc.starred)
        assert padded_true == base_true
