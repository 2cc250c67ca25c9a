"""Boolean formula data model: 2-CNF input, derived 2-DNF, padding, evaluation.

The CNF->DNF conversion splits every clause (l1 v l2) into the pair of
conjunctions (l1 ^ y_i) and (l2 ^ ~y_i) over a fresh auxiliary variable y_i,
so a DNF built from n0 clauses over m0 variables has n = 2*n0 conjunctions
over m = m0 + n0 variables.  Conjunctions are tagged with letters a, b, c, ...
in emission order.  Padding then gives every conjunction the shared variable
table, where each variable the conjunction lacks is "starred" (tautological).
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import FormulaParseError

_DIMACS_INT = re.compile(r"-?[0-9]+")  # ASCII only: no '+', '_' or other scripts' digits
# bytes.split()'s whitespace; str.split() would also split on Unicode spaces,
# which the ASCII decode of the same input as bytes rejects
_SPACE = " \t\n\r\x0b\x0c"
_FIELD_SEP = re.compile(f"[{_SPACE}]+")


@dataclass(frozen=True)
class Variable:
    """A variable with a dense id and a display name (v1..vm, y1..yn)."""

    id: int
    name: str

    def __hash__(self) -> int:  # equal variables have equal ids
        return self.id

    def __repr__(self) -> str:
        return f"Variable({self.name})"


@dataclass(frozen=True)
class Literal:
    variable: Variable
    positive: bool

    def __str__(self) -> str:
        return self.variable.name if self.positive else f"~{self.variable.name}"

    @property
    def dimacs(self) -> int:
        n = self.variable.id + 1
        return n if self.positive else -n


@dataclass(frozen=True)
class Clause:
    """Exactly two literal slots; 1-literal input clauses are stored duplicated."""

    literals: tuple[Literal, Literal]
    index: int

    def __str__(self) -> str:
        return f"({self.literals[0]} v {self.literals[1]})"


@dataclass(frozen=True)
class CnfFormula:
    clauses: tuple[Clause, ...]
    variables: tuple[Variable, ...]

    @property
    def n0(self) -> int:
        return len(self.clauses)

    @property
    def m0(self) -> int:
        return len(self.variables)

    def __str__(self) -> str:
        return " ^ ".join(str(c) for c in self.clauses)


def conjunction_label(index: int) -> str:
    """Letter tag for conjunction `index` in bijective base 26: a..z, aa..zz, aaa, ..."""
    out = ""
    index += 1
    while index:
        index, digit = divmod(index - 1, 26)
        out = "abcdefghijklmnopqrstuvwxyz"[digit] + out
    return out


@dataclass(frozen=True)
class DnfConjunction:
    label: str
    literals: tuple[Literal, Literal]

    def __str__(self) -> str:
        return f"({self.literals[0]} ^ {self.literals[1]})"


@dataclass(frozen=True)
class DnfFormula:
    conjunctions: tuple[DnfConjunction, ...]
    variables: tuple[Variable, ...]

    @property
    def n(self) -> int:
        return len(self.conjunctions)

    @property
    def m(self) -> int:
        return len(self.variables)

    def __str__(self) -> str:
        return " v ".join(str(c) for c in self.conjunctions)


@dataclass(frozen=True)
class PaddedConjunction:
    """A conjunction padded with the DNF's variable table (shared, not copied)."""

    base: DnfConjunction
    variables: tuple[Variable, ...]

    @property
    def label(self) -> str:
        return self.base.label

    @property
    def starred(self) -> frozenset[Variable]:  # the table minus the own variables
        own = {lit.variable.id for lit in self.base.literals}
        return frozenset(v for v in self.variables if v.id not in own)


@dataclass(frozen=True)
class Assignment:
    """Truth values indexed by variable id; must cover the table it is used on."""

    values: tuple[bool, ...]

    def __getitem__(self, variable: Variable) -> bool:
        return self.values[variable.id]

    def literal(self, lit: Literal) -> bool:
        return self.values[lit.variable.id] == lit.positive

    def named(self, variables: Sequence[Variable]) -> dict[str, bool]:
        return {v.name: self.values[v.id] for v in variables}


def formula_from_ints(pairs: Iterable[Sequence[int]], m0: int) -> CnfFormula:
    """Build a CnfFormula from DIMACS-style literal pairs (1-based, sign = polarity)."""
    variables = tuple(Variable(i, f"v{i + 1}") for i in range(m0))
    clauses = []
    for idx, lits in enumerate(pairs):
        if not 1 <= len(lits) <= 2:
            raise FormulaParseError(f"clause {idx + 1}: need 1 or 2 literals, got {len(lits)}")
        norm = list(lits)
        if len(norm) == 1:
            norm = [norm[0], norm[0]]
        built = []
        for raw in norm:
            v = abs(raw)
            if raw == 0 or v > m0:
                raise FormulaParseError(f"clause {idx + 1}: variable index {raw} out of range")
            built.append(Literal(variables[v - 1], raw > 0))
        clauses.append(Clause((built[0], built[1]), idx))
    if not clauses:
        raise FormulaParseError("formula has no clauses")
    return CnfFormula(tuple(clauses), variables)


def parse_cnf(text: str | bytes) -> CnfFormula:
    """Parse the DIMACS-like format: comments `c ...`, header `p cnf m0 n0`, clause lines.

    Clause lines hold 1 or 2 nonzero integers terminated by 0; a single literal
    is normalized to a duplicated pair.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    header: tuple[int, int] | None = None
    raw_clauses: list[list[int]] = []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip(_SPACE)
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise FormulaParseError(f"line {lineno}: duplicate header")
            parts = _FIELD_SEP.split(line)
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise FormulaParseError(f"line {lineno}: expected 'p cnf <m0> <n0>'")
            if not all(_DIMACS_INT.fullmatch(field) for field in parts[2:]):
                raise FormulaParseError(f"line {lineno}: non-integer header field")
            header = (int(parts[2]), int(parts[3]))
            if header[0] < 0 or header[1] < 0:
                raise FormulaParseError(f"line {lineno}: negative header field")
            continue
        if header is None:
            raise FormulaParseError(f"line {lineno}: clause before header")
        tokens = _FIELD_SEP.split(line)
        if not all(_DIMACS_INT.fullmatch(tok) for tok in tokens):
            raise FormulaParseError(f"line {lineno}: non-integer token")
        ints = [int(tok) for tok in tokens]
        if not ints or ints[-1] != 0:
            raise FormulaParseError(f"line {lineno}: clause not terminated by 0")
        lits = ints[:-1]
        if any(v == 0 for v in lits):
            raise FormulaParseError(f"line {lineno}: embedded 0 in clause")
        if not 1 <= len(lits) <= 2:
            raise FormulaParseError(f"line {lineno}: {len(lits)} literal slots (need 1 or 2)")
        raw_clauses.append(lits)
    if header is None:
        raise FormulaParseError("missing 'p cnf' header")
    m0, n0 = header
    if n0 == 0 or not raw_clauses:
        raise FormulaParseError("empty formula rejected (2-MAXSAT needs positive k < n)")
    if len(raw_clauses) != n0:
        raise FormulaParseError(f"header declares {n0} clauses, found {len(raw_clauses)}")
    return formula_from_ints(raw_clauses, m0)


def render_cnf(f: CnfFormula) -> str:
    """Serialize in the normalized 2-literal form (parse_cnf round-trips it)."""
    lines = [f"p cnf {f.m0} {f.n0}"]
    for clause in f.clauses:
        lines.append(f"{clause.literals[0].dimacs} {clause.literals[1].dimacs} 0")
    return "\n".join(lines) + "\n"


def cnf_to_dnf(f: CnfFormula) -> DnfFormula:
    """Step 1: clause i = (l1 v l2) becomes (l1 ^ y_i) v (l2 ^ ~y_i)."""
    aux = tuple(Variable(f.m0 + i, f"y{i + 1}") for i in range(f.n0))
    variables = f.variables + aux
    conjunctions = []
    for clause in f.clauses:
        y = aux[clause.index]
        l1, l2 = clause.literals
        conjunctions.append(
            DnfConjunction(
                label=conjunction_label(2 * clause.index),
                literals=(l1, Literal(y, True)),
            )
        )
        conjunctions.append(
            DnfConjunction(
                label=conjunction_label(2 * clause.index + 1),
                literals=(l2, Literal(y, False)),
            )
        )
    return DnfFormula(tuple(conjunctions), variables)


def pad_missing(d: DnfFormula) -> list[PaddedConjunction]:
    """Step 2: pad each conjunction with the table, which stars every variable it lacks."""
    return [PaddedConjunction(conj, d.variables) for conj in d.conjunctions]


def eval_cnf(f: CnfFormula, a: Assignment) -> int:
    """Count clauses satisfied by a total assignment (range 0..n0); a short one
    raises ValueError."""
    if len(a.values) < len(f.variables):
        raise ValueError(f"assignment covers {len(a.values)} variables, need {len(f.variables)}")
    return sum(
        1
        for clause in f.clauses
        if a.literal(clause.literals[0]) or a.literal(clause.literals[1])
    )

