"""Sorted variable sequences under a global ordering (conversion steps 3-4).

Each padded conjunction becomes one sequence: its positive literals stay as
plain items, every table variable it lacks becomes a starred item, and negated
literals are dropped entirely.  Interior items follow a single global
ordering fixed for the whole pipeline run, then get the '#' / '$'
sentinels.  Tie-breaking inside the frequency ordering is the lever all the
counterexamples pull.  ``frequency_ordering`` breaks ties one fixed way; a
caller takes control with an explicit ordering, which ``tie_consistent``
checks against the frequencies, and the fuzzer enumerates every tie-break.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import OrderingError
from .formula import DnfFormula, Literal, PaddedConjunction, Variable


class ItemTag(enum.Enum):
    START = "#"
    VAR = "var"
    STARRED = "starred"
    END = "$"


@dataclass(frozen=True)
class SeqItem:
    tag: ItemTag
    variable: Variable | None = None

    def display(self) -> str:
        if self.tag is ItemTag.START:
            return "#"
        if self.tag is ItemTag.END:
            return "$"
        assert self.variable is not None
        if self.tag is ItemTag.STARRED:
            return f"({self.variable.name},*)"
        return self.variable.name


START_ITEM = SeqItem(ItemTag.START)
END_ITEM = SeqItem(ItemTag.END)


@dataclass(frozen=True)
class VarSequence:
    label: str
    items: tuple[SeqItem, ...]

    def display(self) -> str:
        return ".".join(item.display() for item in self.items)


@dataclass(frozen=True)
class GlobalOrdering:
    """A total order over the DNF variable table; position 0 is leftmost."""

    variables: tuple[Variable, ...]

    def display(self) -> str:
        return ">".join(v.name for v in self.variables)


def sequence_frequencies(padded: Sequence[PaddedConjunction]) -> dict[Variable, int]:
    """Count, per variable, the sequences in which it appears at all.

    A variable appears in a conjunction's sequence either as a plain item (a
    positive literal) or as a starred item (missing from the conjunction);
    negated occurrences are dropped by step 3 and do not count.  This is the
    reading that makes every recorded ordering a legal tie-break: it forces
    v1 first for the all-positive counterexample and last for the mixed one.
    Padding stars every variable a conjunction does not mention, so the count
    is n minus the conjunctions that negate the variable; every y_i counts
    n - 1.  Keys come in the order of the shared table, which is id order.
    """
    if not padded:
        return {}
    own = [lit for pc in padded for lit in pc.base.literals]
    negated = Counter(lit.variable.id for lit in own if not lit.positive)
    return {var: len(padded) - negated[var.id] for var in padded[0].variables}


def frequency_ordering(padded: Sequence[PaddedConjunction]) -> GlobalOrdering:
    """Sort variables by descending sequence frequency.

    Ties go to the variable that appears (plain or starred) in the earliest
    conjunction, the first one that does not negate it, then to the lower
    variable id.
    """
    if not padded:
        raise ValueError("frequency ordering needs at least one padded conjunction")
    freq = sequence_frequencies(padded)

    def key(v: Variable):
        kept = (i for i, pc in enumerate(padded) if Literal(v, False) not in pc.base.literals)
        return (-freq[v], next(kept, len(padded)), v.id)

    return GlobalOrdering(tuple(sorted(freq, key=key)))


def tie_consistent(padded: Sequence[PaddedConjunction], names: Sequence[str]) -> bool:
    """Whether an ordering of the variable table only breaks frequency ties.

    Legal exactly when sequence frequencies never increase along `names`.
    """
    freq = {v.name: count for v, count in sequence_frequencies(padded).items()}
    counts = [freq[name] for name in names]
    return all(a >= b for a, b in zip(counts, counts[1:]))


def lexical_ordering(d: DnfFormula) -> GlobalOrdering:
    """The table order, v1 > ... > vm0 > y1 > ... > yn0; the running example's ordering.

    ``cnf_to_dnf`` builds the table in this name order.
    """
    return GlobalOrdering(d.variables)


def explicit_ordering(d: DnfFormula, names: Sequence[str]) -> GlobalOrdering:
    """An arbitrary caller-supplied permutation of the full variable table."""
    by_name = {v.name: v for v in d.variables}
    seen: set[str] = set()
    ordered = []
    for name in names:
        if name in seen:
            raise OrderingError(f"duplicate name in ordering: {name}")
        seen.add(name)
        if name not in by_name:
            raise OrderingError(f"unknown variable name: {name}")
        ordered.append(by_name[name])
    if len(ordered) != len(d.variables):
        missing = [v.name for v in d.variables if v.name not in seen]
        raise OrderingError(f"ordering misses: {', '.join(missing)}")
    return GlobalOrdering(tuple(ordered))


def parse_ordering(spec: str) -> list[str]:
    """Parse "y1>y2>v1" into a name list; ``explicit_ordering`` rejects repeats."""
    names = [part.strip() for part in spec.split(">")]
    if any(not name for name in names):
        raise OrderingError(f"empty name in ordering spec: {spec!r}")
    return names


def build_sequences(
    padded: Sequence[PaddedConjunction], ordering: GlobalOrdering
) -> list[VarSequence]:
    """Steps 3-4: one walk of the ordering per conjunction, then the sentinels.

    Each variable is looked up by id in the own literals: a missing one gives a
    starred item, a positive one a plain item and a negated one nothing.
    """
    covered = {var.id for var in ordering.variables}
    for var, count in sequence_frequencies(padded).items():  # id order: name the lowest
        if count and var.id not in covered:
            raise OrderingError(f"ordering does not cover {var.name}")
    sequences = []
    for pc in padded:
        own = {lit.variable.id: lit.positive for lit in pc.base.literals}
        items = [
            SeqItem(ItemTag.VAR if positive else ItemTag.STARRED, var)
            for var in ordering.variables
            if (positive := own.get(var.id)) is not False
        ]
        sequences.append(VarSequence(pc.label, (START_ITEM, *items, END_ITEM)))
    return sequences
