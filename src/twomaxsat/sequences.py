"""Sorted variable sequences under a global ordering (conversion steps 3-4).

Each padded conjunction becomes one sequence: its positive literals stay as
plain items, every starred variable becomes a starred item, and negated
literals are dropped entirely.  Interior items are sorted by a single global
ordering fixed for the whole pipeline run, then wrapped in the '#' / '$'
sentinels.  Tie-breaking inside the frequency ordering is the lever all the
counterexamples pull.  ``frequency_ordering`` breaks ties one fixed way; a
caller takes control with an explicit ordering, which ``tie_consistent``
checks against the frequencies, and the fuzzer enumerates every tie-break.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import (
    DuplicateNameError,
    IncompleteExplicitOrderError,
    UnknownVariableNameError,
)
from .formula import DnfFormula, PaddedConjunction, Variable


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

    @property
    def interior(self) -> tuple[SeqItem, ...]:
        return self.items[1:-1]

    def display(self) -> str:
        return ".".join(item.display() for item in self.items)


@dataclass(frozen=True)
class GlobalOrdering:
    """A total order over the DNF variable table; position 0 is leftmost."""

    variables: tuple[Variable, ...]

    @cached_property
    def _rank(self) -> dict[int, int]:
        return {v.id: pos for pos, v in enumerate(self.variables)}

    def rank(self, variable: Variable) -> int:
        return self._rank[variable.id]

    def display(self) -> str:
        return ">".join(v.name for v in self.variables)


_NAME_RE = re.compile(r"^([A-Za-z]+)(\d+)$")


def _natural_key(name: str) -> tuple[str, int]:
    match = _NAME_RE.match(name)
    if match:
        return (match.group(1), int(match.group(2)))
    return (name, -1)


def sequence_frequencies(padded: Sequence[PaddedConjunction]) -> dict[Variable, int]:
    """Count, per variable, the sequences in which it appears at all.

    A variable appears in a conjunction's sequence either as a plain item (a
    positive literal) or as a starred item (missing from the conjunction);
    negated occurrences are dropped by step 3 and do not count.  This is the
    reading that makes every recorded ordering a legal tie-break: it forces
    v1 first for the all-positive counterexample and last for the mixed one.
    """
    variables = _table_of(padded)
    freq = {v: 0 for v in variables}
    for pc in padded:
        for var, positive in pc.present:
            if positive:
                freq[var] += 1
        for var in pc.starred:
            freq[var] += 1
    return freq


def _table_of(padded: Sequence[PaddedConjunction]) -> list[Variable]:
    seen: dict[int, Variable] = {}
    for pc in padded:
        for var, _ in pc.present:
            seen[var.id] = var
        for var in pc.starred:
            seen[var.id] = var
    return [seen[i] for i in sorted(seen)]


def frequency_ordering(padded: Sequence[PaddedConjunction]) -> GlobalOrdering:
    """Sort variables by descending sequence frequency.

    Ties go to the variable that appears (plain or starred) in the earliest
    conjunction, then to the lower variable id.
    """
    if not padded:
        raise ValueError("frequency ordering needs at least one padded conjunction")
    freq = sequence_frequencies(padded)
    first_idx: dict[Variable, int] = {}
    for idx, pc in enumerate(padded):
        appearing = {var for var, positive in pc.present if positive} | pc.starred
        for var in appearing:
            first_idx.setdefault(var, idx)

    def key(v: Variable):
        return (-freq[v], first_idx.get(v, len(padded)), v.id)

    return GlobalOrdering(tuple(sorted(freq, key=key)))


def tie_consistent(padded: Sequence[PaddedConjunction], names: Sequence[str]) -> bool:
    """Whether an ordering of the variable table only breaks frequency ties.

    Legal exactly when sequence frequencies never increase along `names`.
    """
    freq = {v.name: count for v, count in sequence_frequencies(padded).items()}
    counts = [freq[name] for name in names]
    return all(a >= b for a, b in zip(counts, counts[1:]))


def lexical_ordering(d: DnfFormula) -> GlobalOrdering:
    """Name order (v1 > v2 > ... > y1 > y2 ...); the running example's ordering."""
    ordered = sorted(d.variables, key=lambda v: _natural_key(v.name))
    return GlobalOrdering(tuple(ordered))


def explicit_ordering(d: DnfFormula, names: Sequence[str]) -> GlobalOrdering:
    """An arbitrary caller-supplied permutation of the full variable table."""
    by_name = {v.name: v for v in d.variables}
    seen: set[str] = set()
    ordered = []
    for name in names:
        if name in seen:
            raise DuplicateNameError(f"duplicate name in ordering: {name}")
        seen.add(name)
        if name not in by_name:
            raise UnknownVariableNameError(f"unknown variable name: {name}")
        ordered.append(by_name[name])
    if len(ordered) != len(d.variables):
        missing = sorted((v.name for v in d.variables if v.name not in seen), key=_natural_key)
        raise IncompleteExplicitOrderError(f"ordering misses: {', '.join(missing)}")
    return GlobalOrdering(tuple(ordered))


def parse_ordering(spec: str) -> list[str]:
    """Parse "y1>y2>v1" into a name list; duplicate names are rejected."""
    names = [part.strip() for part in spec.split(">")]
    if any(not name for name in names):
        raise UnknownVariableNameError(f"empty name in ordering spec: {spec!r}")
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicateNameError(f"duplicate name in ordering spec: {name}")
        seen.add(name)
    return names


def build_sequences(
    padded: Sequence[PaddedConjunction], ordering: GlobalOrdering
) -> list[VarSequence]:
    """Steps 3-4: drop negated literals, star the missing, sort, add sentinels."""
    covered = {v.id for v in ordering.variables}
    sequences = []
    for pc in padded:
        needed = {var for var, positive in pc.present if positive} | pc.starred
        for var in needed:
            if var.id not in covered:
                raise IncompleteExplicitOrderError(f"ordering does not cover {var.name}")
        items = [SeqItem(ItemTag.VAR, var) for var, positive in pc.present if positive]
        items.extend(SeqItem(ItemTag.STARRED, var) for var in pc.starred)
        items.sort(key=lambda item: ordering.rank(item.variable))
        sequences.append(VarSequence(pc.label, (START_ITEM, *items, END_ITEM)))
    return sequences
