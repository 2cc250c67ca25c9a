"""Per-sequence path graphs with spans and their transitive closure (steps 5-6).

A p-graph is the sequence's path plus one base span per starred interior
position: the edge that jumps over it.  The paper closes the spans by merging
overlapping ones -- whenever the two-node suffix of one span equals the
two-node prefix of another, their union is added (originals kept) -- until a
fixpoint.  That fixpoint has a closed form, which ``close_spans`` enumerates
directly; the tests keep the merge rule as a second oracle.  Spans are stored
positionally because endpoints may themselves be starred items.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sequences import ItemTag, VarSequence


@dataclass(frozen=True, order=True)
class Span:
    from_pos: int
    to_pos: int

    def __post_init__(self) -> None:
        if self.to_pos - self.from_pos < 2:
            raise ValueError("a span must jump over at least one position")

    @property
    def covered(self) -> tuple[int, ...]:
        return tuple(range(self.from_pos + 1, self.to_pos))


@dataclass(frozen=True)
class PGraph:
    """Nodes mirror the sequence items in order; main edges are consecutive pairs."""

    label: str
    items: tuple
    spans: tuple[Span, ...]


@dataclass(frozen=True)
class PStarGraph:
    base: PGraph
    closed_spans: tuple[Span, ...]


def build_pgraph(seq: VarSequence) -> PGraph:
    spans = [
        Span(pos - 1, pos + 1)
        for pos in range(1, len(seq.items) - 1)
        if seq.items[pos].tag is ItemTag.STARRED
    ]
    return PGraph(seq.label, seq.items, tuple(spans))


def close_spans(p: PGraph) -> PStarGraph:
    """Every (i, j) with j - i >= 2 whose positions in between the spans all cover.

    On base spans, each jumping one starred position, this is the fixpoint of
    the overlap-merge rule: merging chains base spans across a run of
    consecutive starred positions, so exactly the (i, j) whose interior lies
    inside one run are reached.
    """
    covered = {pos for s in p.spans for pos in s.covered}
    spans = []
    for i in range(len(p.items)):
        j = i + 1
        while j in covered:
            j += 1
            spans.append(Span(i, j))
    return PStarGraph(p, tuple(spans))
