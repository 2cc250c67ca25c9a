"""Per-sequence path graphs with spans and their transitive closure (steps 5-6).

A p-graph is the sequence's path plus one base span per starred interior
position: the edge that jumps over it.  The paper closes the spans by merging
overlapping ones -- whenever the two-node suffix of one span equals the
two-node prefix of another, their union is added (originals kept) -- until a
fixpoint.  That fixpoint has a closed form: the closed spans are exactly the
(i, j) with j - i >= 2 whose interior lies inside one maximal run of covered
(for base spans: consecutive starred) positions.  So ``close_spans`` stores
only those runs, as (first, last) position pairs; a run of r positions
closes r(r+1)/2 spans, which is ``PStarGraph.span_count``.  The trie overlay
reads the runs directly.  ``PStarGraph.closed_spans`` lists the spans as
``Span`` objects on first read, for the pstars export, the traced benchmark
and the tests; the tests keep the merge rule and the per-span closure as
independent oracles.  Spans are stored positionally because endpoints may
themselves be starred items.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    """A p-graph closed under span merging, stored as its runs of covered positions.

    ``runs`` holds each maximal run of consecutive covered positions as
    (first, last), in position order; the closed spans are the (i, j) with
    first - 1 <= i and i + 2 <= j <= last + 1 for one run.
    """

    base: PGraph
    runs: tuple[tuple[int, int], ...]

    @property
    def span_count(self) -> int:
        return sum((last - first + 1) * (last - first + 2) // 2 for first, last in self.runs)

    @cached_property
    def closed_spans(self) -> tuple[Span, ...]:
        """Every closed span, ordered by (from_pos, to_pos); built on first read."""
        return tuple(
            Span(i, j)
            for first, last in self.runs
            for i in range(first - 1, last)
            for j in range(i + 2, last + 2)
        )


def build_pgraph(seq: VarSequence) -> PGraph:
    spans = [
        Span(pos - 1, pos + 1)
        for pos in range(1, len(seq.items) - 1)
        if seq.items[pos].tag is ItemTag.STARRED
    ]
    return PGraph(seq.label, seq.items, tuple(spans))


def close_spans(p: PGraph) -> PStarGraph:
    """The closure as the maximal runs of positions the spans cover.

    On base spans, each jumping one starred position, the overlap-merge rule
    chains base spans across a run of consecutive starred positions, so its
    fixpoint is exactly the (i, j) whose interior lies inside one run.
    """
    runs: list[tuple[int, int]] = []
    for pos in sorted({pos for s in p.spans for pos in s.covered}):
        if runs and runs[-1][1] == pos - 1:
            runs[-1] = (runs[-1][0], pos)
        else:
            runs.append((pos, pos))
    return PStarGraph(p, tuple(runs))
