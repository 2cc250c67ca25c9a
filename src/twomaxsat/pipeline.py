"""End-to-end composition of the conversion chain and the layered search.

``front_end`` runs steps 1-8 up to the trie-like graph, which nothing writes
to afterwards, so one front end serves both search algorithms; ``search``
runs the layered build (``build_layered``) and findSubset on it.
``run_pipeline`` is the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .formula import CnfFormula, DnfFormula, PaddedConjunction, cnf_to_dnf, pad_missing
from .layered import LayeredGraph, build_layered_alg1, build_layered_alg3
from .sequences import (
    GlobalOrdering,
    VarSequence,
    build_sequences,
    explicit_ordering,
    frequency_ordering,
    lexical_ordering,
    parse_ordering,
)
from .spans import PGraph, PStarGraph, build_pgraph, close_spans
from .subsets import PipelineAnswer, find_subset_alg2
from .trie import NodeMap, Trie, TrieLikeGraph, merge_main_paths, overlay_spans


@dataclass
class FrontEnd:
    """Steps 1-8 of one run: the stages before the layered search, less the padding."""

    formula: CnfFormula
    dnf: DnfFormula
    ordering: GlobalOrdering
    sequences: list[VarSequence]
    pgraphs: list[PGraph]
    pstars: list[PStarGraph]
    trie: Trie
    node_map: NodeMap
    trielike: TrieLikeGraph


@dataclass
class PipelineRun(FrontEnd):
    """Every intermediate stage of one run, for export and auditing."""

    layered: LayeredGraph
    answer: PipelineAnswer


def resolve_ordering(
    dnf: DnfFormula,
    padded: Sequence[PaddedConjunction],
    ordering: str | Sequence[str] = "frequency",
) -> GlobalOrdering:
    """Accept 'frequency', 'lexical', an explicit name list, or a "a>b>c" spec."""
    if isinstance(ordering, str):
        if ordering == "frequency":
            return frequency_ordering(padded)
        if ordering == "lexical":
            return lexical_ordering(dnf)
        return explicit_ordering(dnf, parse_ordering(ordering))
    return explicit_ordering(dnf, list(ordering))


def front_end(f: CnfFormula, ordering: str | Sequence[str]) -> FrontEnd:
    """Steps 1-8: CNF->DNF, padding, ordering, sequences, spans, trie-like graph."""
    dnf = cnf_to_dnf(f)
    padded = pad_missing(dnf)
    ordering_used = resolve_ordering(dnf, padded, ordering)
    sequences = build_sequences(padded, ordering_used)
    pgraphs = [build_pgraph(seq) for seq in sequences]
    pstars = [close_spans(pg) for pg in pgraphs]
    trie, node_map = merge_main_paths(pgraphs)
    trielike = overlay_spans(trie, node_map, pstars)
    return FrontEnd(f, dnf, ordering_used, sequences, pgraphs, pstars, trie, node_map, trielike)


def build_layered(g: TrieLikeGraph, algorithm: int) -> LayeredGraph:
    """Step 9: Algorithm 1's or Algorithm 3's layered search on a trie-like graph."""
    if algorithm not in (1, 3):
        raise ValueError(f"algorithm must be 1 or 3, got {algorithm}")
    build = build_layered_alg1 if algorithm == 1 else build_layered_alg3
    return build(g)


def search(front: FrontEnd, algorithm: int) -> PipelineRun:
    """Steps 9-10 on a built front end: the layered search, then findSubset."""
    layered = build_layered(front.trielike, algorithm)
    answer = find_subset_alg2(layered)
    return PipelineRun(**vars(front), layered=layered, answer=answer)


def run_pipeline(
    f: CnfFormula,
    ordering: str | Sequence[str] = "frequency",
    algorithm: int = 1,
) -> PipelineRun:
    """Execute steps 1-10 and return the claimed 2-MAXSAT answer with all stages."""
    return search(front_end(f, ordering), algorithm)
