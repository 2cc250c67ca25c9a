"""Trie of merged main paths plus overlaid spans (steps 7-8).

Main paths merge by item label with star annotations ignored, so a starred
and an un-starred occurrence of the same variable land on the same node.
Below each node, the p-graphs whose remainder is a single '$' item collapse
into one leaf child carrying all their conjunction labels, and the rest are
grouped by their next label, in first appearance order, one child per group.
``merge_main_paths`` builds this in one loop over an explicit stack: popping
an entry creates its node and appends the node's id to the path of each
p-graph landing on it, then pushes the groups in reverse order and the leaf
last.  So the leaf is created first and each group's subtree is finished
before the next group starts: node ids are preorder with the leaf first
(the contract ``Trie.ancestry`` reads; see ``Trie``), reproducing the
n1, n2, ... numbering the recorded counterexamples use, and every sequence
position is mapped by construction.

The NodeMap remembers, per conjunction, which trie node each sequence
position landed on; overlaying a closed span (i, j) adds the rootward edge
map[j] -> map[i].  The overlay reads each p*-graph's runs of covered
positions, never a span object: it fills one ``owners`` dict from
(child, parent) to the conjunctions that put the edge there, and the
``TrieLikeGraph`` sorts its keys once into the ``parents`` rows.  Parent
discovery for the layered search deliberately ignores which conjunctions own
a span edge (the skip-over flaw); the owners are read by the harness'
diagnosis (``span_owners``), the audit (``span_edge_count``) and the
trie-like JSON export only.  ``TrieLikeGraph.span_edges`` lists the edges as
``SpanEdge`` objects on first read, for the trie-like DOT export, the traced
benchmark and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import UnmappedPositionError
from .formula import Variable
from .sequences import ItemTag
from .spans import PGraph, PStarGraph


class NodeKind:
    START = "#"
    END = "$"
    VAR = "var"


@dataclass
class TrieNode:
    id: int
    kind: str
    variable: Variable | None
    parent: int | None
    children: list[int] = field(default_factory=list)
    conjunction_labels: frozenset[str] = frozenset()

    @property
    def name(self) -> str:
        return f"n{self.id}"

    @property
    def label_text(self) -> str:
        if self.kind == NodeKind.START:
            return "#"
        if self.kind == NodeKind.END:
            return "$"
        assert self.variable is not None
        return self.variable.name


@dataclass(frozen=True)
class Ancestry:
    """Main-path ancestry of every node of one trie, indexed by node id."""

    ancestors: list[tuple[int, ...]]  # root first, the node excluded
    branch: list[int]  # the depth-1 ancestor, or the node itself at depth <= 1
    last: list[int]  # the largest id in the node's subtree


@dataclass
class Trie:
    """``nodes[i]`` has id ``i + 1``, and ids are preorder: `a` is `b` or an
    ancestor of `b` exactly when ``a <= b <= ancestry.last[a]``."""

    nodes: list[TrieNode]

    @property
    def root(self) -> TrieNode:
        return self.nodes[0]

    def node(self, node_id: int) -> TrieNode:
        return self.nodes[node_id - 1]

    @property
    def vertex_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.nodes) - 1

    def leaves(self) -> list[TrieNode]:
        return [n for n in self.nodes if n.kind == NodeKind.END]

    def ancestors(self, node_id: int) -> list[int]:
        """Main-path ancestors of a node, root first, the node excluded."""
        return list(self.ancestry.ancestors[node_id])

    @cached_property
    def ancestry(self) -> Ancestry:
        """Built on first read; a trie does not change once merged."""
        size = len(self.nodes) + 1
        ancestors: list[tuple[int, ...]] = [()] * size
        branch = list(range(size))
        for node in self.nodes:  # in preorder a parent comes before its children
            above = ancestors[node.id] + (node.id,)
            for child in node.children:
                ancestors[child] = above
                if len(above) > 1:
                    branch[child] = branch[node.id]
        last = list(range(size))
        for node in reversed(self.nodes):
            if node.children:
                last[node.id] = last[node.children[-1]]
        return Ancestry(ancestors, branch, last)


NodeMap = dict[str, tuple[int, ...]]


def merge_main_paths(pgraphs: Sequence[PGraph]) -> tuple[Trie, NodeMap]:
    """Step 7: merge main paths in one preorder pass; spans are ignored here.

    Each stack entry is a node still to create: (kind, variable, parent id,
    [(p-graph, position)]) for the p-graph positions that land on it.
    """
    for pg in pgraphs:
        if pg.items[0].tag is not ItemTag.START:
            raise ValueError(f"p-graph {pg.label} does not begin with '#'")
    nodes: list[TrieNode] = []
    paths: dict[str, list[int]] = {pg.label: [] for pg in pgraphs}
    stack: list[tuple[str, Variable | None, int | None, list[tuple[PGraph, int]]]] = [
        (NodeKind.START, None, None, [(pg, 0) for pg in pgraphs])
    ]
    while stack:
        kind, variable, parent, entries = stack.pop()
        nid = len(nodes) + 1
        labels = frozenset(pg.label for pg, _ in entries) if kind == NodeKind.END else frozenset()
        nodes.append(TrieNode(nid, kind, variable, parent, conjunction_labels=labels))
        if parent is not None:
            nodes[parent - 1].children.append(nid)
        finished: list[tuple[PGraph, int]] = []
        groups: dict[int, list[tuple[PGraph, int]]] = {}
        for pg, pos in entries:
            paths[pg.label].append(nid)
            pos += 1
            if pos == len(pg.items) - 1:
                finished.append((pg, pos))
            elif pos < len(pg.items) - 1:
                groups.setdefault(pg.items[pos].variable.id, []).append((pg, pos))
        for members in reversed(groups.values()):
            pg, pos = members[0]
            stack.append((NodeKind.VAR, pg.items[pos].variable, nid, members))
        if finished:
            stack.append((NodeKind.END, None, nid, finished))
    return Trie(nodes), {label: tuple(path) for label, path in paths.items()}


@dataclass(frozen=True)
class SpanEdge:
    """A rootward span edge: child is deeper on the path, parent closer to '#'."""

    child: int
    parent: int
    labels: frozenset[str]


Owners = dict[tuple[int, int], list[str]]


@dataclass
class TrieLikeGraph:
    """The trie plus its span edges, with the layered search's tables.

    ``owners`` maps each span edge (child, parent) to the conjunctions whose
    closed spans put it there, each named once: a conjunction's spans all lie
    on its own path, so it adds a given edge once.  ``parents[nid]`` lists
    ``(parent, kind)`` for node ``nid``: the main parent first, then the span
    targets by id, with no label attribution.  ``parent_ids[nid]`` is the
    same row's parent ids alone, the row the layered search and findSubset
    read.  ``labels[nid]`` is its label text.  All three are indexed by node
    id (row 0 is unused) and built once, since the graph does not change.
    """

    trie: Trie
    node_map: NodeMap
    owners: Owners

    def __post_init__(self) -> None:
        nodes = self.trie.nodes
        self.parents: list[list[tuple[int, str]]] = [[]] + [
            [] if n.parent is None else [(n.parent, "main")] for n in nodes
        ]
        self.parent_ids: list[list[int]] = [[]] + [
            [] if n.parent is None else [n.parent] for n in nodes
        ]
        self.labels = [""] + [n.label_text for n in nodes]
        parents, parent_ids = self.parents, self.parent_ids
        for child, parent in sorted(self.owners):
            parents[child].append((parent, "span"))
            parent_ids[child].append(parent)

    def span_owners(self, child: int, parent: int) -> frozenset[str]:
        return frozenset(self.owners.get((child, parent), ()))

    @cached_property
    def span_edges(self) -> tuple[SpanEdge, ...]:
        """Every span edge by (child, parent), with its owners; built on first read."""
        return tuple(
            SpanEdge(child, parent, frozenset(labels))
            for (child, parent), labels in sorted(self.owners.items())
        )

    @property
    def vertex_count(self) -> int:
        return self.trie.vertex_count

    @property
    def span_edge_count(self) -> int:
        return len(self.owners)

    @property
    def edge_count(self) -> int:
        return self.trie.edge_count + len(self.owners)


def overlay_spans(
    trie: Trie, node_map: NodeMap, pstars: Iterable[PStarGraph]
) -> TrieLikeGraph:
    """Step 8: add every closed span as a rootward edge; duplicates merge labels.

    A run (first, last) closes the spans (i, j) with first - 1 <= i and
    i + 2 <= j <= last + 1, so each i adds the edges from the nodes at
    ``mapped[i + 2 : last + 2]`` to the node at ``mapped[i]``.
    """
    owners: Owners = {}
    add_owner = owners.setdefault
    for ps in pstars:
        label = ps.base.label
        if label not in node_map:
            raise UnmappedPositionError(f"no node map entry for conjunction {label}")
        mapped = node_map[label]
        for first, last in ps.runs:
            if last + 1 >= len(mapped):
                raise UnmappedPositionError(
                    f"positions {first - 1}..{last + 1} of {label} outside the mapped "
                    f"sequence of {len(mapped)} positions"
                )
            for i in range(first - 1, last):
                parent = mapped[i]
                for child in mapped[i + 2 : last + 2]:
                    add_owner((child, parent), []).append(label)
    return TrieLikeGraph(trie, node_map, owners)
