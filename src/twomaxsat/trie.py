"""Trie of merged main paths plus overlaid spans (steps 7-8).

Main paths merge by item label with star annotations ignored, so a starred
and an un-starred occurrence of the same variable land on the same node.  At
each level, p-graphs whose remainder is a single '$' item collapse into one
leaf child first (created before any subtrees, carrying all their conjunction
labels); the remaining p-graphs are grouped by their next label, in first
appearance order, and merged recursively.  Node ids record creation order,
reproducing the n1, n2, ... numbering the recorded counterexamples use.

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
    """Main-path ancestry of every node of one trie, indexed by node id.

    ``pre``/``last`` are each node's preorder number and the largest preorder
    number in its subtree, from a depth-first walk over ``children``; `a` is
    `b` or an ancestor of it exactly when ``pre[a] <= pre[b] <= last[a]``.
    """

    ancestors: list[tuple[int, ...]]  # root first, the node excluded
    branch: list[int]  # the depth-1 ancestor, or the node itself at depth <= 1
    pre: list[int]
    last: list[int]


@dataclass
class Trie:
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
        pre = [0] * size
        last = [0] * size
        preorder: list[int] = []
        stack = [n.id for n in reversed(self.nodes) if n.parent is None]
        while stack:
            nid = stack.pop()
            pre[nid] = len(preorder)
            preorder.append(nid)
            children = self.node(nid).children
            above = ancestors[nid] + (nid,)
            for child in children:
                ancestors[child] = above
                if len(above) > 1:
                    branch[child] = branch[nid]
            stack.extend(reversed(children))
        for nid in reversed(preorder):
            children = self.node(nid).children
            last[nid] = last[children[-1]] if children else pre[nid]
        return Ancestry(ancestors, branch, pre, last)


NodeMap = dict[str, tuple[int, ...]]


def merge_main_paths(pgraphs: Sequence[PGraph]) -> tuple[Trie, NodeMap]:
    """Step 7: recursively merge main paths; spans are ignored here."""
    for pg in pgraphs:
        if pg.items[0].tag is not ItemTag.START:
            raise ValueError(f"p-graph {pg.label} does not begin with '#'")
    nodes: list[TrieNode] = []
    positions: dict[str, list[int | None]] = {
        pg.label: [None] * len(pg.items) for pg in pgraphs
    }

    def new_node(kind: str, variable: Variable | None, parent: int | None) -> TrieNode:
        node = TrieNode(len(nodes) + 1, kind, variable, parent)
        nodes.append(node)
        if parent is not None:
            nodes[parent - 1].children.append(node.id)
        return node

    root = new_node(NodeKind.START, None, None)
    for pg in pgraphs:
        positions[pg.label][0] = root.id

    def merge(entries: list[tuple[PGraph, int]], parent_id: int) -> None:
        # entries: (p-graph, position of its next unconsumed item)
        finished = [(pg, pos) for pg, pos in entries if pos == len(pg.items) - 1]
        pending = [(pg, pos) for pg, pos in entries if pos < len(pg.items) - 1]
        if finished:
            leaf = new_node(NodeKind.END, None, parent_id)
            leaf.conjunction_labels = frozenset(pg.label for pg, _ in finished)
            for pg, pos in finished:
                positions[pg.label][pos] = leaf.id
        groups: dict[int, list[tuple[PGraph, int]]] = {}
        order: list[int] = []
        for pg, pos in pending:
            var = pg.items[pos].variable
            assert var is not None
            if var.id not in groups:
                groups[var.id] = []
                order.append(var.id)
            groups[var.id].append((pg, pos))
        for var_id in order:
            members = groups[var_id]
            var = members[0][0].items[members[0][1]].variable
            node = new_node(NodeKind.VAR, var, parent_id)
            for pg, pos in members:
                positions[pg.label][pos] = node.id
            merge([(pg, pos + 1) for pg, pos in members], node.id)

    merge([(pg, 1) for pg in pgraphs], root.id)
    trie = Trie(nodes)
    node_map: NodeMap = {}
    for pg in pgraphs:
        mapped = positions[pg.label]
        if any(nid is None for nid in mapped):
            raise UnmappedPositionError(f"p-graph {pg.label} left unmapped positions")
        node_map[pg.label] = tuple(mapped)  # type: ignore[arg-type]
    return trie, node_map


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
    targets by id, with no label attribution.  ``labels[nid]`` is its label
    text.  Both are indexed by node id (row 0 is unused) and built once,
    since the graph does not change.
    """

    trie: Trie
    node_map: NodeMap
    owners: Owners

    def __post_init__(self) -> None:
        nodes = self.trie.nodes
        self.parents: list[list[tuple[int, str]]] = [[]] + [
            [] if n.parent is None else [(n.parent, "main")] for n in nodes
        ]
        self.labels = [""] + [n.label_text for n in nodes]
        parents = self.parents
        for child, parent in sorted(self.owners):
            parents[child].append((parent, "span"))

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
