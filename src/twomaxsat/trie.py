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
(the contract ``Trie.branch`` reads; see ``Trie``), reproducing the
n1, n2, ... numbering the recorded counterexamples use, and every sequence
position is mapped by construction.

The NodeMap remembers, per conjunction, which trie node each sequence
position landed on; overlaying a closed span (i, j) adds the rootward edge
map[j] -> map[i].  The overlay reads each p*-graph's runs of covered
positions, never a span object: it checks them against the node map and
hands them to the ``TrieLikeGraph``, which fills the ``parent_ids`` rows and
``span_edge_count`` from one set of span parents per child node.  Parent
discovery for the layered search deliberately ignores which conjunctions own
a span edge (the skip-over flaw), so the ``owners`` dict from (child,
parent) to the conjunctions that put the edge there is built only when read:
by the harness' diagnosis, which indexes it, and by ``span_edges``, its items
sorted by (child, parent), which both trie-like exports write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

from .formula import Variable
from .sequences import ItemTag
from .spans import PGraph, PStarGraph


@dataclass
class TrieNode:
    id: int
    kind: ItemTag  # START, VAR or END
    variable: Variable | None
    parent: int | None
    children: list[int] = field(default_factory=list)
    conjunction_labels: frozenset[str] = frozenset()

    @property
    def name(self) -> str:
        return f"n{self.id}"

    @property
    def label_text(self) -> str:
        if self.kind is not ItemTag.VAR:
            return self.kind.value
        assert self.variable is not None
        return self.variable.name


@dataclass
class Trie:
    """``nodes[i]`` has id ``i + 1``, so the root is node 1, and ids are
    preorder: a node comes after its parent, which ``branch`` reads."""

    nodes: list[TrieNode]

    def node(self, node_id: int) -> TrieNode:
        return self.nodes[node_id - 1]

    @property
    def vertex_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.nodes) - 1

    def leaves(self) -> list[TrieNode]:
        return [n for n in self.nodes if n.kind is ItemTag.END]

    def ancestors(self, node_id: int) -> list[int]:
        """Main-path ancestors of a node, root first, the node excluded."""
        path = []
        parent = self.node(node_id).parent
        while parent is not None:
            path.append(parent)
            parent = self.node(parent).parent
        path.reverse()
        return path

    @cached_property
    def branch(self) -> list[int]:
        """Each node's depth-1 ancestor, or the node itself at depth <= 1, by id.

        Built on first read; a trie does not change once merged.
        """
        branch = list(range(len(self.nodes) + 1))
        for node in self.nodes[1:]:  # in preorder a parent comes before its children
            for child in node.children:
                branch[child] = branch[node.id]
        return branch


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
    stack: list[tuple[ItemTag, Variable | None, int | None, list[tuple[PGraph, int]]]] = [
        (ItemTag.START, None, None, [(pg, 0) for pg in pgraphs])
    ]
    while stack:
        kind, variable, parent, entries = stack.pop()
        nid = len(nodes) + 1
        labels = frozenset(pg.label for pg, _ in entries) if kind is ItemTag.END else frozenset()
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
            stack.append((ItemTag.VAR, pg.items[pos].variable, nid, members))
        if finished:
            stack.append((ItemTag.END, None, nid, finished))
    return Trie(nodes), {label: tuple(path) for label, path in paths.items()}


Owners = dict[tuple[int, int], list[str]]
Runs = dict[str, tuple[tuple[int, int], ...]]


@dataclass
class TrieLikeGraph:
    """The trie plus its span edges, and the tables the layered search reads.

    ``runs`` holds each conjunction's runs of covered positions, by label in
    p*-graph order, and ``node_map`` its path; together they give the span
    edges.  ``parent_ids[nid]`` is node ``nid``'s parent row, with no label
    attribution; an entry's kind is its position, and ``parent_edges`` is the
    one place that applies it.  The root's row is empty, and any other row
    holds its main parent first and then its span targets by id: a span edge
    skips at least one level, so it never reaches the main parent.
    ``labels[nid]`` is the node's label text.  Both are indexed by node id
    (row 0 is unused) and built once, since the graph does not change, and
    ``span_edge_count`` is counted from the same per-child parent sets.  The
    layered search's memo entries read these tables through a reference to
    the graph itself.

    ``owners`` maps each span edge (child, parent) to the conjunctions whose
    closed spans put it there, each named once: a conjunction's spans all lie
    on its own path, so it adds a given edge once.  The search never reads
    it, so it is built on first read, by the diagnosis or ``span_edges``.
    It comes from the same runs as the rows, so every span entry of a row
    has its key, which the diagnosis indexes.  ``span_edges`` is its one
    sorted view, which both trie-like exports read.
    """

    trie: Trie
    node_map: NodeMap
    runs: Runs

    def __post_init__(self) -> None:
        nodes = self.trie.nodes
        self.parent_ids: list[list[int]] = [[]] + [
            [] if n.parent is None else [n.parent] for n in nodes
        ]
        self.labels = [""] + [n.label_text for n in nodes]
        spans: dict[int, set[int]] = {}  # span parents per child node
        for label, runs in self.runs.items():
            mapped = self.node_map[label]
            for first, last in runs:
                # position j's node gets an edge to each node at first - 1 .. j - 2
                for j in range(first + 1, last + 2):
                    spans.setdefault(mapped[j], set()).update(mapped[first - 1 : j - 1])
        for child, parents in spans.items():
            self.parent_ids[child] += sorted(parents)
        self.span_edge_count = sum(map(len, spans.values()))

    @cached_property
    def owners(self) -> Owners:
        """Every span edge's owners, in the order the runs add them; built on first read."""
        owners: Owners = {}
        add_owner = owners.setdefault
        for label, runs in self.runs.items():
            mapped = self.node_map[label]
            for first, last in runs:
                for i in range(first - 1, last):
                    parent = mapped[i]
                    for child in mapped[i + 2 : last + 2]:
                        add_owner((child, parent), []).append(label)
        return owners

    def parent_edges(self, nid: int) -> Iterator[tuple[int, str]]:
        """(parent, kind) per entry of row `nid`: "main" first, "span" after."""
        return zip(self.parent_ids[nid], chain(("main",), repeat("span")))

    @cached_property
    def span_edges(self) -> list[tuple[tuple[int, int], list[str]]]:
        """The ``owners`` items by (child, parent), for the exports; built on first read."""
        return sorted(self.owners.items())

    @property
    def vertex_count(self) -> int:
        return self.trie.vertex_count

    @property
    def edge_count(self) -> int:
        return self.trie.edge_count + self.span_edge_count


def overlay_spans(
    trie: Trie, node_map: NodeMap, pstars: Iterable[PStarGraph]
) -> TrieLikeGraph:
    """Step 8: add every closed span as a rootward edge; duplicates merge labels.

    A run (first, last) closes the spans (i, j) with first - 1 <= i and
    i + 2 <= j <= last + 1, so the node at position j gets the edges to the
    nodes at ``mapped[first - 1 : j - 1]``.  This checks that every run fits
    its conjunction's mapped path; stage inputs that do not fit together, a
    construction bug, raise ValueError.
    """
    runs: Runs = {}
    for ps in pstars:
        label = ps.base.label
        if label not in node_map:
            raise ValueError(f"no node map entry for conjunction {label}")
        mapped = node_map[label]
        for first, last in ps.runs:
            if last + 1 >= len(mapped):
                raise ValueError(
                    f"positions {first - 1}..{last + 1} of {label} outside the mapped "
                    f"sequence of {len(mapped)} positions"
                )
        runs[label] = ps.runs
    return TrieLikeGraph(trie, node_map, runs)
