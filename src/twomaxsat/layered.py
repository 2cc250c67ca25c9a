"""Bottom-up layered graph construction (step 9): the SEARCH algorithm and the
reconstructed "improved" variant with duplicate-node cases.

Algorithm 1: layer 1 is the set of all leaves, pushed as one initial group.
Popping a group adds every parent of every member (reversed main edges plus
reversed span edges, with no label attribution -- the skip-over flaw) as an
instance one layer up, deduplicated per trie node within that one expansion,
and one edge from the member to it.  That edge is the only record of who
generated whom, and each (member, parent) pair has exactly one: a node's
parents (``TrieLikeGraph.parents``) are distinct trie nodes, because its main
parent is one level up, every span edge skips at least one level, and the
overlay merges repeated spans into one edge.  The new parents partition into
same-label groups (parents of one child group only); groups of two or more
are pushed, singletons keep their instance and edges but never expand.

Algorithm 3 exists only as prose and worked examples, never as pseudocode;
this is a reconstruction of that described behavior.  Expansion works as in
Algorithm 1, but whenever a parent trie node is generated by two or more
members of one expansion the merge is classified (Case 1: generators in
pairwise-distinct root branches; Case 2: on one root-to-leaf path; Case 3:
the unexplained catch-all).  The merged instance is not expanded further and
the expansion's non-merged parents that form no pushed group continue as
single-node recursions.  The cases read the trie's ``ancestry`` table, built
once on the first merge: trie ids are preorder, so sorted by id the
generators lie on one path (Case 2) exactly when each one's subtree, the ids
up to its ``last``, holds the next, and they are in pairwise-distinct root
branches (Case 1) when their depth-1 ancestors differ.  Each merge is
classified in the expansion that makes it, with the merged node's ancestor
tuple from the same table as its anchors.  No cache keeps classifications:
one keyed by (merged node, generators) answered 4 to 32 % of lookups on
the measured workloads, and the build was no faster with it.

The prose also describes reachable subsets and upper boundaries, never
formally defined, that would keep a merged instance alive after a Case 1
merge below the root.  On graphs this pipeline builds that merge never
happens: every span edge connects a node to an ancestor on its own root path,
so all generators of a repeated non-root node share that node's root branch
(never Case 1), and a Case 1 repeat can only be the root, which has no
anchor.  Every merge therefore degenerates, which is precisely how the
recorded counterexamples defeat the improved search, so those structures
have no code here: a Case 1 merge with anchors raises InternalError.

Both searches are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): popping a group depends only on the
ordered tuple of its members' trie nodes, so each distinct tuple is expanded
once into an ``Expansion`` that also sums its subtree's sizes.  The search
is a depth-first stack, so every pushed group's subtree takes one contiguous
block of instance ids and group ids -- its created parents first, then its
child subtrees in pop order -- and the subtree sizes give every absolute id.
``LayeredGraph`` therefore knows its counts without building anything.
``replay`` walks the memo in the search's pop order and hands out those ids,
in exactly the order a materialising search creates them.  Both exports
write straight from it, and findSubset (a memoised walk, see ``subsets``),
the skip-over diagnosis, the audits and the fuzzer read the memo alone, so
no list of every instance, edge or layer is ever built.  ``groups`` and
``merge_events`` build their records from ``replay`` on each read, for
callers that want them as objects.  ``root_count`` lists no root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InternalError, NotADuplicateError
from .trie import TrieLikeGraph


class DuplicateCase:
    CASE1 = "case1"
    CASE2 = "case2"
    CASE3 = "case3"


@dataclass(frozen=True)
class NodeInstance:
    instance_id: int
    trie_node: int
    layer: int


@dataclass(frozen=True)
class LayeredEdge:
    """child -> parent generation edge; kind records the trie edge it reverses."""

    child: int
    parent: int
    kind: str  # "main" | "span"


@dataclass
class Group:
    group_id: int
    label: str
    members: tuple[int, ...]
    layer: int
    child_group: int | None
    pushed: bool
    origin: str  # "leaves" | "label" | "merge-sibling"


@dataclass
class MergeEvent:
    layer: int
    trie_node: int
    instance: int
    generators: tuple[int, ...]  # trie nodes that produced the duplicate
    case: str
    degenerate: bool  # always true: see the module docstring
    reason: str  # "non-case1-merge" | "anchor-not-on-path"
    anchors: tuple[int, ...] = ()


@dataclass(eq=False, repr=False)
class Expansion:
    """What popping a group with one member trie-node tuple creates, and its subtree.

    Members are positions in that tuple; created parents are indices into
    ``created``.  ``edges`` hold one entry per (member, created parent) pair
    and are the only generation record: a created parent's generators are
    the members of the edges into it.  The totals cover the whole subtree
    below the popped group: everything its expansion creates plus every
    child subtree.  Entries are shared, so comparing or printing one field
    by field would walk the exponential tree; both are by identity.
    """

    created: tuple[int, ...]  # trie nodes of the new parents, in creation order
    edges: tuple[tuple[int, int, str], ...]  # (member position, created index, kind)
    groups: tuple[tuple[str, tuple[int, ...], bool, str], ...]
    # (label, created indices, pushed, origin)
    merges: tuple[tuple[int, tuple[int, ...], str, str, tuple[int, ...]], ...]
    # (created index, generator trie nodes, case, reason, anchors)
    children: tuple[tuple[int, Expansion], ...]  # (group index, its expansion), in pop order
    roots: tuple[int, ...]  # created indices that never get a parent
    instances: int
    root_total: int
    edge_total: int
    group_total: int
    expanded_total: int
    merge_total: int
    height: int  # layers the subtree adds above the popped group


_NOTHING = Expansion((), (), (), (), (), (), 0, 0, 0, 0, 0, 0, 0)  # of a graph with no leaves


@dataclass
class LayeredGraph:
    """A layered search result: eager counts, read off the memo.

    ``leaves`` are the trie nodes of the layer-1 instances (ids 1..L) and
    ``top`` is the memoised expansion of the initial leaves group.
    """

    mode: str  # "alg1" | "alg3"
    source: TrieLikeGraph
    leaves: tuple[int, ...] = ()
    top: Expansion = _NOTHING

    @property
    def vertex_count(self) -> int:
        return len(self.leaves) + self.top.instances

    @property
    def edge_count(self) -> int:
        return self.top.edge_total

    @property
    def layer_count(self) -> int:
        return 1 + self.top.height if self.leaves else 0

    @property
    def group_count(self) -> int:
        return 1 + self.top.group_total if self.leaves else 0

    @property
    def expanded_group_count(self) -> int:
        return 1 + self.top.expanded_total if self.leaves else 0

    @property
    def root_count(self) -> int:
        """Parentless instances, the roots of the rooted subgraphs."""
        return self.top.root_total

    @property
    def merge_event_count(self) -> int:
        """Merge events; every one is degenerate (see the module docstring)."""
        return self.top.merge_total

    @property
    def groups(self) -> list[Group]:
        """Every group in creation order, built from ``replay`` on each read."""
        if not self.leaves:
            return []
        out = [Group(1, "$", tuple(range(1, len(self.leaves) + 1)), 1, None, True, "leaves")]
        for exp, _, group_id, layer, ids, group_ids in replay(self):
            for gid, (label, cs, pushed, origin) in zip(group_ids, exp.groups):
                members = tuple(map(ids.__getitem__, cs))
                out.append(Group(gid, label, members, layer + 1, group_id, pushed, origin))
        return out

    @property
    def merge_events(self) -> list[MergeEvent]:
        """Every merge event in creation order, built from ``replay`` on each read."""
        return [
            MergeEvent(layer + 1, exp.created[c], ids[c], generators, case, True, reason, anchors)
            for exp, _, _, layer, ids, _ in replay(self)
            for c, generators, case, reason, anchors in exp.merges
        ]


def classify_duplicate_case(g: TrieLikeGraph, occurrences: Iterable[int]) -> str:
    """Case 1/2/3 for the trie nodes that generated one duplicate parent."""
    table = g.trie.ancestry
    last = table.last
    occ = sorted(set(occurrences))
    if len(occ) < 2:
        raise NotADuplicateError(f"need at least two occurrences, got {occ}")
    # ids are preorder: every pair is comparable exactly when each node's subtree holds the next
    if all(b <= last[a] for a, b in zip(occ, occ[1:])):
        return DuplicateCase.CASE2
    if len({table.branch[nid] for nid in occ}) == len(occ):
        return DuplicateCase.CASE1
    return DuplicateCase.CASE3


def _expansion(table: dict, g: TrieLikeGraph, alg3: bool, key: tuple[int, ...]) -> Expansion:
    """The expansion of one member trie-node tuple, memoised in ``table``.

    Under Algorithm 3 each merge is classified here, where it is made.
    Module level, like ``subsets._best``: a search leaves no reference cycle.
    """
    found = table.get(key)
    if found is not None:
        return found
    parents, labels = g.parents, g.labels
    created: list[int] = []
    index: dict[int, int] = {}
    edges: list[tuple[int, int, str]] = []
    for pos, nid in enumerate(key):
        for parent, kind in parents[nid]:  # distinct parents: one edge per pair
            c = index.get(parent)
            if c is None:
                c = index[parent] = len(created)
                created.append(parent)
            edges.append((pos, c, kind))
    merges = []
    plain = range(len(created))
    if alg3:
        gens: list[list[int]] = [[] for _ in created]  # member positions per created parent
        for pos, c, _ in edges:
            gens[c].append(pos)
        plain = [c for c, ps in enumerate(gens) if len(ps) < 2]
        for c, ps in enumerate(gens):
            if len(ps) < 2:
                continue
            node = created[c]
            generators = tuple(sorted([key[pos] for pos in ps]))  # key nodes are distinct
            case = classify_duplicate_case(g, generators)
            anchors = g.trie.ancestry.ancestors[node]
            if case == DuplicateCase.CASE1 and anchors:
                raise InternalError(
                    f"Case 1 merge at non-root node n{node} (generators {generators}): "
                    "a span edge leaves its owner's root path"
                )
            # reachable subsets are only defined relative to a Case 1 repeat
            reason = "anchor-not-on-path" if case == DuplicateCase.CASE1 else "non-case1-merge"
            merges.append((c, generators, case, reason, anchors))
    buckets: dict[str, list[int]] = {}
    for c in plain:
        buckets.setdefault(labels[created[c]], []).append(c)
    groups = [(label, tuple(cs), len(cs) >= 2, "label") for label, cs in buckets.items()]
    if merges:
        # a duplicate appeared: remaining parents recurse as single nodes
        grouped = {c for _, cs, pushed, _ in groups if pushed for c in cs}
        groups += [
            (labels[created[c]], (c,), True, "merge-sibling")
            for c in plain
            if c not in grouped
        ]
    pushed = [gi for gi, grp in enumerate(groups) if grp[2]]
    children = tuple(
        (gi, _expansion(table, g, alg3, tuple(created[c] for c in groups[gi][1])))
        for gi in reversed(pushed)
    )
    expanded = {c for gi in pushed for c in groups[gi][1]}
    root = g.trie.root.id
    roots = tuple(c for c, nid in enumerate(created) if c not in expanded or nid == root)
    subtrees = [child for _, child in children]
    found = table[key] = Expansion(
        created=tuple(created),
        edges=tuple(edges),
        groups=tuple(groups),
        merges=tuple(merges),
        children=children,
        roots=roots,
        instances=len(created) + sum(s.instances for s in subtrees),
        root_total=len(roots) + sum(s.root_total for s in subtrees),
        edge_total=len(edges) + sum(s.edge_total for s in subtrees),
        group_total=len(groups) + sum(s.group_total for s in subtrees),
        expanded_total=len(pushed) + sum(s.expanded_total for s in subtrees),
        merge_total=len(merges) + sum(s.merge_total for s in subtrees),
        height=1 + max((s.height for s in subtrees), default=0) if created else 0,
    )
    return found


def _build(g: TrieLikeGraph, mode: str) -> LayeredGraph:
    leaves = tuple(n.id for n in g.trie.leaves())
    return LayeredGraph(mode, g, leaves, _expansion({}, g, mode == "alg3", leaves))


def build_layered_alg1(g: TrieLikeGraph) -> LayeredGraph:
    """SEARCH: expand groups of two or more same-labeled parents until none form."""
    return _build(g, "alg1")


def build_layered_alg3(g: TrieLikeGraph) -> LayeredGraph:
    """The reconstructed improved search: merge, classify, and collapse duplicates."""
    return _build(g, "alg3")


def replay(lg: LayeredGraph) -> Iterator[tuple[Expansion, tuple[int, ...], int, int, range, range]]:
    """The depth-first search replayed over the memo, one popped group at a time.

    Yields ``(expansion, members, group_id, layer, ids, group_ids)``: the
    popped group's expansion, member instance ids, group id and layer, and
    the ids of its created parents (``ids[c]`` for created index ``c``,
    starting at the first instance id) and of its created groups (starting
    at the first group id).  Popping numbers the created parents and groups
    next, then pushes the pushed groups, so the yields come in creation
    order.  Nothing is yielded for a graph with no leaves; the leaves are
    ids 1..L and the leaves group is group 1.
    """
    if not lg.leaves:
        return
    next_id = len(lg.leaves) + 1
    next_group = 2
    stack = [(lg.top, tuple(range(1, next_id)), 1, 1)]  # expansion, member ids, group id, layer
    while stack:
        exp, members, group_id, layer = stack.pop()
        ids = range(next_id, next_id + len(exp.created))
        group_ids = range(next_group, next_group + len(exp.groups))
        yield exp, members, group_id, layer, ids, group_ids
        next_id, next_group = ids.stop, group_ids.stop
        for gi, child in reversed(exp.children):  # stored in pop order
            pushed = tuple(map(ids.__getitem__, exp.groups[gi][1]))
            stack.append((child, pushed, group_ids[gi], layer + 1))
