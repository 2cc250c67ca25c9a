"""Bottom-up layered graph construction (step 9): the SEARCH algorithm and the
reconstructed "improved" variant with duplicate-node cases.

Algorithm 1: layer 1 is the set of all leaves, pushed as one initial group.
Popping a group adds every parent of every member (reversed main edges plus
reversed span edges, with no label attribution -- the skip-over flaw) as an
instance one layer up, deduplicated per trie node within that one expansion,
and one edge from the member to it.  Each (member, parent) pair has exactly
one edge: a node's parents (``TrieLikeGraph.parent_ids``) are distinct trie
nodes, because its main parent is one level up, every span edge skips at
least one level, and the overlay merges repeated spans into one edge.  So a
member generates exactly the parents in its row, and the edges need no
record of their own (see below).  The new parents partition into
same-label groups (parents of one child group only); groups of two or more
are pushed, singletons keep their instance and edges but never expand.

Algorithm 3 exists only as prose and worked examples, never as pseudocode;
this is a reconstruction of that described behavior.  Expansion works as in
Algorithm 1, but a parent trie node generated by two or more members of one
expansion is merged: one ``Counter`` over the members' rows finds the
created parents in Algorithm 1's first-seen order, and a row names a parent
once, so a count of two or more marks a merge.  The merged instance is not
expanded further and the expansion's non-merged parents that form no
pushed group continue as single-node recursions.  The memo keeps only each
merge's created index, since the search reads nothing more;
``Expansion.merge_records`` derives the rest when ``merge_events`` or the
JSON export reads the entry.  The prose names three cases: Case 1,
generators in pairwise-distinct root branches; Case 2, generators on one
root-to-leaf path; Case 3, the unexplained catch-all.  Case 2 never
happens: a merge's generators are members of one group, so they share one
label, and a root path names each label once.  So ``_case`` answers Case 1
when the generators' depth-1 ancestors, read from the trie's cached
``branch`` table, differ, and Case 3 otherwise.  A merge's reason follows
from its case, and its anchors are the merged node's main-path ancestors.
No cache keeps classifications: one keyed by (merged node, generators)
answered 4 to 32 % of lookups on the measured workloads, and the build was
no faster with it.

The prose also describes reachable subsets and upper boundaries, never
formally defined, that would keep a merged instance alive after a Case 1
merge below the root.  On graphs this pipeline builds that merge never
happens: every span edge connects a node to an ancestor on its own root path,
so all generators of a repeated non-root node share that node's root branch
(never Case 1), and a Case 1 repeat can only be the root, which has no
anchor.  Every merge therefore degenerates, which is precisely how the
recorded counterexamples defeat the improved search, so those structures
have no code here.  Each Algorithm 3 build checks the premise once, before
it searches, and raises InternalError for a non-root parent outside its
child's root branch, the only way to a Case 1 merge below the root.

Both searches are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): popping a group depends only on the
ordered tuple of its members' trie nodes, so each distinct tuple is expanded
once into an ``Expansion`` that also sums its subtree's sizes.  An entry
keeps its key, a reference to the searched ``TrieLikeGraph`` and no edge:
the created parents are the ordered union of the members' ``parent_ids``
rows, and the edge count is the sum of the rows' lengths.  The entry offers
no edge list: the DOT export walks the rows for each entry's (member,
parent) pairs, the JSON export writes one edge run per row and fills it
from the rows, and findSubset ORs its masks along the rows and rebuilds its
witness from them.  The search is a
depth-first stack, so every pushed group's subtree
takes one contiguous block of instance ids and group ids -- its created
parents first, then its child subtrees in pop order -- and the subtree
sizes give every absolute id.
``LayeredGraph`` therefore knows its counts without building anything.
``replay`` walks the memo in the search's pop order and hands out those ids,
in exactly the order a materialising search creates them, skipping the pops
that create nothing.  Both exports write straight from it, and findSubset (a
memoised walk, see ``subsets``), the skip-over diagnosis, the audits and the
fuzzer read the memo alone, so no list of every instance, edge or layer is
ever built.  ``groups`` and ``merge_events`` build their records from
``replay`` on each read, for callers that want them as objects.
``root_count`` lists no root.

Every graph has a leaf, so nothing here handles an empty one: the parser
rejects a formula with no clauses, each clause gives two conjunctions, and
every sequence ends in ``$``, so ``merge_main_paths`` makes at least one leaf.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterator

from .errors import InternalError
from .trie import TrieLikeGraph


class DuplicateCase:
    CASE1 = "case1"
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


_REASONS = {
    DuplicateCase.CASE1: "anchor-not-on-path",
    DuplicateCase.CASE3: "non-case1-merge",
}


@dataclass(eq=False, repr=False, slots=True)
class Expansion:
    """What popping a group with one member trie-node tuple creates, and its subtree.

    ``key`` is that member tuple, the memo key; members are positions in it
    and created parents are indices into ``created``.  No generation record
    is stored: the member at position ``pos`` generates every parent in its
    row of ``graph.parent_ids``, the searched graph's parent table, and
    every reader of the edges walks those rows.  ``merges`` holds only the
    created indices of Algorithm 3's merged parents; ``merge_records``
    derives the rest.  The totals cover the whole subtree below the popped
    group: everything its expansion creates plus every child subtree.
    Entries are shared, so comparing or printing one field by field would
    walk the exponential tree; both are by identity.
    """

    key: tuple[int, ...]  # member trie nodes, the memo key
    created: tuple[int, ...]  # trie nodes of the new parents, in creation order
    graph: TrieLikeGraph  # the searched graph, shared by every entry of one build
    groups: tuple[tuple[str, tuple[int, ...], bool, str], ...]
    # (label, created indices, pushed, origin)
    merges: tuple[int, ...]  # created indices of the merged parents
    children: tuple[tuple[int, Expansion], ...]  # (group index, its expansion), in pop order
    roots: tuple[int, ...]  # created indices that never get a parent
    instances: int
    root_total: int
    edge_total: int
    group_total: int
    expanded_total: int
    merge_total: int
    height: int  # layers the subtree adds above the popped group

    def merge_records(self) -> list[tuple[int, tuple[int, ...], str, str, tuple[int, ...]]]:
        """Each merge with what the search never reads, derived on each call:
        (created index, generator trie nodes, case, reason, anchors).

        A merged parent's generators are the key members whose rows hold it,
        sorted (key nodes are distinct).  A Case 1 merge is the root's, which
        has no anchor, and reachable subsets are only defined relative to a
        Case 1 repeat, so the reason follows from the case.
        """
        trie = self.graph.trie
        branch = trie.branch
        rows = list(map(self.graph.parent_ids.__getitem__, self.key))
        out = []
        for c in self.merges:
            node = self.created[c]
            generators = sorted(nid for nid, row in zip(self.key, rows) if node in row)
            case = _case(generators, branch)
            out.append((c, tuple(generators), case, _REASONS[case], tuple(trie.ancestors(node))))
        return out


@dataclass
class LayeredGraph:
    """A layered search result: eager counts, read off the memo.

    ``leaves`` are the trie nodes of the layer-1 instances (ids 1..L) and
    ``top`` is the memoised expansion of the initial leaves group.
    """

    mode: str  # "alg1" | "alg3"
    source: TrieLikeGraph
    leaves: tuple[int, ...]
    top: Expansion

    @property
    def vertex_count(self) -> int:
        return len(self.leaves) + self.top.instances

    @property
    def edge_count(self) -> int:
        return self.top.edge_total

    @property
    def layer_count(self) -> int:
        return 1 + self.top.height

    @property
    def group_count(self) -> int:
        return 1 + self.top.group_total

    @property
    def expanded_group_count(self) -> int:
        return 1 + self.top.expanded_total

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
        out = [Group(1, "$", tuple(range(1, len(self.leaves) + 1)), 1, None, True, "leaves")]
        for exp, _, group_id, layer, ids, group_ids in replay(self):
            for gid, (label, cs, pushed, origin) in zip(group_ids, exp.groups):
                members = tuple(map(ids.__getitem__, cs))
                out.append(Group(gid, label, members, layer + 1, group_id, pushed, origin))
        return out

    @property
    def merge_events(self) -> list[MergeEvent]:
        """Every merge event in creation order, built from ``replay`` on each read."""
        records = functools.cache(Expansion.merge_records)  # once per memo entry
        return [
            MergeEvent(layer + 1, exp.created[c], ids[c], generators, case, True, reason, anchors)
            for exp, _, _, layer, ids, _ in replay(self)
            for c, generators, case, reason, anchors in records(exp)
        ]


def _case(occ: list[int], branch: list[int]) -> str:
    """The case of two or more distinct same-label generators: never Case 2."""
    if len({branch[nid] for nid in occ}) == len(occ):
        return DuplicateCase.CASE1
    return DuplicateCase.CASE3


def _check_root_paths(g: TrieLikeGraph) -> None:
    """Refuse a graph where a Case 1 merge below the root could happen.

    Such a merge's generators lie in pairwise-distinct root branches, so at
    least one of them has a parent edge into another branch.  So it suffices
    that every non-root parent shares its child's root branch; a main parent
    always does, and a span edge does when it stays on its owner's root path.
    """
    branch = g.trie.branch
    for child, row in enumerate(g.parent_ids):
        for parent in row[1:]:
            if parent != 1 and branch[parent] != branch[child]:
                raise InternalError(
                    f"span edge n{child} -> n{parent} leaves its owner's root path, "
                    f"so n{parent} could repeat as a Case 1 merge below the root"
                )


def _expansion(memo: dict, g: TrieLikeGraph, merging: bool, key: tuple[int, ...]) -> Expansion:
    """The expansion of one member trie-node tuple of `g`, memoised in ``memo``.

    ``merging`` is true under Algorithm 3: a parent generated by two or more
    members is merged, and only its created index is kept.  Module level,
    like ``subsets._best``: a search leaves no reference cycle.
    """
    found = memo.get(key)
    if found is not None:
        return found
    labels = g.labels
    rows = list(map(g.parent_ids.__getitem__, key))
    buckets: defaultdict[str, list[int]] = defaultdict(list)  # unmerged parents by label
    merges = []
    if merging:
        # first-seen order, as Algorithm 1's; a row names a parent once, so
        # a count is the parent's number of generators
        counts = Counter(chain.from_iterable(rows))
        created = tuple(counts)
        for c, (node, count) in enumerate(counts.items()):
            if count < 2:
                buckets[labels[node]].append(c)
            else:
                merges.append(c)
    else:
        created = tuple(dict.fromkeys(chain.from_iterable(rows)))
        for c, node in enumerate(created):
            buckets[labels[node]].append(c)
    groups = [(label, tuple(cs), len(cs) >= 2, "label") for label, cs in buckets.items()]
    if merges:
        # a duplicate appeared: each parent left in an unpushed (singleton)
        # group recurses as a single node; those groups are in creation order
        groups += [
            (label, cs, True, "merge-sibling") for label, cs, pushed, _ in groups if not pushed
        ]
    children = []
    parentless = [True] * len(created)
    for gi in range(len(groups) - 1, -1, -1):  # the last pushed group pops first
        _, cs, pushed, _ = groups[gi]
        if pushed:
            for c in cs:
                parentless[c] = False
            child = _expansion(memo, g, merging, tuple(map(created.__getitem__, cs)))
            children.append((gi, child))
    if 1 in created:  # the trie root has no parent even when its group is expanded
        parentless[created.index(1)] = True
    roots = tuple(compress(range(len(created)), parentless))
    instances, root_total, edge_total = len(created), len(roots), sum(map(len, rows))
    group_total, expanded_total, merge_total, height = len(groups), len(children), len(merges), 0
    for _, child in children:
        instances += child.instances
        root_total += child.root_total
        edge_total += child.edge_total
        group_total += child.group_total
        expanded_total += child.expanded_total
        merge_total += child.merge_total
        height = max(height, child.height)
    found = memo[key] = Expansion(
        key,
        created,
        g,
        tuple(groups),
        tuple(merges),
        tuple(children),
        roots,
        instances,
        root_total,
        edge_total,
        group_total,
        expanded_total,
        merge_total,
        1 + height if created else 0,
    )
    return found


def _build(g: TrieLikeGraph, mode: str) -> LayeredGraph:
    leaves = tuple(n.id for n in g.trie.leaves())
    if mode == "alg3":
        _check_root_paths(g)
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
    order.  The leaves are ids 1..L and the leaves group is group 1.  A pop that
    creates nothing (Algorithm 3's merge-sibling trie root) is skipped.
    """
    next_id = len(lg.leaves) + 1
    next_group = 2
    stack = [(lg.top, tuple(range(1, next_id)), 1, 1)]  # expansion, member ids, group id, layer
    while stack:
        exp, members, group_id, layer = stack.pop()
        if not exp.created:
            continue
        ids = range(next_id, next_id + len(exp.created))
        group_ids = range(next_group, next_group + len(exp.groups))
        yield exp, members, group_id, layer, ids, group_ids
        next_id, next_group = ids.stop, group_ids.stop
        for gi, child in reversed(exp.children):  # stored in pop order
            pushed = tuple(map(ids.__getitem__, exp.groups[gi][1]))
            stack.append((child, pushed, group_ids[gi], layer + 1))
