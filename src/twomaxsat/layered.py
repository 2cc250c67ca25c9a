"""Bottom-up layered graph construction (step 9): the SEARCH algorithm and the
reconstructed "improved" variant with duplicate-node cases.

Algorithm 1: layer 1 is the set of all leaves, pushed as one initial group.
Popping a group adds every parent of every member (reversed main edges plus
reversed span edges, with no label attribution -- the skip-over flaw) as an
instance one layer up, deduplicated per trie node within that one expansion.
The new parents partition into same-label groups (parents of one child group
only); groups of two or more are pushed, singletons keep their instance and
edges but never expand.

Algorithm 3 exists only as prose and worked examples, never as pseudocode;
this is a reconstruction of that described behavior.  Expansion works as in
Algorithm 1, but whenever a parent
trie node is generated by two or more members of one expansion the merge is
classified (Case 1: generators in pairwise-distinct root branches; Case 2: on
one root-to-leaf path; Case 3: the unexplained catch-all) and the reachable
subset / upper boundary machinery is attempted.  When it degenerates -- always
the case when the repeated node is the root, the merge is not Case 1, or every
reachable subset has fewer than two members -- the merged instance is not
expanded further and the expansion's non-merged parents continue as
single-node recursions.  A merge whose upper boundary is well defined keeps
its merged instance alive as a singleton continuation scoped by the boundary.

On graphs this pipeline builds, the well-defined branch is unreachable: every
span edge connects a node to an ancestor on its own root path, so all
generators of a repeated non-root node share that node's root branch (never
Case 1), and a Case 1 repeat can only be the root, which has no anchor.
Every merge therefore degenerates, which is precisely how the recorded
counterexamples defeat the improved search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    AnchorNotOnPathError,
    DegenerateSubsetsError,
    NotADuplicateError,
)
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
    origin: str  # "leaves" | "label" | "merge-sibling" | "merged-scoped"


@dataclass(frozen=True)
class ReachableSubset:
    anchor: int
    label: str
    members: frozenset[int]


@dataclass(frozen=True)
class UpperBoundary:
    derived_from: tuple[ReachableSubset, ...]
    members: frozenset[int]


@dataclass
class MergeEvent:
    layer: int
    trie_node: int
    instance: int
    generators: tuple[int, ...]  # trie nodes that produced the duplicate
    case: str
    degenerate: bool
    reason: str  # "" when not degenerate
    anchors: tuple[int, ...] = ()
    subset_sizes: tuple[int, ...] = ()
    boundary: UpperBoundary | None = None


@dataclass
class LayeredGraph:
    mode: str  # "alg1" | "alg3"
    source: TrieLikeGraph
    instances: dict[int, NodeInstance] = field(default_factory=dict)
    layers: list[list[int]] = field(default_factory=list)
    edges: list[LayeredEdge] = field(default_factory=list)
    groups: list[Group] = field(default_factory=list)
    merge_events: list[MergeEvent] = field(default_factory=list)

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    @property
    def vertex_count(self) -> int:
        return len(self.instances)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def layer(self, index: int) -> list[NodeInstance]:
        """Instances of 1-based layer `index`."""
        return [self.instances[iid] for iid in self.layers[index - 1]]

    def roots(self) -> list[NodeInstance]:
        """Instances with no parents (never expanded, or expanded to nothing)."""
        have_parent = {edge.child for edge in self.edges}
        return [
            self.instances[iid]
            for iid in sorted(self.instances)
            if iid not in have_parent
        ]


def classify_duplicate_case(g: TrieLikeGraph, occurrences: Iterable[int]) -> str:
    """Case 1/2/3 for the trie nodes that generated one duplicate parent."""
    occ = sorted(set(occurrences))
    if len(occ) < 2:
        raise NotADuplicateError(f"need at least two occurrences, got {occ}")
    ancestor_sets = {nid: set(g.trie.ancestors(nid)) for nid in occ}
    def comparable(a: int, b: int) -> bool:
        return a in ancestor_sets[b] or b in ancestor_sets[a]
    if all(comparable(a, b) for i, a in enumerate(occ) for b in occ[i + 1 :]):
        return DuplicateCase.CASE2
    tops = set()
    for nid in occ:
        chain = g.trie.ancestors(nid)
        tops.add(chain[1] if len(chain) > 1 else nid)
    if len(tops) == len(occ):
        return DuplicateCase.CASE1
    return DuplicateCase.CASE3


def anchor_candidates(g: TrieLikeGraph, v: int) -> list[int]:
    """Valid anchors for repeated node `v`: its main-path ancestors, root included.

    Empty exactly when `v` is the root, the degenerate situation where no
    reachable subset can be calculated.
    """
    return g.trie.ancestors(v)


def reachable_subset(
    g: TrieLikeGraph, u: int, label: str, v: int | None = None
) -> ReachableSubset:
    """Label-`label` nodes reachable from `u` through a single span.

    When `v` is given, `u` must be a main-path ancestor of `v` and members are
    restricted to the subtree rooted at `v`.  The empty set is allowed.
    """
    if v is not None:
        if u not in anchor_candidates(g, v):
            raise AnchorNotOnPathError(
                f"n{u} is not between the root and repeated node n{v}"
            )
        scope = g.trie.subtree(v)
    else:
        scope = None
    members = set()
    for nid in g.span_reachable_from(u):
        if scope is not None and nid not in scope:
            continue
        if g.trie.node(nid).label_text == label:
            members.add(nid)
    return ReachableSubset(u, label, frozenset(members))


def _lowest_common_dominator(g: TrieLikeGraph, members: frozenset[int]) -> int:
    """Deepest main-trie node lying on every member's root path."""
    paths = [g.trie.ancestors(nid) + [nid] for nid in sorted(members)]
    common = paths[0]
    for path in paths[1:]:
        limit = min(len(common), len(path))
        keep = 0
        while keep < limit and common[keep] == path[keep]:
            keep += 1
        common = common[:keep]
    return common[-1]


def upper_boundary(
    g: TrieLikeGraph, subsets: Sequence[ReachableSubset]
) -> UpperBoundary:
    """Rootmost dominators of the reachable subsets.

    Any subset below two members degenerates: Algorithm 3 then falls back to
    its single-node recursion.
    """
    if not subsets or any(len(s.members) < 2 for s in subsets):
        raise DegenerateSubsetsError("reachable subsets too small for an upper boundary")
    members = frozenset(_lowest_common_dominator(g, s.members) for s in subsets)
    return UpperBoundary(tuple(subsets), members)


class _Builder:
    def __init__(self, g: TrieLikeGraph, mode: str):
        self.g = g
        self.lg = LayeredGraph(mode=mode, source=g)
        self._edge_seen: set[tuple[int, int]] = set()
        self._next_instance = 1
        self._next_group = 1

    def new_instance(self, trie_node: int, layer: int) -> NodeInstance:
        inst = NodeInstance(self._next_instance, trie_node, layer)
        self._next_instance += 1
        self.lg.instances[inst.instance_id] = inst
        while len(self.lg.layers) < layer:
            self.lg.layers.append([])
        self.lg.layers[layer - 1].append(inst.instance_id)
        return inst

    def add_edge(self, child: int, parent: int, kind: str) -> None:
        if (child, parent) not in self._edge_seen:
            self._edge_seen.add((child, parent))
            self.lg.edges.append(LayeredEdge(child, parent, kind))

    def new_group(
        self,
        label: str,
        members: Sequence[int],
        layer: int,
        child_group: int | None,
        pushed: bool,
        origin: str,
    ) -> Group:
        grp = Group(self._next_group, label, tuple(members), layer, child_group, pushed, origin)
        self._next_group += 1
        self.lg.groups.append(grp)
        return grp

    def leaf_layer(self) -> Group:
        leaves = [n.id for n in self.g.trie.leaves()]
        members = [self.new_instance(nid, 1).instance_id for nid in leaves]
        return self.new_group("$", members, 1, None, True, "leaves")

    def expand(self, grp: Group):
        """Generate the parents of one group; returns creation-ordered instances
        and the member-instances that generated each parent."""
        created: dict[int, NodeInstance] = {}
        order: list[NodeInstance] = []
        gens: dict[int, list[int]] = {}
        target = grp.layer + 1
        for member_iid in grp.members:
            member = self.lg.instances[member_iid]
            for parent_node, kind in self.g.parents_of(member.trie_node):
                inst = created.get(parent_node)
                if inst is None:
                    inst = self.new_instance(parent_node, target)
                    created[parent_node] = inst
                    order.append(inst)
                    gens[parent_node] = []
                self.add_edge(member_iid, inst.instance_id, kind)
                gens[parent_node].append(member_iid)
        return order, gens

    def label_groups(
        self, insts: Sequence[NodeInstance], child_group: int
    ) -> list[Group]:
        buckets: dict[str, list[int]] = {}
        order: list[str] = []
        for inst in insts:
            label = self.g.trie.node(inst.trie_node).label_text
            if label not in buckets:
                buckets[label] = []
                order.append(label)
            buckets[label].append(inst.instance_id)
        out = []
        for label in order:
            members = buckets[label]
            out.append(
                self.new_group(
                    label,
                    members,
                    self.lg.instances[members[0]].layer,
                    child_group,
                    pushed=len(members) >= 2,
                    origin="label",
                )
            )
        return out

    def merge_event(self, inst: NodeInstance, generator_iids: Sequence[int]) -> MergeEvent:
        g = self.g
        gen_nodes = tuple(
            sorted({self.lg.instances[iid].trie_node for iid in generator_iids})
        )
        case = classify_duplicate_case(g, gen_nodes)
        anchors = anchor_candidates(g, inst.trie_node)
        event = MergeEvent(
            layer=inst.layer,
            trie_node=inst.trie_node,
            instance=inst.instance_id,
            generators=gen_nodes,
            case=case,
            degenerate=True,
            reason="",
            anchors=tuple(anchors),
        )
        if case != DuplicateCase.CASE1:
            # reachable subsets are only defined relative to a Case 1 repeat
            event.reason = "non-case1-merge"
            return event
        if not anchors:
            event.reason = "anchor-not-on-path"
            return event
        subsets = []
        for u in anchors:
            by_label: dict[str, ReachableSubset] = {}
            scope = g.trie.subtree(inst.trie_node)
            for nid in g.span_reachable_from(u):
                if nid not in scope:
                    continue
                label = g.trie.node(nid).label_text
                sub = by_label.get(label)
                if sub is None:
                    by_label[label] = ReachableSubset(u, label, frozenset({nid}))
                else:
                    by_label[label] = ReachableSubset(
                        u, label, sub.members | {nid}
                    )
            subsets.extend(by_label[label] for label in sorted(by_label))
        event.subset_sizes = tuple(len(s.members) for s in subsets)
        usable = [s for s in subsets if len(s.members) >= 2]
        if not usable:
            event.reason = "degenerate-subsets"
            return event
        event.boundary = upper_boundary(g, usable)
        event.degenerate = False
        return event


def build_layered_alg1(g: TrieLikeGraph) -> LayeredGraph:
    """SEARCH: expand groups of two or more same-labeled parents until none form."""
    b = _Builder(g, "alg1")
    stack = [b.leaf_layer()]
    while stack:
        grp = stack.pop()
        order, _gens = b.expand(grp)
        for label_group in b.label_groups(order, grp.group_id):
            if label_group.pushed:
                stack.append(label_group)
    return b.lg


def build_layered_alg3(g: TrieLikeGraph) -> LayeredGraph:
    """The reconstructed improved search: merge, classify, and collapse duplicates."""
    b = _Builder(g, "alg3")
    stack = [b.leaf_layer()]
    while stack:
        grp = stack.pop()
        order, gens = b.expand(grp)
        merged = {
            inst.trie_node: inst
            for inst in order
            if len(gens[inst.trie_node]) >= 2
        }
        events = [
            b.merge_event(inst, gens[inst.trie_node])
            for inst in order
            if inst.trie_node in merged
        ]
        b.lg.merge_events.extend(events)
        plain = [inst for inst in order if inst.trie_node not in merged]
        pushed_members: set[int] = set()
        for label_group in b.label_groups(plain, grp.group_id):
            if label_group.pushed:
                stack.append(label_group)
                pushed_members.update(label_group.members)
        if merged:
            # a duplicate appeared: remaining parents recurse as single nodes
            for inst in plain:
                if inst.instance_id in pushed_members:
                    continue
                single = b.new_group(
                    b.g.trie.node(inst.trie_node).label_text,
                    (inst.instance_id,),
                    inst.layer,
                    grp.group_id,
                    pushed=True,
                    origin="merge-sibling",
                )
                stack.append(single)
        for event in events:
            if not event.degenerate:
                # a usable upper boundary keeps the merged instance expanding
                scoped = b.new_group(
                    b.g.trie.node(event.trie_node).label_text,
                    (event.instance,),
                    b.lg.instances[event.instance].layer,
                    grp.group_id,
                    pushed=True,
                    origin="merged-scoped",
                )
                stack.append(scoped)
    return b.lg
