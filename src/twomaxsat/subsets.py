"""The findSubset answer (step 10).

A rooted subgraph is the full downward closure of a parentless instance along
the recorded generation edges; its claimed satisfied set is the union of the
conjunction labels on the layer-1 leaves it reaches.  The count is the size
of that union (conjunctions, not leaves).  The reported assignment sets every
variable labeling a closure node true and everything else false, with no
consistency check across branches -- reporting that inconsistency is the
harness' job, not the pipeline's.

findSubset never unfolds the layered graph and never lists its roots.  It
walks the search's memo (``layered.Expansion``) top-down with one leaf-label
bitmask per group member: a created parent's mask is the union of its
generators' masks, ORed along each member's row of the graph's
``parent_ids`` table, and a parentless instance counts its mask's
popcount.  A subtree's result depends only on
its expansion and its members' masks, so the walk is memoised on that
pair: each yields the best count in the subtree and the offset of the
smallest winning root in its contiguous id block.
The walk is also a branch and bound (Land & Doig, Econometrica 1960): every
count below a child group is at most the popcount of the union of that
group's member masks, so a child whose union cannot beat the best count so
far is never entered.  How much that prunes depends on the data, and no
polynomial bound on the walk states is shown: on seeded m0 = 8 formulas
with Algorithm 1, ``PipelineAnswer.walk_states`` reads 710, 65, 291, 429,
816 and 392 at n0 = 12, 16, 20, 24, 28 and 32, where the unpruned walk grew
2.2x per two clauses.  The witness closure is rebuilt from the parent
rows of the chain of groups above the winning root, so a search derives no
edge list at all.
``per_subgraph`` runs ``_walk_roots``, the unmemoised walk, over every root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from .layered import Expansion, LayeredEdge, LayeredGraph, NodeInstance
from .trie import Trie


@dataclass(frozen=True)
class RootedSubgraph:
    root: NodeInstance
    instances: frozenset[int]
    leaf_labels: frozenset[str]
    true_variables: frozenset[str]
    edges: tuple[LayeredEdge, ...]  # the closure's edges, in creation order
    nodes: Mapping[int, NodeInstance]  # every closure instance, by id

    def implied_assignment(self, variable_names: Sequence[str]) -> dict[str, bool]:
        return {name: name in self.true_variables for name in variable_names}


@dataclass(frozen=True)
class PipelineAnswer:
    max_count: int
    witness: RootedSubgraph
    layered: LayeredGraph = field(repr=False, compare=False)
    walk_states: int = field(compare=False)  # memo entries the walk filled

    @cached_property
    def per_subgraph(self) -> tuple[tuple[int, int], ...]:
        """(root instance id, count) for every root by ascending id, listed on first
        read; no leaf is a root: the leaves group is expanded, each leaf has a parent."""
        lg = self.layered
        out: list[tuple[int, int]] = []
        _walk_roots(lg.top, _leaf_masks(lg), len(lg.leaves) + 1, out)
        return tuple(out)


def _subgraph(
    trie: Trie,
    root: NodeInstance,
    nodes: dict[int, NodeInstance],
    edges: Sequence[LayeredEdge],
) -> RootedSubgraph:
    labels: set[str] = set()
    true_vars: set[str] = set()
    for inst in nodes.values():
        node = trie.node(inst.trie_node)
        if inst.layer == 1:
            labels.update(node.conjunction_labels)
        if node.variable is not None:
            true_vars.add(node.variable.name)
    return RootedSubgraph(
        root, frozenset(nodes), frozenset(labels), frozenset(true_vars), tuple(edges), nodes
    )


def _leaf_masks(lg: LayeredGraph) -> list[int]:
    """Leaf-label bitmask per layer-1 instance, in instance-id order."""
    trie = lg.source.trie
    index: dict[str, int] = {}
    masks = []
    for nid in lg.leaves:
        mask = 0
        for label in sorted(trie.node(nid).conjunction_labels):
            mask |= 1 << index.setdefault(label, len(index))
        masks.append(mask)
    return masks


def _created_masks(exp: Expansion, masks: Sequence[int]) -> list[int]:
    """Each created parent's mask: the union of its generators' masks.

    Every member ORs its mask into each parent of its row; ``exp.created``
    lists those rows' parents in first-seen order, the order kept here.
    """
    made = dict.fromkeys(exp.created, 0)
    parent_ids = exp.graph.parent_ids
    for nid, mask in zip(exp.key, masks):
        for parent in parent_ids[nid]:
            made[parent] |= mask
    return list(made.values())


def _walk_roots(exp: Expansion, masks: list[int], first: int, out: list[tuple[int, int]]) -> None:
    """Append (root id, count) for the roots of `exp`'s subtree, whose ids start at `first`."""
    made = _created_masks(exp, masks)
    out.extend((first + c, made[c].bit_count()) for c in exp.roots)
    first += len(made)
    for gi, child in exp.children:
        _walk_roots(child, [made[c] for c in exp.groups[gi][1]], first, out)
        first += child.instances


def _best(exp: Expansion, masks: tuple[int, ...], memo: dict) -> tuple[int, int]:
    """(count, offset from the subtree's first id) of its smallest best root.

    Count -1 when the subtree has no root.  Ids ascend through the created
    parents, then the child blocks in pop order, so only a strictly larger
    count replaces the best so far.  Every mask below a child is an OR of
    some of the child's member masks, so a child whose members' union has no
    more labels than the best so far cannot replace it and is skipped; a
    skipped child is not memoised, so every memo entry stays exact.  Module
    level, not a recursive closure: that closure's reference cycle would keep
    the memo alive until the next cyclic garbage collection.
    """
    found = memo.get((exp, masks))
    if found is not None:
        return found
    made = _created_masks(exp, masks)
    top, at = -1, -1
    for c in exp.roots:
        if made[c].bit_count() > top:
            top, at = made[c].bit_count(), c
    start = len(made)
    for gi, child in exp.children:
        members = [made[c] for c in exp.groups[gi][1]]
        union = 0
        for mask in members:
            union |= mask
        if union.bit_count() > top:
            count, offset = _best(child, tuple(members), memo)
            if count > top:
                top, at = count, start + offset
        start += child.instances
    memo[exp, masks] = top, at
    return top, at


def _witness(lg: LayeredGraph, root_id: int) -> RootedSubgraph:
    """The closure of one root, rebuilt from the parent rows of the chain above it."""
    # descend to the expansion that created the root; each link holds the
    # expansion, its first created id, its members' ids and its members' layer
    members = tuple(range(1, len(lg.leaves) + 1))
    exp, first, layer = lg.top, len(members) + 1, 1
    chain = [(exp, first, members, layer)]
    while root_id >= first + len(exp.created):
        start = first + len(exp.created)
        for gi, child in exp.children:
            if root_id < start + child.instances:
                break
            start += child.instances
        members = tuple(first + c for c in exp.groups[gi][1])
        exp, first, layer = child, start, layer + 1
        chain.append((exp, first, members, layer))
    # walk back toward the leaves: an expansion creates each trie node once, so
    # a member enters the closure when its row reaches a closure node's trie node
    wanted = {root_id}
    nodes: dict[int, NodeInstance] = {}
    edges: list[LayeredEdge] = []
    for exp, first, members, layer in reversed(chain):
        at = {exp.created[iid - first]: iid for iid in wanted}  # trie node -> closure id
        nodes.update((iid, NodeInstance(iid, nid, layer + 1)) for nid, iid in at.items())
        level = [
            LayeredEdge(member, at[parent], kind)
            for member, nid in zip(members, exp.key)
            for parent, kind in exp.graph.parent_edges(nid)
            if parent in at
        ]
        edges[:0] = level  # edges one layer down were created earlier
        wanted = {edge.child for edge in level}
    nodes.update((iid, NodeInstance(iid, lg.leaves[iid - 1], 1)) for iid in wanted)
    return _subgraph(lg.source.trie, nodes[root_id], nodes, edges)


def find_subset_alg2(lg: LayeredGraph) -> PipelineAnswer:
    """Maximum claimed count over all rooted subgraphs, smallest root id winning ties."""
    memo: dict = {}
    count, offset = _best(lg.top, tuple(_leaf_masks(lg)), memo)
    return PipelineAnswer(count, _witness(lg, len(lg.leaves) + 1 + offset), lg, len(memo))
