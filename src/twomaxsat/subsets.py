"""Rooted subgraph enumeration and the findSubset answer (step 10).

A rooted subgraph is the full downward closure of a parentless instance along
the recorded generation edges; its claimed satisfied set is the union of the
conjunction labels on the layer-1 leaves it reaches.  The count is the size
of that union (conjunctions, not leaves).  The reported assignment sets every
variable labeling a closure node true and everything else false, with no
consistency check across branches -- reporting that inconsistency is the
harness' job, not the pipeline's.

findSubset never unfolds the layered graph.  It walks the search's memo
(``layered.Expansion``) top-down, in the search's own depth-first order,
carrying one leaf-label bitmask per group member: a created parent's mask is
the union of its generators' masks, and every parentless instance reports its
mask's popcount in instance-id order.  The walk visits every group, so it is
as exponential as the number of roots it lists (``per_subgraph`` holds
9,699,328 roots for one random formula at n0 = 16, m0 = 8), but it allocates
nothing per group beyond the masks.  The witness closure is then rebuilt
from the single chain of groups that leads to the winning root, edges in
creation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import EmptyGraphError
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
    per_subgraph: tuple[tuple[int, int], ...]  # (root instance id, count)


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


def enumerate_rooted_subgraphs(lg: LayeredGraph) -> list[RootedSubgraph]:
    """One subgraph per parentless instance, closure following edges downward.

    Reads the unfolded graph.
    """
    if not lg.vertex_count:
        raise EmptyGraphError("layered graph has no instances")
    below: dict[int, list[int]] = {}  # parent id -> indices of its edges
    for k, edge in enumerate(lg.edges):
        below.setdefault(edge.parent, []).append(k)
    out = []
    for root in lg.roots():
        closure = {root.instance_id}
        used: list[int] = []
        stack = [root.instance_id]
        while stack:
            for k in below.get(stack.pop(), ()):
                used.append(k)
                child = lg.edges[k].child
                if child not in closure:
                    closure.add(child)
                    stack.append(child)
        nodes = {iid: lg.instances[iid] for iid in closure}
        edges = [lg.edges[k] for k in sorted(used)]
        out.append(_subgraph(lg.source.trie, root, nodes, edges))
    return out


def satisfied_conjunctions(sg: RootedSubgraph) -> frozenset[str]:
    """The subgraph's claimed satisfied set: union of its leaf label sets."""
    return sg.leaf_labels


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


def _root_counts(lg: LayeredGraph) -> list[tuple[int, int]]:
    """(root id, claimed count) for every parentless instance, by ascending id.

    Leaves are never roots: the leaves group is always expanded and every
    leaf has a main parent.
    """
    out: list[tuple[int, int]] = []

    def walk(exp: Expansion, masks: list[int], first: int) -> None:
        made = []
        for positions in exp.generators:
            mask = 0
            for pos in positions:
                mask |= masks[pos]
            made.append(mask)
        for c in exp.roots:
            out.append((first + c, made[c].bit_count()))
        first += len(made)
        for gi, child in exp.children:
            walk(child, [made[c] for c in exp.groups[gi][1]], first)
            first += child.instances

    walk(lg.top, _leaf_masks(lg), len(lg.leaves) + 1)
    return out


def _witness(lg: LayeredGraph, root_id: int) -> RootedSubgraph:
    """The closure of one root, rebuilt from the chain of groups above it."""
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
    # walk back toward the leaves: the closure one layer down is the generators
    # of the closure instances on this layer
    wanted = {root_id}
    nodes: dict[int, NodeInstance] = {}
    levels: list[list[LayeredEdge]] = []
    for exp, first, members, layer in reversed(chain):
        for iid in wanted:
            nodes[iid] = NodeInstance(iid, exp.created[iid - first], layer + 1)
        level = [
            LayeredEdge(members[pos], first + c, kind)
            for pos, c, kind in exp.edges
            if first + c in wanted
        ]
        levels.append(level)
        wanted = {edge.child for edge in level}
    for iid in wanted:
        nodes[iid] = NodeInstance(iid, lg.leaves[iid - 1], 1)
    edges = [edge for level in reversed(levels) for edge in level]
    return _subgraph(lg.source.trie, nodes[root_id], nodes, edges)


def find_subset_alg2(lg: LayeredGraph) -> PipelineAnswer:
    """Maximum claimed count over all rooted subgraphs, smallest root id winning ties."""
    if not lg.vertex_count:
        raise EmptyGraphError("layered graph has no instances")
    per = _root_counts(lg)
    best_root, best_count = max(per, key=lambda rc: (rc[1], -rc[0]))
    witness = _witness(lg, best_root)
    return PipelineAnswer(max_count=best_count, witness=witness, per_subgraph=tuple(per))
