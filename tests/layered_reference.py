"""The materialising layered search and findSubset, kept as an independent
derivation for the memoised ones in ``twomaxsat.layered``/``twomaxsat.subsets``.

``_Builder``, ``build_layered_alg1``/``build_layered_alg3``, the
``_label_bits`` findSubset and ``diagnose_skip_over`` are the pre-memo code,
unchanged except that they write into the plain containers below and that a
Case 1 merge with anchors raises InternalError, as the memo does: reachable
subsets and upper boundaries would start there, and no pipeline-built graph
gets there (see ``twomaxsat.layered``).  ``walk_case`` and
``anchor_candidates`` are the walk-based originals of ``layered._case`` and
the memo's anchor lookup: they follow ``TrieNode.parent`` themselves, never
the trie's cached ``branch`` table, so every merge's case and anchors are
derived twice.  ``walk_case`` keeps all three of the prose's cases, Case 2
included, so it can show that the build never meets one, and
``assert_ancestry_matches_walks`` checks ``Trie.branch`` and
``Trie.ancestors`` themselves;
``walk_parents`` likewise reads ``TrieNode.parent`` and ``span_edges``, never
``TrieLikeGraph.parent_ids``, so every expansion's parents and each edge's
kind are derived twice.  ``enumerate_rooted_subgraphs``
lists every root's closure of an unfolded ``LayeredGraph``.  ``unfold`` turns
a memoised graph into the materialising search's ``RefGraph``: every
instance and layer replayed from the memo, each member's edges read from
``TrieLikeGraph.parent_edges`` (not from an export's code), with the
graph's own ``groups`` and ``merge_events``.  ``reference_layered_json`` builds the
layered JSON export's payload from the unfolded graph, the dict
``json.dumps(..., indent=2)`` used to write, and ``reference_layered_dot`` is
the DOT writer that read the unfolded graph; both exports must write their
bytes.  Inside ``refusing_groups`` building a ``Group`` or ``MergeEvent`` in
``twomaxsat.layered`` raises, which shows that a caller never unfolds.
``unpruned_best`` is findSubset's memoised walk before its branch-and-bound
skip: it enters every child subtree, so it checks that the skip never changes
a (count, offset) pair.  ``fuzz_fronts`` yields the front ends that
``fuzz(seed, iters)`` checks.
``assert_matches_reference`` is the equality gate: the counts, the answer
with its witness closure's edges and instances, ``per_subgraph``, the
diagnosis and the unfolded graph must all agree, and
the search must build no ``Group`` or ``MergeEvent`` on its way.

The front end has its own gate.  ``reference_close_spans`` and
``reference_overlay`` are the per-span closure and overlay that the run-based
``close_spans``/``overlay_spans`` replaced: one ``Span`` per closed span and
one ``SpanEdge`` per distinct edge, sorted twice.
``assert_front_matches_reference`` requires the run-based front end to give
the same spans, counts, span edges, parent rows and owners.
``reference_trie_json``/``reference_trielike_json`` are the payloads whose
``json.dumps(..., indent=2)`` the trie and trie-like JSON exports write.
``reference_merge_main_paths`` is the recursive step-7 merge that the
explicit-stack ``merge_main_paths`` replaced; ``assert_trie_matches_reference``
requires both to give the same nodes and node map.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Iterator, Sequence

from twomaxsat import layered
from twomaxsat.errors import InternalError
from twomaxsat.formula import Variable
from twomaxsat.harness import FuzzParams, random_formula, tie_consistent_orderings
from twomaxsat.harness import diagnose_skip_over as memo_diagnose_skip_over
from twomaxsat.layered import (
    DuplicateCase,
    Expansion,
    Group,
    LayeredEdge,
    LayeredGraph,
    MergeEvent,
    NodeInstance,
    replay,
)
from twomaxsat.pipeline import FrontEnd, front_end, search
from twomaxsat.report import SkipOverEdge
from twomaxsat.sequences import ItemTag
from twomaxsat.spans import PGraph, Span
from twomaxsat.subsets import RootedSubgraph, _created_masks, _subgraph
from twomaxsat.trie import (
    NodeMap,
    SpanEdge,
    Trie,
    TrieLikeGraph,
    TrieNode,
    merge_main_paths,
)


def walk_ancestors(trie: Trie, node_id: int) -> list[int]:
    """Main-path ancestors of a node, root first, found by following parents."""
    chain = []
    cur = trie.node(node_id).parent
    while cur is not None:
        chain.append(cur)
        cur = trie.node(cur).parent
    chain.reverse()
    return chain


def assert_ancestry_matches_walks(trie: Trie, context: object = None) -> None:
    """``trie.ancestors`` and the cached ``trie.branch`` against parent walks,
    for every node."""
    assert len(trie.branch) == len(trie.nodes) + 1, context
    for node in trie.nodes:
        nid = node.id
        chain = walk_ancestors(trie, nid)
        assert trie.ancestors(nid) == chain, (context, nid)
        assert trie.branch[nid] == (chain[1] if len(chain) > 1 else nid), (context, nid)


def walk_parents(g: TrieLikeGraph, node_id: int) -> list[tuple[int, str]]:
    """(parent, kind) of a node: its ``TrieNode.parent``, then span targets by id."""
    parent = g.trie.node(node_id).parent
    out = [] if parent is None else [(parent, "main")]
    targets = sorted(e.parent for e in g.span_edges if e.child == node_id)
    return out + [(pid, "span") for pid in targets]


def walk_case(g: TrieLikeGraph, occurrences) -> str:
    """Case 1/2/3 for the trie nodes that generated one duplicate parent."""
    occ = sorted(set(occurrences))
    if len(occ) < 2:
        raise ValueError(f"need at least two occurrences, got {occ}")
    chains = {nid: walk_ancestors(g.trie, nid) for nid in occ}
    ancestor_sets = {nid: set(chain) for nid, chain in chains.items()}

    def comparable(a: int, b: int) -> bool:
        return a in ancestor_sets[b] or b in ancestor_sets[a]

    if all(comparable(a, b) for i, a in enumerate(occ) for b in occ[i + 1 :]):
        return "case2"  # the build never meets it, so ``DuplicateCase`` has no name for it
    tops = {chain[1] if len(chain) > 1 else nid for nid, chain in chains.items()}
    if len(tops) == len(occ):
        return DuplicateCase.CASE1
    return DuplicateCase.CASE3


def anchor_candidates(g: TrieLikeGraph, v: int) -> list[int]:
    """Valid anchors for repeated node `v`: its main-path ancestors, root included."""
    return walk_ancestors(g.trie, v)


@dataclass
class RefGraph:
    mode: str
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
        have_parent = {edge.child for edge in self.edges}
        return [
            self.instances[iid]
            for iid in sorted(self.instances)
            if iid not in have_parent
        ]


@dataclass(frozen=True)
class RefSubgraph:
    root: NodeInstance
    instances: frozenset[int]
    leaf_labels: frozenset[str]
    true_variables: frozenset[str]


@dataclass(frozen=True)
class RefAnswer:
    max_count: int
    witness: RefSubgraph
    per_subgraph: tuple[tuple[int, int], ...]


class _Builder:
    def __init__(self, g: TrieLikeGraph, mode: str):
        self.g = g
        self.lg = RefGraph(mode=mode, source=g)
        self._parents = {node.id: walk_parents(g, node.id) for node in g.trie.nodes}
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
            for parent_node, kind in self._parents[member.trie_node]:
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
        case = walk_case(g, gen_nodes)
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
        raise InternalError(
            f"Case 1 merge at non-root node n{inst.trie_node} (generators {gen_nodes})"
        )


def build_layered_alg1(g: TrieLikeGraph) -> RefGraph:
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


def build_layered_alg3(g: TrieLikeGraph) -> RefGraph:
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
    return b.lg


def _children_map(lg: RefGraph) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for edge in lg.edges:
        children.setdefault(edge.parent, []).append(edge.child)
    return children


def _closure_subgraph(
    lg: RefGraph, root: NodeInstance, children: dict[int, list[int]]
) -> RefSubgraph:
    trie = lg.source.trie
    leaf_layer = set(lg.layers[0])
    closure = set()
    stack = [root.instance_id]
    while stack:
        iid = stack.pop()
        if iid in closure:
            continue
        closure.add(iid)
        stack.extend(children.get(iid, ()))
    labels: set[str] = set()
    true_vars: set[str] = set()
    for iid in closure:
        node = trie.node(lg.instances[iid].trie_node)
        if iid in leaf_layer:
            labels.update(node.conjunction_labels)
        if node.variable is not None:
            true_vars.add(node.variable.name)
    return RefSubgraph(root, frozenset(closure), frozenset(labels), frozenset(true_vars))


def _label_bits(lg: RefGraph) -> dict[int, int]:
    """Leaf-label bitmask per instance, swept upward one layer at a time."""
    trie = lg.source.trie
    index: dict[str, int] = {}
    bits = {iid: 0 for iid in lg.instances}
    for iid in lg.layers[0]:
        mask = 0
        for label in sorted(trie.node(lg.instances[iid].trie_node).conjunction_labels):
            if label not in index:
                index[label] = len(index)
            mask |= 1 << index[label]
        bits[iid] = mask
    # every edge climbs exactly one layer, so child masks are final in layer order
    for edge in sorted(lg.edges, key=lambda e: lg.instances[e.child].layer):
        bits[edge.parent] |= bits[edge.child]
    return bits


def find_subset_alg2(lg: RefGraph) -> RefAnswer:
    """Maximum claimed count over all rooted subgraphs, smallest root id winning ties."""
    bits = _label_bits(lg)
    roots = lg.roots()
    per = tuple((root.instance_id, bits[root.instance_id].bit_count()) for root in roots)
    best_root = max(roots, key=lambda r: (bits[r.instance_id].bit_count(), -r.instance_id))
    witness = _closure_subgraph(lg, best_root, _children_map(lg))
    return RefAnswer(
        max_count=len(witness.leaf_labels),
        witness=witness,
        per_subgraph=per,
    )


def unpruned_best(exp: Expansion, masks: tuple[int, ...], memo: dict) -> tuple[int, int]:
    """``subsets._best`` without the branch-and-bound skip: every child is walked."""
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
        count, offset = unpruned_best(child, tuple([made[c] for c in exp.groups[gi][1]]), memo)
        if count > top:
            top, at = count, start + offset
        start += child.instances
    memo[exp, masks] = top, at
    return top, at


def fuzz_fronts(seed: int, iters: int, params: FuzzParams = FuzzParams()):
    """(front end, algorithm) for exactly the items ``fuzz(seed, iters, params)`` checks."""
    rng = random.Random(seed)
    for _ in range(iters):
        f = random_formula(rng, params)
        for ordering in tie_consistent_orderings(f, params.orderings_per_formula):
            front = front_end(f, list(ordering))
            for algorithm in params.algorithms:
                yield front, algorithm


def unfold(lg: LayeredGraph) -> RefGraph:
    """Every instance, layer and edge of a memoised graph, in creation order,
    with its ``groups`` and ``merge_events``."""
    out = RefGraph(lg.mode, lg.source, groups=lg.groups, merge_events=lg.merge_events)
    for iid, nid in enumerate(lg.leaves, start=1):
        out.instances[iid] = NodeInstance(iid, nid, 1)
    for exp, members, _, layer, ids, _ in replay(lg):
        for iid, nid in zip(ids, exp.created):
            out.instances[iid] = NodeInstance(iid, nid, layer + 1)
        at = dict(zip(exp.created, ids))
        out.edges.extend(
            LayeredEdge(member, at[parent], kind)
            for member, nid in zip(members, exp.key)
            for parent, kind in lg.source.parent_edges(nid)
        )
    for iid, inst in out.instances.items():
        while len(out.layers) < inst.layer:
            out.layers.append([])
        out.layers[inst.layer - 1].append(iid)
    return out


@contextmanager
def refusing_groups() -> Iterator[None]:
    """Building a ``Group`` or ``MergeEvent`` in ``twomaxsat.layered`` raises
    AssertionError until the block ends."""

    def refuse(*args, **kwargs):
        raise AssertionError("the layered graph was unfolded")

    saved = layered.Group, layered.MergeEvent
    layered.Group = layered.MergeEvent = refuse
    try:
        yield
    finally:
        layered.Group, layered.MergeEvent = saved


def enumerate_rooted_subgraphs(lg: LayeredGraph) -> list[RootedSubgraph]:
    """One subgraph per parentless instance, closure following edges downward.

    Reads the unfolded graph.
    """
    lg = unfold(lg)
    below: dict[int, list[int]] = {}  # parent id -> indices of its edges
    for k, edge in enumerate(lg.edges):
        below.setdefault(edge.parent, []).append(k)
    have_parent = {edge.child for edge in lg.edges}
    out = []
    for root_id in sorted(set(lg.instances) - have_parent):
        closure = {root_id}
        used: list[int] = []
        stack = [root_id]
        while stack:
            for k in below.get(stack.pop(), ()):
                used.append(k)
                child = lg.edges[k].child
                if child not in closure:
                    closure.add(child)
                    stack.append(child)
        nodes = {iid: lg.instances[iid] for iid in closure}
        edges = [lg.edges[k] for k in sorted(used)]
        out.append(_subgraph(lg.source.trie, lg.instances[root_id], nodes, edges))
    return out


def reference_close_spans(p: PGraph) -> tuple[Span, ...]:
    """Every (i, j) with j - i >= 2 whose positions in between the spans all cover."""
    covered = {pos for s in p.spans for pos in s.covered}
    spans = []
    for i in range(len(p.items)):
        j = i + 1
        while j in covered:
            j += 1
            spans.append(Span(i, j))
    return tuple(spans)


def reference_overlay(node_map: NodeMap, pgraphs: Sequence[PGraph]) -> tuple[SpanEdge, ...]:
    """One rootward edge map[j] -> map[i] per closed span (i, j); duplicates merge labels."""
    edges: dict[tuple[int, int], set[str]] = {}
    order: list[tuple[int, int]] = []
    for p in pgraphs:
        label = p.label
        if label not in node_map:
            raise ValueError(f"no node map entry for conjunction {label}")
        mapped = node_map[label]
        for span in reference_close_spans(p):
            if span.to_pos >= len(mapped) or span.from_pos >= len(mapped):
                raise ValueError(
                    f"span {span} of {label} outside the mapped sequence"
                )
            key = (mapped[span.to_pos], mapped[span.from_pos])
            if key not in edges:
                edges[key] = set()
                order.append(key)
            edges[key].add(label)
    return tuple(
        SpanEdge(child, parent, frozenset(edges[(child, parent)]))
        for child, parent in sorted(order)
    )


def assert_front_matches_reference(front: FrontEnd) -> None:
    """Run-based closure and overlay == the per-span ones, field by field."""
    where = f"{front.formula} / {front.ordering.display()}"
    for p, ps in zip(front.pgraphs, front.pstars, strict=True):
        closed = reference_close_spans(p)
        assert ps.span_count == len(closed), (where, p.label)
        assert ps.closed_spans == closed, (where, p.label)
    g = front.trielike
    edges = reference_overlay(front.node_map, front.pgraphs)
    assert g.span_edge_count == len(edges), where
    assert g.edge_count == g.trie.edge_count + len(edges), where
    assert g.span_edges == edges, where
    # the rows as the per-span TrieLikeGraph built them: main parent, then
    # the span edges stably sorted by parent
    rows = {node.id: [] if node.parent is None else [(node.parent, "main")] for node in g.trie.nodes}
    for edge in sorted(edges, key=lambda e: e.parent):
        rows[edge.child].append((edge.parent, "span"))
    for node in g.trie.nodes:
        assert list(g.parent_edges(node.id)) == rows[node.id], (where, node.id)
    for edge in edges:
        assert g.span_owners(edge.child, edge.parent) == edge.labels, (where, edge)


def reference_merge_main_paths(pgraphs: Sequence[PGraph]) -> tuple[Trie, NodeMap]:
    """Step 7 as a recursive merge: at each level the '$' leaf first, then one
    subtree per next label in first appearance order."""
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

    root = new_node(ItemTag.START, None, None)
    for pg in pgraphs:
        positions[pg.label][0] = root.id

    def merge(entries: list[tuple[PGraph, int]], parent_id: int) -> None:
        # entries: (p-graph, position of its next unconsumed item)
        finished = [(pg, pos) for pg, pos in entries if pos == len(pg.items) - 1]
        pending = [(pg, pos) for pg, pos in entries if pos < len(pg.items) - 1]
        if finished:
            leaf = new_node(ItemTag.END, None, parent_id)
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
            node = new_node(ItemTag.VAR, var, parent_id)
            for pg, pos in members:
                positions[pg.label][pos] = node.id
            merge([(pg, pos + 1) for pg, pos in members], node.id)

    merge([(pg, 1) for pg in pgraphs], root.id)
    trie = Trie(nodes)
    node_map: NodeMap = {}
    for pg in pgraphs:
        mapped = positions[pg.label]
        if any(nid is None for nid in mapped):
            raise ValueError(f"p-graph {pg.label} left unmapped positions")
        node_map[pg.label] = tuple(mapped)  # type: ignore[arg-type]
    return trie, node_map


def assert_trie_matches_reference(pgraphs: Sequence[PGraph]) -> None:
    """Stack-built trie == recursively merged trie, node by node, and equal node maps."""
    trie, node_map = merge_main_paths(pgraphs)
    ref, ref_map = reference_merge_main_paths(pgraphs)
    assert trie.nodes == ref.nodes, [pg.label for pg in pgraphs]
    assert node_map == ref_map, [pg.label for pg in pgraphs]


def reference_trie_json(trie: Trie) -> dict[str, Any]:
    return {
        "nodes": [
            {
                "id": node.id,
                "name": node.name,
                "label": node.label_text,
                "parent": node.parent,
                "conjunctions": sorted(node.conjunction_labels),
            }
            for node in trie.nodes
        ],
        "tree_edges": [
            {"child": child, "parent": node.id}
            for node in trie.nodes
            for child in node.children
        ],
    }


def reference_trielike_json(g: TrieLikeGraph) -> dict[str, Any]:
    payload = reference_trie_json(g.trie)
    payload["span_edges"] = [
        {"child": e.child, "parent": e.parent, "labels": sorted(e.labels)}
        for e in g.span_edges
    ]
    payload["node_map"] = {
        label: list(path) for label, path in sorted(g.node_map.items())
    }
    return payload


def reference_layered_json(lg: RefGraph) -> dict[str, Any]:
    """The layered export's payload, built from the unfolded graph."""
    trie = lg.source.trie
    return {
        "mode": lg.mode,
        "layers": [list(layer) for layer in lg.layers],
        "instances": [
            {
                "id": inst.instance_id,
                "trie_node": inst.trie_node,
                "name": trie.node(inst.trie_node).name,
                "label": trie.node(inst.trie_node).label_text,
                "layer": inst.layer,
            }
            for _, inst in sorted(lg.instances.items())
        ],
        "edges": [
            {"child": e.child, "parent": e.parent, "kind": e.kind} for e in lg.edges
        ],
        "groups": [
            {
                "id": g.group_id,
                "label": g.label,
                "members": list(g.members),
                "layer": g.layer,
                "child_group": g.child_group,
                "pushed": g.pushed,
                "origin": g.origin,
            }
            for g in lg.groups
        ],
        "merge_events": [
            {
                "layer": e.layer,
                "trie_node": e.trie_node,
                "instance": e.instance,
                "generators": list(e.generators),
                "case": e.case,
                "degenerate": e.degenerate,
                "reason": e.reason,
                "anchors": list(e.anchors),
                "subset_sizes": [],
                "boundary": None,
            }
            for e in lg.merge_events
        ],
    }


def reference_layered_dot(lg: RefGraph, witness=None) -> str:
    """The layered DOT export, written from the unfolded graph."""
    shaded = witness.instances if witness is not None else frozenset()
    trie = lg.source.trie
    lines = ["digraph layered {", "  rankdir=BT;", "  node [shape=circle];"]
    for layer_index, layer in enumerate(lg.layers, start=1):
        lines.append(f"  subgraph layer_{layer_index} {{")
        lines.append("    rank=same;")
        for iid in layer:
            node = trie.node(lg.instances[iid].trie_node)
            label = node.label_text
            if node.conjunction_labels:
                label += "\\n{" + ",".join(sorted(node.conjunction_labels)) + "}"
            label += f"\\n{node.name}"
            style = ' style=filled fillcolor=lightgray' if iid in shaded else ""
            lines.append(f'    i{iid} [label="{label}"{style}];')
        lines.append("  }")
    for grp in lg.groups:
        if len(grp.members) < 2 or grp.origin == "leaves":
            continue
        members = " ".join(f"i{iid}" for iid in grp.members)
        lines.append(f"  subgraph cluster_g{grp.group_id} {{ style=dashed; {members}; }}")
    for edge in lg.edges:
        bold = (
            edge.child in shaded and edge.parent in shaded
        )
        attrs = " [penwidth=2]" if bold else ""
        lines.append(f"  i{edge.child} -> i{edge.parent}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def diagnose_skip_over(run) -> tuple[SkipOverEdge, ...]:
    """Span edges the witness closure uses for conjunctions that do not own them.

    For each span-kind edge inside the witness, the leaf labels reachable
    below its child are compared against the edge's owner labels; any label
    that climbed through a span it does not own is a skip-over.
    """
    lg = run.layered
    witness = run.answer.witness
    children: dict[int, list] = {}
    for edge in lg.edges:
        if edge.parent in witness.instances and edge.child in witness.instances:
            children.setdefault(edge.parent, []).append(edge)
    leaf_layer = set(lg.layers[0])

    def labels_below(iid: int) -> frozenset[str]:
        seen = set()
        labels: set[str] = set()
        stack = [iid]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if cur in leaf_layer:
                labels.update(
                    lg.source.trie.node(lg.instances[cur].trie_node).conjunction_labels
                )
            stack.extend(e.child for e in children.get(cur, ()))
        return frozenset(labels)

    findings = []
    for edges in children.values():
        for edge in edges:
            if edge.kind != "span":
                continue
            child_node = lg.instances[edge.child].trie_node
            parent_node = lg.instances[edge.parent].trie_node
            owners = lg.source.span_owners(child_node, parent_node)
            violating = labels_below(edge.child) - owners
            if violating:
                findings.append(
                    SkipOverEdge(
                        child_node,
                        parent_node,
                        tuple(sorted(owners)),
                        tuple(sorted(violating)),
                    )
                )
    findings.sort(key=lambda d: (d.child_node, d.parent_node))
    return tuple(findings)


def reference_search(front: FrontEnd, algorithm: int):
    """The pre-memo steps 9-10: (graph, answer, diagnosis)."""
    build = build_layered_alg1 if algorithm == 1 else build_layered_alg3
    lg = build(front.trielike)
    answer = find_subset_alg2(lg)
    diagnosis = diagnose_skip_over(SimpleNamespace(layered=lg, answer=answer))
    return lg, answer, diagnosis


def assert_matches_reference(front: FrontEnd, algorithm: int) -> None:
    """Memoised search == materialising search, field by field."""
    ref, ref_answer, ref_diagnosis = reference_search(front, algorithm)
    where = f"{front.formula} / {front.ordering.display()} / alg{algorithm}"
    with refusing_groups():
        run = search(front, algorithm)
        diagnosis = memo_diagnose_skip_over(run)
        per_subgraph = run.answer.per_subgraph
    lg, answer = run.layered, run.answer
    # counts first: they come from the memo
    assert lg.vertex_count == ref.vertex_count, where
    assert lg.edge_count == ref.edge_count, where
    assert lg.layer_count == ref.layer_count, where
    assert lg.group_count == len(ref.groups), where
    assert lg.expanded_group_count == sum(1 for g in ref.groups if g.pushed), where
    assert lg.merge_event_count == len(ref.merge_events), where
    assert sum(1 for e in ref.merge_events if e.degenerate) == len(ref.merge_events), where
    # the memoised walk's answer, then the roots the lazy per_subgraph listed
    assert answer.max_count == ref_answer.max_count, where
    witness, ref_witness = answer.witness, ref_answer.witness
    assert witness.root == ref_witness.root, where
    assert witness.instances == ref_witness.instances, where
    assert witness.leaf_labels == ref_witness.leaf_labels, where
    assert witness.true_variables == ref_witness.true_variables, where
    assert witness.edges == tuple(e for e in ref.edges if e.parent in witness.instances), where
    assert witness.nodes == {iid: ref.instances[iid] for iid in witness.instances}, where
    assert lg.root_count == len(ref.roots()), where
    assert diagnosis == ref_diagnosis, where
    assert per_subgraph == ref_answer.per_subgraph, where
    unfolded = unfold(lg)
    assert unfolded.instances == ref.instances, where
    assert unfolded.layers == ref.layers, where
    assert unfolded.edges == ref.edges, where
    assert unfolded.groups == ref.groups, where
    assert unfolded.merge_events == ref.merge_events, where
