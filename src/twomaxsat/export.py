"""DOT and JSON exports for every pipeline stage.

Visual conventions: solid main-path edges, dashed spans, layers as
same-rank rows, dashed boxes around groups, and the witness subgraph shaded
with bold edges.  All iteration is over sorted or
creation-ordered collections so exports are byte-stable.

JSON goes through ``json.dumps(indent=2)``, except the layered graph's: it
can hold millions of instances, so ``layered_json_text`` writes the same
bytes from one replay of the memo and never unfolds the graph.  The layered
DOT export reads the unfolded graph.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Callable, Iterable

from .layered import Expansion, LayeredGraph, replay
from .pipeline import PipelineRun
from .sequences import VarSequence
from .spans import PGraph, PStarGraph
from .subsets import RootedSubgraph
from .trie import Trie, TrieLikeGraph


def sequence_text(seq: VarSequence) -> str:
    return seq.display()


def _path_graph_dot(name: str, label: str, items, spans) -> str:
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [shape=circle];"]
    for pos, item in enumerate(items):
        lines.append(f'  p{pos} [label="{item.display()}"];')
    for pos in range(len(items) - 1):
        lines.append(f"  p{pos} -> p{pos + 1} [dir=none];")
    for span in spans:
        lines.append(
            f"  p{span.to_pos} -> p{span.from_pos} [style=dashed, constraint=false];"
        )
    lines.append(f'  labelloc="b"; label="{label}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def pgraph_dot(p: PGraph) -> str:
    return _path_graph_dot("pgraph", p.label, p.items, p.spans)


def pstar_dot(ps: PStarGraph) -> str:
    return _path_graph_dot("pstar", ps.base.label, ps.base.items, ps.closed_spans)


def _trie_nodes_dot(trie: Trie, lines: list[str]) -> None:
    for node in trie.nodes:
        label = node.label_text
        if node.conjunction_labels:
            tags = ",".join(sorted(node.conjunction_labels))
            label += f"\\n{{{tags}}}"
        lines.append(f'  {node.name} [label="{label}"];')
    for node in trie.nodes:
        for child in node.children:
            lines.append(f"  {node.name} -> {trie.node(child).name} [dir=none];")


def trie_dot(trie: Trie) -> str:
    lines = ["digraph trie {", "  node [shape=circle];"]
    _trie_nodes_dot(trie, lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def trielike_dot(g: TrieLikeGraph) -> str:
    lines = ["digraph trielike {", "  node [shape=circle];"]
    _trie_nodes_dot(g.trie, lines)
    for edge in g.span_edges:
        owners = ",".join(sorted(edge.labels))
        lines.append(
            f"  n{edge.child} -> n{edge.parent} "
            f'[style=dashed, constraint=false, tooltip="{owners}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def layered_dot(lg: LayeredGraph, witness: RootedSubgraph | None = None) -> str:
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


def trie_json(trie: Trie) -> dict[str, Any]:
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


def trielike_json(g: TrieLikeGraph) -> dict[str, Any]:
    payload = trie_json(g.trie)
    payload["span_edges"] = [
        {"child": e.child, "parent": e.parent, "labels": sorted(e.labels)}
        for e in g.span_edges
    ]
    payload["node_map"] = {
        label: list(path) for label, path in sorted(g.node_map.items())
    }
    return payload


def _literal(text: str) -> str:
    """`text` as a JSON string, with ``%`` doubled for use in a ``%`` template."""
    return encode_basestring_ascii(text).replace("%", "%%")


def _array(items: Iterable[str], depth: int) -> str:
    """A JSON array of already encoded items, nested as ``json.dumps(indent=2)`` does."""
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(items)
    return f"[{inner}{body}\n{'  ' * depth}]" if body else "[]"


# One record of each kind, as json.dumps(indent=2) writes it inside a
# top-level list, after its ",\n" separator.  Ids and layers are given as
# their text or as a "%d" field; strings are given raw and pass through
# _literal, except the trie node's pre-encoded lines.

def _instance(iid: str, node: str, layer: str) -> str:
    return f',\n    {{\n      "id": {iid},\n{node}      "layer": {layer}\n    }}'


def _edge(child: str, parent: str, kind: str) -> str:
    return (
        f',\n    {{\n      "child": {child},\n      "parent": {parent},\n'
        f'      "kind": {_literal(kind)}\n    }}'
    )


def _group(
    gid: str, label: str, members: Iterable[str], layer: str, child: str, pushed: bool, origin: str
) -> str:
    return (
        f',\n    {{\n      "id": {gid},\n      "label": {_literal(label)},\n'
        f'      "members": {_array(members, 3)},\n      "layer": {layer},\n'
        f'      "child_group": {child},\n      "pushed": {"true" if pushed else "false"},\n'
        f'      "origin": {_literal(origin)}\n    }}'
    )


def _merge_event(
    layer: str, node: int, instance: str, generators: tuple[int, ...], case: str, reason: str,
    anchors: tuple[int, ...],
) -> str:
    # a memo merge always degenerates and never reaches the reachable subsets
    return (
        f',\n    {{\n      "layer": {layer},\n      "trie_node": {node},\n'
        f'      "instance": {instance},\n      "generators": {_array(map(str, generators), 3)},\n'
        f'      "case": {_literal(case)},\n      "degenerate": true,\n'
        f'      "reason": {_literal(reason)},\n      "anchors": {_array(map(str, anchors), 3)},\n'
        f'      "subset_sizes": [],\n      "boundary": null\n    }}'
    )


_Template = tuple[str, Callable[[tuple[int, ...]], Any] | None]


def _pop_templates(exp: Expansion, width: int, nodes: list[str]) -> list[_Template]:
    """What one pop of `exp` writes: its layer's ids, instances, edges, groups
    and merge events, as ``%`` templates with the getters of their fields.

    A pop's arguments are its group id, the created layer, the `width` member
    ids, the created ids and the created group ids.  A section the pop adds
    nothing to has the template "" and no getter.
    """
    parent, layer = 0, 1  # positions in a pop's arguments, as are the ranges
    ids = range(2 + width, 2 + width + len(exp.created))
    group_ids = range(ids.stop, ids.stop + len(exp.groups))
    parts = [
        (",\n      ".join(["%d"] * len(ids)), list(ids)),
        (
            "".join(_instance("%d", nodes[nid], "%d") for nid in exp.created),
            [k for iid in ids for k in (iid, layer)],
        ),
        (
            "".join(_edge("%d", "%d", kind) for _, _, kind in exp.edges),
            [k for pos, c, _ in exp.edges for k in (2 + pos, ids[c])],
        ),
        (
            "".join(
                _group("%d", label, ["%d"] * len(cs), "%d", "%d", pushed, origin)
                for label, cs, pushed, origin in exp.groups
            ),
            [
                k
                for gid, (_, cs, _, _) in zip(group_ids, exp.groups)
                for k in (gid, *map(ids.__getitem__, cs), layer, parent)
            ],
        ),
        (
            "".join(
                _merge_event("%d", exp.created[c], "%d", generators, case, reason, anchors)
                for c, generators, case, reason, anchors in exp.merges
            ),
            [k for c, *_ in exp.merges for k in (layer, ids[c])],
        ),
    ]
    return [(text, itemgetter(*fields) if fields else None) for text, fields in parts]


def _json_list(name: str, records: list[str], last: bool = False) -> list[str]:
    """Pieces of one top-level list whose records each start with ``",\n"``."""
    end = "\n}\n" if last else ",\n"
    if not records:
        return [f'  "{name}": []{end}']
    return [f'  "{name}": [\n', records[0][2:], *records[1:], f"\n  ]{end}"]


def layered_json_text(lg: LayeredGraph) -> str:
    """The layered graph's JSON export, written from the memo without unfolding it.

    Byte for byte what ``json.dumps(payload, indent=2) + "\n"`` writes for
    the payload with the fields ``mode``, ``layers``, ``instances``,
    ``edges``, ``groups`` and ``merge_events`` (built from the unfolded graph
    in ``tests/layered_reference.py``).  One replay of the memo fills every
    section; each memo entry's records become ``%`` templates on its first
    pop, and each trie node's name and label are encoded once.
    """
    nodes = [""] + [  # indexed by trie node id, which starts at 1
        f'      "trie_node": {node.id},\n      "name": {_literal(node.name)},\n'
        f'      "label": {_literal(node.label_text)},\n'
        for node in lg.source.trie.nodes
    ]
    layers: list[list[str]] = []
    instances: list[str] = []
    edges: list[str] = []
    groups: list[str] = []
    merges: list[str] = []
    if lg.leaves:
        leaf_ids = [str(iid) for iid in range(1, len(lg.leaves) + 1)]
        layers.append(leaf_ids)
        # "% ()" undoubles the %s of the literals
        instances.append(
            "".join(_instance(iid, nodes[nid], "1") for iid, nid in zip(leaf_ids, lg.leaves)) % ()
        )
        groups.append(_group("1", "$", leaf_ids, "1", "null", True, "leaves") % ())
    templates: dict[Expansion, list[_Template]] = {}
    for exp, members, group_id, layer, ids, group_ids in replay(lg):
        if not exp.created:  # nothing to write, and no layer to open
            continue
        found = templates.get(exp)
        if found is None:
            found = templates[exp] = _pop_templates(exp, len(members), nodes)
        if len(layers) == layer:
            layers.append([])
        args = (group_id, layer + 1, *members, *ids, *group_ids)
        for out, (text, fields) in zip((layers[layer], instances, edges, groups, merges), found):
            if text:
                out.append(text % fields(args))
    rows = [",\n    " + _array(row, 2) for row in layers]
    return "".join(
        [
            f'{{\n  "mode": {encode_basestring_ascii(lg.mode)},\n',
            *_json_list("layers", rows),
            *_json_list("instances", instances),
            *_json_list("edges", edges),
            *_json_list("groups", groups),
            *_json_list("merge_events", merges, last=True),
        ]
    )


def answer_json(run: PipelineRun) -> dict[str, Any]:
    answer = run.answer
    names = [v.name for v in run.dnf.variables]
    return {
        "max_count": answer.max_count,
        "witness_root": answer.witness.root.instance_id,
        "leaf_labels": sorted(answer.witness.leaf_labels),
        "assignment": answer.witness.implied_assignment(names),
        "mode": run.layered.mode,
        "ordering": run.ordering.display(),
    }


def dumps(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2) + "\n"


STAGES = ("dnf", "sequences", "pgraphs", "pstars", "trie", "trielike", "layered", "answer")


def stage_suffix(stage: str, fmt: str) -> str:
    """File suffix matching what export_stage actually emits for this stage."""
    if stage in ("dnf", "sequences"):
        return "txt"
    if stage == "answer":
        return "json"
    if stage in ("pgraphs", "pstars"):
        return "dot"
    return "json" if fmt == "json" else "dot"


def export_stage(run: PipelineRun, stage: str, fmt: str) -> str:
    """Render one stage as text; graphs honor fmt (dot or json) where both exist."""
    if stage == "dnf":
        return str(run.dnf) + "\n"
    if stage == "sequences":
        return "".join(sequence_text(s) + "\n" for s in run.sequences)
    if stage == "pgraphs":
        return "".join(pgraph_dot(p) for p in run.pgraphs)
    if stage == "pstars":
        return "".join(pstar_dot(p) for p in run.pstars)
    if stage == "trie":
        if fmt == "json":
            return dumps(trie_json(run.trie))
        return trie_dot(run.trie)
    if stage == "trielike":
        if fmt == "json":
            return dumps(trielike_json(run.trielike))
        return trielike_dot(run.trielike)
    if stage == "layered":
        if fmt == "json":
            return layered_json_text(run.layered)
        return layered_dot(run.layered, run.answer.witness)
    if stage == "answer":
        return dumps(answer_json(run))
    raise ValueError(f"unknown stage {stage!r} (choose from {', '.join(STAGES)})")
