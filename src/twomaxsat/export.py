"""DOT and JSON exports for every pipeline stage.

Visual conventions: solid main-path edges, dashed spans, layers as
same-rank rows, dashed boxes around groups, and the witness subgraph shaded
with bold edges.  All iteration is over sorted or
creation-ordered collections so exports are byte-stable.
"""

from __future__ import annotations

import json
from typing import Any

from .layered import LayeredGraph
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


def layered_json(lg: LayeredGraph) -> dict[str, Any]:
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
                "subset_sizes": list(e.subset_sizes),
                "boundary": sorted(e.boundary.members) if e.boundary else None,
            }
            for e in lg.merge_events
        ],
    }


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
            return dumps(layered_json(run.layered))
        return layered_dot(run.layered, run.answer.witness)
    if stage == "answer":
        return dumps(answer_json(run))
    raise ValueError(f"unknown stage {stage!r} (choose from {', '.join(STAGES)})")
