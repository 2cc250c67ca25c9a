"""DOT and JSON exports for every pipeline stage.

Visual conventions: solid main-path edges, dashed spans, layers as
same-rank rows, dashed boxes around groups, and the witness subgraph shaded
with bold edges.  All iteration is over sorted or
creation-ordered collections so exports are byte-stable.

The graph exports write the text ``json.dumps(indent=2)`` would, from
``bytes`` ``%`` templates instead of a dict payload and the pure-Python
indented encoder: ``trie_json_text`` and ``trielike_json_text`` straight
from the trie and the owner map (no span edge objects), and
``layered_json_text`` from one replay of the memo, since the layered graph
can hold millions of instances.  ``bytes`` ``%`` finds its next field with
``memchr`` where ``str`` ``%`` scans character by character, and a ``%s``
filled with ready bytes is cheaper still: the layered writer formats every
instance id, group id and layer once per call into a table of decimal bytes
(it covers ``max(vertex_count, group_count)``, since Algorithm 3's
merge-sibling groups can outnumber the instances) and fills its templates
from it.  Each writer joins its pieces and decodes them once as ASCII; the
layered one grows one ``bytearray`` per section and lets them go before the
decode, so its peak stays near twice the text.  The answer export goes
through ``json.dumps``.  ``json_string`` and ``json_array`` come from
``report``, which writes the fuzz report the same way.

Every export is ASCII, which the decode relies on: trie node names are
``n<k>``, formula variables are ``v<k>``/``y<k>``, conjunction labels are
``a``-``z`` strings, and every string in a JSON export passes through
``encode_basestring_ascii``, which escapes anything else.

The layered DOT export is written from one replay too: per-layer rows of
instances, then the group clusters and the edges, each straight from the
popped expansions, with each memo entry's edges read off its ``parent_ids``
rows once per call.  The DOT writers build ``str`` lines as before.  Neither
layered writer checks for a pop that creates nothing: ``replay`` skips those.
"""

from __future__ import annotations

import functools
import json
from operator import itemgetter
from typing import Any, Callable

from .layered import Expansion, LayeredGraph, replay
from .pipeline import PipelineRun
from .report import json_array, json_string
from .spans import PGraph, PStarGraph
from .subsets import RootedSubgraph
from .trie import Trie, TrieLikeGraph, TrieNode


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


def _node_label(node: TrieNode) -> str:
    """A trie node's DOT label: its label text, then its sorted conjunction tags."""
    if not node.conjunction_labels:
        return node.label_text
    return node.label_text + "\\n{" + ",".join(sorted(node.conjunction_labels)) + "}"


def _trie_nodes_dot(trie: Trie, lines: list[str]) -> None:
    for node in trie.nodes:
        lines.append(f'  {node.name} [label="{_node_label(node)}"];')
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
    """The layered graph as DOT, written from one replay of the memo.

    Instances go into per-layer rows, each created group of two or more
    members into a dashed cluster and each edge into one line, all in
    creation order; the witness's instances are shaded and the edges
    between them bold.
    """
    shaded = witness.instances if witness is not None else frozenset()
    labels = [""] + [  # indexed by trie node id, which starts at 1
        f'[label="{_node_label(node)}\\n{node.name}"' for node in lg.source.trie.nodes
    ]

    def instance(iid: int, nid: int) -> str:
        style = " style=filled fillcolor=lightgray" if iid in shaded else ""
        return f"    i{iid} {labels[nid]}{style}];"

    layers = [list(map(instance, range(1, len(lg.leaves) + 1), lg.leaves))]
    clusters: list[str] = []
    edges: list[str] = []
    runs: dict[Expansion, list[tuple[int, int]]] = {}  # (member position, created index)
    for exp, members, _, layer, ids, group_ids in replay(lg):
        if len(layers) == layer:
            layers.append([])
        layers[layer].extend(map(instance, ids, exp.created))
        for gid, (_, cs, _, _) in zip(group_ids, exp.groups):
            if len(cs) >= 2:
                boxed = " ".join(f"i{ids[c]}" for c in cs)
                clusters.append(f"  subgraph cluster_g{gid} {{ style=dashed; {boxed}; }}")
        if exp not in runs:
            at = {nid: c for c, nid in enumerate(exp.created)}
            rows = exp.graph.parent_ids
            runs[exp] = [(pos, at[p]) for pos, nid in enumerate(exp.key) for p in rows[nid]]
        for pos, c in runs[exp]:
            child, parent = members[pos], ids[c]
            bold = " [penwidth=2]" if child in shaded and parent in shaded else ""
            edges.append(f"  i{child} -> i{parent}{bold};")
    lines = ["digraph layered {", "  rankdir=BT;", "  node [shape=circle];"]
    for index, row in enumerate(layers, start=1):
        lines += [f"  subgraph layer_{index} {{", "    rank=same;", *row, "  }"]
    lines += [*clusters, *edges, "}"]
    return "\n".join(lines) + "\n"


def _literal(text: str) -> bytes:
    """`text` as JSON string bytes, with ``%`` doubled for use in a ``%`` template."""
    return json_string(text).replace(b"%", b"%%")


def _json_list(
    name: bytes, records: list[bytes] | list[bytearray], last: bool = False, brackets: bytes = b"[]"
) -> list[bytes | memoryview]:
    """Pieces of one top-level list (or object, with ``brackets=b"{}"``) whose
    records each start with ``",\n"``; the records are bytes or bytearrays."""
    end = b"\n}\n" if last else b",\n"
    if not records:
        return [b'  "%s": %s%s' % (name, brackets, end)]
    start, stop = brackets[:1], brackets[1:]
    return [
        b'  "%s": %s\n' % (name, start),
        memoryview(records[0])[2:],  # a view: a section can be most of the export
        *records[1:],
        b"\n  %s%s" % (stop, end),
    ]


# The trie and trie-like records, as json.dumps(indent=2) writes them in a
# top-level list, after their ",\n" separator; strings come pre-encoded.
_TRIE_NODE = (
    b',\n    {\n      "id": %d,\n      "name": %s,\n      "label": %s,\n'
    b'      "parent": %s,\n      "conjunctions": %s\n    }'
)
_TREE_EDGE = b',\n    {\n      "child": %d,\n      "parent": %d\n    }'
_SPAN_EDGE = b',\n    {\n      "child": %d,\n      "parent": %d,\n      "labels": %s\n    }'


def _trie_sections(trie: Trie, last: bool) -> list[bytes]:
    nodes = [
        _TRIE_NODE
        % (
            node.id,
            json_string(node.name),
            json_string(node.label_text),
            b"null" if node.parent is None else b"%d" % node.parent,
            json_array(map(json_string, sorted(node.conjunction_labels)), 3),
        )
        for node in trie.nodes
    ]
    tree_edges = [
        _TREE_EDGE % (child, node.id) for node in trie.nodes for child in node.children
    ]
    return [*_json_list(b"nodes", nodes), *_json_list(b"tree_edges", tree_edges, last)]


def trie_json_text(trie: Trie) -> str:
    """The trie's JSON export: its nodes and tree edges, as ``json.dumps(indent=2)``
    writes them (``tests/layered_reference.py::reference_trie_json``)."""
    return b"".join([b"{\n", *_trie_sections(trie, last=True)]).decode("ascii")


def trielike_json_text(g: TrieLikeGraph) -> str:
    """The trie-like graph's JSON export: the trie's sections, then the span
    edges by (child, parent) with their sorted owners and the node map by
    conjunction label, written from the owner map without building span edges."""
    span_edges = [
        _SPAN_EDGE % (child, parent, json_array(map(json_string, sorted(labels)), 3))
        for (child, parent), labels in sorted(g.owners.items())
    ]
    node_map = [
        b",\n    %s: %s" % (json_string(label), json_array((b"%d" % k for k in path), 2))
        for label, path in sorted(g.node_map.items())
    ]
    pieces = [
        b"{\n",
        *_trie_sections(g.trie, last=False),
        *_json_list(b"span_edges", span_edges),
        *_json_list(b"node_map", node_map, last=True, brackets=b"{}"),
    ]
    return b"".join(pieces).decode("ascii")


# The layered records, as json.dumps(indent=2) writes them inside a top-level
# list, after their ",\n" separator, with a "%s" per id, layer and group
# field; a trie node's own fields are written in, with their "%" doubled.
_INSTANCE = (
    b',\n    {\n      "id": %%s,\n      "trie_node": %d,\n      "name": %s,\n'
    b'      "label": %s,\n      "layer": %%s\n    }'
)
_EDGE = b',\n    {\n      "child": %%s,\n      "parent": %%s,\n      "kind": %s\n    }'
_GROUP = (
    b',\n    {\n      "id": %%s,\n      "label": %s,\n      "members": %s,\n'
    b'      "layer": %%s,\n      "child_group": %%s,\n      "pushed": %s,\n'
    b'      "origin": %s\n    }'
)
# a memo merge always degenerates and never reaches the reachable subsets
_MERGE_EVENT = (
    b',\n    {\n      "layer": %%s,\n      "trie_node": %d,\n      "instance": %%s,\n'
    b'      "generators": %s,\n      "case": %s,\n      "degenerate": true,\n'
    b'      "reason": %s,\n      "anchors": %s,\n      "subset_sizes": [],\n'
    b'      "boundary": null\n    }'
)


def _group(label: str, size: int, pushed: bool, origin: str) -> bytes:
    """One group record's template: its id, `size` members, layer and child group."""
    members = json_array([b"%s"] * size, 3)
    flag = b"true" if pushed else b"false"
    return _GROUP % (_literal(label), members, flag, _literal(origin))


def _merge_event(
    node: int, generators: tuple[int, ...], case: str, reason: str, anchors: tuple[int, ...]
) -> bytes:
    """One merge event's template: its layer and instance."""
    return _MERGE_EVENT % (
        node,
        json_array((b"%d" % k for k in generators), 3),
        _literal(case),
        _literal(reason),
        json_array((b"%d" % k for k in anchors), 3),
    )


_Template = tuple[bytearray, bytes, Callable[[tuple[bytes, ...]], tuple[bytes, ...]]]


def _pop_templates(
    exp: Expansion,
    sections: tuple[bytearray, ...],
    instance: list[bytes],
    runs: list[bytes],
    group: Callable[[str, int, bool, str], bytes],
) -> list[_Template]:
    """What one pop of `exp` writes: its instances, edges, groups and merge
    events, as ``%`` templates with their section and the getter of their fields.

    A pop's arguments are the id bytes of its group, of the created layer, of
    its members (one per key node), of the created instances and of the
    created groups.  A section the pop adds nothing to is left out.
    """
    parent, layer, start = 0, 1, 2 + len(exp.key)  # positions in a pop's arguments
    created, groups, merges = exp.created, exp.groups, exp.merge_records()
    ids = range(start, start + len(created))
    at = dict(zip(created, ids))  # a created trie node's position
    parent_ids = exp.graph.parent_ids  # the rows the edge runs were joined from
    parts = [
        (
            b"".join(map(instance.__getitem__, created)),
            [k for iid in ids for k in (iid, layer)],
        ),
        (
            b"".join(map(runs.__getitem__, exp.key)),
            [
                k
                for pos, nid in enumerate(exp.key, 2)
                for p in parent_ids[nid]
                for k in (pos, at[p])
            ],
        ),
        (
            b"".join(group(label, len(cs), pushed, origin) for label, cs, pushed, origin in groups),
            [
                k
                for gid, (_, cs, _, _) in enumerate(groups, ids.stop)
                for k in (gid, *[start + c for c in cs], layer, parent)
            ],
        ),
        (
            b"".join(_merge_event(created[c], *merge) for c, *merge in merges),
            [k for c, *_ in merges for k in (layer, start + c)],
        ),
    ]
    return [
        (section, text, itemgetter(*fields))
        for section, (text, fields) in zip(sections, parts)
        if text
    ]


def _layered_pieces(lg: LayeredGraph) -> list[bytes | memoryview]:
    """The layered JSON export's pieces, in order; see ``layered_json_text``."""
    g = lg.source
    num = [b"%d" % k for k in range(max(lg.vertex_count, lg.group_count) + 1)]
    instance = [b""] + [  # indexed by trie node id, which starts at 1
        _INSTANCE % (node.id, _literal(node.name), _literal(node.label_text))
        for node in g.trie.nodes
    ]
    edge = {kind: _EDGE % _literal(kind) for kind in ("main", "span")}
    runs = [b"".join(edge[kind] for _, kind in g.parent_edges(nid)) for nid in range(len(instance))]
    group = functools.cache(_group)
    leaf_ids = num[1 : len(lg.leaves) + 1]
    layers = [leaf_ids]
    sections = instances, edges, groups, merges = (
        bytearray(b"".join(instance[nid] % (iid, b"1") for iid, nid in zip(leaf_ids, lg.leaves))),
        bytearray(),
        bytearray(group("$", len(leaf_ids), True, "leaves") % (b"1", *leaf_ids, b"1", b"null")),
        bytearray(),
    )
    templates: dict[Expansion, list[_Template]] = {}
    for exp, members, group_id, layer, ids, group_ids in replay(lg):
        found = templates.get(exp)
        if found is None:
            found = templates[exp] = _pop_templates(exp, sections, instance, runs, group)
        created = num[ids.start : ids.stop]
        if len(layers) == layer:
            layers.append([])
        layers[layer] += created
        args = (
            num[group_id],
            num[layer + 1],
            *map(num.__getitem__, members),
            *created,
            *num[group_ids.start : group_ids.stop],
        )
        for section, text, fields in found:
            section += text % fields(args)
    rows = [b",\n    " + json_array(row, 2) for row in layers]
    return [
        b'{\n  "mode": %s,\n' % json_string(lg.mode),
        *_json_list(b"layers", rows),
        *_json_list(b"instances", [instances]),
        *_json_list(b"edges", [edges] if edges else []),
        *_json_list(b"groups", [groups]),
        *_json_list(b"merge_events", [merges] if merges else [], last=True),
    ]


def layered_json_text(lg: LayeredGraph) -> str:
    """The layered graph's JSON export, written from one replay of the memo.

    Byte for byte what ``json.dumps(payload, indent=2) + "\n"`` writes for
    the payload with the fields ``mode``, ``layers``, ``instances``,
    ``edges``, ``groups`` and ``merge_events`` (built from the unfolded graph
    in ``tests/layered_reference.py``).  One replay of the memo fills every
    section; each memo entry's records become ``%`` templates on its first
    pop, joined from per-call tables of instance records by trie node, edge
    runs by parent row and group records by shape, and every pop fills them
    with ids formatted once.  The pieces are freed before the decode.
    """
    return b"".join(_layered_pieces(lg)).decode("ascii")


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


# Each stage's writers by format, the first one the default: a stage with
# one writer ignores the format, and a graph falls back to DOT.
_WRITERS: dict[str, dict[str, Callable[[PipelineRun], str]]] = {
    "dnf": {"txt": lambda run: str(run.dnf) + "\n"},
    "sequences": {"txt": lambda run: "".join(s.display() + "\n" for s in run.sequences)},
    "pgraphs": {"dot": lambda run: "".join(map(pgraph_dot, run.pgraphs))},
    "pstars": {"dot": lambda run: "".join(map(pstar_dot, run.pstars))},
    "trie": {"dot": lambda run: trie_dot(run.trie), "json": lambda run: trie_json_text(run.trie)},
    "trielike": {
        "dot": lambda run: trielike_dot(run.trielike),
        "json": lambda run: trielike_json_text(run.trielike),
    },
    "layered": {
        "dot": lambda run: layered_dot(run.layered, run.answer.witness),
        "json": lambda run: layered_json_text(run.layered),
    },
    "answer": {"json": lambda run: dumps(answer_json(run))},
}
STAGES = tuple(_WRITERS)
GRAPH_STAGES = ("trie", "trielike", "layered", "answer")  # repro --export, export --stages


def _writer(stage: str, fmt: str) -> tuple[str, Callable[[PipelineRun], str]]:
    """The suffix and writer of one stage: `fmt`'s if the stage has it, else its first."""
    writers = _WRITERS.get(stage)
    if writers is None:
        raise ValueError(f"unknown stage {stage!r} (choose from {', '.join(STAGES)})")
    return (fmt, writers[fmt]) if fmt in writers else next(iter(writers.items()))


def stage_suffix(stage: str, fmt: str) -> str:
    """File suffix matching what export_stage actually emits for this stage."""
    return _writer(stage, fmt)[0]


def export_stage(run: PipelineRun, stage: str, fmt: str) -> str:
    """Render one stage as text; graphs honor fmt (dot or json) where both exist."""
    return _writer(stage, fmt)[1](run)
