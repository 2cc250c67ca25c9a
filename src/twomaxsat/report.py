"""The fuzz report: mismatch records and the bytes writer that prints them.

A ``Mismatch`` is one pipeline-vs-oracle disagreement, with the skip-over
edges that explain it.  ``report_text`` writes the fuzz report from
``bytes`` templates, byte for byte what ``json.dumps(indent=2)`` writes for
the mismatches' ``to_dict`` payloads; ``json_string`` and ``json_array``
fill them, and the graph exports use them too.  Only the standard library
is imported, so reading a report needs neither the pipeline nor the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Sequence


@dataclass(frozen=True)
class SkipOverEdge:
    """A span edge the witness used on behalf of conjunctions that do not own it."""

    child_node: int
    parent_node: int
    owners: tuple[str, ...]
    violating: tuple[str, ...]


@dataclass(frozen=True)
class Mismatch:
    dimacs: str
    ordering: tuple[str, ...]
    algorithm: int
    pipeline_answer: int
    oracle_answer: int
    witness_labels: tuple[str, ...]
    diagnosis: tuple[SkipOverEdge, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "dimacs": self.dimacs,
            "ordering": list(self.ordering),
            "algorithm": self.algorithm,
            "pipeline_answer": self.pipeline_answer,
            "oracle_answer": self.oracle_answer,
            "witness_labels": list(self.witness_labels),
            "diagnosis": [
                {
                    "span_edge": [d.child_node, d.parent_node],
                    "owners": list(d.owners),
                    "violating": list(d.violating),
                }
                for d in self.diagnosis
            ],
        }


def json_string(text: str) -> bytes:
    """`text` as JSON string bytes, escaped to ASCII as ``json.dumps`` does."""
    return encode_basestring_ascii(text).encode()


def json_array(items: Iterable[bytes], depth: int) -> bytes:
    """A JSON array of already encoded items, nested as ``json.dumps(indent=2)`` does."""
    inner = b"\n" + b"  " * (depth + 1)
    body = (b"," + inner).join(items)
    return b"[%s%s\n%s]" % (inner, body, b"  " * depth) if body else b"[]"


# A mismatch and one of its skip-over edges, as json.dumps(indent=2) writes
# them inside the report's "mismatches" list; strings and lists come encoded.
_MISMATCH = (
    b'{\n      "dimacs": %s,\n      "ordering": %s,\n      "algorithm": %d,\n'
    b'      "pipeline_answer": %d,\n      "oracle_answer": %d,\n'
    b'      "witness_labels": %s,\n      "diagnosis": %s\n    }'
)
_SKIP_OVER = (
    b'{\n          "span_edge": %s,\n          "owners": %s,\n'
    b'          "violating": %s\n        }'
)
_REPORT = b'{\n  "seed": %d,\n  "iterations": %d,\n  "mismatches": %s,\n  "mismatch_count": %d\n}\n'


def _strings(items: Sequence[str], depth: int) -> bytes:
    return json_array(map(json_string, items), depth)


def report_text(seed: int, iterations: int, mismatches: Sequence[Mismatch]) -> str:
    """The fuzz report: the text ``json.dumps(payload, indent=2) + "\n"`` writes
    for ``seed``, ``iterations``, each mismatch's ``to_dict`` and their count,
    filled into ``%`` templates instead of going through the indented encoder."""
    records = [
        _MISMATCH
        % (
            json_string(m.dimacs),
            _strings(m.ordering, 3),
            m.algorithm,
            m.pipeline_answer,
            m.oracle_answer,
            _strings(m.witness_labels, 3),
            json_array(
                [
                    _SKIP_OVER
                    % (
                        json_array((b"%d" % d.child_node, b"%d" % d.parent_node), 5),
                        _strings(d.owners, 5),
                        _strings(d.violating, 5),
                    )
                    for d in m.diagnosis
                ],
                3,
            ),
        )
        for m in mismatches
    ]
    return (_REPORT % (seed, iterations, json_array(records, 1), len(records))).decode("ascii")
