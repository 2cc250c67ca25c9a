"""Spans around the package's public functions, installed from outside it.

The traced run wraps each function as it is bound in the module that calls
it (``twomaxsat.pipeline.close_spans``, ``twomaxsat.harness.run_pipeline``,
...), so the package itself is unchanged.  Each span records its name, its
start and end, its parent span and the item it belongs to.  Spans stay in
memory and are written out when the run ends.  A layer's self time is its
spans' durations minus the parts their child spans cover, so the self times
of all layers add up to the traced wall time: ``bench`` is the item glue
between calls and ``trace`` is the tracer's own counting after a call.

A name that is missing from its module is reported as absent, not an error:
the wrapped set follows today's module layout, which later changes may split.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

LAYERS = (
    "formula", "sequences", "spans", "trie", "layered", "subsets",
    "oracle", "pipeline", "harness", "export", "cli", "bench", "trace",
)

# (module, attribute, span name); "{stage}" takes export_stage's stage argument.
WRAPS = (
    ("pipeline", "cnf_to_dnf", "formula.cnf_to_dnf"),
    ("pipeline", "pad_missing", "formula.pad_missing"),
    ("pipeline", "resolve_ordering", "sequences.ordering"),
    ("pipeline", "build_sequences", "sequences.build"),
    ("pipeline", "build_pgraph", "spans.build_pgraph"),
    ("pipeline", "close_spans", "spans.close_spans"),
    ("pipeline", "merge_main_paths", "trie.merge"),
    ("pipeline", "overlay_spans", "trie.overlay"),
    ("pipeline", "build_layered_alg1", "layered.alg1"),
    ("pipeline", "build_layered_alg3", "layered.alg3"),
    ("pipeline", "find_subset_alg2", "subsets.find_subset"),
    ("pipeline", "run_pipeline", "pipeline.run"),
    ("harness", "cnf_to_dnf", "formula.cnf_to_dnf"),
    ("harness", "pad_missing", "formula.pad_missing"),
    ("harness", "sequence_frequencies", "sequences.frequencies"),
    ("harness", "run_pipeline", "pipeline.run"),
    ("harness", "oracle_max_sat", "oracle.max_sat"),
    ("harness", "random_formula", "harness.random_formula"),
    ("harness", "tie_consistent_orderings", "harness.orderings"),
    ("harness", "diagnose_skip_over", "harness.diagnose"),
    ("harness", "audit_bounds", "harness.audit"),
    ("harness", "fuzz", "harness.fuzz"),
    ("oracle", "oracle_max_sat", "oracle.max_sat"),
    ("export", "export_stage", "export.{stage}"),
    ("cli", "run_pipeline", "pipeline.run"),
    ("cli", "main", "cli.main"),
)

# Self-time metrics, by span name; every other metric is a count or a ratio.
SELF_TIME_METRICS = {
    "formula.cnf_to_dnf_s": "formula.cnf_to_dnf",
    "formula.pad_missing_s": "formula.pad_missing",
    "sequences.ordering_s": "sequences.ordering",
    "sequences.build_s": "sequences.build",
    "spans.build_pgraph_s": "spans.build_pgraph",
    "spans.close_spans_s": "spans.close_spans",
    "trie.merge_s": "trie.merge",
    "trie.overlay_s": "trie.overlay",
    "layered.alg1_s": "layered.alg1",
    "layered.alg3_s": "layered.alg3",
    "subsets.find_subset_s": "subsets.find_subset",
    "oracle.max_sat_s": "oracle.max_sat",
    "pipeline.run_s": "pipeline.run",
    "harness.orderings_s": "harness.orderings",
    "harness.diagnose_s": "harness.diagnose",
    "harness.audit_s": "harness.audit",
    "export.trielike_s": "export.trielike",
    "export.layered_s": "export.layered",
    "export.answer_s": "export.answer",
    "cli.fuzz_self_s": "cli.main",
}

COUNT_METRICS = (
    "sequences.items", "spans.close_spans_calls", "spans.closed_spans",
    "trie.vertices", "trie.span_edges", "trie.ancestors_calls",
    "layered.instances", "layered.edges", "layered.groups", "layered.groups_expanded",
    "layered.merge_events", "layered.degenerate_merges",
    "subsets.rooted_subgraphs", "subsets.witness_instances",
    "pipeline.runs", "harness.mismatches", "export.bytes", "cli.report_bytes",
)
RATIO_METRICS = {
    "layered.instances_per_s": "1/s",
    "oracle.calls_per_formula": "ratio",
    "pipeline.front_end_builds_per_formula": "ratio",
    "pipeline.runs_per_formula": "ratio",
    "harness.mismatch_ratio": "ratio",
}
RUN_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {name: "s" for name in SELF_TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update(RATIO_METRICS)
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update(RUN_METRICS)
    return units


COUNTED_SPANS = {
    "sequences.build", "spans.close_spans", "trie.overlay", "layered.alg1", "layered.alg3",
    "subsets.find_subset", "harness.fuzz", "cli.main",
}


def _count_result(counts: Counter, name: str, result: Any, args: tuple) -> None:
    """Structure sizes read off a wrapped call's result."""
    if name == "sequences.build":
        counts["sequences.items"] += sum(len(s.items) for s in result)
    elif name == "spans.close_spans":
        counts["spans.closed_spans"] += len(result.closed_spans)
    elif name == "trie.overlay":
        counts["trie.vertices"] += result.vertex_count
        counts["trie.span_edges"] += len(result.span_edges)
    elif name in ("layered.alg1", "layered.alg3"):
        counts["layered.instances"] += result.vertex_count
        counts["layered.edges"] += result.edge_count
        counts["layered.groups"] += len(result.groups)
        counts["layered.groups_expanded"] += sum(1 for g in result.groups if g.pushed)
        counts["layered.merge_events"] += len(result.merge_events)
        counts["layered.degenerate_merges"] += sum(1 for e in result.merge_events if e.degenerate)
    elif name == "subsets.find_subset":
        counts["subsets.rooted_subgraphs"] += len(result.per_subgraph)
        counts["subsets.witness_instances"] += len(result.witness.instances)
    elif name == "harness.fuzz":
        counts["harness.mismatches"] += len(result)
    elif name.startswith("export."):
        counts["export.bytes"] += len(result.encode())
    elif name == "cli.main":
        argv = list(args[0]) if args else []
        if "--report" in argv:
            counts["cli.report_bytes"] += Path(argv[argv.index("--report") + 1]).stat().st_size


class Tracer:
    """Collects spans and counts while installed; `uninstall` restores the package."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.stack = [0]
        self.item = 0
        self.next_id = 1
        self.installed: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []
        self.present = {"bench", "trace"}  # layers with at least one wrapped name

    # -- installation --------------------------------------------------------

    def install(self, pkg) -> None:
        for module_name, attr, span_name in WRAPS:
            module = getattr(pkg, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._replace(module, attr, self._wrap(fn, span_name))
            self.present.add(span_name.split(".", 1)[0])
        trie_cls = getattr(pkg.trie, "Trie", None)
        ancestors = getattr(trie_cls, "ancestors", None)
        if ancestors is None:
            self.missing.append("trie.Trie.ancestors")
        else:
            self._replace(trie_cls, "ancestors", self._count_calls(ancestors, "trie.ancestors_calls"))
            self.present.add("trie")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    def _replace(self, owner, attr: str, wrapper) -> None:
        self.installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count_calls(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn: Callable, span_name: str) -> Callable:
        tracer = self
        by_stage = "{stage}" in span_name
        counted = by_stage or span_name in COUNTED_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name.format(stage=args[1] if len(args) > 1 else kwargs.get("stage")) if by_stage else span_name
            if name == "harness.random_formula":
                tracer.item += 1  # on fuzz_campaign an item is one generated formula
            result = tracer._span(name, fn, args, kwargs)
            if counted:
                t0 = perf_counter_ns()
                _count_result(tracer.counts, name, result, args)
                tracer._close(tracer.stack[-1], "trace.count", t0)
            return result

        return traced

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        sid, parent, item = self.next_id, self.stack[-1], self.item
        self.next_id += 1
        self.stack.append(sid)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self.stack.pop()
            self.spans.append((sid, parent, item, name, t0, t1))

    def _close(self, parent: int, name: str, t0: int) -> None:
        self.spans.append((self.next_id, parent, self.item, name, t0, perf_counter_ns()))
        self.next_id += 1

    def run_item(self, call: Callable[[], Any], formulas: int) -> tuple[Any, int]:
        """Run one benchmark item under a root span; returns its result and duration."""
        self.item += 1
        self.counts["bench.formulas"] += formulas
        result = self._span("bench.item", call, (), {})
        *_, t0, t1 = self.spans[-1]
        return result, t1 - t0

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], int]:
        """Self time per span name in ns, and the traced wall time (root spans)."""
        covered: dict[int, int] = defaultdict(int)
        for sid, parent, _item, _name, t0, t1 in self.spans:
            covered[parent] += t1 - t0
        own: dict[str, int] = defaultdict(int)
        for sid, _parent, _item, name, t0, t1 in self.spans:
            own[name] += (t1 - t0) - covered[sid]
        return dict(own), covered[0]

    def metrics(self, untraced_wall_ns: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics (absent ones read 0) and the list of absent layers."""
        own, wall = self.self_times()
        calls = Counter(name for *_, name, _t0, _t1 in self.spans)
        c = self.counts
        formulas = c["bench.formulas"]
        seconds = {name: own.get(span, 0) / 1e9 for name, span in SELF_TIME_METRICS.items()}
        out: dict[str, float] = dict(seconds)
        for name in COUNT_METRICS:
            out[name] = c.get(name, 0)
        out["spans.close_spans_calls"] = calls["spans.close_spans"]
        out["pipeline.runs"] = calls["pipeline.run"]
        layered_s = seconds["layered.alg1_s"] + seconds["layered.alg3_s"]
        out["layered.instances_per_s"] = c["layered.instances"] / layered_s if layered_s else 0
        per_formula = (lambda n: n / formulas) if formulas else (lambda n: 0)
        out["oracle.calls_per_formula"] = per_formula(calls["oracle.max_sat"])
        out["pipeline.front_end_builds_per_formula"] = per_formula(calls["trie.overlay"])
        out["pipeline.runs_per_formula"] = per_formula(calls["pipeline.run"])
        runs = calls["pipeline.run"]
        out["harness.mismatch_ratio"] = c["harness.mismatches"] / runs if runs else 0
        layer_ns: Counter = Counter()
        for name, ns in own.items():
            layer_ns[name.split(".", 1)[0]] += ns
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_ns[layer] / 1e9
            out[f"{layer}.share"] = layer_ns[layer] / wall if wall else 0
        out["trace.wall_s"] = wall / 1e9
        out["trace.untraced_wall_s"] = untraced_wall_ns / 1e9
        out["trace.overhead_s"] = (wall - untraced_wall_ns) / 1e9
        out["trace.spans"] = len(self.spans)
        absent = [layer for layer in LAYERS if layer not in self.present]
        return out, absent

    def write_spans(self, path: Path) -> None:
        """Spans as gzipped JSON lines: [id, parent, item, name, start_ns, end_ns]."""
        base = min((span[4] for span in self.spans), default=0)
        with gzip.open(path, "wt") as fh:
            for sid, parent, item, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, item, name, t0 - base, t1 - base]) + "\n")
