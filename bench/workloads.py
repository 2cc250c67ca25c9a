"""Seeded inputs, timed calls and recorded-value checks for the three workloads.

Every workload draws its items from a pool whose outputs were recorded at the
seed commit (``bench/recorded/<workload>.json``, written by ``record.py``).
``--seed`` picks the items: per stratum it draws a random subset of the
stratum's quota, then swaps entries until the subset's recorded cost is
within half a percent of the quota times the stratum's mean cost.  Different
seeds therefore run different formulas while every run does the same amount
of work, which is what keeps run-to-run spread small enough to gate on.

The package only ever sees generated formulas and CLI argument lists, and
every call goes through a module attribute (``pkg.pipeline.run_pipeline``,
not a captured function), so the traced run's wrappers see the same calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDED = HERE / "recorded"
MODULES = ("formula", "pipeline", "oracle", "harness", "export", "cli", "trie")

WORKLOADS = ("search_deep", "fuzz_campaign", "audit_export")

# Item counts below are sized for a timed pass of about this many seconds on
# a 2-core host with CPython 3.11; --seconds scales them.
DESIGN_SECONDS = 25

EXPORT_STAGES = ("trielike", "layered", "answer")
FUZZ_ARGS = ("--max-n0", "5", "--max-m0", "4")
PREFLIGHT_CASES = ("running", "ce1", "ce2", "ce3", "family(12)")


@dataclass(frozen=True)
class Shape:
    """How one mode of a workload draws its items from the recorded pool."""

    quotas: dict[str, int]  # stratum -> picks per run at DESIGN_SECONDS
    # When set, the entry with the largest key, which sets the run's peak
    # memory, is in every run on top of the quota, and runs first: after
    # other items the heap's layout, and so the peak, would depend on them.
    peak_key: Callable[[dict], float] | None = None


SHAPES = {
    ("search_deep", "full"): Shape({"8": 15, "9": 4, "10": 1}),
    ("search_deep", "smoke"): Shape({"3": 1, "4": 1}),
    ("fuzz_campaign", "full"): Shape({"campaign": 11}, peak_key=lambda e: e["largest_tie"]),
    ("fuzz_campaign", "smoke"): Shape({"campaign": 1}),
    ("audit_export", "full"): Shape({"grid": 180}, peak_key=lambda e: e["expected"]["export_bytes"]),
    ("audit_export", "smoke"): Shape({"grid": 100}),  # enough samples for p90
}

# A run's recorded cost, per stratum, is held within this share of its target.
COST_TOLERANCE = 0.005

# Pool candidates record.py generates and records, per mode and stratum.
SEARCH_M0 = {"full": 8, "smoke": 4}
SEARCH_CANDIDATES = {"full": {"8": 40, "9": 24, "10": 12}, "smoke": {"3": 6, "4": 6}}
FUZZ_CANDIDATES = {"full": 48, "smoke": 6}
FUZZ_ITERS = {"full": 100, "smoke": 3}
AUDIT_STREAM_SEED = 1789  # criterion 7's grid stream
AUDIT_CANDIDATES = {"full": 1000, "smoke": 400}
AUDIT_SMOKE_MAX_N0 = 3


def import_package(fresh: bool = False) -> SimpleNamespace:
    """Import twomaxsat from this checkout's src/ (never an installed copy).

    With `fresh`, already-imported twomaxsat modules are dropped first, so the
    import is paid again; set-up is measured several times per run this way.
    """
    init = SRC / "twomaxsat" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"no twomaxsat package at {init.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [n for n in sys.modules if n == "twomaxsat" or n.startswith("twomaxsat.")]:
            del sys.modules[name]
    pkg = SimpleNamespace(**{m: importlib.import_module(f"twomaxsat.{m}") for m in MODULES})
    if Path(pkg.pipeline.__file__).resolve().parent != init.parent.resolve():
        raise ImportError(f"twomaxsat was imported from {pkg.pipeline.__file__}, not {SRC}")
    return pkg


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest() -> str:
    """sha256 over the package sources, naming the code a record came from."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def criterion7_clauses(rng: random.Random, n0: int, m0: int) -> list[list[int]]:
    """Criterion 7's clause rule: literal a, then b = a with probability 0.3."""
    clauses = []
    for _ in range(n0):
        a = rng.randint(1, m0) * rng.choice((1, -1))
        b = a if rng.random() < 0.3 else rng.randint(1, m0) * rng.choice((1, -1))
        clauses.append([a, b])
    return clauses


def search_clauses(n0: int, m0: int, index: int) -> list[list[int]]:
    return criterion7_clauses(random.Random((n0 * 100 + m0) * 10_000 + index), n0, m0)


def audit_stream(count: int) -> list[tuple[int, int, list[list[int]]]]:
    """The first `count` (n0, m0, clauses) draws of criterion 7's grid stream."""
    rng = random.Random(AUDIT_STREAM_SEED)
    out = []
    for _ in range(count):
        n0 = rng.randint(1, 8)
        m0 = rng.randint(1, 8)
        out.append((n0, m0, criterion7_clauses(rng, n0, m0)))
    return out


def clauses_digest(clauses: list[list[int]]) -> str:
    return sha256(json.dumps(clauses).encode())


# --- timed calls and the values checked against the record -----------------


def search_call(pkg, f, algorithm: int):
    return pkg.pipeline.run_pipeline(f, algorithm=algorithm), pkg.oracle.oracle_max_sat(f)


def search_outcome(result) -> dict[str, Any]:
    run, truth = result
    answer = run.answer
    per_subgraph = json.dumps([list(p) for p in answer.per_subgraph]).encode()
    return {
        "oracle": truth.max_count,
        "max_count": answer.max_count,
        "witness_labels": sorted(answer.witness.leaf_labels),
        "per_subgraph_len": len(answer.per_subgraph),
        "per_subgraph_sha256": sha256(per_subgraph),
        "vertex_count": run.layered.vertex_count,
        "edge_count": run.layered.edge_count,
        "layer_count": run.layered.layer_count,
    }


class _Discard(io.TextIOBase):
    """stdout sink for in-process CLI calls; the report file is what is checked."""

    def write(self, s: str) -> int:
        return len(s)


def fuzz_argv(seed: int, iters: int, report: Path) -> list[str]:
    return ["fuzz", "--seed", str(seed), "--iters", str(iters), *FUZZ_ARGS, "--report", str(report)]


def fuzz_call(pkg, argv: list[str]) -> int:
    with contextlib.redirect_stdout(_Discard()):
        return pkg.cli.main(argv)


def fuzz_outcome(exit_code: int, report: Path) -> dict[str, Any]:
    data = report.read_bytes()
    return {
        "exit_code": exit_code,
        "report_sha256": sha256(data),
        "report_bytes": len(data),
        "mismatch_count": json.loads(data)["mismatch_count"],
    }


def audit_call(pkg, f):
    report = pkg.harness.audit_bounds(f)
    run = pkg.pipeline.run_pipeline(f)
    return report, [pkg.export.export_stage(run, stage, "json") for stage in EXPORT_STAGES]


def audit_outcome(result) -> dict[str, Any]:
    report, exports = result
    data = "".join(exports).encode()
    return {
        "counters": dict(sorted(report.counters.items())),
        "bounds": [[b.name, b.measured, b.bound, b.ok] for b in report.bounds],
        "violations": sum(1 for b in report.bounds if not b.ok),
        "export_sha256": sha256(data),
        "export_bytes": len(data),
    }


def preflight_outcome(pkg) -> dict[str, Any]:
    """Claimed and oracle counts of the recorded cases, under their algorithms."""
    out = {}
    for name in PREFLIGHT_CASES:
        report = pkg.harness.run_counterexample(pkg.harness.builtin_by_name(name), strict=False)
        out[name] = {
            "oracle": report["oracle"],
            "pipeline": {str(r["algorithm"]): r["pipeline"] for r in report["runs"]},
        }
    return out


def first_difference(expected: dict[str, Any], got: dict[str, Any]) -> str | None:
    for key, want in expected.items():
        if got.get(key) != want:
            return f"{key}: recorded {want!r}, got {got.get(key)!r}"
    return None


# --- pools and per-seed item selection --------------------------------------


def load_record(workload: str) -> dict[str, Any]:
    return json.loads((RECORDED / f"{workload}.json").read_text())


def matched_pick(entries: list[dict], k: int, rng: random.Random, tol: float) -> list[dict]:
    """k entries whose recorded costs sum to within `tol` of k times the pool mean.

    The seed draws a random k-subset; then the single swap that brings the sum
    nearest the target is made until the sum is within tolerance or no swap
    helps.  With k = 1 this is the entry nearest the mean, on every seed.
    """
    if not 1 <= k <= len(entries):
        raise ValueError(f"cannot pick {k} of {len(entries)} pool entries")
    cost = [e["cost_s"] for e in entries]
    target = k * statistics.fmean(cost)
    chosen = rng.sample(range(len(entries)), k)
    picked = set(chosen)
    rest = [i for i in range(len(entries)) if i not in picked]
    gap = sum(cost[i] for i in chosen) - target
    while abs(gap) > tol * target:
        new_gap, a, b = min(
            (abs(gap - cost[chosen[a]] + cost[rest[b]]), a, b)
            for a in range(len(chosen))
            for b in range(len(rest))
        )
        if new_gap >= abs(gap):
            break
        gap += cost[rest[b]] - cost[chosen[a]]
        chosen[a], rest[b] = rest[b], chosen[a]
    return [entries[i] for i in chosen]


def select(shape: Shape, pool: dict[str, list[dict]], seed: int, scale: float) -> list[dict]:
    """The seed's pool entries, each stratum's quota scaled by `scale`."""
    rng = random.Random(seed)
    heads, chosen = [], []
    for stratum, quota in shape.quotas.items():
        entries = pool[stratum]
        head = [] if shape.peak_key is None else [max(entries, key=shape.peak_key)]
        rest = [e for e in entries if e not in head]
        k = min(max(1, round(quota * scale)), len(rest))
        heads += head
        chosen += matched_pick(rest, k, rng, COST_TOLERANCE)
    rng.shuffle(chosen)
    return heads + chosen


@dataclass
class Item:
    """One closed-loop step: `call` is timed, `outcome` and the check are not."""

    key: str
    count: int  # items this step completes: formulas for a fuzz call, else 1
    formulas: int  # formulas first seen in this step
    call: Callable[[], Any]
    outcome: Callable[[Any], dict[str, Any]]
    expected: dict[str, Any]


def pick(workload: str, mode: str, seed: int, scale: float) -> list:
    """Ids of the pool entries the seed picks, in the order they run."""
    pool = load_record(workload)[mode]["pool"]
    return [entry["id"] for entry in select(SHAPES[(workload, mode)], pool, seed, scale)]


def plan(workload: str, pkg, record: dict[str, Any], mode: str, ids: list, scratch: Path) -> list[Item]:
    """Generate the picked entries' inputs and pair each with its recorded outputs."""
    by_id = {entry["id"]: entry for entries in record[mode]["pool"].values() for entry in entries}
    chosen = [by_id[i] for i in ids]
    items: list[Item] = []
    if workload == "search_deep":
        m0 = SEARCH_M0[mode]
        for entry in chosen:
            clauses = search_clauses(entry["n0"], m0, entry["index"])
            _check_generated(entry, clauses)
            f = pkg.formula.formula_from_ints(clauses, m0)
            for k, algorithm in enumerate((1, 3)):
                items.append(
                    Item(
                        f"{entry['id']}/alg{algorithm}",
                        1,
                        int(k == 0),
                        lambda f=f, a=algorithm: search_call(pkg, f, a),
                        search_outcome,
                        entry[f"alg{algorithm}"],
                    )
                )
    elif workload == "fuzz_campaign":
        iters = FUZZ_ITERS[mode]
        report = scratch / "fuzz-report.json"
        for entry in chosen:
            argv = fuzz_argv(entry["seed"], iters, report)
            items.append(
                Item(
                    f"fuzz-seed{entry['seed']}",
                    iters,
                    iters,
                    lambda argv=argv: fuzz_call(pkg, argv),
                    lambda code, report=report: fuzz_outcome(code, report),
                    entry["expected"],
                )
            )
    elif workload == "audit_export":
        stream = audit_stream(max(e["index"] for e in chosen) + 1)
        for entry in chosen:
            n0, m0, clauses = stream[entry["index"]]
            _check_generated(entry, clauses)
            f = pkg.formula.formula_from_ints(clauses, m0)
            items.append(
                Item(
                    f"grid-{entry['index']}",
                    1,
                    1,
                    lambda f=f: audit_call(pkg, f),
                    audit_outcome,
                    entry["expected"],
                )
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


def _check_generated(entry: dict[str, Any], clauses: list[list[int]]) -> None:
    if clauses_digest(clauses) != entry["clauses_sha256"]:
        raise RuntimeError(f"pool entry {entry['id']}: generator no longer gives the recorded formula")
