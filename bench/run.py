"""twomaxsat benchmark: three workloads, end-to-end metrics, a traced run per layer.

    python3 bench/run.py --workload {search_deep,fuzz_campaign,audit_export}
                         --seed N --seconds S --trace {0,1} [--smoke] [--perturb]

Each run is one process and one thread driving the package in a closed loop:
the next item starts when the previous one has finished.  The seed picks the
items once, untimed.  Set-up (import, loading the recorded values, generating
the picked inputs, the pre-flight replay and warm-up) is done five times
before the timed pass and five times after it, so that the samples span the
run, and their median is ``setup_s``.  With
``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` the same items run once untraced and once traced, and the last
line holds the per-layer metrics.  Every output is checked against values
recorded at the seed commit (bench/recorded/); a difference counts toward
``failed_share`` and the first one is printed.  A full record of the run,
with host facts, goes to .bench_out/.

``--smoke`` runs tiny pools; ``--perturb`` corrupts one recorded value so
that the check can be seen to fail.  Both exist for bench/test_bench.py.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

SETUP_REPS = 5  # before the timed pass, and again after it
GATED_METRICS = ("setup_s", "items_per_s", "peak_rss_mb")  # BENCHMARK.json's end_to_end
HASH_SEED = "0"
OUT = wl.ROOT / ".bench_out"

EXIT_FAILED = 1
EXIT_NO_PACKAGE = 2
EXIT_PREFLIGHT = 3


def steady_environment() -> None:
    """Re-exec under a fixed hash seed with every MAXSAT_* variable cleared."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MAXSAT_")}
    if env.get("PYTHONHASHSEED") == HASH_SEED and len(env) == len(os.environ):
        return
    env["PYTHONHASHSEED"] = HASH_SEED
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def git_commit() -> str | None:
    """HEAD's commit, read from .git when the checkout has one."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": wl.source_digest(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


class PreflightError(Exception):
    pass


# Missing or unreadable records, a generator that drifted, a pre-flight miss.
SETUP_ERRORS = (OSError, KeyError, ValueError, RuntimeError, PreflightError)


def set_up(args, mode: str, ids: list):
    """Import, load the record, generate inputs, replay the pre-flight, warm up."""
    pkg = wl.import_package(fresh=True)
    record = wl.load_record(args.workload)
    items = wl.plan(args.workload, pkg, record, mode, ids, OUT)
    recorded = wl.load_record("preflight")["cases"]
    replayed = wl.preflight_outcome(pkg)
    if replayed != recorded:
        diffs = [n for n in recorded if replayed.get(n) != recorded[n]]
        raise PreflightError(f"pre-flight differs from the record on {', '.join(diffs)}: "
                             f"recorded {[recorded[n] for n in diffs]}, got {[replayed.get(n) for n in diffs]}")
    for m0 in range(1, 9):  # fills the oracle's per-width column cache
        pkg.oracle.oracle_max_sat(pkg.formula.formula_from_ints([[1, 1]], m0))
    run = pkg.pipeline.run_pipeline(pkg.formula.parse_cnf(pkg.harness.RUNNING_DIMACS))
    for stage in wl.EXPORT_STAGES:
        pkg.export.export_stage(run, stage, "json")
    return pkg, items


def timed_set_up(args, mode: str, ids: list, samples: list[float]):
    """Set up SETUP_REPS times, appending each duration in seconds to `samples`."""
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter_ns()
        result = set_up(args, mode, ids)
        samples.append((time.perf_counter_ns() - t0) / 1e9)
    return result


def timed_pass(items, tracer=None):
    """Closed loop over the items; returns per-item ns and the failed item indices."""
    latencies, failed, first = [], set(), None
    for index, item in enumerate(items):
        gc.collect()
        if tracer is None:
            t0 = time.perf_counter_ns()
            result = item.call()
            ns = time.perf_counter_ns() - t0
        else:
            result, ns = tracer.run_item(item.call, item.formulas)
        latencies.append(ns)
        diff = wl.first_difference(item.expected, item.outcome(result))
        del result
        if diff is not None:
            failed.add(index)
            first = first or f"item {index} ({item.key}): {diff}"
    return latencies, failed, first


def end_to_end(workload: str, items, latencies, failed, setup_times) -> dict[str, tuple[float, str]]:
    done = sum(item.count for item in items)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (done / (sum(latencies) / 1e9), "1/s"),
    }
    if workload != "fuzz_campaign":  # a campaign call has no per-formula boundary
        metrics["item_p50_ms"] = (statistics.median(latencies) / 1e6, "ms")
        if len(latencies) >= 100:  # at least 10 samples lie beyond p90
            metrics["item_p90_ms"] = (statistics.quantiles(latencies, n=10)[8] / 1e6, "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["failed_share"] = (sum(items[i].count for i in failed) / done, "ratio")
    return metrics


def perturb(items) -> None:
    """Change the first integer among the first item's recorded values."""
    expected = copy.deepcopy(items[0].expected)
    key = next(k for k, v in expected.items() if isinstance(v, int) and not isinstance(v, bool))
    expected[key] += 1
    items[0].expected = expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=wl.DESIGN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny pools, for the benchmark's own test")
    parser.add_argument("--perturb", action="store_true", help="corrupt one recorded value")
    args = parser.parse_args()
    steady_environment()
    mode = "smoke" if args.smoke else "full"
    scale = 1.0 if args.smoke else args.seconds / wl.DESIGN_SECONDS
    OUT.mkdir(exist_ok=True)

    setup_times: list[float] = []
    try:
        ids = wl.pick(args.workload, mode, args.seed, scale)  # the seed's items, picked once, untimed
        pkg, items = timed_set_up(args, mode, ids, setup_times)
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    except SETUP_ERRORS as exc:
        print(f"error: set-up failed, no numbers printed: {exc}", file=sys.stderr)
        return EXIT_PREFLIGHT
    if args.perturb:
        perturb(items)

    latencies, failed, first = timed_pass(items)
    try:
        timed_set_up(args, mode, ids, setup_times)  # the items keep the first import
    except (ImportError, *SETUP_ERRORS) as exc:
        print(f"error: set-up failed, no numbers printed: {exc}", file=sys.stderr)
        return EXIT_PREFLIGHT
    e2e = end_to_end(args.workload, items, latencies, failed, setup_times)
    record = {
        "workload": args.workload, "mode": mode, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_facts(), "seeds": {"pool_ids": ids},
        "items": len(items), "formulas": sum(item.formulas for item in items),
        "setup_s_samples": setup_times, "end_to_end": {k: v for k, (v, _u) in e2e.items()},
        "item_ns": latencies, "first_difference": first,
    }
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"

    print(f"twomaxsat-bench workload={args.workload} mode={mode} seed={args.seed} "
          f"items={len(items)} formulas={record['formulas']} closed-loop clients=1")
    host = record["host"]
    print(f"host nproc={host['nproc']} python={host['python']} commit={host['commit']} "
          f"src_sha256={host['src_sha256'][:16]}")
    print("preflight ok: " + " ".join(wl.PREFLIGHT_CASES))
    for name, (value, unit) in e2e.items():
        extra = f" (n={len(latencies)})" if name.startswith("item_p") else ""
        print(f"metric {name} {value:.6g} {unit}{extra}")

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(pkg)
        try:
            _, traced_failed, traced_first = timed_pass(items, tracer)
        finally:
            tracer.uninstall()
        failed |= traced_failed
        first = first or traced_first
        layer, absent = tracer.metrics(sum(latencies))
        units = tracing.metric_units()
        for name, value in layer.items():
            print(f"layer-metric {name} {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}")
        own_sum = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS)
        print(f"trace self-time sum {own_sum:.6f} s = traced wall {layer['trace.wall_s']:.6f} s; "
              f"untraced wall {layer['trace.untraced_wall_s']:.6f} s; "
              f"tracing overhead {layer['trace.overhead_s']:.6f} s")
        print("trace absent layers: " + (" ".join(absent) or "none")
              + "; missing names: " + (" ".join(tracer.missing) or "none"))
        spans_path = OUT / f"{stem}.spans.jsonl.gz"
        tracer.write_spans(spans_path)
        record.update(per_layer=layer, absent_layers=absent, missing_names=tracer.missing,
                      tracing_overhead_s=layer["trace.overhead_s"], spans_file=spans_path.name)
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
    else:
        metrics = {m: {"value": e2e[m][0], "unit": e2e[m][1]} for m in GATED_METRICS}

    if first is not None:
        print(f"first difference: {first}")
    record["failed_items"] = sorted(failed)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"record .bench_out/{stem}.json")
    correct = not failed
    attempted = sum(item.count for item in items)
    failed_count = sum(items[i].count for i in failed)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed_count, "metrics": metrics}))
    return 0 if correct else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
