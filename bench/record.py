"""Record the outputs the benchmark checks against, and each pool entry's cost.

Run this only at a commit whose answers are known good, since every later
run is judged against what it writes:

    python3 bench/record.py

It rewrites every bench/recorded/<workload>.json, in both modes, and
preflight.json from one run, so all of them name the same sources.  For
every pool candidate it stores the checked outputs and ``cost_s``, the
fastest of two timed calls, which the benchmark uses only to match the
recorded cost of the items a seed picks.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import time
from collections import Counter
from pathlib import Path

import workloads as wl

REPS = 2


def timed(call):
    best, result = None, None
    for _ in range(REPS):
        result = None
        gc.collect()
        t0 = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def record_search(pkg, mode: str) -> dict:
    m0 = wl.SEARCH_M0[mode]
    pool: dict[str, list] = {}
    for stratum, count in wl.SEARCH_CANDIDATES[mode].items():
        n0 = int(stratum)
        pool[stratum] = []
        for index in range(count):
            clauses = wl.search_clauses(n0, m0, index)
            f = pkg.formula.formula_from_ints(clauses, m0)
            entry = {"id": f"n{n0}-{index}", "n0": n0, "index": index,
                     "clauses_sha256": wl.clauses_digest(clauses), "cost_s": 0.0}
            for algorithm in (1, 3):
                result, cost = timed(lambda: wl.search_call(pkg, f, algorithm))
                entry[f"alg{algorithm}"] = wl.search_outcome(result)
                entry["cost_s"] += cost
                del result
            pool[stratum].append(entry)
            print(mode, entry["id"], round(entry["cost_s"], 3), flush=True)
    return {"pool": pool}


def largest_tie(pkg, seed: int, iters: int) -> int:
    """Most variables sharing one sequence frequency in any formula of a campaign.

    The fuzzer materialises every permutation of such a tie, so this sets the
    campaign's peak memory (9 tied variables: 9! orderings, about 40 MB).
    """
    h = pkg.harness
    params = h.FuzzParams(max_n0=int(wl.FUZZ_ARGS[1]), max_m0=int(wl.FUZZ_ARGS[3]))
    rng = random.Random(seed)
    largest = 0
    for _ in range(iters):
        freq = h.sequence_frequencies(h.pad_missing(h.cnf_to_dnf(h.random_formula(rng, params))))
        largest = max(largest, *Counter(freq.values()).values())
    return largest


def record_fuzz(pkg, mode: str, scratch: Path) -> dict:
    iters = wl.FUZZ_ITERS[mode]
    report = scratch / "fuzz-report.json"
    entries = []
    for seed in range(wl.FUZZ_CANDIDATES[mode]):
        argv = wl.fuzz_argv(seed, iters, report)
        code, cost = timed(lambda: wl.fuzz_call(pkg, argv))
        entries.append({"id": f"seed{seed}", "seed": seed, "cost_s": cost,
                        "largest_tie": largest_tie(pkg, seed, iters),
                        "expected": wl.fuzz_outcome(code, report)})
        print(mode, seed, round(cost, 3), flush=True)
    return {"iters": iters, "pool": {"campaign": entries}}


def record_audit(pkg, mode: str) -> dict:
    entries = []
    for index, (n0, m0, clauses) in enumerate(wl.audit_stream(wl.AUDIT_CANDIDATES[mode])):
        if mode == "smoke" and n0 > wl.AUDIT_SMOKE_MAX_N0:
            continue
        f = pkg.formula.formula_from_ints(clauses, m0)
        result, cost = timed(lambda: wl.audit_call(pkg, f))
        entries.append({"id": index, "index": index, "n0": n0, "m0": m0,
                        "clauses_sha256": wl.clauses_digest(clauses), "cost_s": cost,
                        "expected": wl.audit_outcome(result)})
        del result
    print(mode, "audit", len(entries), "violations",
          sum(e["expected"]["violations"] for e in entries), flush=True)
    return {"pool": {"grid": entries}}


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    pkg = wl.import_package()
    scratch = wl.ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    wl.RECORDED.mkdir(exist_ok=True)
    source = {"src_sha256": wl.source_digest(), "python": platform.python_version()}
    recorders = {
        "search_deep": record_search,
        "fuzz_campaign": lambda pkg, mode: record_fuzz(pkg, mode, scratch),
        "audit_export": record_audit,
    }
    payloads = {"preflight": {"source": source, "cases": wl.preflight_outcome(pkg)}}
    for name in wl.WORKLOADS:
        payloads[name] = {"source": source, **{mode: recorders[name](pkg, mode) for mode in ("smoke", "full")}}
    for name, payload in payloads.items():
        path = wl.RECORDED / f"{name}.json"
        path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        print("wrote", path, flush=True)


if __name__ == "__main__":
    main()
