"""Refutation harness: builtin counterexamples, differential fuzzing with
shrinking, and structure-size bound audits.

The builtin specs carry the recorded expectations; ``run_counterexample``
replays one and raises ExpectationFailedError when the recorded numbers stop
reproducing.  ``check`` compares the pipeline with the oracle on one formula
under given orderings and algorithms, and builds each ``Mismatch`` (see
``report``) with a skip-over diagnosis from the attributed span-edge view;
it is the one checking entry point, for ``fuzz`` and ``shrink`` alike.
The fuzzer draws seeded random 2-CNF formulas (duplicated-literal clauses
drawn with elevated probability, since every known counterexample relies on
them), then checks each under its tie-consistent orderings in forked worker
processes, one per usable CPU (in this process before CPython 3.11); the
mismatches come back in formula order, so the output does not depend on the
worker count.  ``shrink`` re-checks ever smaller variants of a mismatch.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import sys
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from .errors import ExpectationFailedError, TwoMaxSatError
from .formula import (
    CnfFormula,
    cnf_to_dnf,
    formula_from_ints,
    pad_missing,
    parse_cnf,
    render_cnf,
)
from .oracle import DEFAULT_VARIABLE_CAP, oracle_max_sat
from .pipeline import PipelineRun, front_end, run_pipeline, search
from .report import Mismatch, SkipOverEdge
from .sequences import frequency_ordering, sequence_frequencies, tie_consistent

FAMILY_CAP = 12
DUPLICATE_LITERAL_BIAS = 0.4  # chance a fuzz clause repeats its first literal
CHUNKS_PER_WORKER = 10  # fuzz hands each worker about this many chunks of formulas


@dataclass(frozen=True)
class CounterexampleSpec:
    name: str
    dimacs: str
    ordering: str  # "lexical" or an explicit "a>b>c" spec
    expected_pipeline: int
    expected_oracle: int
    algorithms: tuple[int, ...]


@dataclass
class BoundCheck:
    name: str
    measured: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "measured": self.measured,
            "bound": self.bound,
            "ok": self.ok,
        }


@dataclass
class AuditReport:
    """Measured stage sizes against the proved worst-case size bounds."""

    n0: int
    m0: int
    n: int
    m: int
    algorithm: int
    bounds: list[BoundCheck]
    counters: dict[str, int]
    frame_value_n0_6: int

    @property
    def all_pass(self) -> bool:
        return all(b.ok for b in self.bounds)

    def to_dict(self) -> dict[str, Any]:
        return {
            "n0": self.n0,
            "m0": self.m0,
            "n": self.n,
            "m": self.m,
            "relations": {"n=2*n0": self.n == 2 * self.n0, "m=n0+m0": self.m == self.n0 + self.m0},
            "algorithm": self.algorithm,
            "bounds": [b.to_dict() for b in self.bounds],
            "all_pass": self.all_pass,
            "counters": dict(sorted(self.counters.items())),
            "worst_case_frame_216_n0^6": self.frame_value_n0_6,
        }


def family(n: int) -> CnfFormula:
    """n copies of the duplicated-literal clause (~v1 v ~v1); n=2 is counterexample 1."""
    if not 2 <= n <= FAMILY_CAP:
        raise ValueError(f"family(N) needs N in 2..{FAMILY_CAP}, got {n}")
    return formula_from_ints([[-1, -1]] * n, 1)


def family_ordering(n: int) -> str:
    return ">".join([f"y{i}" for i in range(1, n + 1)] + ["v1"])


RUNNING_DIMACS = "p cnf 3 2\n1 -2 0\n-1 3 0\n"
CE1_DIMACS = "p cnf 1 2\n-1 -1 0\n-1 -1 0\n"
CE2_DIMACS = "p cnf 1 2\n1 1 0\n1 1 0\n"
CE3_DIMACS = "p cnf 1 2\n-1 -1 0\n1 1 0\n"


def builtin_counterexamples(family_n: int = 4) -> list[CounterexampleSpec]:
    """The recorded cases: the running example, CE1..CE3, and family(n).

    family(n)'s ``expected_pipeline = n+1`` is the count of the illegal rooted
    subgraph the paper exhibits, a lower bound on findSubset's claim, which is
    the maximum over all rooted subgraphs (2n-1).  The expectation is kept as
    recorded, so ``repro all`` reports family(n) red and exits 1.
    """
    return [
        CounterexampleSpec("running", RUNNING_DIMACS, "lexical", 2, 2, (1, 3)),
        CounterexampleSpec("ce1", CE1_DIMACS, "y1>y2>v1", 3, 2, (1, 3)),
        CounterexampleSpec("ce2", CE2_DIMACS, "v1>y1>y2", 3, 2, (1, 3)),
        CounterexampleSpec("ce3", CE3_DIMACS, "y2>y1>v1", 2, 1, (1, 3)),
        CounterexampleSpec(
            f"family({family_n})",
            render_cnf(family(family_n)),
            family_ordering(family_n),
            family_n + 1,
            family_n,
            (1,),
        ),
    ]


def builtin_by_name(name: str) -> CounterexampleSpec:
    """The builtin case called `name`, or family(N) for any N in range; an
    unknown name or a bad N is an input error."""
    if name.startswith("family(") and name.endswith(")"):
        size = name[len("family(") : -1]
        if not (size.isascii() and size.isdigit()):
            raise TwoMaxSatError(f"family(N) needs an integer N in 2..{FAMILY_CAP}, got {name!r}")
        try:
            return builtin_counterexamples(int(size))[-1]
        except ValueError as exc:  # N outside 2..FAMILY_CAP, as family() words it
            raise TwoMaxSatError(str(exc)) from None
    for spec in builtin_counterexamples():
        if spec.name == name:
            return spec
    raise TwoMaxSatError(f"unknown builtin counterexample {name!r}")


def diagnose_skip_over(run: PipelineRun) -> tuple[SkipOverEdge, ...]:
    """Span edges the witness closure uses for conjunctions that do not own them.

    For each span-kind edge inside the witness, the leaf labels reachable
    below its child are compared against the edge's owner labels; any label
    that climbed through a span it does not own is a skip-over.  Reads only
    the witness closure, never the whole layered graph.
    """
    witness = run.answer.witness
    trie = run.trielike.trie
    below = {
        iid: set(trie.node(inst.trie_node).conjunction_labels) if inst.layer == 1 else set()
        for iid, inst in witness.nodes.items()
    }
    # edges come in creation order, so every edge into a child precedes the
    # child's own edges upward and its labels are complete when read
    for edge in witness.edges:
        below[edge.parent] |= below[edge.child]
    findings = []
    for edge in witness.edges:
        if edge.kind != "span":
            continue
        child_node = witness.nodes[edge.child].trie_node
        parent_node = witness.nodes[edge.parent].trie_node
        owners = run.trielike.span_owners(child_node, parent_node)
        violating = below[edge.child] - owners
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


def replay_counterexample(spec: CounterexampleSpec) -> tuple[dict, list[PipelineRun]]:
    """``run_counterexample``'s report and the runs: one front end, one search per algorithm."""
    f = parse_cnf(spec.dimacs)
    oracle = oracle_max_sat(f)
    report: dict = {
        "name": spec.name,
        "ordering": spec.ordering,
        "expected_pipeline": spec.expected_pipeline,
        "expected_oracle": spec.expected_oracle,
        "oracle": oracle.max_count,
        "oracle_ok": oracle.max_count == spec.expected_oracle,
        "runs": [],
    }
    ok = report["oracle_ok"]
    front = front_end(f, spec.ordering)
    runs = [search(front, algorithm) for algorithm in spec.algorithms]
    for algorithm, run in zip(spec.algorithms, runs):
        got = run.answer.max_count
        entry = {
            "algorithm": algorithm,
            "pipeline": got,
            "pipeline_ok": got == spec.expected_pipeline,
            "mismatch_vs_oracle": got != oracle.max_count,
            "layers": run.layered.layer_count,
            "witness_labels": sorted(run.answer.witness.leaf_labels),
            "degenerate_merges": run.layered.merge_event_count,  # every merge degenerates
            "merge_events": run.layered.merge_event_count,
        }
        report["runs"].append(entry)
        ok = ok and entry["pipeline_ok"]
    report["ok"] = ok
    return report, runs


def run_counterexample(spec: CounterexampleSpec, strict: bool = True) -> dict:
    """Replay one builtin spec under each of its algorithms; compare with the oracle."""
    report, _ = replay_counterexample(spec)
    if strict and not report["ok"]:
        raise ExpectationFailedError(f"{spec.name}: recorded expectations not reproduced")
    return report


@dataclass(frozen=True)
class FuzzParams:
    max_n0: int = 4
    max_m0: int = 3
    orderings_per_formula: int = 6
    algorithms: tuple[int, ...] = (1, 3)
    variable_cap: int = DEFAULT_VARIABLE_CAP

    def __post_init__(self) -> None:
        distinct = set(self.algorithms)
        if not distinct or not distinct <= {1, 3} or len(distinct) < len(self.algorithms):
            raise ValueError(
                f"algorithms must be a non-empty subset of {{1, 3}}, each named once, "
                f"got {self.algorithms}"
            )
        for name in ("orderings_per_formula", "max_n0", "max_m0"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.variable_cap < 0:
            raise ValueError(f"variable_cap must be at least 0, got {self.variable_cap}")


def tie_consistent_orderings(f: CnfFormula, cap: int) -> list[tuple[str, ...]]:
    """All orderings compatible with the sequence frequencies, up to `cap`.

    Ties are the adversarial degree of freedom, so the fuzzer enumerates every
    way of breaking them instead of sampling one.  The enumeration is lazy:
    a wide tie yields its first orderings without listing its permutations.
    """
    padded = pad_missing(cnf_to_dnf(f))
    freq = sequence_frequencies(padded)
    by_count: dict[int, list[str]] = {}
    for var, count in freq.items():
        by_count.setdefault(count, []).append(var.name)
    tiers = [sorted(by_count[count]) for count in sorted(by_count, reverse=True)]
    return list(itertools.islice(_orderings(tiers), cap))


def _orderings(tiers: list[list[str]]) -> Iterator[tuple[str, ...]]:
    """Every permutation of each tier, concatenated; the last tier varies fastest,
    as in itertools.product."""
    if not tiers:
        yield ()
        return
    for head in itertools.permutations(tiers[0]):
        for tail in _orderings(tiers[1:]):
            yield head + tail


def random_formula(rng: random.Random, params: FuzzParams) -> CnfFormula:
    n0 = rng.randint(1, params.max_n0)
    m0 = rng.randint(1, params.max_m0)
    clauses = []
    for _ in range(n0):
        lit1 = rng.randint(1, m0) * rng.choice((1, -1))
        if rng.random() < DUPLICATE_LITERAL_BIAS:
            lit2 = lit1
        else:
            lit2 = rng.randint(1, m0) * rng.choice((1, -1))
        clauses.append([lit1, lit2])
    return formula_from_ints(clauses, m0)


def check(
    f: CnfFormula,
    orderings: Iterable[str | Sequence[str]],
    algorithms: Sequence[int],
    variable_cap: int = DEFAULT_VARIABLE_CAP,
) -> list[Mismatch]:
    """Every (ordering, algorithm) pair whose claim disagrees with the oracle,
    in that order: the oracle runs once, the front end once per ordering and
    the search once per pair.  The only place a Mismatch is built."""
    truth = oracle_max_sat(f, variable_cap).max_count
    mismatches = []
    for ordering in orderings:
        front = front_end(f, ordering)
        names = tuple(v.name for v in front.ordering.variables)
        for algorithm in algorithms:
            run = search(front, algorithm)
            claim = run.answer.max_count
            if claim != truth:
                witness = tuple(sorted(run.answer.witness.leaf_labels))
                diagnosis = diagnose_skip_over(run)
                mismatches.append(
                    Mismatch(render_cnf(f), names, algorithm, claim, truth, witness, diagnosis)
                )
    return mismatches


def fuzz(seed: int, iterations: int, params: FuzzParams = FuzzParams()) -> list[Mismatch]:
    """Deterministic differential stream; identical seed implies identical output.

    The formulas are drawn from ``Random(seed)`` first, then checked one by
    one (see ``_fuzz_formula``) in worker processes, and their mismatches
    are concatenated in formula order.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    rng = random.Random(seed)
    formulas = [random_formula(rng, params) for _ in range(iterations)]
    return [m for mismatches in _map_formulas(params, formulas) for m in mismatches]


def _fuzz_formula(params: FuzzParams, f: CnfFormula) -> list[Mismatch]:
    """One formula's mismatches, under its tie-consistent orderings."""
    orderings = tie_consistent_orderings(f, params.orderings_per_formula)
    return check(f, orderings, params.algorithms, params.variable_cap)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_formulas(params: FuzzParams, formulas: list[CnfFormula]) -> list[list[Mismatch]]:
    """``_fuzz_formula`` over `formulas`, in order: on a pool of one forked
    worker per usable CPU (never more than formulas), or in this process when
    only one CPU is usable, there are fewer than two formulas, ``fork`` is
    missing, this module is no longer the one imported under its name, or
    the interpreter is older than CPython 3.11.  Before 3.11 the pool forks
    its second worker after its manager thread has started, which can
    deadlock the child (gh-90622); 3.11 forks every worker up front.

    Fork, not spawn: workers inherit the imported package (and any function a
    caller patched) instead of importing it again.  The map still sends
    ``_fuzz_formula`` by module and name, which pickle refuses once a later
    import of the package (or a patch) has bound that name to another
    function.  The process machinery is imported here, so a caller that
    never fuzzes does not pay for it.  A worker's exception re-raises here
    with its own type; the map's iterator then cancels the chunks not yet
    started, and leaving the ``with`` block joins every worker, on return
    and on raise alike.
    """
    check = functools.partial(_fuzz_formula, params)
    workers = min(_usable_cpus(), len(formulas))
    sendable = getattr(sys.modules.get(__name__), "_fuzz_formula", None) is _fuzz_formula
    if workers > 1 and sendable and sys.version_info >= (3, 11):
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # several chunks per worker even out formulas of unequal cost
            chunksize = -(-len(formulas) // (workers * CHUNKS_PER_WORKER))
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                return list(pool.map(check, formulas, chunksize=chunksize))
    return list(map(check, formulas))


def _rename(ordering: Sequence[str], prefix: str, k: int) -> list[str]:
    """`ordering` without variable `{prefix}{k}`; those above it shift down one name."""
    names = []
    for name in ordering:
        if name.startswith(prefix):
            num = int(name[1:])
            if num == k:
                continue
            if num > k:
                name = f"{prefix}{num - 1}"
        names.append(name)
    return names


def _candidates(m: Mismatch) -> Iterator[tuple[list[list[int]], int, Sequence[str]]]:
    """Every one-step reduction of `m` as (clauses, m0, ordering), in shrink's order.

    Clause drops by index, then unused-variable drops from m0 down, then the
    default frequency ordering.  Lazy: the default ordering is built only
    once every drop has been tried.
    """
    f = parse_cnf(m.dimacs)
    clauses = [[lit.dimacs for lit in clause.literals] for clause in f.clauses]
    for i in range(len(clauses)):
        # auxiliary y{i+1} goes with its clause
        yield clauses[:i] + clauses[i + 1 :], f.m0, _rename(m.ordering, "y", i + 1)
    mentioned = {abs(lit) for clause in clauses for lit in clause}
    for var in range(f.m0, 0, -1):
        if var not in mentioned:
            shifted = [
                [lit - 1 if lit > var else lit + 1 if lit < -var else lit for lit in clause]
                for clause in clauses
            ]
            yield shifted, f.m0 - 1, _rename(m.ordering, "v", var)
    default = tuple(v.name for v in frequency_ordering(pad_missing(cnf_to_dnf(f))).variables)
    if default != m.ordering:
        yield clauses, f.m0, default


def shrink(m: Mismatch, variable_cap: int = DEFAULT_VARIABLE_CAP) -> Mismatch:
    """Greedy local minimization; the result still disagrees with the oracle.

    Tries clause removal, unused-variable removal, and swapping the rigged
    ordering for the default frequency ordering; stops when no single step
    preserves the disagreement.  Never increases the clause count.  A step
    counts only if the renamed ordering still just breaks frequency ties, so
    the result stays a counterexample to the procedure as specified.
    """

    def replay(clauses: list[list[int]], m0: int, ordering: Sequence[str]) -> Mismatch | None:
        try:  # no clauses left raises FormulaParseError
            f = formula_from_ints(clauses, m0)
            if not tie_consistent(pad_missing(cnf_to_dnf(f)), ordering):
                return None
            found = check(f, [ordering], [m.algorithm], variable_cap)
            return found[0] if found else None
        except (TwoMaxSatError, ValueError):
            return None

    current = m
    while True:
        for clauses, m0, ordering in _candidates(current):
            found = replay(clauses, m0, ordering)
            if found is not None:
                current = found
                break
        else:
            return current


TRIE_VERTEX_BOUND = "trie_like_vertices<=n(m+2)-1"
TRIE_EDGE_BOUND = "trie_like_edges<=(m+2)(m+1)n/2"
LAYERED_VERTEX_BOUND = "layered_vertices<=(n(m+2)-1)(m+2)"
LAYERED_EDGE_BOUND = "layered_edges<=(m+2)(m+1)^2n/2"
SPAN_BOUND = "max_pstar_spans<=(m+2)(m+1)/2"


def audit_bounds(
    f: CnfFormula,
    ordering: str | Sequence[str] = "frequency",
    algorithm: int = 1,
) -> AuditReport:
    """Run the pipeline and measure every stage against the proved bounds."""
    run = run_pipeline(f, ordering=ordering, algorithm=algorithm)
    n, m = run.dnf.n, run.dnf.m
    layered = run.layered
    bounds = [
        BoundCheck(SPAN_BOUND, max(ps.span_count for ps in run.pstars), (m + 2) * (m + 1) // 2),
        BoundCheck(TRIE_VERTEX_BOUND, run.trielike.vertex_count, n * (m + 2) - 1),
        BoundCheck(TRIE_EDGE_BOUND, run.trielike.edge_count, (m + 2) * (m + 1) * n // 2),
        BoundCheck(LAYERED_VERTEX_BOUND, layered.vertex_count, (n * (m + 2) - 1) * (m + 2)),
        BoundCheck(LAYERED_EDGE_BOUND, layered.edge_count, (m + 2) * (m + 1) ** 2 * n // 2),
    ]
    counters = {
        "conjunctions": n,
        "sequence_items": sum(len(s.items) for s in run.sequences),
        "base_spans": sum(len(p.spans) for p in run.pgraphs),
        "closed_spans": sum(ps.span_count for ps in run.pstars),
        "trie_vertices": run.trie.vertex_count,
        "trie_edges": run.trie.edge_count,
        "span_edges": run.trielike.span_edge_count,
        "layered_instances": layered.vertex_count,
        "layered_edges": layered.edge_count,
        "layered_layers": layered.layer_count,
        "groups": layered.group_count,
        "groups_expanded": layered.expanded_group_count,
        "merge_events": layered.merge_event_count,
        "rooted_subgraphs": layered.root_count,
    }
    return AuditReport(f.n0, f.m0, n, m, algorithm, bounds, counters, 216 * f.n0**6)
