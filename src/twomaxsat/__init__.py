"""2-MAXSAT trie-like-graph search pipeline, exact oracle, and refutation harness.

The pipeline converts a 2-CNF formula into a 2-DNF, pads it, sorts variable
sequences under a global ordering, builds p-graphs and their span closures,
merges them into a trie-like graph, runs the bottom-up layered search
(original or "improved" variant), and reports the maximum claimed satisfied
count over rooted subgraphs.  The exact oracle gives ground truth; the
harness reproduces the recorded counterexamples, fuzzes for new mismatches,
and audits the worst-case structure-size bounds.
"""

from .errors import TwoMaxSatError
from .formula import (
    Assignment,
    CnfFormula,
    DnfFormula,
    cnf_to_dnf,
    eval_cnf,
    formula_from_ints,
    pad_missing,
    parse_cnf,
    render_cnf,
)
from .harness import (
    audit_bounds,
    builtin_counterexamples,
    family,
    fuzz,
    run_counterexample,
    shrink,
)
from .layered import build_layered_alg1, build_layered_alg3
from .oracle import oracle_max_sat
from .pipeline import FrontEnd, PipelineRun, front_end, run_pipeline, search
from .sequences import (
    GlobalOrdering,
    build_sequences,
    frequency_ordering,
    lexical_ordering,
    parse_ordering,
)
from .spans import build_pgraph, close_spans
from .subsets import find_subset_alg2
from .trie import merge_main_paths, overlay_spans

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CnfFormula",
    "DnfFormula",
    "FrontEnd",
    "GlobalOrdering",
    "PipelineRun",
    "TwoMaxSatError",
    "audit_bounds",
    "build_layered_alg1",
    "build_layered_alg3",
    "build_pgraph",
    "build_sequences",
    "builtin_counterexamples",
    "close_spans",
    "cnf_to_dnf",
    "eval_cnf",
    "family",
    "find_subset_alg2",
    "formula_from_ints",
    "frequency_ordering",
    "front_end",
    "fuzz",
    "lexical_ordering",
    "merge_main_paths",
    "oracle_max_sat",
    "overlay_spans",
    "pad_missing",
    "parse_cnf",
    "parse_ordering",
    "render_cnf",
    "run_counterexample",
    "run_pipeline",
    "search",
    "shrink",
]
