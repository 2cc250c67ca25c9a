"""Command-line surface.

Subcommands: oracle, pipeline, repro, fuzz, audit, export.  ``pipeline``
prints the claimed answer alone; ``export`` writes the stage files of one
run, and ``repro --export`` the graph stages of each builtin replay.
Exit codes: 0 success / expectations met; 1 semantic negative (decision false,
expectation failed, bound violated); 2 input error; 3 a ``ResourceCapError``
(the oracle's variable cap, or a fuzz worker process killed) or out of memory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import export as ex
from . import harness
from .errors import FormulaParseError, ResourceCapError, TwoMaxSatError
from .formula import parse_cnf
from .oracle import DEFAULT_VARIABLE_CAP, oracle_max_sat
from .pipeline import run_pipeline
from .report import report_text

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXPORT_CHUNK = 1 << 20  # characters encoded and written at a time


def _read_formula(path: str):
    if path == "-":
        return parse_cnf(sys.stdin.read())
    return parse_cnf(Path(path).read_text())


def _emit(payload: dict) -> None:
    sys.stdout.write(ex.dumps(payload))


def cmd_oracle(args: argparse.Namespace) -> int:
    f = _read_formula(args.formula)
    result = oracle_max_sat(f, args.var_cap)
    answer = {"max_count": result.max_count, "witness": result.witness.named(f.variables)}
    if args.k is None:
        _emit({**answer, "assignments_tried": result.assignments_tried})
        return EXIT_OK
    ok = result.max_count >= args.k
    _emit({"k": args.k, "satisfiable_at_k": ok, **answer})
    return EXIT_OK if ok else EXIT_NEGATIVE


def _out_dir(path: str | Path) -> Path:
    """Create an export directory up front, so an unusable path fails before any work."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_exports(run, stages: tuple[str, ...], fmt: str, out: Path) -> list[str]:
    written = []
    for stage in stages:
        path = out / f"{stage}.{ex.stage_suffix(stage, fmt)}"
        text = ex.export_stage(run, stage, fmt)
        with path.open("w") as fh:
            for start in range(0, len(text), EXPORT_CHUNK):
                fh.write(text[start : start + EXPORT_CHUNK])
        written.append(str(path))
    return written


def cmd_pipeline(args: argparse.Namespace) -> int:
    f = _read_formula(args.formula)
    run = run_pipeline(f, ordering=args.ordering, algorithm=args.algorithm)
    _emit(ex.answer_json(run))
    return EXIT_OK


def cmd_repro(args: argparse.Namespace) -> int:
    if args.name == "all":
        specs = harness.builtin_counterexamples()
    else:
        specs = [harness.builtin_by_name(args.name)]
    outs: list[list[Path]] = [[] for _ in specs]  # per spec, one directory per algorithm
    if args.export:
        root = Path(args.export)
        outs = [
            [_out_dir(root / f"{spec.name}-alg{algorithm}") for algorithm in spec.algorithms]
            for spec in specs
        ]
    reports = []
    for spec, spec_outs in zip(specs, outs):
        report, runs = harness.replay_counterexample(spec)
        reports.append(report)
        for run, out in zip(runs, spec_outs):
            _write_exports(run, ex.GRAPH_STAGES, "dot", out)
    all_ok = all(report["ok"] for report in reports)
    _emit({"reports": reports, "ok": all_ok})
    return EXIT_OK if all_ok else EXIT_NEGATIVE


def cmd_fuzz(args: argparse.Namespace) -> int:
    params = harness.FuzzParams(
        max_n0=args.max_n0,
        max_m0=args.max_m0,
        orderings_per_formula=args.orderings,
        algorithms=args.algorithms,
        variable_cap=args.var_cap,
    )
    if args.report:  # an unusable path fails here, before any work
        fresh = not os.path.exists(args.report)
        open(args.report, "a").close()  # appending truncates no old report
        if fresh:
            os.remove(args.report)  # and a failed campaign leaves no empty one
    mismatches = harness.fuzz(args.seed, args.iters, params)
    if args.shrink:
        mismatches = [harness.shrink(m, params.variable_cap) for m in mismatches]
    text = report_text(args.seed, args.iters, mismatches)
    if args.report:
        Path(args.report).write_text(text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    f = _read_formula(args.formula)
    report = harness.audit_bounds(f, ordering=args.ordering, algorithm=args.algorithm)
    _emit(report.to_dict())
    return EXIT_OK if report.all_pass else EXIT_NEGATIVE


def cmd_export(args: argparse.Namespace) -> int:
    f = _read_formula(args.formula)
    out = _out_dir(args.out)
    run = run_pipeline(f, ordering=args.ordering, algorithm=args.algorithm)
    written = _write_exports(run, args.stages, args.format, out)
    _emit({"exports": written})
    return EXIT_OK


def _integer(what: str, least: float):
    """A parser for a plain ASCII decimal integer of at least `least`, signed only
    when `least` is negative (int() alone takes "1_0", "+7" and other digits)."""

    def parse(raw: str) -> int:
        digits = raw.removeprefix("-") if least < 0 else raw
        if not (digits.isascii() and digits.isdigit()) or int(raw) < least:
            raise argparse.ArgumentTypeError(f"expected {what}, got {raw!r}")
        return int(raw)

    return parse


def _algorithm(raw: str) -> int:
    if raw.strip() not in ("1", "3"):
        raise argparse.ArgumentTypeError(f"expected 1 or 3, got {raw!r}")
    return int(raw)


def _comma_list(what: str, choices: tuple[str, ...], convert=str):
    """A parser for a comma list of `choices`, each named at most once; an
    empty list or entry names no choice, so it is rejected too."""

    def parse(raw: str) -> tuple:
        parts = [part.strip() for part in raw.split(",")]
        if not set(parts) <= set(choices) or len(set(parts)) < len(parts):
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of {what}, each at most once, got {raw!r}"
            )
        return tuple(map(convert, parts))

    return parse


# built once: a parser built per call would sit in argparse's reference cycles
_int = _integer("an integer", float("-inf"))
_non_negative_int = _integer("a non-negative integer", 0)
_positive_int = _integer("a positive integer", 1)
_algorithm_list = _comma_list("1 and 3", ("1", "3"), int)
_stage_list = _comma_list(f"stages from {', '.join(ex.STAGES)}", ex.STAGES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twomaxsat",
        description="2-MAXSAT trie-like-graph pipeline, exact oracle, and refutation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # option groups shared by several subcommands, each declared once
    run_opts = argparse.ArgumentParser(add_help=False)
    run_opts.add_argument("formula")
    run_opts.add_argument("--ordering", default="frequency",
                          help="'frequency', 'lexical', or an explicit spec like 'y1>y2>v1'")
    run_opts.add_argument("--algorithm", type=_algorithm, default=1, help="1 or 3")
    cap_opts = argparse.ArgumentParser(add_help=False)
    cap_opts.add_argument("--var-cap", type=_non_negative_int, default=DEFAULT_VARIABLE_CAP)

    p = sub.add_parser("oracle", parents=[cap_opts],
                       help="exact 2-MAXSAT by exhaustive enumeration")
    p.add_argument("formula", help="DIMACS-like file ('-' for stdin)")
    p.add_argument("--k", type=_positive_int, default=None, help="decision threshold")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("pipeline", parents=[run_opts],
                       help="run conversion steps 1-10 and report the claimed maximum")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("repro", help="replay builtin counterexamples")
    p.add_argument("name", help="running | ce1 | ce2 | ce3 | family(N) | all")
    p.add_argument("--export", default=None, help="directory for stage exports")
    p.set_defaults(func=cmd_repro)

    defaults = harness.FuzzParams()
    p = sub.add_parser("fuzz", parents=[cap_opts],
                       help="differential-test random formulas against the oracle")
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--iters", type=_non_negative_int, default=100)
    p.add_argument("--max-n0", type=_positive_int, default=defaults.max_n0)
    p.add_argument("--max-m0", type=_positive_int, default=defaults.max_m0)
    p.add_argument("--orderings", type=_positive_int, default=defaults.orderings_per_formula)
    p.add_argument("--algorithms", type=_algorithm_list, default=defaults.algorithms,
                   help="comma-separated, each 1 or 3 (default "
                   + ",".join(map(str, defaults.algorithms)) + ")")
    p.add_argument("--shrink", action="store_true", help="minimize each mismatch")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("audit", parents=[run_opts],
                       help="measure structure sizes against the proved bounds")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("export", parents=[run_opts],
                       help="write stage exports for a pipeline run")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", default="exports")
    p.add_argument("--stages", type=_stage_list, default=",".join(ex.GRAPH_STAGES))
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # a missing or unusable input or output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FormulaParseError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("resource cap: out of memory", file=sys.stderr)
        return EXIT_CAP
    except TwoMaxSatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
