"""Command-line surface: subcommands, exit codes, flag parsing, exports."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import multiprocessing
import os
import re
from pathlib import Path

import pytest

from tests.conftest import fuzz_forks
from twomaxsat import cli
from twomaxsat.cli import build_parser, main
from twomaxsat.errors import TooManyVariablesError
from twomaxsat.export import STAGES, export_stage
from twomaxsat.formula import parse_cnf
from twomaxsat.harness import (
    CE1_DIMACS,
    CE2_DIMACS,
    CE3_DIMACS,
    RUNNING_DIMACS,
    FuzzParams,
    builtin_by_name,
    builtin_counterexamples,
    fuzz,
)
from twomaxsat.pipeline import run_pipeline


@pytest.fixture
def ce1_file(tmp_path):
    path = tmp_path / "ce1.cnf"
    path.write_text(CE1_DIMACS)
    return str(path)


@pytest.fixture
def running_file(tmp_path):
    path = tmp_path / "running.cnf"
    path.write_text(RUNNING_DIMACS)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_oracle_ce1(capsys, ce1_file):
    code, payload = _run(capsys, ["oracle", ce1_file])
    assert code == 0
    assert payload["max_count"] == 2
    assert payload["witness"] == {"v1": False}


def test_oracle_threshold_exit_codes(capsys, ce1_file):
    code, payload = _run(capsys, ["oracle", ce1_file, "--k", "2"])
    assert code == 0 and payload["satisfiable_at_k"] is True
    code, payload = _run(capsys, ["oracle", ce1_file, "--k", "3"])
    assert code == 1 and payload["satisfiable_at_k"] is False


def test_oracle_threshold_monotone(capsys, tmp_path):
    # once a threshold fails, every larger one fails too, up to 2·n0 + 1
    builtins = {"ce1": CE1_DIMACS, "ce2": CE2_DIMACS, "ce3": CE3_DIMACS, "running": RUNNING_DIMACS}
    for name, dimacs in builtins.items():
        path = tmp_path / f"{name}.cnf"
        path.write_text(dimacs)
        codes = [
            _run(capsys, ["oracle", str(path), "--k", str(k)])[0]
            for k in range(1, 2 * parse_cnf(dimacs).n0 + 2)
        ]
        assert codes == sorted(codes) and set(codes) <= {0, 1}, (name, codes)


@pytest.mark.parametrize("k", ["0", "-3", "x", "³"])
def test_oracle_nonpositive_k_exit_2(capsys, ce1_file, k):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", ce1_file, "--k", k])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


def test_oracle_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(CE1_DIMACS))
    code, payload = _run(capsys, ["oracle", "-"])
    assert code == 0 and payload["max_count"] == 2


def test_oracle_running(capsys, running_file):
    code, payload = _run(capsys, ["oracle", running_file])
    assert code == 0 and payload["max_count"] == 2


def test_oracle_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf x y\n")
    assert main(["oracle", str(bad)]) == 2
    assert main(["oracle", str(tmp_path / "missing.cnf")]) == 2
    assert main(["oracle", str(tmp_path)]) == 2  # a directory
    undecodable = tmp_path / "undecodable.cnf"
    undecodable.write_bytes(b"\xff\xfe")
    assert main(["oracle", str(undecodable)]) == 2
    # UTF-8 text whose tokens a Unicode space separates or ends
    for space in ("1\u20030", "1 0\u3000"):
        bad.write_text(f"p cnf 1 1\n{space}\n", encoding="utf-8")
        assert main(["oracle", str(bad)]) == 2


def test_oracle_cap_exit_3(capsys, running_file):
    assert main(["oracle", running_file, "--var-cap", "2"]) == 3


def test_pipeline_ce1(capsys, ce1_file):
    code, payload = _run(
        capsys, ["pipeline", ce1_file, "--ordering", "y1>y2>v1", "--algorithm", "1"]
    )
    assert code == 0
    assert payload["max_count"] == 3
    assert payload["mode"] == "alg1"
    assert payload["ordering"] == "y1>y2>v1"
    code, payload = _run(
        capsys, ["pipeline", ce1_file, "--ordering", "y1>y2>v1", "--algorithm", "3"]
    )
    assert code == 0 and payload["max_count"] == 3


def test_pipeline_running_default_ordering(capsys, running_file):
    code, payload = _run(capsys, ["pipeline", running_file, "--algorithm", "1"])
    assert code == 0 and payload["max_count"] == 2


def test_pipeline_has_no_export_options(capsys, ce1_file):
    # export is the one command that writes stage files
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", ce1_file, "--export", "trie"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --export trie" in capsys.readouterr().err
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    pipeline = subparsers.choices["pipeline"]
    assert [a.dest for a in pipeline._actions] == ["help", "formula", "ordering", "algorithm"]


def test_export_writes_stages(capsys, tmp_path, ce1_file):
    out = tmp_path / "stages"
    code, payload = _run(
        capsys,
        [
            "export",
            ce1_file,
            "--ordering",
            "y1>y2>v1",
            "--stages",
            "trie,layered",
            "--out",
            str(out),
        ],
    )
    assert code == 0
    assert payload == {"exports": [str(out / "trie.dot"), str(out / "layered.dot")]}
    assert (out / "trie.dot").exists()
    assert (out / "layered.dot").exists()


def test_export_determinism(capsys, tmp_path, ce1_file):
    texts = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        code, _ = _run(
            capsys,
            [
                "export",
                ce1_file,
                "--ordering",
                "y1>y2>v1",
                "--stages",
                "trie,trielike,layered,answer",
                "--out",
                str(out),
            ],
        )
        assert code == 0
        texts.append(
            tuple((out / name).read_bytes() for name in
                  ("trie.dot", "trielike.dot", "layered.dot", "answer.json"))
        )
    assert texts[0] == texts[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["export", "{formula}", "--stages", "bogus", "--out", "{out}"],
        # a repeated stage would be written and listed twice
        ["export", "{formula}", "--stages", "trie, trie", "--out", "{out}"],
        # an empty list or entry would write nothing, or less than was asked
        ["export", "{formula}", "--stages", "", "--out", "{out}"],
        ["export", "{formula}", "--stages", ",", "--out", "{out}"],
        ["export", "{formula}", "--stages", "trie,", "--out", "{out}"],
    ],
)
def test_unknown_stage_exit_2_writes_nothing(capsys, tmp_path, ce1_file, argv):
    out = tmp_path / "stages"
    with pytest.raises(SystemExit) as exc:
        main([arg.format(formula=ce1_file, out=out) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"got {argv[3]!r}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", "--iters", "1", "--report", "{directory}"],
        ["export", "{formula}", "--out", "{file}"],
        ["repro", "ce1", "--export", "{file}"],
    ],
)
def test_unusable_output_path_exit_2(capsys, monkeypatch, tmp_path, ce1_file, argv):
    # the path is checked before any work: no campaign, pipeline or replay runs
    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before the output path was checked")

    monkeypatch.setattr(cli.harness, "fuzz", refuse)
    monkeypatch.setattr(cli.harness, "replay_counterexample", refuse)
    monkeypatch.setattr(cli, "run_pipeline", refuse)
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main([arg.format(directory=tmp_path, file=taken, formula=ce1_file) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_repro_single(capsys, tmp_path):
    assert main(["repro", "ce1"]) == 0
    capsys.readouterr()
    assert main(["repro", "running"]) == 0
    capsys.readouterr()
    assert main(["repro", "nonsense"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # an input error like any other: prefixed, and no KeyError repr's quotes
    assert captured.err == "error: unknown builtin counterexample 'nonsense'\n"
    for name, err in (
        ("family(1)", "family(N) needs N in 2..12, got 1"),
        ("family(13)", "family(N) needs N in 2..12, got 13"),
        ("family(x)", "family(N) needs an integer N in 2..12, got 'family(x)'"),
    ):
        assert main(["repro", name]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        # the message names the case and the accepted range, not int()'s complaint
        assert captured.err == f"error: {err}\n", name


def test_repro_export_writes_each_algorithms_stages(capsys, tmp_path):
    assert main(["repro", "ce1", "--export", str(tmp_path)]) == 0
    capsys.readouterr()
    spec = builtin_by_name("ce1")
    for algorithm in (1, 3):
        run = run_pipeline(parse_cnf(spec.dimacs), ordering=spec.ordering, algorithm=algorithm)
        out = tmp_path / f"ce1-alg{algorithm}"
        assert sorted(p.name for p in out.iterdir()) == [
            "answer.json", "layered.dot", "trie.dot", "trielike.dot"
        ]
        for stage in ("trie", "trielike", "layered", "answer"):
            path = out / f"{stage}.{'json' if stage == 'answer' else 'dot'}"
            assert path.read_bytes() == export_stage(run, stage, "dot").encode(), path


def test_written_exports_equal_export_stage_for_builtins(capsys, tmp_path, monkeypatch):
    # a slice size of 7 characters makes every file take several writes
    monkeypatch.setattr(cli, "EXPORT_CHUNK", 7)
    for spec in builtin_counterexamples():
        formula = tmp_path / "formula.cnf"
        formula.write_text(spec.dimacs)
        for algorithm in spec.algorithms:
            run = run_pipeline(parse_cnf(spec.dimacs), ordering=spec.ordering, algorithm=algorithm)
            for fmt in ("dot", "json"):
                out = tmp_path / f"{spec.name}-{algorithm}-{fmt}"
                argv = ["export", str(formula), "--ordering", spec.ordering,
                        "--algorithm", str(algorithm), "--stages", ",".join(STAGES),
                        "--format", fmt, "--out", str(out)]
                code, payload = _run(capsys, argv)
                assert code == 0 and len(payload["exports"]) == len(STAGES)
                for stage, path in zip(STAGES, payload["exports"]):
                    expected = export_stage(run, stage, fmt).encode()
                    assert Path(path).read_bytes() == expected, path


def test_repro_builds_one_front_end_per_spec(capsys, tmp_path, monkeypatch):
    from twomaxsat import harness, pipeline

    built = []
    original = pipeline.front_end

    def counting(f, ordering):
        built.append(ordering)
        return original(f, ordering)

    # run_pipeline looks front_end up in pipeline, the harness and the CLI in their own modules
    for module in (pipeline, harness, cli):
        if hasattr(module, "front_end"):
            monkeypatch.setattr(module, "front_end", counting)
    assert main(["repro", "ce1", "--export", str(tmp_path)]) == 0
    assert len(built) == 1
    built.clear()
    assert main(["repro", "all"]) == 1
    assert len(built) == 5
    capsys.readouterr()


def test_repro_all_reports_family_red(capsys):
    # the family expectation (n+1) does not reproduce (measured: 2n-1),
    # so the honest composition exits 1 while still printing all five reports
    code, payload = _run(capsys, ["repro", "all"])
    assert code == 1
    assert [r["name"] for r in payload["reports"]] == [
        "running",
        "ce1",
        "ce2",
        "ce3",
        "family(4)",
    ]
    by_name = {r["name"]: r for r in payload["reports"]}
    assert by_name["ce1"]["ok"] and by_name["ce2"]["ok"] and by_name["ce3"]["ok"]
    assert by_name["running"]["ok"]
    assert not by_name["family(4)"]["ok"]


def test_fuzz_zero_iters(capsys):
    code, payload = _run(capsys, ["fuzz", "--seed", "42", "--iters", "0"])
    assert code == 0
    assert payload["mismatches"] == [] and payload["mismatch_count"] == 0


def test_failed_fuzz_campaign_writes_no_report(capsys, tmp_path):
    # the campaign exits 3 at its first formula: an old report keeps its
    # bytes, and a new path is left without a file
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text('{"old": 1}')
    for path in (old, new):
        assert main(["fuzz", "--iters", "3", "--var-cap", "0", "--report", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("resource cap: ")
    assert old.read_text() == '{"old": 1}'
    assert not new.exists()


def test_fuzz_worker_cap_error_exits_3(capsys, monkeypatch):
    # with workers, only they call the oracle, so the error crosses the pool
    def refuse(f, cap):
        raise TooManyVariablesError("refused by the oracle")

    monkeypatch.setattr(cli.harness, "oracle_max_sat", refuse)
    assert main(["fuzz", "--iters", "4"]) == cli.EXIT_CAP
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "resource cap: refused by the oracle\n"
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not fuzz_forks(), reason="fuzz runs in-process: os._exit would end pytest")
def test_fuzz_killed_worker_exits_3(capsys, monkeypatch):
    # as when a signal or the kernel's out-of-memory killer ends a worker
    monkeypatch.setattr(cli.harness, "oracle_max_sat", lambda f, cap: os._exit(9))
    assert main(["fuzz", "--iters", "4"]) == cli.EXIT_CAP
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource cap: a fuzz worker process died: ")
    assert captured.err.count("\n") == 1
    assert multiprocessing.active_children() == []


def test_fuzz_report_deterministic(capsys, tmp_path):
    reports = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _ = _run(
            capsys,
            ["fuzz", "--seed", "5", "--iters", "15", "--report", str(path)],
        )
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


# Report digests recorded before the fuzz loop shared its front end (the
# --shrink one since shrinking keeps orderings tie-consistent); the bytes
# must not depend on how the loop is organised or on PYTHONHASHSEED.
PINNED_FUZZ_REPORTS = [
    (["--iters", "100"], 689, "692a38d2b18cc01791271e0ac35fc6eaeffaa13e49d370f03ca6385fdee25315"),
    (["--iters", "30", "--shrink"], 227, "f1657bf175fe250a7483b19ac6c9261851a7b737810f8ed20c14cf296e55adfc"),
]


@pytest.mark.parametrize("extra, count, digest", PINNED_FUZZ_REPORTS)
def test_fuzz_report_bytes_pinned(capsys, tmp_path, extra, count, digest):
    path = tmp_path / "report.json"
    code, payload = _run(capsys, ["fuzz", "--seed", "42", *extra, "--report", str(path)])
    assert code == 0 and payload["mismatch_count"] == count
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("raw, algorithms", [("1", (1,)), ("3, 1", (3, 1))])
def test_fuzz_algorithms_flag(capsys, raw, algorithms):
    code, payload = _run(capsys, ["fuzz", "--seed", "5", "--iters", "15", "--algorithms", raw])
    assert code == 0
    expected = fuzz(5, 15, FuzzParams(algorithms=algorithms))
    assert expected
    assert payload["mismatches"] == [m.to_dict() for m in expected]


@pytest.mark.parametrize(
    "bad",
    [
        ["--algorithms", "2"],
        ["--algorithms", "1,x"],
        ["--orderings", "0"],
        ["--max-n0", "0"],
        ["--max-m0", "-1"],
        ["--iters", "-3"],
        ["--var-cap", "-1"],
        ["--algorithms", "1,1"],
        ["--algorithms", ""],
        ["--algorithms", "1,"],
        ["--seed", "1_0"],  # int() would read 10
        ["--seed=+7"],
        ["--seed", "\uff17"],  # fullwidth 7
        ["--iters", "1.5"],
        ["--seed", "abc"],
    ],
)
def test_fuzz_rejects_bad_input_exit_2(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--iters", "1", *bad])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_fuzz_accepts_negative_seed(capsys):
    code, payload = _run(capsys, ["fuzz", "--seed", "-3", "--iters", "0"])
    assert code == 0 and payload["seed"] == -3


def test_fuzz_shrink_flag(capsys, tmp_path):
    path = tmp_path / "shrunk.json"
    code, payload = _run(
        capsys,
        [
            "fuzz",
            "--seed",
            "0",
            "--iters",
            "20",
            "--max-n0",
            "2",
            "--max-m0",
            "1",
            "--shrink",
            "--report",
            str(path),
        ],
    )
    assert code == 0
    assert payload["mismatch_count"] >= 1
    for m in payload["mismatches"]:
        assert m["pipeline_answer"] != m["oracle_answer"]


def test_audit_exit_codes(capsys, running_file):
    code, payload = _run(capsys, ["audit", running_file, "--ordering", "lexical"])
    assert code == 0
    assert payload["all_pass"] is True
    assert payload["worst_case_frame_216_n0^6"] == 216 * 2**6


def test_out_of_memory_exit_3(capsys, monkeypatch, running_file):
    from twomaxsat import pipeline

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(pipeline, "overlay_spans", exhausted)
    assert main(["audit", running_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource cap: out of memory\n"


def test_internal_error_is_not_a_cap(capsys, monkeypatch, running_file):
    # a RuntimeError other than a dead fuzz worker is a bug: it propagates, no exit 3
    from twomaxsat.errors import InternalError

    def broken(*args, **kwargs):
        raise InternalError("an invariant failed")

    monkeypatch.setattr(cli.harness, "audit_bounds", broken)
    with pytest.raises(InternalError, match="invariant"):
        main(["audit", running_file])
    assert capsys.readouterr().out == ""


def test_unknown_ordering_variable_exit_2(capsys, ce1_file):
    assert main(["pipeline", ce1_file, "--ordering", "y1>y2>v9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown variable name: v9\n"


def test_ce3_pipeline_value(capsys, tmp_path):
    path = tmp_path / "ce3.cnf"
    path.write_text(CE3_DIMACS)
    code, payload = _run(
        capsys, ["pipeline", str(path), "--ordering", "y2>y1>v1", "--algorithm", "1"]
    )
    assert code == 0 and payload["max_count"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", "{ce1}", "--algorithm", "2"],
        ["audit", "{ce1}", "--algorithm", "one"],
        ["export", "{ce1}", "--algorithm", "2"],
        ["oracle", "{ce1}", "--var-cap", "x"],
        ["oracle", "{ce1}", "--var-cap", "-1"],
    ],
)
def test_bad_flag_value_fails_its_subcommand_exit_2(capsys, ce1_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(ce1=ce1_file) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(argv[-1]) in captured.err


def test_maxsat_environment_is_ignored(capsys, monkeypatch, tmp_path, ce1_file):
    # values that once changed or failed these runs through MAXSAT_* variables
    stray = {"ALGORITHM": "3", "ORDERING": "lexical", "SEED": "abc", "ITERS": "-3", "VAR_CAP": "x"}
    commands = [
        ["oracle", ce1_file],
        ["pipeline", ce1_file],
        ["audit", ce1_file],
        ["export", ce1_file, "--out", str(tmp_path / "out")],
        ["fuzz", "--iters", "2"],
    ]

    def outcomes():
        results = []
        for argv in commands:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((argv[0], code, capsys.readouterr().out))
        return results

    for name in stray:
        monkeypatch.delenv(f"MAXSAT_{name}", raising=False)
    clean = outcomes()
    assert [code for _, code, _ in clean] == [0] * len(commands)
    for name, value in stray.items():
        monkeypatch.setenv(f"MAXSAT_{name}", value)
    assert outcomes() == clean


def test_readme_synopsis_names_every_long_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    # one entry per subcommand: its "twomaxsat NAME" line and the indented lines after it
    entries = {
        entry.split(None, 1)[0]: entry for entry in re.split(r"^twomaxsat ", block, flags=re.M)[1:]
    }
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(entries) == sorted(subparsers.choices)
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    assert re.search(re.escape(option) + r"(?![\w-])", entries[name]), (name, option)
