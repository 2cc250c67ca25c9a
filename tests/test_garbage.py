"""No run leaves reference cycles behind for the cyclic collector."""

from __future__ import annotations

import gc
import types

from tests.conftest import seed1_formula
from twomaxsat import cli
from twomaxsat.export import STAGES, export_stage
from twomaxsat.harness import audit_bounds, fuzz, shrink
from twomaxsat.pipeline import run_pipeline


def _from_twomaxsat(obj) -> bool:
    if isinstance(obj, types.FunctionType):
        return obj.__module__.startswith("twomaxsat")
    return type(obj).__module__.startswith("twomaxsat")


def test_runs_leave_no_twomaxsat_cycles(tmp_path, capsys):
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.collect()
    gc.garbage.clear()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        mismatches = fuzz(3, 20)
        run = run_pipeline(seed1_formula(8))
        assert run.answer.per_subgraph
        for stage in STAGES:
            for fmt in ("dot", "json"):
                export_stage(run, stage, fmt)
        shrink(mismatches[0])
        audit_bounds(seed1_formula(8))
        assert cli.main(["repro", "all", "--export", str(tmp_path)]) == cli.EXIT_NEGATIVE
        assert cli.main(["fuzz", "--seed", "3", "--iters", "5", "--shrink"]) == cli.EXIT_OK
        capsys.readouterr()
        del run, mismatches
        gc.collect()
        left = [obj for obj in gc.garbage if _from_twomaxsat(obj)]
        assert not left, f"{len(left)} twomaxsat objects in cycles, e.g. {left[:5]!r}"
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
