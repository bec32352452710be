"""The CLI's behaviour contract: every command and format, and the documented errors, against checked-in output.

Each case runs `main` in-process on the fixed inputs in `golden/inputs` (as the working directory, so the
paths printed are the short ones given) and compares its exit code, stdout and stderr with
`golden/expected`. Tables and error messages must match byte for byte. JSON and CSV output (and the one
number `distance` prints) must match byte for byte with every number masked, and each number within 1e-12
relative, as the last bits of `rfft` and a BLAS dot may differ between numpy builds.

Regenerate the expected files with ``PYTHONPATH=src python tests/test_golden.py``; a regeneration is a
change of the contract and needs its reason stated with the change.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from loadspace.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS, EXPECTED = GOLDEN / "inputs", GOLDEN / "expected"

# name -> argv; a name ending in "_json" or "_csv" (and `distance`, `plotdata`) prints numbers compared within 1e-12
CASES = {
    "decompose_table": ["decompose", "week.csv", "--nmax", "12"],
    "decompose_json": ["decompose", "week.csv", "--nmax", "12", "--format", "json"],
    "decompose_csv": ["decompose", "week.csv", "--nmax", "12", "--format", "csv"],
    "decompose_constant_table": ["decompose", "constant.csv", "--nmax", "3"],
    "decompose_constant_json": ["decompose", "constant.csv", "--nmax", "3", "--format", "json"],
    "decompose_constant_csv": ["decompose", "constant.csv", "--nmax", "3", "--format", "csv"],
    "bill_flat_table": ["bill", "week.csv", "flat.json"],
    "bill_flat_json": ["bill", "week.csv", "flat.json", "--format", "json"],
    "bill_spot_table": ["bill", "week.csv", "spot.json"],
    "bill_spot_json": ["bill", "week.csv", "spot.json", "--format", "json"],
    "bill_dynamism_table": ["bill", "week.csv", "dyn.json", "--nmax", "10"],
    "bill_dynamism_json": ["bill", "week.csv", "dyn.json", "--nmax", "10", "--format", "json"],
    "bill_supply_table": ["bill", "week.csv", "dyn.json", "--supply", "supply.csv", "--nmax", "10"],
    "bill_supply_json": ["bill", "week.csv", "dyn.json", "--supply", "supply.csv", "--nmax", "10", "--format", "json"],
    "compare_table": ["compare", "week.csv", "flat.json", "dyn.json", "--nmax", "10"],
    "compare_json": ["compare", "week.csv", "spot.json", "dyn.json", "--nmax", "10", "--format", "json"],
    "calibrate_table": ["calibrate", "manifest.csv", "--nmax", "2"],
    "calibrate_json": ["calibrate", "manifest.csv", "--nmax", "2", "--format", "json"],
    "distance": ["distance", "week.csv", "supply.csv"],
    "scenarios_table": ["scenarios"],
    "scenarios_json": ["scenarios", "--format", "json"],
    "plotdata_curve": ["plotdata", "day0.csv", "--what", "curve"],
    "plotdata_spectrum": ["plotdata", "week.csv", "--what", "spectrum", "--nmax", "6"],
    "plotdata_pff": ["plotdata", "plan1", "--what", "pff", "--fmax", "20", "--fstep", "1.5"],
    # documented errors: exit 2 for a malformed input file, exit 3 for a violated precondition
    "error_missing_profile": ["decompose", "absent.csv", "--nmax", "2"],
    "error_profile_walk": ["decompose", "walk.csv", "--nmax", "2"],
    "error_unknown_plan_kind": ["bill", "week.csv", "odd.json"],
    "error_pff_of_flat_plan": ["plotdata", "flat.json", "--what", "pff"],
    "error_too_few_samples": ["decompose", "week.csv", "--nmax", "100"],
    "error_spot_interval": ["bill", "week.csv", "spot-day.json"],
    "error_spot_overflow": ["bill", "big.csv", "spot6.json", "--format", "json"],
    "error_dynamism_overflow": ["bill", "huge.csv", "dear-dyn.json", "--nmax", "2", "--format", "json"],
    "error_compare_difference": ["compare", "mixed.csv", "spot-a.json", "spot-b.json"],
    "error_underdetermined": ["calibrate", "manifest4.csv", "--nmax", "2"],
}

_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN")


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(INPUTS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _exact(name: str) -> bool:
    return not (name.endswith(("_json", "_csv")) or name in ("distance",) or name.startswith("plotdata"))


def _expected(name: str) -> tuple[int, str, str]:
    status = json.loads((EXPECTED / "status.json").read_text())[name]
    return status["exit"], (EXPECTED / f"{name}.stdout").read_text(), status["stderr"]


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden(name):
    code, out, err = _run(CASES[name])
    want_code, want_out, want_err = _expected(name)
    assert (code, err) == (want_code, want_err)
    if _exact(name):
        assert out == want_out
        return
    assert _NUMBER.sub("#", out) == _NUMBER.sub("#", want_out)
    for got, want in zip(_NUMBER.findall(out), _NUMBER.findall(want_out)):
        assert abs(float(got) - float(want)) <= 1e-12 * abs(float(want)), (got, want)


def regenerate() -> None:
    EXPECTED.mkdir(exist_ok=True)
    status = {}
    for name, argv in CASES.items():
        code, out, err = _run(argv)
        (EXPECTED / f"{name}.stdout").write_text(out)
        status[name] = {"argv": argv, "exit": code, "stderr": err}
    (EXPECTED / "status.json").write_text(json.dumps(status, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
