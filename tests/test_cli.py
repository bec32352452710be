"""Command line behaviour: happy paths, formats, exit codes."""
from __future__ import annotations

import contextlib
import csv
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from loadspace import (
    AnalyticCurve,
    Harmonic,
    Interval,
    SampledCurve,
    SpotPlan,
    analyze,
    builtin_plans,
    dynamism_payment,
    sample,
    spot_payment,
    to_mu_vector,
)
from loadspace.cli import _curve_csv, _print_json, main
from loadspace.scenarios import ScenarioCheck, ScenarioReport

from conftest import UNIT

L1_TOTAL = 1769.0308998699195


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_profile(path, curve, n: int) -> str:
    sc = sample(curve, n)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "power"])
        for t, v in zip(sc.times(), sc.values):
            w.writerow([repr(float(t)), repr(float(v))])
    return str(path)


def write_rows(path, rows) -> str:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


def write_plan(path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


PLAN1_JSON = {
    "kind": "dynamism",
    "alpha0": 20.0,
    "alpha": {"base": 20.0, "cutoff": 10.0, "slope": 3.0},
    "beta": {"base": 20.0, "cutoff": 10.0, "slope": 3.0},
}


@pytest.fixture
def l1_profile(tmp_path, l1):
    return write_profile(tmp_path / "l1.csv", l1, 4001)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_json(capsys, l1_profile):
    code, out, _ = run_cli(capsys, "decompose", l1_profile, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["a0"] == pytest.approx(100.0, rel=1e-9)
    assert [h["order"] for h in doc["harmonics"]] == [5, 20, 100]
    assert doc["harmonics"][0]["b"] == pytest.approx(20.0, rel=1e-9)
    assert doc["harmonics"][2]["f"] == pytest.approx(100.0, rel=1e-12)
    assert doc["parseval_ratio"] == pytest.approx(1.0, rel=1e-9)


def test_decompose_table(capsys, l1_profile):
    code, out, _ = run_cli(capsys, "decompose", l1_profile)
    assert code == 0
    assert "a0 = 100" in out
    assert "order" in out and "parseval" in out


def test_decompose_csv(capsys, l1_profile):
    code, out, _ = run_cli(capsys, "decompose", l1_profile, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["order", "f", "a", "b"]
    assert rows[1][0] == "0"
    assert float(rows[1][2]) == pytest.approx(100.0, rel=1e-9)
    assert len(rows) == 1 + 1 + 3  # header, order 0, three harmonics


def test_decompose_drop_tol_prunes_small_harmonics(capsys, l1_profile):
    code, out, _ = run_cli(
        capsys, "decompose", l1_profile, "--format", "json", "--drop-tol", "7.0"
    )
    assert code == 0
    doc = json.loads(out)
    assert [h["order"] for h in doc["harmonics"]] == [5, 20]


@pytest.mark.parametrize("drop_tol", ["nan", "inf", "-1"])
def test_decompose_rejects_non_finite_or_negative_drop_tol(capsys, l1_profile, drop_tol):
    code, out, err = run_cli(capsys, "decompose", l1_profile, f"--drop-tol={drop_tol}")
    assert code == 3
    assert out == "" and "drop_tol" in err


def test_decompose_of_large_finite_values_does_not_overflow(capsys, tmp_path):
    profile = write_rows(tmp_path / "big.csv", [["t", "power"], *([t, "1e200"] for t in range(5))])
    code, out, err = run_cli(capsys, "decompose", profile, "--nmax", "1")
    assert code == 0 and err == ""
    assert out.endswith("parseval energy inf / norm^2 inf = 1\n")
    code, out, _ = run_cli(capsys, "decompose", profile, "--nmax", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["parseval_ratio"] == pytest.approx(1.0, rel=1e-15)


def test_decompose_of_large_finite_harmonics_does_not_overflow(capsys, tmp_path):
    rows = [["t", "power"], *([t, repr(1e200 * (1 + t % 3))] for t in range(9))]
    profile = write_rows(tmp_path / "big.csv", rows)
    code, out, err = run_cli(capsys, "decompose", profile, "--nmax", "3")
    assert code == 0 and err == ""
    assert out.endswith("parseval energy inf / norm^2 inf = 0.972973\n")


def test_decompose_rejects_unresolvable_nmax(capsys, tmp_path, l1):
    path = write_profile(tmp_path / "short.csv", l1, 40)
    code, _, err = run_cli(capsys, "decompose", path, "--nmax", "100")
    assert code == 3
    assert "insufficient samples" in err


# ---------------------------------------------------------------------------
# profile parsing failures
# ---------------------------------------------------------------------------

def test_profile_too_few_rows(capsys, tmp_path):
    path = write_rows(tmp_path / "p.csv", [["t", "power"], ["0.0", "1.0"]])
    code, _, err = run_cli(capsys, "decompose", path)
    assert code == 2
    assert "at least 2 data rows" in err


def test_profile_bad_header(capsys, tmp_path):
    path = write_rows(tmp_path / "p.csv", [["time", "kw"], ["0", "1"], ["1", "2"]])
    code, _, err = run_cli(capsys, "decompose", path)
    assert code == 2
    assert "expected header 't,power'" in err


def test_profile_bad_number_reports_line(capsys, tmp_path):
    path = write_rows(tmp_path / "p.csv", [["t", "power"], ["0.0", "1.0"], ["0.5", "oops"]])
    code, _, err = run_cli(capsys, "decompose", path)
    assert code == 2
    assert "line 3" in err


def test_profile_nonuniform_spacing(capsys, tmp_path):
    path = write_rows(
        tmp_path / "p.csv",
        [["t", "power"], ["0.0", "1"], ["0.4", "1"], ["1.0", "1"]],
    )
    code, _, err = run_cli(capsys, "decompose", path)
    assert code == 2
    assert "uniformly spaced" in err


def test_profile_nonincreasing_time(capsys, tmp_path):
    path = write_rows(
        tmp_path / "p.csv",
        [["t", "power"], ["0.0", "1"], ["0.5", "1"], ["0.5", "1"]],
    )
    code, _, err = run_cli(capsys, "decompose", path)
    assert code == 2
    assert "strictly increasing" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "decompose", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "nope.csv" in err


# ---------------------------------------------------------------------------
# bill and compare
# ---------------------------------------------------------------------------

def test_bill_flat(capsys, tmp_path, l1_profile):
    plan = write_plan(tmp_path / "flat.json", {"kind": "flat", "unit_price": 20.0})
    code, out, _ = run_cli(capsys, "bill", l1_profile, plan, "--format", "json")
    assert code == 0
    assert json.loads(out)["payment"] == pytest.approx(1000.0, rel=1e-9)


def test_bill_dynamism_matches_reference_total(capsys, tmp_path, l1_profile):
    plan = write_plan(tmp_path / "plan1.json", PLAN1_JSON)
    code, out, _ = run_cli(capsys, "bill", l1_profile, plan, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "dynamism"
    assert doc["payment"] == pytest.approx(L1_TOTAL, abs=1e-6)
    bill = doc["bill"]
    assert bill["total"] == bill["non_dynamic"] + bill["dynamic"]
    # sampled analysis leaves ~1e-13 residue in the other coefficient of a
    # kept harmonic, so count only the items that carry real energy
    major = [it for it in bill["line_items"] if abs(it["coefficient"]) > 1e-3]
    assert len(major) == 4


def test_bill_dynamism_table(capsys, tmp_path, l1_profile):
    plan = write_plan(tmp_path / "plan1.json", PLAN1_JSON)
    code, out, _ = run_cli(capsys, "bill", l1_profile, plan)
    assert code == 0
    assert "non-dynamic" in out and "line items:" in out


def test_bill_spot_matches_library(capsys, tmp_path, l1, l1_profile):
    doc = {"kind": "spot", "t1": 0.0, "t2": 1.0, "unit_prices": [10.0, 30.0]}
    plan = write_plan(tmp_path / "spot.json", doc)
    code, out, _ = run_cli(capsys, "bill", l1_profile, plan, "--format", "json")
    assert code == 0
    sampled = sample(l1, 4001)
    expected = spot_payment(SpotPlan(UNIT, (10.0, 30.0)), sampled)
    assert json.loads(out)["payment"] == pytest.approx(expected, rel=1e-12)


def test_bill_supply_flips_polarity(capsys, tmp_path, l1_profile):
    flipped = AnalyticCurve(
        UNIT,
        50.0,
        (Harmonic(5, 0.0, 20.0), Harmonic(20, -10.0, 0.0), Harmonic(100, 0.0, 5.0)),
    )
    supply = write_profile(tmp_path / "supply.csv", flipped, 4001)
    plan = write_plan(tmp_path / "plan1.json", PLAN1_JSON)
    code, out, _ = run_cli(
        capsys, "bill", l1_profile, plan, "--supply", supply, "--format", "json"
    )
    assert code == 0
    a20_price = 20.0 + 3.0 * np.log10(20.0)
    expected = L1_TOTAL - 2.0 * 10.0 * a20_price
    assert json.loads(out)["payment"] == pytest.approx(expected, abs=1e-6)


def test_bill_rejects_builtin_plan_tokens(capsys, l1_profile):
    # builtin plan names are a plotdata convenience, not a billing input
    code, _, err = run_cli(capsys, "bill", l1_profile, "plan1")
    assert code == 2
    assert "plan1" in err


def test_bill_bad_plan_json(capsys, tmp_path, l1_profile):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "bill", l1_profile, str(bad))
    assert code == 2
    assert "invalid JSON" in err


def test_bill_unknown_plan_kind(capsys, tmp_path, l1_profile):
    plan = write_plan(tmp_path / "p.json", {"kind": "mystery"})
    code, _, err = run_cli(capsys, "bill", l1_profile, plan)
    assert code == 2
    assert "unknown plan kind" in err


def test_bill_plan_missing_field(capsys, tmp_path, l1_profile):
    plan = write_plan(tmp_path / "p.json", {"kind": "flat"})
    code, _, err = run_cli(capsys, "bill", l1_profile, plan)
    assert code == 2
    assert "missing plan field" in err


def test_bill_plan_negative_spot_price(capsys, tmp_path, l1_profile):
    doc = {"kind": "spot", "t1": 0.0, "t2": 1.0, "unit_prices": [10.0, -3.0]}
    plan = write_plan(tmp_path / "p.json", doc)
    code, _, err = run_cli(capsys, "bill", l1_profile, plan)
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize(
    "prices, message",
    [
        ([10.0, "cheap"], "could not convert string to float: 'cheap'"),
        ([10.0, None], "float() argument must be a string or a real number, not 'NoneType'"),
        (10.0, "'float' object is not iterable"),
    ],
)
def test_bill_plan_bad_spot_prices(capsys, tmp_path, l1_profile, prices, message):
    doc = {"kind": "spot", "t1": 0.0, "t2": 1.0, "unit_prices": prices}
    plan = write_plan(tmp_path / "p.json", doc)
    code, out, err = run_cli(capsys, "bill", l1_profile, plan)
    assert code == 2
    assert out == "" and err == f"error: {plan}: {message}\n"


@pytest.mark.parametrize("prices", ["12", True, [True, 2.0], {"10": 1.0}, [[10.0, 30.0]]], ids=repr)
def test_bill_plan_refuses_spot_prices_that_are_not_a_list_of_numbers(capsys, tmp_path, l1_profile, prices):
    doc = {"kind": "spot", "t1": 0.0, "t2": 1.0, "unit_prices": prices}
    plan = write_plan(tmp_path / "p.json", doc)
    code, out, err = run_cli(capsys, "bill", l1_profile, plan)
    assert code == 2
    assert out == "" and err.startswith(f"error: {plan}: spot prices must be ") and "real numbers" in err


def test_bill_spot_interval_mismatch(capsys, tmp_path, l1_profile):
    doc = {"kind": "spot", "t1": 0.0, "t2": 2.0, "unit_prices": [10.0, 30.0]}
    plan = write_plan(tmp_path / "p.json", doc)
    code, _, err = run_cli(capsys, "bill", l1_profile, plan)
    assert code == 3
    assert "partition" in err


def test_compare(capsys, tmp_path, l1_profile):
    a = write_plan(tmp_path / "a.json", {"kind": "flat", "unit_price": 20.0})
    b = write_plan(tmp_path / "b.json", {"kind": "flat", "unit_price": 10.0})
    code, out, _ = run_cli(capsys, "compare", l1_profile, a, b, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["difference"] == pytest.approx(500.0, rel=1e-9)
    assert [r["kind"] for r in doc["plans"]] == ["flat", "flat"]


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def _calibration_manifest(tmp_path, count: int):
    rng = np.random.default_rng(99)
    iota_true = rng.uniform(-2.0, 2.0, size=5)
    rows = [["profile", "cost"]]
    for i in range(count):
        harmonics = tuple(
            Harmonic(n, rng.uniform(-5, 5), rng.uniform(-5, 5)) for n in (1, 2)
        )
        load = AnalyticCurve(UNIT, rng.uniform(10, 50), harmonics)
        name = f"obs{i}.csv"
        write_profile(tmp_path / name, load, 64)
        mu = to_mu_vector(analyze(load, 2)).dense(5)
        rows.append([name, repr(float(mu @ iota_true))])
    manifest = write_rows(tmp_path / "manifest.csv", rows)
    return manifest, iota_true


def test_calibrate_recovers_characteristic(capsys, tmp_path):
    manifest, iota_true = _calibration_manifest(tmp_path, 6)
    code, out, _ = run_cli(
        capsys, "calibrate", manifest, "--nmax", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n_max"] == 2
    fitted = np.array([entry["value"] for entry in doc["iota"]])
    assert np.allclose(fitted, iota_true, atol=1e-6)
    assert [e["kind"] for e in doc["iota"]] == ["energy", "cos", "sin", "cos", "sin"]
    assert doc["iota"][3]["f"] == pytest.approx(2.0, rel=1e-12)
    assert doc["residuals"]["max_abs"] <= 1e-6


def test_calibrate_table_output(capsys, tmp_path):
    manifest, _ = _calibration_manifest(tmp_path, 6)
    code, out, _ = run_cli(capsys, "calibrate", manifest, "--nmax", "2")
    assert code == 0
    assert "cost characteristic" in out and "residual max" in out


def test_calibrate_underdetermined(capsys, tmp_path):
    manifest, _ = _calibration_manifest(tmp_path, 4)
    code, _, err = run_cli(capsys, "calibrate", manifest, "--nmax", "2")
    assert code == 3
    assert "underdetermined" in err


def test_calibrate_bad_manifest_header(capsys, tmp_path):
    manifest = write_rows(tmp_path / "m.csv", [["file", "price"], ["x.csv", "1"]])
    code, _, err = run_cli(capsys, "calibrate", manifest)
    assert code == 2
    assert "expected header 'profile,cost'" in err


def test_calibrate_analyzes_each_observation_once(capsys, tmp_path, monkeypatch):
    calls = []

    def counting(c, n_max, drop_tol=None):
        calls.append(n_max)
        return analyze(c, n_max, drop_tol)

    monkeypatch.setattr("loadspace.calibrate.analyze", counting)
    monkeypatch.setattr("loadspace.cli.analyze", counting)
    manifest, _ = _calibration_manifest(tmp_path, 7)
    code, _, _ = run_cli(capsys, "calibrate", manifest, "--nmax", "2")
    assert code == 0
    assert calls == [2] * 7


def _long_profiles_manifest(work, count: int) -> str:
    """A calibration manifest in `work` over `count` profiles of 4,001 random samples."""
    rng = np.random.default_rng(count)
    t = np.linspace(0.0, 1.0, 4001).tolist()
    work.mkdir()
    rows = [["profile", "cost"]]
    for i in range(count):
        write_rows(work / f"p{i}.csv", [["t", "power"], *zip(t, rng.uniform(5.0, 50.0, 4001).tolist())])
        rows.append([f"p{i}.csv", repr(rng.uniform(0.0, 100.0))])
    return write_rows(work / "manifest.csv", rows)


def _calibrate_peak(capsys, manifest: str) -> int:
    """tracemalloc peak of `calibrate --nmax 2` over a manifest."""
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, "calibrate", manifest, "--nmax", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_calibrate_holds_one_profile_at_a_time(capsys, tmp_path):
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    few, many = (_long_profiles_manifest(tmp_path / str(n), n) for n in (10, 40))
    run_cli(capsys, "calibrate", few, "--nmax", "2")  # one-time allocations (caches, lazy imports) out of the way
    # 30 more profiles may add their mu vectors and costs, not their 4,001 values each
    assert _calibrate_peak(capsys, many) - _calibrate_peak(capsys, few) < 5 * 4001 * 8


def test_calibrate_missing_referenced_profile(capsys, tmp_path):
    manifest = write_rows(
        tmp_path / "m.csv", [["profile", "cost"], ["ghost.csv", "1.0"]]
    )
    code, _, err = run_cli(capsys, "calibrate", manifest)
    assert code == 2
    assert "ghost.csv" in err


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_distance_of_profile_with_itself(capsys, l1_profile):
    code, out, _ = run_cli(capsys, "distance", l1_profile, l1_profile)
    assert code == 0
    assert out.strip() == "0.0"


def test_distance_interval_mismatch(capsys, tmp_path, l1):
    a = write_profile(tmp_path / "a.csv", l1, 101)
    b = write_profile(tmp_path / "b.csv", AnalyticCurve(Interval(0.0, 2.0), 5.0), 101)
    code, _, err = run_cli(capsys, "distance", a, b)
    assert code == 3
    assert "incompatible intervals" in err


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def test_scenarios_all(capsys):
    code, out, _ = run_cli(capsys, "scenarios")
    assert code == 0
    assert "scenario table1: PASS" in out
    assert "scenario case1: PASS" in out


def test_scenarios_json(capsys):
    code, out, _ = run_cli(capsys, "scenarios", "--which", "table1", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["name"] == "table1"
    assert reports[0]["passed"] is True


def test_scenarios_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "scenarios", "--format", "json")
    _, second, _ = run_cli(capsys, "scenarios", "--format", "json")
    assert first == second


def test_scenarios_failure_sets_exit_code(capsys, monkeypatch):
    check = ScenarioCheck(
        description="forced failure",
        provenance="reference",
        expected=1.0,
        actual=2.0,
        passed=False,
    )
    monkeypatch.setattr(
        "loadspace.cli.reproduce_table1",
        lambda: ScenarioReport("table1", (check,)),
    )
    code, out, _ = run_cli(capsys, "scenarios", "--which", "table1")
    assert code == 1
    assert "FAIL" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "loadspace", "scenarios", "--which", "table1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_a_reader_that_closes_the_pipe_ends_the_output_quietly():
    # 200,001 rows, far more than a pipe holds: the writer meets the closed pipe mid-output
    proc = subprocess.Popen(
        [sys.executable, "-m", "loadspace", "plotdata", "plan1", "--what", "pff", "--fmax", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"f,alpha,beta\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------

def _bill_of_2001_line_items() -> dict:
    """A dynamism bill at n_max 1000 (the energy line and 2,000 order lines), as `bill --format json` prints it."""
    values = np.random.default_rng(7).normal(50.0, 10.0, 2101)
    bill = dynamism_payment(builtin_plans()[0], analyze(SampledCurve(UNIT, values), 1000))
    assert len(bill.line_items) == 2001
    return {"kind": "dynamism", "payment": bill.total, "bill": bill.to_dict()}


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        {"empty": {}, "none": [], "nested": {"a": [1, [2, {"b": None}], {}], "c": [[]]}},
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e-320, 1.7976931348623157e308, True, False, None],
        {"Zürich": "¼ kWh ⚡", "\u2028": ["\x00\t\"\\"]},
        "just a string",
        pytest.param(_bill_of_2001_line_items(), id="bill-2001-lines"),
    ],
)
def test_print_json_prints_what_json_dumps_gives(capsys, payload):
    _print_json(payload)
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def test_print_json_builds_no_whole_document(capsys):
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    payload = _bill_of_2001_line_items()
    text = json.dumps(payload, indent=2)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        _print_json(payload)  # one-time allocations out of the way
        tracemalloc.start()
        try:
            _print_json(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # an ASCII string takes a byte a character: the whole text would take more than its length
    assert peak < len(text)


# ---------------------------------------------------------------------------
# plotdata
# ---------------------------------------------------------------------------

def test_plotdata_pff_builtin_plan(capsys):
    code, out, _ = run_cli(capsys, "plotdata", "plan1", "--what", "pff")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["f", "alpha", "beta"]
    table = {float(r[0]): (float(r[1]), float(r[2])) for r in rows[1:]}
    assert table[0.0] == (20.0, 20.0)
    assert table[100.0] == (26.0, 26.0)
    assert len(table) == 201  # f = 0..200 inclusive


def test_plotdata_pff_from_plan_file(capsys, tmp_path):
    plan = write_plan(tmp_path / "plan1.json", PLAN1_JSON)
    code, out, _ = run_cli(
        capsys, "plotdata", plan, "--what", "pff", "--fmax", "20", "--fstep", "5"
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert [float(r[0]) for r in rows[1:]] == [0.0, 5.0, 10.0, 15.0, 20.0]


def test_plotdata_pff_writes_file(tmp_path, capsys):
    out_path = tmp_path / "pff.csv"
    code, out, _ = run_cli(
        capsys, "plotdata", "plan2", "--what", "pff", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert rows[0] == ["f", "alpha", "beta"]


def test_plotdata_pff_rejects_flat_plan(capsys, tmp_path):
    plan = write_plan(tmp_path / "flat.json", {"kind": "flat", "unit_price": 5.0})
    code, _, err = run_cli(capsys, "plotdata", plan, "--what", "pff")
    assert code == 2
    assert "dynamism plan" in err


def test_plotdata_pff_rejects_zero_fstep(capsys):
    code, _, err = run_cli(capsys, "plotdata", "plan1", "--what", "pff", "--fstep", "0")
    assert code == 3
    assert "fstep" in err


@pytest.mark.parametrize("fmax, fstep, last, rows", [("1", "0.1", "1.0", 11), ("0.3", "0.1", "0.3", 4), ("0.35", "0.1", "0.30000000000000004", 4)])
def test_plotdata_pff_steps_by_index(capsys, fmax, fstep, last, rows):
    code, out, _ = run_cli(capsys, "plotdata", "plan1", "--what", "pff", "--fmax", fmax, "--fstep", fstep)
    assert code == 0
    table = list(csv.reader(out.splitlines()))[1:]
    assert len(table) == rows
    assert table[-1][0] == last
    assert table[1][0] == fstep


@pytest.mark.parametrize("option, value", [("--fstep", "nan"), ("--fstep", "inf"), ("--fmax", "nan"),
                                           ("--fmax", "inf"), ("--fmax", "-1")])
def test_plotdata_pff_rejects_non_finite_range(capsys, option, value):
    code, out, err = run_cli(capsys, "plotdata", "plan1", "--what", "pff", option, value)
    assert code == 3
    assert out == "" and option[2:] in err


def test_plotdata_curve_round_trips_profile(capsys, tmp_path, l1):
    path = write_profile(tmp_path / "l1.csv", l1, 51)
    code, out, _ = run_cli(capsys, "plotdata", path, "--what", "curve")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["t", "power"]
    assert len(rows) == 52
    sc = sample(l1, 51)
    assert float(rows[1][1]) == sc.values[0]


def test_plotdata_curve_output_is_unchanged(capsys, tmp_path):
    # the grid is printed, not the file's times: 0.3 and 0.7 come back as linspace gives them
    path = write_rows(tmp_path / "small.csv", [
        ["t", "power"], ["0.1", "5"], ["0.2", "-1.25"], ["0.3", "3.1"], ["0.4", "0.1"],
        ["0.5", "1e-3"], ["0.6", "7"], ["0.7", "2.5"], ["0.8", "-0.0"],
    ])
    out = tmp_path / "curve.csv"
    assert run_cli(capsys, "plotdata", path, "--what", "curve", "--out", str(out))[0] == 0
    assert out.read_bytes() == (
        b"t,power\n0.1,5.0\n0.2,-1.25\n0.30000000000000004,3.1\n0.4,0.1\n"
        b"0.5,0.001\n0.6,7.0\n0.7000000000000001,2.5\n0.8,-0.0\n"
    )


def test_plotdata_curve_streams_its_rows():
    rows = _curve_csv(SampledCurve(Interval(0.0, 1.0), np.arange(5.0)))
    assert iter(rows) is rows  # a generator: no row is built before it is written
    assert next(rows) == ["t", "power"]
    assert next(rows) == ["0.0", "0.0"]


def test_plotdata_spectrum(capsys, l1_profile):
    code, out, _ = run_cli(capsys, "plotdata", l1_profile, "--what", "spectrum")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["order", "f", "a", "b"]
    assert float(rows[1][2]) == pytest.approx(100.0, rel=1e-9)
    assert [int(r[0]) for r in rows[2:]] == [5, 20, 100]
