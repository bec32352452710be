"""Command line behaviour: happy paths, formats, exit codes."""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loadspace import (
    AnalyticCurve,
    Bill,
    CostCharacteristic,
    Harmonic,
    Interval,
    SampledCurve,
    Spectrum,
    SpotPlan,
    analyze,
    builtin_plans,
    dynamism_payment,
    sample,
    spot_payment,
    to_mu_vector,
)
from loadspace.cli import (
    _bill_json,
    _calibrate_json,
    _curve_csv,
    _decompose_json,
    _print_json,
    _Table,
    build_parser,
    main,
)
from loadspace.scenarios import ScenarioCheck, ScenarioReport

from conftest import UNIT, intervals

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


def test_decompose_of_a_profile_whose_sums_would_overflow_prints_finite_json(capsys, tmp_path):
    # 100 rows on [0, 1e308] alternating +-1e10: dt * v overflows, the coefficients do not, and the Parseval
    # energy and squared norm (about 1e328) are past the float range, which JSON prints as null, not Infinity
    # (--drop-tol 0: the default threshold, 1e-12 * norm, grows with sqrt(T0) and here would drop every order)
    def decompose(name, t2):
        rows = [[repr(i * (t2 / 99)), repr((-1) ** i * 1e10)] for i in range(100)]
        profile = write_rows(tmp_path / name, [["t", "power"], *rows])
        code, out, err = run_cli(capsys, "decompose", profile, "--nmax", "10", "--drop-tol", "0", "--format", "json")
        assert code == 0 and err == ""
        assert "NaN" not in out and "Infinity" not in out
        return json.loads(out)

    doc, unit = decompose("huge.csv", 1e308), decompose("unit.csv", 1.0)
    # with t1 = 0 the coefficients do not depend on T0: those of [0, 1] within one ulp of 2 max|v|
    ulp = math.ulp(2e10)
    assert abs(doc["a0"] - unit["a0"]) <= ulp and len(doc["harmonics"]) == len(unit["harmonics"]) == 10
    for h, u in zip(doc["harmonics"], unit["harmonics"]):
        assert h["order"] == u["order"] and abs(h["a"] - u["a"]) <= ulp and abs(h["b"] - u["b"]) <= ulp
    assert doc["parseval_energy"] is None and doc["norm_squared"] is None
    assert doc["parseval_ratio"] == pytest.approx(unit["parseval_ratio"], rel=1e-12)


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


@pytest.mark.parametrize(
    "times, line",
    [
        (["0", "nan", "2", "3", "4", "5"], 3),  # NaN compares false both to 0 and to the spacing tolerance
        ([repr(i * 1e308 / 99) for i in range(100)], 4),  # inf from i = 2, where inf - inf would warn
        (["0", "1", "2", "-inf"], 5),
    ],
)
def test_profile_non_finite_time_reports_line(capsys, tmp_path, times, line):
    # the pytest settings turn a RuntimeWarning into an error
    path = write_rows(tmp_path / "p.csv", [["t", "power"], *([t, "1"] for t in times)])
    code, out, err = run_cli(capsys, "decompose", path, "--nmax", "1")
    assert (code, out) == (2, "")
    assert f"p.csv, line {line}: time column must be finite" in err


@pytest.mark.parametrize(
    "times, message",
    [
        (["-1e308", "1e308"], "interval length must be finite"),  # the step and its gaps overflow
        (["0", "1e308", "1.7e308", "-1e308"], "p.csv, line 5: time column must be strictly increasing"),
    ],
)
def test_profile_times_whose_steps_overflow_are_refused_without_a_warning(capsys, tmp_path, times, message):
    # finite times whose differences pass the float range: the pytest settings turn a RuntimeWarning into an error
    path = write_rows(tmp_path / "p.csv", [["t", "power"], *([t, "1"] for t in times)])
    code, out, err = run_cli(capsys, "decompose", path, "--nmax", "1")
    assert (code, out) == (2, "")
    assert message in err


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


def test_bill_plan_that_is_not_an_object(capsys, tmp_path, l1_profile):
    plan = tmp_path / "p.json"
    plan.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "bill", l1_profile, str(plan))
    assert (code, out) == (2, "")
    assert err == f"error: {plan}: plan must be a JSON object\n"


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


def test_one_parser_gives_each_command_its_own_defaults(capsys, tmp_path, l1_profile):
    # the parser is built once per process, and no command's options carry into the next
    assert build_parser() is build_parser()
    code, out, _ = run_cli(capsys, "decompose", l1_profile, "--nmax", "3", "--drop-tol", "0.5", "--format", "json")
    assert code == 0 and json.loads(out)["n_max"] == 3
    flat = write_plan(tmp_path / "flat.json", {"kind": "flat", "unit_price": 20.0})
    code, out, _ = run_cli(capsys, "bill", l1_profile, flat)
    assert code == 0 and out.startswith("flat payment for ")  # the table, not the JSON asked of decompose
    code, out, _ = run_cli(capsys, "decompose", l1_profile, "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["n_max"] == 100 and len(doc["harmonics"]) == 3  # reference load 1's three orders


def test_bill_spot_interval_mismatch(capsys, tmp_path, l1_profile):
    doc = {"kind": "spot", "t1": 0.0, "t2": 2.0, "unit_prices": [10.0, 30.0]}
    plan = write_plan(tmp_path / "p.json", doc)
    code, _, err = run_cli(capsys, "bill", l1_profile, plan)
    assert code == 3
    assert "partition" in err


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_compare(capsys, tmp_path, l1_profile, fmt):
    a = write_plan(tmp_path / "a.json", {"kind": "flat", "unit_price": 20.0})
    b = write_plan(tmp_path / "b.json", {"kind": "flat", "unit_price": 10.0})
    code, out, _ = run_cli(capsys, "compare", l1_profile, a, b, "--format", fmt)
    assert code == 0
    if fmt == "table":
        assert out.splitlines() == [
            f"payments for {l1_profile}",
            f"  {a}  (flat): 1000",
            f"  {b}  (flat): 500",
            "  difference (first - second): 500",
        ]
        return
    doc = json.loads(out)
    assert doc["difference"] == pytest.approx(500.0, rel=1e-9)
    assert [r["kind"] for r in doc["plans"]] == ["flat", "flat"]


def _big_profile(tmp_path, values=(1e308,) * 6) -> str:
    """Samples near the float maximum on [0, 1]: six of 1e308 by default, whose plain trapezoid sum overflows."""
    rows = [[repr(i / (len(values) - 1)), repr(v)] for i, v in enumerate(values)]
    return write_rows(tmp_path / "big.csv", [["t", "power"], *rows])


def test_bill_near_the_float_maximum_prints_a_finite_payment(capsys, tmp_path):
    big = _big_profile(tmp_path)
    flat = write_plan(tmp_path / "flat.json", {"kind": "flat", "unit_price": 1.0})
    spot = write_plan(tmp_path / "spot.json", {"kind": "spot", "t1": 0.0, "t2": 1.0, "unit_prices": [1.0, 1.0]})
    for plan in (flat, spot):
        code, out, err = run_cli(capsys, "bill", big, plan, "--format", "json")
        assert code == 0 and err == "", plan
        assert json.loads(out)["payment"] == pytest.approx(1e308, rel=1e-15), plan


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_payment_that_overflows_is_refused(capsys, tmp_path, fmt):
    big = _big_profile(tmp_path)
    flat = write_plan(tmp_path / "flat.json", {"kind": "flat", "unit_price": 1.0})
    twice = write_plan(tmp_path / "twice.json", {"kind": "flat", "unit_price": 2.0})
    spot = write_plan(tmp_path / "spot.json", {"kind": "spot", "t1": 0.0, "t2": 1.0, "unit_prices": [6.0, 6.0]})  # 6e308
    for argv in (["bill", big, spot], ["bill", big, twice], ["compare", big, flat, spot]):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 3 and out == "", argv
        assert err.startswith("error: ") and "payment overflows" in err, argv


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_dynamism_bill_that_overflows_is_refused(capsys, tmp_path, fmt):
    # amounts of 1e300 * 1e10: refused by the bill itself, with no numpy warning (the suite makes one an error)
    swing = _big_profile(tmp_path, [1e10 + 1e10 * math.cos(math.pi * k / 8) for k in range(17)])
    pff = {"base": 1e300, "cutoff": 10.0, "slope": 0.0}
    dear = write_plan(tmp_path / "dear.json", {"kind": "dynamism", "alpha0": 1e300, "alpha": pff, "beta": pff})
    flat = write_plan(tmp_path / "flat.json", {"kind": "flat", "unit_price": 1.0})
    for argv in (["bill", swing, dear], ["bill", swing, dear, "--supply", swing], ["compare", swing, flat, dear]):
        code, out, err = run_cli(capsys, *argv, "--nmax", "2", "--format", fmt)
        assert (code, out) == (3, ""), argv
        assert err == "error: the dynamism payment overflows the float range\n", argv


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_constant_load_bills_its_energy_at_prices_that_overflow(capsys, tmp_path, fmt):
    # 17 samples of 1.0 on [0, 1e10]: every order is zero, and a price of 1e300 times T0 overflows at each one
    load = write_rows(tmp_path / "flat-load.csv", [["t", "power"], *([repr(i * 6.25e8), "1.0"] for i in range(17))])
    pff = {"base": 1e300, "cutoff": 10.0, "slope": 0.0}
    dear = write_plan(tmp_path / "dear.json", {"kind": "dynamism", "alpha0": 1.0, "alpha": pff, "beta": pff})
    for argv in (["bill", load, dear], ["bill", load, dear, "--supply", load]):
        code, out, err = run_cli(capsys, *argv, "--nmax", "2", "--format", fmt)
        assert (code, err) == (0, ""), argv
        if fmt == "json":
            assert json.loads(out)["payment"] == 1e10, argv


def test_compare_refuses_a_difference_that_overflows(capsys, tmp_path):
    # a load of either sign: the two spot plans bill it 1e308 and -1e308
    big = _big_profile(tmp_path, (8e307, 0.0, -8e307))
    up = write_plan(tmp_path / "up.json", {"kind": "spot", "t1": 0.0, "t2": 1.0, "unit_prices": [6.0, 1.0]})
    down = write_plan(tmp_path / "down.json", {"kind": "spot", "t1": 0.0, "t2": 1.0, "unit_prices": [1.0, 6.0]})
    code, out, err = run_cli(capsys, "compare", big, up, down, "--format", "json")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "difference overflows" in err
    code, out, _ = run_cli(capsys, "compare", big, up, up, "--format", "json")
    assert code == 0 and json.loads(out)["difference"] == 0.0


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


def test_calibrate_missing_manifest(capsys, tmp_path):
    manifest = tmp_path / "nope.csv"
    code, out, err = run_cli(capsys, "calibrate", str(manifest))
    assert (code, out) == (2, "")
    assert err == f"error: {manifest}: No such file or directory\n"


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
    # 30 more profiles may add their design rows and costs, not their 4,001 values each
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

def _bill_of_2001_line_items() -> Bill:
    """A dynamism bill at n_max 1000: the energy line and 2,000 order lines."""
    values = np.random.default_rng(7).normal(50.0, 10.0, 2101)
    bill = dynamism_payment(builtin_plans()[0], analyze(SampledCurve(UNIT, values), 1000))
    assert len(bill.line_items) == 2001
    return bill


def _materialized(payload):
    """The payload with each `_Table` replaced by its list of row objects, as `_print_json` prints it."""
    if isinstance(payload, _Table):
        return [dict(zip(payload.keys, row)) for row in payload.rows]
    if isinstance(payload, dict):
        return {k: _materialized(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [_materialized(v) for v in payload]
    return payload


_KEYS = ("order", "f", "Zürich")
_ROWS = [(1, 0.5, "¼ kWh ⚡"), (2, -0.0, None), (3, 1e-320, 1.7976931348623157e308), (4, float("nan"), "\x00\"")]


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        {"empty": {}, "none": [], "nested": {"a": [1, [2, {"b": None}], {}], "c": [[]]}},
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e-320, 1.7976931348623157e308, True, False, None],
        {"Zürich": "¼ kWh ⚡", "\u2028": ["\x00\t\"\\"]},
        "just a string",
        pytest.param(_bill_of_2001_line_items().to_dict(), id="bill-2001-lines"),
        pytest.param({"empty": _Table(_KEYS, []), "after": 1}, id="empty-table"),
        pytest.param({"list": [0, _Table(_KEYS, _ROWS), {"deeper": [_Table(_KEYS, _ROWS[:1])]}]}, id="table-in-list"),
        pytest.param({"a": _Table(_KEYS, _ROWS), "b": _Table(("x",), [(1,), (2,)]), "c": []}, id="two-tables"),
        pytest.param(_Table(_KEYS, _ROWS), id="top-level-table"),
        pytest.param(_Table(_KEYS, ()), id="top-level-empty-table"),
        # keys that str.format would read as fields, and values with newlines, which split a block's columns
        pytest.param({"t": _Table(("{0}", "}{", 'q"{x}'), [(1, "{}", "a\nb"), (2, "\n", "{0}")])}, id="braces-and-newlines"),
        pytest.param({"t": _Table(("i", "f"), [(i, i / 7) for i in range(600)])}, id="three-blocks"),
    ],
)
def test_print_json_prints_what_json_dumps_gives(capsys, payload):
    expected = json.dumps(_materialized(payload), indent=2) + "\n"
    _print_json(payload)
    assert capsys.readouterr().out == expected


def test_print_json_refuses_what_json_refuses():
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        _print_json({"rows": _Table(_KEYS, _ROWS), "bad": {1}})


def test_print_json_builds_no_whole_document():
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    bill = _bill_of_2001_line_items()
    text = json.dumps(_materialized(_bill_json("dynamism", bill.total, bill)), indent=2)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        _print_json(_bill_json("dynamism", bill.total, bill))  # one-time allocations out of the way
        payload = _bill_json("dynamism", bill.total, bill)
        tracemalloc.start()
        try:
            _print_json(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # an ASCII string takes a byte a character: the whole text would take more than its length
    assert peak < len(text)


# The one row writer: `bill`, `decompose` and `calibrate` write their tables through `_Table`, a block of rows at
# a time, and must print what json.dumps prints for the same payload built as lists of dicts

_EDGE_FLOATS = (0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308)


def _json_floats(bound: float | None = None):
    """Finite floats, with -0.0, subnormals and values near the float maximum drawn often."""
    if bound is None:
        return st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    return st.one_of(st.sampled_from([x for x in _EDGE_FLOATS if abs(x) <= bound]), st.floats(-bound, bound))


def _printed(payload) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _print_json(payload)
    return out.getvalue()


def _line_item_dicts(lines: np.ndarray) -> list[dict]:
    """A bill's line items from its whole table: the energy line, then each order line whose coefficient is nonzero."""
    keys = ("label", "frequency", "coefficient", "unit_price", "amount")
    rows = lines.tolist()
    return [dict(zip(keys, ("energy", *rows[0])))] + [
        dict(zip(keys, ("cos" if k % 2 else "sin", *row))) for k, row in enumerate(rows[1:], start=1) if row[1] != 0.0
    ]


def _bill_dict(bill: Bill) -> dict:
    return {"non_dynamic": bill.non_dynamic, "dynamic": bill.dynamic, "total": bill.total,
            "line_items": _line_item_dicts(bill.lines)}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(lambda n: hnp.arrays(float, (1 + 2 * n, 4), elements=_json_floats())),
    _json_floats(),
    _json_floats(),
    st.booleans(),
)
def test_bill_json_streams_what_json_dumps_gives(lines, non_dynamic, dynamic, static):
    if static:  # an all-zero dynamic part: the energy line alone
        lines[1:, 1] = 0.0
        dynamic = 0.0
    bill = Bill(non_dynamic, dynamic, lines)
    expected = {"kind": "dynamism", "payment": bill.total, "bill": _bill_dict(bill)}
    assert _printed(_bill_json("dynamism", bill.total, bill)) == json.dumps(expected, indent=2) + "\n"
    assert json.dumps(bill.to_dict()) == json.dumps(expected["bill"])
    assert [item._asdict() for item in bill.line_items] == expected["bill"]["line_items"]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(lambda n: hnp.arrays(float, (n, 2), elements=_json_floats(1e300))),
    _json_floats(1e300),
    st.booleans(),
    st.booleans(),
)
def test_dynamism_bill_json_streams_what_json_dumps_gives(ab, a0, static, with_supply):
    # bills of drawn spectra: zero and -0.0 coefficients give no line, a static load an all-zero dynamic part
    if static:
        ab[:] = 0.0
    spec = Spectrum(UNIT, a0, [(n, a, b) for n, (a, b) in enumerate(ab.tolist(), start=1)], ab.shape[0])
    supply = Spectrum(UNIT, 1.0, [(n, (-1.0) ** n, 1.0) for n in range(1, 4)], 3) if with_supply else None
    bill = dynamism_payment(builtin_plans()[0], spec, supply)
    if static:
        assert bill.dynamic == 0.0 and len(bill.line_items) == 1
    expected = {"kind": "dynamism", "payment": bill.total, "bill": _bill_dict(bill)}
    assert _printed(_bill_json("dynamism", bill.total, bill)) == json.dumps(expected, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    intervals(),
    st.integers(min_value=1, max_value=6).flatmap(lambda n: hnp.arrays(float, (n, 2), elements=_json_floats())),
    _json_floats(),
    _json_floats(),
    _json_floats(),
    st.one_of(st.none(), _json_floats()),
)
def test_decompose_json_streams_what_json_dumps_gives(iv, ab, a0, pe, nsq, ratio):
    spec = Spectrum(iv, a0, [(n, a, b) for n, (a, b) in enumerate(ab.tolist(), start=1)], ab.shape[0])
    expected = {
        "t1": iv.t1,
        "t2": iv.t2,
        "n_max": spec.n_max,
        "a0": spec.a0,
        "harmonics": [{"order": n, "f": n * iv.f0, "a": a, "b": b} for n, a, b in spec.harmonics],
        "parseval_energy": pe,
        "norm_squared": nsq,
        "parseval_ratio": ratio,
    }
    assert _printed(_decompose_json(spec, pe, nsq, ratio)) == json.dumps(expected, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    intervals(),
    st.integers(min_value=1, max_value=6).flatmap(lambda n: hnp.arrays(float, 1 + 2 * n, elements=_json_floats())),
    _json_floats(),
    _json_floats(),
    st.lists(_json_floats(), max_size=5),
)
def test_calibrate_json_streams_what_json_dumps_gives(iv, iota, max_abs, rms, residuals):
    n_max, values = iota.size // 2, iota.tolist()
    cc = CostCharacteristic(iv, iota, n_max)
    rows = [{"index": 0, "kind": "energy", "order": 0, "f": 0.0, "value": values[0]}]
    for n in range(1, n_max + 1):
        rows += [{"index": k, "kind": kind, "order": n, "f": n * iv.f0, "value": values[k]}
                 for k, kind in ((2 * n - 1, "cos"), (2 * n, "sin"))]
    expected = {
        "t1": iv.t1,
        "t2": iv.t2,
        "n_max": n_max,
        "iota": rows,
        "residuals": {"max_abs": max_abs, "rms": rms, "per_observation": residuals},
    }
    assert _printed(_calibrate_json(cc, max_abs, rms, residuals)) == json.dumps(expected, indent=2) + "\n"


def _year_profile(path, seed: int) -> str:
    """35,040 quarter-hour rows, as a year of meter readings is written."""
    values = np.random.default_rng(seed).normal(50.0, 10.0, 35_040).tolist()
    path.write_text("t,power\n" + "".join(f"{i * 0.25!r},{v!r}\n" for i, v in enumerate(values)))
    return str(path)


def test_a_year_dynamism_bill_holds_one_sampled_curve_at_a_time(tmp_path):
    # the load curve is replaced by its spectrum before the supply is read, and the 2,001 line items are
    # written one at a time: the peak is the supply's reading (24 bytes a row: the parsed table and the
    # curve's copy) plus small change, 25.6 bytes a row measured; the bound leaves 2.4 bytes a row (9 %) of
    # margin. Holding the load curve while reading the supply, and the line items as dicts, read 33.6
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    argv = ["bill", _year_profile(tmp_path / "year.csv", 0), write_plan(tmp_path / "dyn.json", PLAN1_JSON),
            "--supply", _year_profile(tmp_path / "year2.csv", 1), "--nmax", "1000", "--format", "json"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv) == 0  # one-time allocations (caches, lazy imports) out of the way
        tracemalloc.start()
        try:
            main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 28 * 35_040


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
