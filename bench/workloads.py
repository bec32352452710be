"""The four benchmark workloads, their seeded inputs and numpy references.

Each workload generates its inputs from a seed in `setup`, computes the
expected outputs with numpy code that shares nothing with the package, and
exposes `op` (one closed-loop operation) and `check` (does an op's output
match the references). See README.md in this directory for why each
workload exists.

Reference rules:
- flat bills: unit price times the trapezoid rule on the samples;
- spot bills: the exact integral of the samples' linear interpolant between
  equally spaced cycle bounds, from its cumulative antiderivative;
- dynamism bills: Fourier coefficients from one rfft of trapezoid-weighted
  samples (the endpoint folded onto the first sample), billed with the
  polarity rule of the package README: the sign of the supply coefficient,
  else of the load coefficient.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BILL_RTOL = 1e-9
IOTA_ATOL = 1e-6
RESIDUAL_RTOL = 1e-9  # residual max relative to the largest observed cost
TABLE1_ATOL = 1e-3
PER_DAY = 96  # 15-minute readings

# The package's builtin plan1, restated: (alpha0, alpha pff, beta pff), pff = (base, cutoff, slope, log_offset).
PLAN1 = (20.0, (20.0, 10.0, 3.0, 0.0), (20.0, 10.0, 3.0, 0.0))
PLAN2 = (10.0, (10.0, 10.0, 30.0, 0.0), (10.0, 10.0, 30.0, 0.0))
# Year plan with time in days: f runs up to n_max/365 per day, so both sides of each cutoff are billed.
YEAR_PLAN = (20.0, (20.0, 1.0, 30.0, 0.0), (15.0, 2.0, 10.0, 0.0))


@dataclass(frozen=True)
class Sizes:
    year_days: int = 365
    year_nmax: int = 1000
    year_cycles: int = 8760
    fleet_meters: int = 2000
    fleet_samples: int = 96
    fleet_nmax: int = 40
    fleet_cycles: int = 24
    cal_profiles: int = 400
    cal_samples: int = 7 * PER_DAY + 1
    cal_nmax: int = 50


FULL = Sizes()
TOY = Sizes(
    year_days=8, year_nmax=40, year_cycles=192, fleet_meters=12,
    cal_profiles=30, cal_samples=PER_DAY + 1, cal_nmax=5,
)


# ---------------------------------------------------------------------------
# numpy references
# ---------------------------------------------------------------------------

def ref_spectrum(values, t1: float, t2: float, n_max: int):
    """(a0, a, b) of the trapezoid Fourier sums along the last axis, a and b of length n_max.

    Harmonics whose |a| and |b| are both within 1e-12 times the curve's norm
    are zeroed, as the package drops them.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    t0 = t2 - t1
    h = t0 / (n - 1)
    x = h * v[..., :-1]
    x[..., 0] = 0.5 * h * (v[..., 0] + v[..., -1])
    orders = np.arange(n_max + 1)
    z = np.fft.rfft(x, axis=-1)[..., : n_max + 1] * np.exp(-2j * np.pi * orders * t1 / t0)
    z *= 2.0 / t0
    a0, a, b = z[..., 0].real, z[..., 1:].real, -z[..., 1:].imag
    tol = 1e-12 * np.sqrt(np.trapezoid(v * v, dx=h, axis=-1))[..., None]
    keep = (np.abs(a) > tol) | (np.abs(b) > tol)
    return a0, np.where(keep, a, 0.0), np.where(keep, b, 0.0)


def ref_price(pff, f):
    base, cutoff, slope, log_offset = pff
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = base + slope * np.log10(f - log_offset)
    return np.where(f < cutoff, base, upper)


def ref_dynamism_total(spec, t0: float, plan, supply=None):
    a0, a, b = spec
    alpha0, alpha, beta = plan
    f = np.arange(1, a.shape[-1] + 1) / t0
    sup_a, sup_b = (a, b) if supply is None else supply[1:]

    def signed(sup, coef):
        return np.where(sup != 0, np.sign(sup), np.sign(coef)) * coef

    dynamic = signed(sup_a, a) @ ref_price(alpha, f) + signed(sup_b, b) @ ref_price(beta, f)
    return alpha0 * 0.5 * t0 * a0 + t0 * dynamic


def ref_flat_total(values, t1: float, t2: float, unit_price: float):
    v = np.asarray(values, dtype=float)
    return unit_price * np.trapezoid(v, x=np.linspace(t1, t2, v.shape[-1]), axis=-1)


def ref_spot_total(values, t1: float, t2: float, prices):
    """Spot bill per row of `values`."""
    v = np.atleast_2d(np.asarray(values, dtype=float))
    n = v.shape[-1]
    grid = np.linspace(t1, t2, n)
    dt = np.diff(grid)
    cum = np.zeros_like(v)
    np.cumsum(0.5 * dt * (v[:, 1:] + v[:, :-1]), axis=1, out=cum[:, 1:])
    bounds = np.linspace(t1, t2, len(prices) + 1)
    k = np.clip(np.searchsorted(grid, bounds, side="right") - 1, 0, n - 2)
    d = bounds - grid[k]
    slope = (v[:, k + 1] - v[:, k]) / dt[k]
    antiderivative = cum[:, k] + v[:, k] * d + 0.5 * slope * d * d
    return np.diff(antiderivative, axis=1) @ np.asarray(prices, dtype=float)


def ref_mu(spec, t0: float):
    """Orthonormal coordinates: index 0 energy, 2n-1 cosine, 2n sine."""
    a0, a, b = spec
    mu = np.empty(a0.shape + (1 + 2 * a.shape[-1],))
    mu[..., 0] = 0.5 * a0 * math.sqrt(t0)
    mu[..., 1::2] = a * math.sqrt(0.5 * t0)
    mu[..., 2::2] = b * math.sqrt(0.5 * t0)
    return mu


def ref_table1():
    """Totals of the four reference bills, from the loads' closed forms sampled densely."""
    t = np.linspace(0.0, 1.0, 4097)
    w = 2.0 * np.pi * t
    loads = (
        50 + 20 * np.sin(5 * w) + 10 * np.cos(20 * w) + 5 * np.sin(100 * w),
        40 + 5 * np.sin(5 * w) + 10 * np.cos(20 * w) + 20 * np.sin(100 * w),
    )
    spectra = [ref_spectrum(v, 0.0, 1.0, 100) for v in loads]
    return np.array([
        ref_dynamism_total(spectra[i], 1.0, plan)
        for plan in (PLAN1, PLAN2) for i in (0, 1)
    ])


def within(got, expected, rtol: float) -> bool:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return got.shape == expected.shape and bool(
        np.all(np.abs(got - expected) <= rtol * np.abs(expected))
    )


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def meter_values(rng, t, base: float, noise: float, weekly: bool):
    """Daily (two harmonics) and optional weekly cycles with random phases, plus white noise."""
    out = np.full_like(t, base)
    for k, amp in ((1, 0.3 * base), (2, 0.1 * base)):
        out += rng.uniform(0.5, 1.0) * amp * np.sin(2 * np.pi * k * t + rng.uniform(0, 2 * np.pi))
    if weekly:
        out += rng.uniform(0.05, 0.15) * base * np.sin(2 * np.pi * t / 7 + rng.uniform(0, 2 * np.pi))
    return out + rng.normal(0.0, noise, t.shape)


def write_profile(path: Path, t, values) -> None:
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), values.tolist()))
    path.write_text("t,power\n" + rows)


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc))


def pff_doc(pff) -> dict:
    return dict(zip(("base", "cutoff", "slope", "log_offset"), pff))


def child_env(root: Path) -> dict:
    """Environment for a child Python: this one's, importing loadspace from the checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    return env


def run_cli(ls, argv) -> tuple[int, str]:
    """loadspace.cli.main in-process, looked up at call time; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ls.cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, ls, root: Path, sizes: Sizes = FULL) -> None:
        self.ls = ls
        self.root = root
        self.sizes = sizes
        self.readings = 1
        self.peak_bytes = 0

    def setup(self, seed: int, work: Path) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def inproc_op(self):
        """The op as run under the tracer: in-process, so the wrappers see it."""
        return self.op()

    def check(self, out) -> bool:
        raise NotImplementedError

    def memory_pass(self):
        """One op under tracemalloc; its peak goes to `peak_bytes`."""
        tracemalloc.start()
        try:
            out = self.op()
            self.peak_bytes = tracemalloc.get_traced_memory()[1]
            return out
        finally:
            tracemalloc.stop()


class Year(Workload):
    """A year of 15-minute readings billed flat, spot and dynamism through cli.main."""

    name = "year"

    def setup(self, seed: int, work: Path) -> None:
        s = self.sizes
        rng = np.random.default_rng(seed)
        n = s.year_days * PER_DAY
        t = np.arange(n) / PER_DAY
        load = meter_values(rng, t, 40.0, 3.0, weekly=True)
        supply = meter_values(rng, t, 60.0, 3.0, weekly=True)
        cycle_days = np.arange(s.year_cycles) * (t[-1] / s.year_cycles)
        prices = 30 + 10 * np.sin(2 * np.pi * cycle_days - 2.0) + rng.gamma(2.0, 2.0, s.year_cycles)
        flat_price = float(rng.uniform(20.0, 40.0))
        t1, t2 = 0.0, float(t[-1])

        write_profile(work / "load.csv", t, load)
        write_profile(work / "supply.csv", t, supply)
        write_json(work / "flat.json", {"kind": "flat", "unit_price": flat_price})
        write_json(work / "spot.json", {"kind": "spot", "t1": t1, "t2": t2, "unit_prices": prices.tolist()})
        alpha0, alpha, beta = YEAR_PLAN
        write_json(work / "dyn.json", {
            "kind": "dynamism", "alpha0": alpha0, "alpha": pff_doc(alpha), "beta": pff_doc(beta),
        })
        load_csv = str(work / "load.csv")
        self.argvs = [
            ["bill", load_csv, str(work / "flat.json"), "--format", "json"],
            ["bill", load_csv, str(work / "spot.json"), "--format", "json"],
            ["bill", load_csv, str(work / "dyn.json"), "--nmax", str(s.year_nmax),
             "--supply", str(work / "supply.csv"), "--format", "json"],
        ]
        self.expected = np.array([
            ref_flat_total(load, t1, t2, flat_price),
            ref_spot_total(load, t1, t2, prices)[0],
            ref_dynamism_total(
                ref_spectrum(load, t1, t2, s.year_nmax), t2 - t1, YEAR_PLAN,
                supply=ref_spectrum(supply, t1, t2, s.year_nmax),
            ),
        ])
        self.readings = 2 * n

    def op(self):
        return [run_cli(self.ls, argv) for argv in self.argvs]

    def check(self, out) -> bool:
        if any(code != 0 for code, _ in out):
            return False
        return within([json.loads(text)["payment"] for _, text in out], self.expected, BILL_RTOL)


class Fleet(Workload):
    """Daily meters billed one by one through the library API."""

    name = "fleet"

    def setup(self, seed: int, work: Path) -> None:
        s = self.sizes
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 1.0, s.fleet_samples)
        self.values = np.stack([
            meter_values(rng, t, rng.uniform(5.0, 50.0), 1.0, weekly=False)
            for _ in range(s.fleet_meters)
        ])
        self.spot_prices = tuple((20 + 15 * np.sin(np.linspace(0, 2 * np.pi, s.fleet_cycles))
                                  + rng.gamma(2.0, 1.0, s.fleet_cycles)).tolist())
        self.flat_price = float(rng.uniform(20.0, 40.0))
        self.expected = np.column_stack([
            ref_dynamism_total(ref_spectrum(self.values, 0.0, 1.0, s.fleet_nmax), 1.0, PLAN1),
            ref_spot_total(self.values, 0.0, 1.0, self.spot_prices),
            ref_flat_total(self.values, 0.0, 1.0, self.flat_price),
        ])
        self.readings = self.values.size

    def op(self):
        ls = self.ls
        interval = ls.Interval(0.0, 1.0)
        spot = ls.SpotPlan(interval, self.spot_prices)
        plan1 = ls.builtin_plans()[0]
        out = np.empty((len(self.values), 3))
        for i, v in enumerate(self.values):
            curve = ls.SampledCurve(interval, v)
            spectrum = ls.analyze(curve, self.sizes.fleet_nmax)
            out[i] = (
                ls.dynamism_payment(plan1, spectrum).total,
                ls.spot_payment(spot, curve),
                ls.classic_payment(self.flat_price, curve),
            )
        return out

    def check(self, out) -> bool:
        return within(out, self.expected, BILL_RTOL)


class Calibrate(Workload):
    """cli calibrate over a manifest of weekly profiles with noiseless costs."""

    name = "calibrate"

    def setup(self, seed: int, work: Path) -> None:
        s = self.sizes
        rng = np.random.default_rng(seed)
        t = np.arange(s.cal_samples) / PER_DAY
        t2 = float(t[-1])
        values = np.stack([
            meter_values(rng, t, rng.uniform(5.0, 50.0), 5.0, weekly=True)
            for _ in range(s.cal_profiles)
        ])
        self.iota = rng.normal(0.0, 1.0, 1 + 2 * s.cal_nmax)
        costs = ref_mu(ref_spectrum(values, 0.0, t2, s.cal_nmax), t2) @ self.iota
        lines = ["profile,cost"]
        for i, (v, cost) in enumerate(zip(values, costs.tolist())):
            write_profile(work / f"p{i:04d}.csv", t, v)
            lines.append(f"p{i:04d}.csv,{cost!r}")
        manifest = work / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        self.max_cost = float(np.max(np.abs(costs)))
        self.argv = ["calibrate", str(manifest), "--nmax", str(s.cal_nmax), "--format", "json"]
        self.readings = values.size

    def op(self):
        return run_cli(self.ls, self.argv)

    def check(self, out) -> bool:
        code, text = out
        if code != 0:
            return False
        doc = json.loads(text)
        iota = np.array([row["value"] for row in doc["iota"]])
        return (
            iota.shape == self.iota.shape
            and bool(np.max(np.abs(iota - self.iota)) <= IOTA_ATOL)
            and doc["residuals"]["max_abs"] <= RESIDUAL_RTOL * self.max_cost
        )


class ColdCli(Workload):
    """One `python -m loadspace scenarios` subprocess per op."""

    name = "cold_cli"
    argv = ["scenarios", "--which", "all", "--format", "json"]
    # Runs the CLI as `python -m loadspace` would, then reports the tracemalloc peak on stderr.
    _MEMORY_CHILD = (
        "import runpy, sys, tracemalloc\n"
        "sys.argv = ['loadspace'] + sys.argv[1:]\n"
        "try:\n"
        "    runpy.run_module('loadspace', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "sys.stderr.write(f'peak {tracemalloc.get_traced_memory()[1]}\\n')\n"
        "sys.exit(code)\n"
    )

    def setup(self, seed: int, work: Path) -> None:
        self.expected = ref_table1()

    def _child(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True,
            env=child_env(self.root), cwd=self.root, timeout=120,
        )

    def op(self):
        proc = self._child("-m", "loadspace", *self.argv)
        return proc.returncode, proc.stdout

    def inproc_op(self):
        return run_cli(self.ls, self.argv)

    def check(self, out) -> bool:
        code, text = out
        if code != 0:
            return False
        reports = json.loads(text)
        if not all(r["passed"] and all(c["passed"] for c in r["checks"]) for r in reports):
            return False
        table1 = [r for r in reports if r["name"] == "table1"]
        if len(table1) != 1:
            return False
        totals = np.array([b["total"] for b in table1[0]["bills"]])
        return totals.shape == self.expected.shape and bool(
            np.all(np.abs(totals - self.expected) <= TABLE1_ATOL)
        )

    def memory_pass(self):
        proc = self._child("-X", "tracemalloc", "-c", self._MEMORY_CHILD, *self.argv)
        self.peak_bytes = int(proc.stderr.rsplit("peak ", 1)[-1])
        return proc.returncode, proc.stdout


WORKLOADS = {w.name: w for w in (Year, Fleet, Calibrate, ColdCli)}
