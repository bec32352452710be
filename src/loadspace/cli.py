"""Command line front end for decomposition, billing, calibration and scenarios.

Profiles are CSV files with header ``t,power`` and a uniformly spaced,
strictly increasing time column. Plans are JSON objects whose ``kind`` is
``flat`` ({unit_price}), ``spot`` ({t1, t2, unit_prices}) or ``dynamism``
({alpha0, alpha: {base, cutoff, slope, log_offset}, beta: {...}}).

Exit codes: 0 success; 1 a scenario assertion failed; 2 malformed input
file; 3 a precondition was violated (resolvability, interval mismatch,
underdetermined calibration and the like); 141 (128 + SIGPIPE) the reader
of standard output closed it before all the output was written, as
``head`` does.

Table output rounds to 6 significant digits; json and csv output keep
full precision.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from .calibrate import CostCharacteristic, CostObservation, _fit_iota
from .curve import Interval, SampledCurve, distance
from .spectrum import Spectrum, _parseval_check, analyze, mu_index_cos, mu_index_sin
from .tariff import (
    Bill,
    DynamismPlan,
    FlatPlan,
    PriceFrequencyFunction,
    SpotPlan,
    TariffPlan,
    classic_payment,
    dynamism_payment,
    price_frequency_value,
    spot_payment,
)
from .scenarios import ScenarioReport, builtin_plans, case1_demo, reproduce_table1

__all__ = ["InputFormatError", "main"]


class InputFormatError(Exception):
    """A file failed to parse or violated its format invariants."""


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------

_PROFILE_HEADER = ["t", "power"]


def _read_header(path: str, fh, header: list[str]) -> None:
    """Consume the first CSV row of fh; it must be `header` up to whitespace around fields."""
    if [c.strip() for c in next(csv.reader(fh), [])] != header:
        raise InputFormatError(f"{path}, line 1: expected header '{','.join(header)}'")


def _data_rows(path: str, header: list[str]):
    """(line number, [field, field]) for each data row of a two-column CSV file.

    Rows that are empty or whose fields are all whitespace are skipped;
    any other row must have exactly two fields. Lines are numbered by CSV
    row, the header being line 1.
    """
    try:
        with open(path, newline="") as fh:
            _read_header(path, fh, header)
            for ln, row in enumerate(csv.reader(fh), start=2):
                if all(c.strip() == "" for c in row):
                    continue
                if len(row) != 2:
                    raise InputFormatError(f"{path}, line {ln}: expected 2 fields, got {len(row)}")
                yield ln, row
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}") from exc


def _profile_rows(path: str) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Line numbers, times and powers of a profile's data rows, read row by row with float()."""
    lines: list[int] = []
    times: list[float] = []
    powers: list[float] = []
    for ln, (t, p) in _data_rows(path, _PROFILE_HEADER):
        try:
            times.append(float(t))
            powers.append(float(p))
        except ValueError as exc:
            raise InputFormatError(f"{path}, line {ln}: {exc}") from exc
        lines.append(ln)
    return lines, np.asarray(times), np.asarray(powers)


def _read_profile(path: str) -> SampledCurve:
    """Read a profile CSV: header ``t,power``, then one ``time,power`` row per sample.

    Fields may be quoted with ``"`` and padded with whitespace; a field is
    anything Python's ``float()`` reads, including ``1_000``, ``nan`` and
    ``inf`` (non-finite values are then refused). Rows that are empty or
    whose fields are all whitespace are skipped; ``#`` starts no comment.
    Only the blank rows before the first data row are skipped here; the
    rest of the open file is parsed in one pass by ``np.loadtxt``, which
    skips empty lines itself. Only when that fails (a later row that is
    whitespace-only or all empty fields makes it fail too) is the file read
    again row by row, to name the first bad line (lines are numbered by CSV
    row, the header being line 1) or to read what only ``float()`` accepts,
    such as ``1_000``.
    """
    try:
        with open(path, newline="") as fh:
            _read_header(path, fh, _PROFILE_HEADER)
            first = next((line for line in fh if line.replace(",", "").strip()), None)
            table: np.ndarray | None = np.empty((0, 2))
            if first is not None:
                try:
                    table = np.loadtxt(
                        itertools.chain((first,), fh),
                        delimiter=",",
                        comments=None,
                        quotechar='"',
                        ndmin=2,
                    )
                except ValueError:
                    table = None
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}") from exc
    if table is None or table.shape[1] != 2:
        _, t, powers = _profile_rows(path)
    else:
        t, powers = table[:, 0], table[:, 1]

    if t.size < 2:
        raise InputFormatError(f"{path}: need at least 2 data rows, got {t.size}")
    dt = np.diff(t)
    if np.any(dt <= 0):
        bad = _profile_rows(path)[0][int(np.argmax(dt <= 0)) + 1]
        raise InputFormatError(f"{path}, line {bad}: time column must be strictly increasing")
    step = (t[-1] - t[0]) / (t.size - 1)
    dt -= step  # dt becomes the gap |dt - step| in place: no further N-length array
    np.abs(dt, out=dt)
    if np.max(dt) > 1e-9 * abs(step):
        bad = _profile_rows(path)[0][int(np.argmax(dt)) + 1]
        raise InputFormatError(f"{path}, line {bad}: time column must be uniformly spaced")
    del dt  # freed before the curve copies the powers
    try:
        return SampledCurve(Interval(float(t[0]), float(t[-1])), powers)
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _pff_from_dict(d: dict) -> PriceFrequencyFunction:
    return PriceFrequencyFunction(
        base=float(d["base"]),
        cutoff=float(d["cutoff"]),
        slope=float(d["slope"]),
        log_offset=float(d.get("log_offset", 0.0)),
    )


def _read_plan(path: str) -> TariffPlan:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: plan must be a JSON object")
    kind = doc.get("kind")
    try:
        if kind == "flat":
            return FlatPlan(float(doc["unit_price"]))
        if kind == "spot":
            return SpotPlan(Interval(float(doc["t1"]), float(doc["t2"])), doc["unit_prices"])
        if kind == "dynamism":
            return DynamismPlan(
                alpha0=float(doc["alpha0"]),
                alpha=_pff_from_dict(doc["alpha"]),
                beta=_pff_from_dict(doc["beta"]),
            )
    except KeyError as exc:
        raise InputFormatError(f"{path}: missing plan field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{path}: {exc}") from exc
    raise InputFormatError(f"{path}: unknown plan kind {kind!r}")


def _resolve_plan(token: str) -> TariffPlan:
    """A plan file path, or one of the builtin names plan1/plan2."""
    if token in ("plan1", "plan2"):
        return builtin_plans()[0 if token == "plan1" else 1]
    return _read_plan(token)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _full(x: float) -> str:
    return repr(float(x))


# encoder chunks joined per write: a sink that keeps every string written to it
# (io.StringIO) then keeps one object per block, not one per chunk
_JSON_BLOCK = 1024


def _print_json(payload) -> None:
    """Print ``json.dumps(payload, indent=2)``, from the same encoder, without building the whole text."""
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    while block := "".join(itertools.islice(chunks, _JSON_BLOCK)):
        sys.stdout.write(block)
    sys.stdout.write("\n")


def _write_csv(fh, rows) -> None:
    """Write rows (a list or a generator) as CSV, each as soon as it is produced."""
    csv.writer(fh, lineterminator="\n").writerows(rows)


def _harmonic_rows(spec: Spectrum):
    """(order, frequency, a_n, b_n) for every harmonic the spectrum holds."""
    f0 = spec.interval.f0
    for n, a, b in spec.harmonics:
        yield n, n * f0, a, b


def _spectrum_csv(spec: Spectrum):
    """CSV rows of a spectrum: header, the order-0 row carrying a0, then the harmonics."""
    yield ["order", "f", "a", "b"]
    yield [0, _full(0.0), _full(spec.a0), _full(0.0)]
    for n, f, a, b in _harmonic_rows(spec):
        yield [n, _full(f), _full(a), _full(b)]


def _iota_rows(cc: CostCharacteristic):
    """(index, kind, order, frequency, iota) for every coordinate, in index order."""
    f0 = cc.interval.f0
    iota = cc.iota.tolist()
    yield 0, "energy", 0, 0.0, iota[0]
    for n in range(1, cc.n_max + 1):
        for k, kind in ((mu_index_cos(n), "cos"), (mu_index_sin(n), "sin")):
            yield k, kind, n, n * f0, iota[k]


def _render_bill_table(bill: Bill, heading: str) -> None:
    print(heading)
    print(f"  non-dynamic  {_fmt(bill.non_dynamic)}")
    print(f"  dynamic      {_fmt(bill.dynamic)}")
    print(f"  total        {_fmt(bill.total)}")
    print("  line items:")
    print("    label   frequency  coefficient  unit-price  amount")
    for it in bill.line_items:
        print(
            f"    {it.label:<7}{_fmt(it.frequency):>9}  {_fmt(it.coefficient):>11}"
            f"  {_fmt(it.unit_price):>10}  {_fmt(it.amount):>10}"
        )


def _render_report_table(report: ScenarioReport) -> None:
    print(f"scenario {report.name}: {'PASS' if report.passed else 'FAIL'}")
    for c in report.checks:
        mark = "ok" if c.passed else "FAIL"
        print(
            f"  [{mark:>4}] {c.description}: expected {_fmt(c.expected)}, "
            f"got {_fmt(c.actual)} ({c.provenance})"
        )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_decompose(args: argparse.Namespace) -> int:
    curve = _read_profile(args.profile)
    spec = analyze(curve, args.nmax, drop_tol=args.drop_tol)
    iv = spec.interval
    pe, nsq, ratio = _parseval_check(curve, spec)

    if args.format == "json":
        _print_json(
            {
                "t1": iv.t1,
                "t2": iv.t2,
                "n_max": spec.n_max,
                "a0": spec.a0,
                "harmonics": [
                    {"order": n, "f": f, "a": a, "b": b} for n, f, a, b in _harmonic_rows(spec)
                ],
                "parseval_energy": pe,
                "norm_squared": nsq,
                "parseval_ratio": ratio,
            }
        )
    elif args.format == "csv":
        _write_csv(sys.stdout, _spectrum_csv(spec))
    else:
        print(f"spectrum on [{_fmt(iv.t1)}, {_fmt(iv.t2)}], n_max {spec.n_max}")
        print(f"  a0 = {_fmt(spec.a0)}  (energy {_fmt(0.5 * iv.duration * spec.a0)})")
        if spec.harmonics:
            print("    order  frequency        a_n        b_n")
            for n, f, a, b in _harmonic_rows(spec):
                print(f"    {n:>5}  {_fmt(f):>9}  {_fmt(a):>9}  {_fmt(b):>9}")
        else:
            print("    no harmonics above the drop threshold")
        shown = "n/a" if ratio is None else _fmt(ratio)
        print(f"  parseval energy {_fmt(pe)} / norm^2 {_fmt(nsq)} = {shown}")
    return 0


def _billing_result(plan: TariffPlan, curve: SampledCurve, args) -> tuple[str, float, Bill | None]:
    if isinstance(plan, FlatPlan):
        return ("flat", classic_payment(plan.unit_price, curve), None)
    if isinstance(plan, SpotPlan):
        return ("spot", spot_payment(plan, curve), None)
    spec = analyze(curve, args.nmax)
    supply: Spectrum | None = None
    if getattr(args, "supply", None):
        supply = analyze(_read_profile(args.supply), args.nmax)
    bill = dynamism_payment(plan, spec, supply)
    return ("dynamism", bill.total, bill)


def _cmd_bill(args: argparse.Namespace) -> int:
    curve = _read_profile(args.profile)
    plan = _read_plan(args.plan)
    kind, payment, bill = _billing_result(plan, curve, args)
    if args.format == "json":
        payload = {"kind": kind, "payment": payment}
        if bill is not None:
            payload["bill"] = bill.to_dict()
        _print_json(payload)
    elif bill is not None:
        _render_bill_table(bill, f"dynamism bill for {args.profile}")
    else:
        print(f"{kind} payment for {args.profile}: {_fmt(payment)}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    curve = _read_profile(args.profile)
    results = []
    for path in (args.plan_a, args.plan_b):
        plan = _read_plan(path)
        kind, payment, _ = _billing_result(plan, curve, args)
        results.append({"plan": path, "kind": kind, "payment": payment})
    diff = results[0]["payment"] - results[1]["payment"]
    if args.format == "json":
        _print_json({"profile": args.profile, "plans": results, "difference": diff})
    else:
        print(f"payments for {args.profile}")
        for r in results:
            print(f"  {r['plan']}  ({r['kind']}): {_fmt(r['payment'])}")
        print(f"  difference (first - second): {_fmt(diff)}")
    return 0


def _observations(manifest: str):
    """Each manifest row as a CostObservation, its profile read only when the row is reached."""
    base_dir = os.path.dirname(os.path.abspath(manifest))
    for ln, (rel, cost) in _data_rows(manifest, ["profile", "cost"]):
        path = os.path.join(base_dir, rel.strip())  # an absolute path replaces base_dir
        try:
            observed = float(cost)
        except ValueError as exc:
            raise InputFormatError(f"{manifest}, line {ln}: {exc}") from exc
        yield CostObservation(_read_profile(path), observed)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cc, residuals = _fit_iota(_observations(args.observations), args.nmax)
    max_abs = max(abs(r) for r in residuals)
    rms = math.sqrt(sum(r * r for r in residuals) / len(residuals))

    if args.format == "json":
        _print_json(
            {
                "t1": cc.interval.t1,
                "t2": cc.interval.t2,
                "n_max": cc.n_max,
                "iota": [
                    dict(zip(("index", "kind", "order", "f", "value"), row)) for row in _iota_rows(cc)
                ],
                "residuals": {"max_abs": max_abs, "rms": rms, "per_observation": residuals},
            }
        )
    else:
        print(f"cost characteristic on [{_fmt(cc.interval.t1)}, {_fmt(cc.interval.t2)}], n_max {cc.n_max}")
        print("    index  kind    order  frequency      iota")
        for k, kind, order, f, value in _iota_rows(cc):
            print(f"    {k:>5}  {kind:<6}  {order:>5}  {_fmt(f):>9}  {_fmt(value):>9}")
        print(f"  residual max {_fmt(max_abs)}, rms {_fmt(rms)} over {len(residuals)} observations")
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    c1 = _read_profile(args.profile_a)
    c2 = _read_profile(args.profile_b)
    print(_full(distance(c1, c2)))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    runners = {"table1": reproduce_table1, "case1": case1_demo}
    names = list(runners) if args.which == "all" else [args.which]
    reports = [runners[name]() for name in names]
    if args.format == "json":
        _print_json([r.to_dict() for r in reports])
    else:
        for r in reports:
            _render_report_table(r)
    return 0 if all(r.passed for r in reports) else 1


def _curve_csv(curve: SampledCurve):
    """CSV rows of a sampled curve: header, then (t, power) at every grid point."""
    yield ["t", "power"]
    for t, v in zip(curve.times(), curve.values):
        yield [_full(t), _full(v)]


def _pff_csv(plan: DynamismPlan, fmax: float, fstep: float):
    """CSV rows of both price-frequency functions at f_i = i*fstep, up to fmax.

    fmax itself is included when it is a multiple of fstep up to rounding;
    a step that rounds past fmax is printed as fmax.
    """
    yield ["f", "alpha", "beta"]
    for i in range(math.floor(fmax / fstep * (1.0 + 1e-9)) + 1):
        f = min(i * fstep, fmax)
        yield [
            _full(f),
            _full(price_frequency_value(plan.alpha, f)),
            _full(price_frequency_value(plan.beta, f)),
        ]


def _cmd_plotdata(args: argparse.Namespace) -> int:
    if args.what == "pff":
        plan = _resolve_plan(args.source)
        if not isinstance(plan, DynamismPlan):
            raise InputFormatError(f"{args.source}: pff data needs a dynamism plan")
        if not (math.isfinite(args.fstep) and args.fstep > 0):
            raise ValueError(f"fstep must be finite and positive, got {args.fstep}")
        if not (math.isfinite(args.fmax) and args.fmax >= 0 and math.isfinite(args.fmax / args.fstep)):
            raise ValueError(f"fmax must be finite, nonnegative and within range of fstep, got {args.fmax}")
        rows = _pff_csv(plan, args.fmax, args.fstep)
    elif args.what == "curve":
        rows = _curve_csv(_read_profile(args.source))
    else:
        rows = _spectrum_csv(analyze(_read_profile(args.source), args.nmax))

    if args.out and args.out != "-":
        with open(args.out, "w", newline="") as fh:
            _write_csv(fh, rows)
    else:
        _write_csv(sys.stdout, rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadspace",
        description="Decompose, bill and calibrate electric load curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, choices=("table", "json")) -> None:
        p.add_argument("--format", choices=choices, default="table")

    p = sub.add_parser("decompose", help="Fourier coefficients of a load profile")
    p.add_argument("profile")
    p.add_argument("--nmax", type=int, default=100)
    p.add_argument("--drop-tol", type=float, default=None, dest="drop_tol")
    add_format(p, ("table", "json", "csv"))
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("bill", help="payment of a profile under a plan file")
    p.add_argument("profile")
    p.add_argument("plan")
    p.add_argument("--supply", help="supply profile fixing coefficient polarity")
    p.add_argument("--nmax", type=int, default=100)
    add_format(p)
    p.set_defaults(func=_cmd_bill)

    p = sub.add_parser("compare", help="bill one profile under two plans")
    p.add_argument("profile")
    p.add_argument("plan_a")
    p.add_argument("plan_b")
    p.add_argument("--nmax", type=int, default=100)
    add_format(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("calibrate", help="fit a cost characteristic from observations")
    p.add_argument("observations", help="CSV manifest with header 'profile,cost'")
    p.add_argument("--nmax", type=int, default=10)
    add_format(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("distance", help="L2 distance between two profiles")
    p.add_argument("profile_a")
    p.add_argument("profile_b")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("scenarios", help="run the bundled self-checking scenarios")
    p.add_argument("--which", choices=("table1", "case1", "all"), default="all")
    add_format(p)
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser("plotdata", help="emit plot-ready CSV data")
    p.add_argument("source", help="profile path, plan path, or builtin plan1/plan2")
    p.add_argument("--what", choices=("curve", "spectrum", "pff"), required=True)
    p.add_argument("--nmax", type=int, default=100)
    p.add_argument("--fmax", type=float, default=200.0)
    p.add_argument("--fstep", type=float, default=1.0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # as the Python docs advise for SIGPIPE: what is still buffered goes to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
