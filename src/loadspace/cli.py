"""Command line front end for decomposition, billing, calibration and scenarios.

Profiles are CSV files with header ``t,power`` and a uniformly spaced,
strictly increasing time column. Plans are JSON objects whose ``kind`` is
``flat`` ({unit_price}), ``spot`` ({t1, t2, unit_prices}) or ``dynamism``
({alpha0, alpha: {base, cutoff, slope, log_offset}, beta: {...}}).

Exit codes: 0 success; 1 a scenario assertion failed; 2 malformed input
file; 3 a precondition was violated (resolvability, interval mismatch,
underdetermined calibration, a payment that overflows and the like); 141
(128 + SIGPIPE) the reader of standard output closed it before all the
output was written, as ``head`` does.

Table output rounds to 6 significant digits; json and csv output keep
full precision.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import sys
from typing import Iterable, Sequence

import numpy as np

from .calibrate import CostCharacteristic, CostObservation, _fit_iota
from .curve import Interval, SampledCurve, distance
from .spectrum import Spectrum, _parseval_check, analyze, mu_index_cos, mu_index_sin
from .tariff import (
    Bill,
    DynamismPlan,
    FlatPlan,
    LineItem,
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

_PROFILE_HEADER, _MANIFEST_HEADER = ["t", "power"], ["profile", "cost"]


@contextlib.contextmanager
def _csv_input(path: str, header: list[str]):
    """The CSV file at `path`, open and past its first row, which must be `header` up to whitespace around
    fields; an OSError while it is open becomes InputFormatError."""
    try:
        with open(path, newline="") as fh:
            if [c.strip() for c in next(csv.reader(fh), [])] != header:
                raise InputFormatError(f"{path}, line 1: expected header '{','.join(header)}'")
            yield fh
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}") from exc


def _data_rows(path: str, header: list[str]):
    """(line number, [field, field]) for each data row of a two-column CSV file.

    Rows that are empty or whose fields are all whitespace are skipped;
    any other row must have exactly two fields. Lines are numbered by CSV
    row, the header being line 1.
    """
    with _csv_input(path, header) as fh:
        for ln, row in enumerate(csv.reader(fh), start=2):
            if all(c.strip() == "" for c in row):
                continue
            if len(row) != 2:
                raise InputFormatError(f"{path}, line {ln}: expected 2 fields, got {len(row)}")
            yield ln, row


def _number(path: str, line: int, field: str) -> float:
    """float(field), or InputFormatError naming the line of `path` the field is on."""
    try:
        return float(field)
    except ValueError as exc:
        raise InputFormatError(f"{path}, line {line}: {exc}") from exc


def _read_profile(path: str) -> SampledCurve:
    """Read a profile CSV: header ``t,power``, then one ``time,power`` row per sample.

    Fields may be quoted with ``"`` and padded with whitespace; a field is
    anything Python's ``float()`` reads, including ``1_000``, ``nan`` and
    ``inf`` (non-finite values are then refused). Rows that are empty or
    whose fields are all whitespace are skipped; ``#`` starts no comment.
    Past the blank rows before the first data row, the open file is parsed
    in one pass by ``np.loadtxt``. Only if that fails (at a later row that
    is whitespace-only or all empty fields, too) is the file walked once by
    `_data_rows` and ``float()``, to name the first bad line (lines are
    numbered by CSV row, the header being line 1) or to read what only
    ``float()`` accepts, such as ``1_000``. A bad time, or a power that is not
    finite, is named from that walk, or else from one more walk that stops at
    its row: no file is opened more than twice.
    """
    with _csv_input(path, _PROFILE_HEADER) as fh:
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
    lines = None  # each data row's line number, where the file was walked row by row
    if table is None or table.shape[1] != 2:
        walk = _data_rows(path, _PROFILE_HEADER)
        table = np.array([(_number(path, ln, t), _number(path, ln, p), ln) for ln, (t, p) in walk]).reshape(-1, 3)
        lines = table[:, 2]
    t, powers = table[:, 0], table[:, 1]

    def bad_row(k, what: str) -> InputFormatError:  # data row k's line: from the walk, or one more that stops at it
        ln = int(lines[k]) if lines is not None else next(itertools.islice(_data_rows(path, _PROFILE_HEADER), k, None))[0]
        return InputFormatError(f"{path}, line {ln}: {what}")

    if t.size < 2:
        raise InputFormatError(f"{path}: need at least 2 data rows, got {t.size}")
    if not np.isfinite(t).all():  # before np.diff, which warns at inf - inf; a NaN passes both checks below
        raise bad_row(np.argmin(np.isfinite(t)), "time column must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # steps past the float range: refused here or by Interval
        dt = np.diff(t)
        if np.any(dt <= 0):
            raise bad_row(np.argmax(dt <= 0) + 1, "time column must be strictly increasing")
        step = (t[-1] - t[0]) / (t.size - 1)
        dt -= step  # dt becomes the gap |dt - step| in place: no further N-length array
    np.abs(dt, out=dt)
    if np.max(dt) > 1e-9 * abs(step):
        raise bad_row(np.argmax(dt) + 1, "time column must be uniformly spaced")
    del dt  # freed before the curve copies the powers
    try:
        return SampledCurve(Interval(float(t[0]), float(t[-1])), powers)
    except ValueError as exc:
        if not np.isfinite(powers).all():  # on the refusal path only: the curve's own check found it first
            raise bad_row(np.argmin(np.isfinite(powers)), "power column must be finite") from exc
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


class _Table:
    """A table for JSON output: the list of objects {keys[0]: row[0], ...}, one per row (a tuple of scalars),
    written a block of rows at a time."""

    def __init__(self, keys: tuple[str, ...], rows: Iterable[tuple]) -> None:
        self.keys, self.rows = keys, rows


def _print_json(payload) -> None:
    """Print ``json.dumps(payload, indent=2)``, each `_Table` in it as its list of row objects: json lays out
    the payload with a mark in each table's place, and at each mark the table's rows are encoded and written
    a block of up to 256 at a time, one encoder call per column, so neither its rows nor its text are ever all
    held."""
    tables = []

    def mark(value):  # a str no path holds (none has a NUL), so json writes no other value as it writes this
        if not isinstance(value, _Table):
            return json.JSONEncoder().default(value)  # json's own TypeError
        tables.append(value)
        return "\0"

    parts = json.dumps(payload, indent=2, default=mark).split(json.dumps("\0"))
    write, encode = sys.stdout.write, json.JSONEncoder(separators=("\n", ": ")).encode  # json's C encoder
    write(parts[0])
    for table, before, after in zip(tables, parts, parts[1:]):
        line = before[before.rfind("\n") + 1 :]
        pad = " " * (len(line) - len(line.lstrip(" ")))  # the indent of the line the table opens on
        # one row object with a str.format field for each value, and each key's own braces doubled for it
        keys = (json.dumps(key).replace("{", "{{").replace("}", "}}") for key in table.keys)
        row = f"\n{pad}  {{{{\n{pad}    " + f",\n{pad}    ".join(f"{key}: {{}}" for key in keys) + f"\n{pad}  }}}}"
        rows, sep = iter(table.rows), "["
        while block := list(itertools.islice(rows, 256)):
            # json escapes every newline inside a str, so one splits a column's values
            columns = [encode(column)[1:-1].split("\n") for column in zip(*block)]
            write(sep + ",".join(row.format(*values) for values in zip(*columns)))
            sep = ","
        write(("[]" if sep == "[" else f"\n{pad}]") + after)
    write("\n")


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
        _print_json(_decompose_json(spec, pe, nsq, ratio))
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


def _decompose_json(spec: Spectrum, pe: float, nsq: float, ratio: float | None) -> dict:
    """The `decompose --format json` payload, its harmonics a `_Table`."""
    return {
        "t1": spec.interval.t1,
        "t2": spec.interval.t2,
        "n_max": spec.n_max,
        "a0": spec.a0,
        "harmonics": _Table(("order", "f", "a", "b"), _harmonic_rows(spec)),
        "parseval_energy": pe if math.isfinite(pe) else None,  # past the float range: null, not Infinity
        "norm_squared": nsq if math.isfinite(nsq) else None,
        "parseval_ratio": ratio,
    }


def _billing_result(plan: TariffPlan, load: SampledCurve | Spectrum, args) -> tuple[str, float, Bill | None]:
    """(kind, payment, the dynamism bill or None) of a load curve, or for a dynamism plan of its spectrum
    at n_max `args.nmax`; each payment function refuses a payment that overflows (ValueError)."""
    bill = None
    if isinstance(plan, FlatPlan):
        kind, payment = "flat", classic_payment(plan.unit_price, load)
    elif isinstance(plan, SpotPlan):
        kind, payment = "spot", spot_payment(plan, load)
    else:
        spec = load if isinstance(load, Spectrum) else analyze(load, args.nmax)
        supply: Spectrum | None = None
        if getattr(args, "supply", None):
            supply = analyze(_read_profile(args.supply), args.nmax)
        bill = dynamism_payment(plan, spec, supply)
        kind, payment = "dynamism", bill.total
    return kind, payment, bill


def _cmd_bill(args: argparse.Namespace) -> int:
    load = _read_profile(args.profile)
    plan = _read_plan(args.plan)
    if isinstance(plan, DynamismPlan):
        load = analyze(load, args.nmax)  # the curve is freed before the supply is read and the bill written
    kind, payment, bill = _billing_result(plan, load, args)
    if args.format == "json":
        _print_json(_bill_json(kind, payment, bill))
    elif bill is not None:
        _render_bill_table(bill, f"dynamism bill for {args.profile}")
    else:
        print(f"{kind} payment for {args.profile}: {_fmt(payment)}")
    return 0


def _bill_json(kind: str, payment: float, bill: Bill | None) -> dict:
    """The `bill --format json` payload: a dynamism bill in `Bill.to_dict`'s layout, its line items a `_Table`
    drawn from the bill's own row generator."""
    payload = {"kind": kind, "payment": payment}
    if bill is not None:
        payload["bill"] = {
            "non_dynamic": bill.non_dynamic,
            "dynamic": bill.dynamic,
            "total": bill.total,
            "line_items": _Table(LineItem._fields, bill._rows()),
        }
    return payload


def _cmd_compare(args: argparse.Namespace) -> int:
    curve = _read_profile(args.profile)
    results = []
    for path in (args.plan_a, args.plan_b):
        plan = _read_plan(path)
        kind, payment, _ = _billing_result(plan, curve, args)
        results.append({"plan": path, "kind": kind, "payment": payment})
    diff = results[0]["payment"] - results[1]["payment"]
    if not math.isfinite(diff):
        raise ValueError(f"the payment difference overflows the float range (got {diff})")
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
    for ln, (rel, cost) in _data_rows(manifest, _MANIFEST_HEADER):
        path = os.path.join(base_dir, rel.strip())  # an absolute path replaces base_dir
        observed = _number(manifest, ln, cost)
        yield CostObservation(_read_profile(path), observed)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    count = -1  # not known for a malformed manifest, which the read below refuses with its errors in their order
    with contextlib.suppress(InputFormatError):  # rows counted first: the design matrix is allocated once
        if os.path.isfile(args.observations):  # a pipe, say, can be read only once
            count = sum(1 for _ in _data_rows(args.observations, _MANIFEST_HEADER))
    cc, residuals = _fit_iota(_observations(args.observations), args.nmax, count)
    max_abs = max(abs(r) for r in residuals)
    rms = math.sqrt(sum(r * r for r in residuals) / len(residuals))

    if args.format == "json":
        _print_json(_calibrate_json(cc, max_abs, rms, residuals))
    else:
        print(f"cost characteristic on [{_fmt(cc.interval.t1)}, {_fmt(cc.interval.t2)}], n_max {cc.n_max}")
        print("    index  kind    order  frequency      iota")
        for k, kind, order, f, value in _iota_rows(cc):
            print(f"    {k:>5}  {kind:<6}  {order:>5}  {_fmt(f):>9}  {_fmt(value):>9}")
        print(f"  residual max {_fmt(max_abs)}, rms {_fmt(rms)} over {len(residuals)} observations")
    return 0


def _calibrate_json(cc: CostCharacteristic, max_abs: float, rms: float, residuals: list[float]) -> dict:
    """The `calibrate --format json` payload, its iota rows a `_Table`."""
    return {
        "t1": cc.interval.t1,
        "t2": cc.interval.t2,
        "n_max": cc.n_max,
        "iota": _Table(("index", "kind", "order", "f", "value"), _iota_rows(cc)),
        "residuals": {"max_abs": max_abs, "rms": rms, "per_observation": residuals},
    }


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

@functools.cache  # built once per process (parsing leaves it as it was), not once per command
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
