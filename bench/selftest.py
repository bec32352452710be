"""Self-test of the benchmark at toy sizes.

    python3 bench/selftest.py

Run from the root of a source checkout. For every workload it runs the
set-up, the untraced and the traced measurement at toy sizes, and requires
every op to pass its reference check and every metric of BENCHMARK.json to
be reported. It then requires that an op counts as failed when one package
result is off by 1e-6 relative, and when the package raises. Exits 0 when
all of this holds.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import sys

import run
import tracing
import workloads

PERTURBED = {  # workload: the public function whose result is nudged by 1e-6 relative
    "year": "tariff.spot_payment",
    "fleet": "tariff.classic_payment",
    "calibrate": "calibrate.supply_cost",
    "cold_cli": "tariff.dynamism_payment",
}


def nudged(func, name):
    def wrapper(*args, **kwargs):
        out = func(*args, **kwargs)
        if isinstance(out, float):
            return out * (1 + 1e-6)
        return dataclasses.replace(out, dynamic=out.dynamic + 1e-6 * out.total)  # a Bill

    return wrapper


def raising(func, name):
    def wrapper(*args, **kwargs):
        raise ValueError("injected failure")

    return wrapper


def fails_with(wl, bindings, make_wrapper, name: str) -> bool:
    """Does an in-process op count as failed with `name` rebound to make_wrapper(func)?"""
    bindings.patch(make_wrapper, names={name})
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            _, ok = run.attempt(wl, wl.inproc_op)
    finally:
        bindings.restore()
    return not ok


def main() -> int:
    ls = run.load_package(run.ROOT)
    declared = {w["name"] for w in json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]}
    problems = []
    if declared != set(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {sorted(declared)} != {sorted(workloads.WORKLOADS)}")

    base = run.ROOT / ".bench_work" / "selftest"
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(ls, run.ROOT, workloads.TOY)
            for trace in (0, 1):
                names, metrics, _, attempted, failed = run.measure(
                    wl, 7, 0.2, trace, base / name, base / f"{name}.spans.npz"
                )
                if failed:
                    problems.append(f"{name}, trace {trace}: {failed} of {attempted} ops missed their reference")
                if set(metrics) != set(names):
                    problems.append(f"{name}, trace {trace}: metrics differ from BENCHMARK.json")
                if not trace:
                    for metric, value in metrics.items():
                        if not (math.isfinite(value) and value > 0):
                            problems.append(f"{name}: end-to-end metric {metric} = {value}")

            (base / name).mkdir(parents=True)  # measure() removed its inputs
            wl.setup(7, base / name)
            bindings = tracing.Bindings(ls)
            if not fails_with(wl, bindings, nudged, PERTURBED[name]):
                problems.append(f"{name}: a 1e-6 error in {PERTURBED[name]} went unnoticed")
            if not fails_with(wl, bindings, raising, "spectrum.analyze"):
                problems.append(f"{name}: a raising spectrum.analyze went unnoticed")
            print(f"{name}: checked", flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
