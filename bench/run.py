"""loadspace benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload year --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. Each workload is a closed loop: one caller in this process starts
the next op only when the previous one has returned. Every op's output is
checked against numpy references computed at set-up.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, with
times scaled to a reference host speed (see `probe`); --trace 1 reports
the per-layer metrics, from a run that alternates
untraced ops with ops traced by wrappers on every public function of the
package (see tracing.py). The last line of stdout is the result JSON; the
line before it records the environment and sample counts, which are also
written under .bench_work/results/.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: steadier than sharing cores with other work.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_BATCHES = 5
SETUP_BATCH_SECONDS = 0.25  # a batch repeats a cheap set-up until this much time is spent
IMPORT_REPEATS = 3
PROBE_REPEATS = 3
PROBE_RFFTS = 8
PROBE_REF_S = 0.004  # the probe's time at the reference host speed
_PROBE_SIGNAL = np.linspace(0.0, 1.0, 1 << 16)


def load_package(root: Path):
    """Import loadspace (and its cli) from root/src, and only from there."""
    src = root / "src"
    if not (src / "loadspace" / "__init__.py").is_file():
        raise SystemExit(f"no loadspace package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    ls = importlib.import_module("loadspace")
    importlib.import_module("loadspace.cli")
    if Path(ls.__file__).resolve().parent != (src / "loadspace").resolve():
        raise SystemExit(f"loadspace was imported from {ls.__file__}, not from {src}")
    return ls


def metric_specs(root: Path) -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and of the per-layer metrics in BENCHMARK.json."""
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def probe() -> float:
    """Seconds of a fixed piece of numpy work that shares no code with the package.

    The host's speed swings by up to 1.6x in phases of seconds to minutes,
    for numpy and pure-Python code alike. This probe, timed around each op,
    tracks those swings better than a pure-Python loop does, and each op's
    time is scaled by PROBE_REF_S over the mean of the two probes around it.
    The probe is the fastest of PROBE_REPEATS timings, since the first work
    after an op (a child process's exit, above all) can run slow.
    """
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        for _ in range(PROBE_RFFTS):
            np.fft.rfft(_PROBE_SIGNAL)
        best = min(best, perf_counter() - start)
    return best


class Scaled:
    """Times of consecutive ops, raw and scaled to the reference host speed."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._before = probe()

    def add(self, seconds: float) -> None:
        after = probe()
        self.raw.append(seconds)
        self.scaled.append(seconds * 2.0 * PROBE_REF_S / (self._before + after))
        self._before = after


def timed_setup(wl, seed: int, work: Path) -> Scaled:
    """Seconds of one set-up into a fresh `work`, per batch; the last one's inputs stay.

    Each of SETUP_BATCHES batches repeats the set-up until SETUP_BATCH_SECONDS
    are spent, and counts their mean.
    """
    times = Scaled()
    for _ in range(SETUP_BATCHES):
        spent, repeats = 0.0, 0
        while repeats == 0 or spent < SETUP_BATCH_SECONDS:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            start = perf_counter()
            wl.setup(seed, work)
            spent += perf_counter() - start
            repeats += 1
        times.add(spent / repeats)
    return times


def attempt(wl, op) -> tuple[float, bool]:
    """(seconds, passed) of one op; an op that raises, or whose output cannot be read, fails."""
    start = perf_counter()
    try:
        out = op()
        elapsed = perf_counter() - start
        return elapsed, wl.check(out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return perf_counter() - start, False


def tail(samples_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with ten samples beyond.

    Below 21 samples that percentile would not lie above the median; the
    maximum is reported instead, with 0 samples beyond it.
    """
    ordered = sorted(samples_ms)
    i = len(ordered) - 11 if len(ordered) >= 21 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def run_untraced(wl, seconds: float) -> tuple[dict, dict, int, int]:
    _, ok = attempt(wl, wl.memory_pass)  # untimed; doubles as warm-up
    failed = int(not ok)
    times = Scaled()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        elapsed, ok = attempt(wl, wl.op)
        times.add(elapsed)
        failed += not ok
    ms = [t * 1e3 for t in times.raw]
    tail_ms, tail_pct, beyond = tail(ms)
    metrics = {
        "op_p50_ref_ms": statistics.median(times.scaled) * 1e3,
        "peak_mib": wl.peak_bytes / 2**20,
    }
    # Recorded, not gated: raw times swing with the host's speed phases by
    # more than any allowed bound from run to run (see README.md).
    record = {
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms, "tail_percentile": tail_pct, "tail_beyond": beyond,
        "readings_per_s": wl.readings / statistics.fmean(times.raw),
        "readings_per_s_ref": wl.readings / statistics.fmean(times.scaled),
        "ops": len(ms), "op_ms": ms, "op_ref_ms": [t * 1e3 for t in times.scaled],
    }
    return metrics, record, len(ms) + 1, failed


def import_ms(root: Path) -> float:
    """Median cumulative import time of loadspace from `python -X importtime`."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import loadspace"],
            capture_output=True, text=True, env=workloads.child_env(root), cwd=root, timeout=120,
        )
        proc.check_returncode()
        rows = [ln.split("|") for ln in proc.stderr.splitlines() if ln.startswith("import time:")]
        samples.append(next(int(r[1]) for r in rows if r[2].strip() == "loadspace") / 1e3)
    return statistics.median(samples)


def run_traced(wl, seconds: float, names: dict, spans_path: Path) -> tuple[dict, dict, int, int]:
    bindings = tracing.Bindings(wl.ls)

    peaks: list[int] = []  # untimed memory pass; doubles as warm-up
    bindings.patch(tracing.peak_recorder(peaks), names={"spectrum.analyze"})
    try:
        _, ok = attempt(wl, wl.inproc_op)
    finally:
        bindings.restore()
    failed = int(not ok)

    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        elapsed, ok = attempt(wl, wl.inproc_op)
        untraced.append(elapsed)
        failed += not ok
        bindings.patch(tracer.wrap)
        try:
            elapsed, ok = attempt(wl, lambda: tracer.span("op", wl.inproc_op))
        finally:
            bindings.restore()
        traced.append(elapsed)
        failed += not ok
    tracer.save(spans_path)

    per_op = len(traced)
    summary = tracer.summary()
    metrics = {
        "spectrum.analyze.peak_mib": max(peaks, default=0) / 2**20,
        "import.loadspace_ms": import_ms(wl.root),
        # Each traced op is paired with the untraced op just before it, so host drift cancels.
        "trace.overhead_frac": statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0,
    }
    for name in names:
        func, _, field = name.rpartition(".")
        if field in ("calls", "self_ms") and name not in metrics:
            calls, self_ms = summary.get(func, (0, 0.0))
            metrics[name] = (calls if field == "calls" else self_ms) / per_op
    missing = set(names) - set(metrics)
    if missing:
        raise SystemExit(f"per-layer metrics with no source: {sorted(missing)}")
    record = {"ops": len(untraced) + len(traced), "traced_ops": per_op, "spans": len(tracer.start)}
    return metrics, record, len(untraced) + len(traced) + 1, failed


def measure(wl, seed: int, seconds: float, trace: int, work: Path, spans_path: Path):
    """Set up in `work` (removed afterwards) and run; (metric names, metrics, record, attempted, failed)."""
    end_to_end, per_layer = metric_specs(ROOT)
    try:
        setup = timed_setup(wl, seed, work)
        setup_s = statistics.median(setup.scaled)
        if trace:
            names = per_layer
            metrics, record, attempted, failed = run_traced(wl, seconds, names, spans_path)
        else:
            names = end_to_end
            metrics, record, attempted, failed = run_untraced(wl, seconds)
            metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(
        setup_s=setup_s, raw_setup_s=statistics.median(setup.raw),
        setup_batch_s=setup.raw, setup_batch_ref_s=setup.scaled,
    )
    return names, metrics, record, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ls = load_package(ROOT)
    out_dir = ROOT / ".bench_work" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ls, ROOT)
    names, metrics, record, attempted, failed = measure(
        wl, args.seed, args.seconds, args.trace,
        ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}",
        out_dir / f"{args.workload}.spans.npz",
    )
    record.update(
        workload=args.workload, trace=args.trace,
        attempted=attempted, failed=failed, fail_frac=failed / attempted,
        env=environment(args.seed),
    )
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2)
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
