"""Run-to-run steadiness of the end-to-end metrics.

    python3 bench/steadiness.py [workload ...]

Run from the root of a source checkout. Runs `bench/run.py --trace 0` once
for each of the seeds 100 to 109, one run at a time, for each named
workload (default: all in BENCHMARK.json), each for BENCHMARK.json's
run_seconds. For every end-to-end metric it prints the median over the runs
and the spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound; likewise for the raw (unscaled) times and throughput that
run.py records without a bound. Results go to .bench_work/steadiness.json as well.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(100, 110)
RECORDED = ("op_p50_ms", "op_tail_ms", "readings_per_s", "raw_setup_s")  # run.py's record line, not gated


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in doc["workloads"]])
    args = parser.parse_args()

    report = {}
    for workload in args.workloads:
        runs, records = [], []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(doc["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            *_, record, result = proc.stdout.splitlines()
            records.append(json.loads(record))
            runs.append(json.loads(result))
        rows = {}
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        columns = [(m["name"], [r["metrics"][m["name"]]["value"] for r in runs], m["bound"])
                   for m in doc["end_to_end"]]
        columns += [(name, [r[name] for r in records], "none") for name in RECORDED]
        for name, values, bound in columns:
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            rows[name] = {"median": median, "spread": (q3 - q1) / median, "values": values}
            print(f"  {name:<16} median {median:14.6g}  spread {(q3 - q1) / median:7.4f}  bound {bound}")
        report[workload] = rows
    out = ROOT / ".bench_work" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
