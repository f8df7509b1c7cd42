"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 0 1 2 3 4 5 6 7 8 9 --trace 0 --out spread.json

Runs run.py once per (workload, seed), one at a time, with BENCHMARK.json's
run_seconds.  For every metric it prints the median of the runs, the
quartiles from statistics.quantiles(n=4), the spread (q3 - q1) / median and,
for end-to-end metrics, the spread as a share of the metric's bound.  --out
writes every run's values and the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": bound}
            share = f" = {spread / bound:.2f} of bound {bound}" if bound else ""
            print(f"  {metric:48s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}{share}", flush=True)
        report[name] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
