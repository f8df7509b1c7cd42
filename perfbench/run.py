"""fqlab benchmark: one workload, measured for a fixed time, in fresh processes.

    python3 perfbench/run.py --workload sweep_chain_ope --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout.  Each repeat is a new Python process
(child.py), started one at a time, so imports and oracle builds are paid on
every repeat as a user of ``fqlab report`` pays them.  Repeats continue while
another one is expected to end within --seconds.  --trace 0 reports the end-to-end metrics (medians
over the repeats); --trace 1 alternates untraced and traced repeats and
reports the per-layer metrics of the traced ones.  Metric names and units
come from BENCHMARK.json.  The last stdout line is the JSON result, after a
summary line and an env line that records the environment.  Working files go
to .perfbench_work/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN_BUDGET_S = 170.0   # every run must end within 180 s
SETUP_SAMPLES = 5      # set-up is timed in at least this many processes per run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHARES = {
    "trace.share.relunet": ("relunet.",),
    "trace.share.oracle_next_op": ("oracle.", "mdp.next_op."),
    "trace.share.besov_rademacher": ("besov.", "rademacher."),
}


class BenchError(RuntimeError):
    """The benchmark could not measure: no source tree, or a repeat crashed."""


def spawn(args, workdir: Path, index: int, deadline: float, traced=False, setup_only=False):
    rep_dir = workdir / f"rep{index}"
    result = rep_dir / "result.json"
    rep_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(rep_dir), "--result", str(result)]
    cmd += ["--trace"] * traced + ["--toy"] * args.toy + ["--setup-only"] * setup_only
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before the repeat could start")
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], stdout=sys.stderr,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repeat {index} exceeded the time budget") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"repeat {index} exited with code {proc.returncode}")
    rep = json.loads(result.read_text())
    rep["traced"] = traced
    return rep


def measure(args, workdir: Path):
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    reps, lasted = [], []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        began = time.monotonic()
        reps.append(spawn(args, workdir, len(reps), deadline, traced=traced))
        lasted.append(time.monotonic() - began)
        # stop once another repeat would likely end past --seconds
        expected_end = time.monotonic() + statistics.median(lasted)
        if len(reps) >= (2 if args.trace else 1) and expected_end > start + args.seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, workdir, len(setups), deadline, setup_only=True)["setup_s"])
    return reps, setups


def count_failures(reps):
    """(attempted, failed, problems): an operation fails on a check, or when
    its output differs from the first repeat's."""
    first = [op["text"] for op in reps[0]["ops"]]
    attempted = failed = 0
    problems = []
    for k, rep in enumerate(reps):
        for i, op in enumerate(rep["ops"]):
            attempted += 1
            if i >= len(first) or op["text"] != first[i]:
                failed += 1
                problems.append(f"repeat {k} op {i}: output differs from repeat 0")
            elif not op["ok"]:
                failed += 1
                problems.append(f"repeat {k} op {i}: {'; '.join(op['problems'])}")
        if len(rep["ops"]) < len(first):
            attempted += len(first) - len(rep["ops"])
            failed += len(first) - len(rep["ops"])
            problems.append(f"repeat {k}: {len(first) - len(rep['ops'])} operations missing")
    return attempted, failed, problems


def median_layer(reps):
    keys = set().union(*(r["layer"] for r in reps))
    return {k: statistics.median(r["layer"][k] for r in reps if k in r["layer"]) for k in keys}


def end_to_end(reps, setups, attempted, failed):
    return {
        "run_s": statistics.median(r["run_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(reps):
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    # record-level numbers from untraced repeats, span numbers from traced ones
    layer = {**median_layer(traced), **median_layer(plain)}
    run_traced = statistics.median(r["run_s"] for r in traced)
    layer["trace.run_s"] = run_traced
    layer["trace.overhead_s"] = run_traced - statistics.median(r["run_s"] for r in plain)
    busy = layer["trace.busy_s"]
    for name, prefixes in SHARES.items():
        layer[name] = sum(v for k, v in layer.items()
                          if k.endswith(".self_s") and k.startswith(prefixes)) / busy if busy else 0.0
    draws = layer["rademacher.localized_rademacher.draws"]
    layer["rademacher.localized_rademacher.positive_draw_ratio"] = (
        layer["rademacher.localized_rademacher.positive_draws"] / draws if draws else 0.0)
    return layer


def env_record(workload_jobs):
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=30).stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        nproc = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "jobs": workload_jobs,
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the self-check")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "fqlab" / "__init__.py").is_file():
        raise BenchError(f"no fqlab source tree under {ROOT / 'src'}")
    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    reps, setups = measure(args, workdir)
    attempted, failed, problems = count_failures(reps)
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    if args.trace:
        values, wanted = per_layer(reps), spec["per_layer"]
    else:
        values, wanted = end_to_end(reps, setups, attempted, failed), spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    cfg = json.loads(workloads.config_path(args.workload, args.toy).read_text())
    env = env_record(cfg.get("jobs"))
    (workdir / "values.json").write_text(json.dumps([op["values"] for op in reps[0]["ops"]]) + "\n")
    (workdir / "result.json").write_text(json.dumps(
        {"env": env, "metrics": metrics, "attempted": attempted, "failed": failed,
         "problems": problems, "repeats": len(reps), "setup_samples": setups}, indent=2) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"summary workload={args.workload} seed={args.seed} repeats={len(reps)} "
          f"attempted={attempted} failed={failed} failed_ratio={failed / attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
