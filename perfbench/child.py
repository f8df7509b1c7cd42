"""One measured repeat of a workload, in a fresh process started by run.py.

Set-up (interpreter start, imports, config load, input generation) is timed
from the moment the parent spawned this process.  The workload call is then
timed on its own, with user+sys CPU and peak RSS taken from getrusage, and
the outputs are checked afterwards, outside the timed region.  The result is
written as JSON to the path given by --result.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, args.toy, workdir)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer().install()
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.monotonic()
        error = None
        try:
            workload.run()
        except Exception as exc:  # recorded: every operation of this repeat fails
            error = f"run: {type(exc).__name__}: {exc}"
        run_s = time.monotonic() - t0
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        ops, records = [], {}
        if error is None:
            try:
                ops, records = workload.check()
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            ops = [{"ok": False, "text": "", "values": [], "problems": [error]}] * workload.expected_ops
        layer = dict(records)
        layer["harness.values_changed"] = workloads.values_changed(
            ops, workloads.load_reference(args.workload, args.seed, args.toy))
        if tracer is not None:
            layer.update(tracer.summary(getattr(workload, "jobs", 1)))
            tracer.write(workdir / "spans.csv")
        result.update({
            "run_s": run_s,
            "cpu_s": _cpu(usage1) - _cpu(usage0),
            "peak_rss_mb": usage1.ru_maxrss / 1024.0,
            "error": error,
            "ops": ops,
            "layer": layer,
        })
    Path(args.result).write_text(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
