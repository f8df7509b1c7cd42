"""Record the reference numbers that ``harness.values_changed`` compares against.

    python3 perfbench/record_reference.py [--workloads sweep_chain_ope ...]

Runs every workload once on each of its input sets (seeds 0..INPUT_SETS-1)
and writes perfbench/reference.json.  Run it from the root of a checkout of
the commit whose numbers are the reference; a run whose outputs fail a check
is not recorded.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                    choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workloads:
        reference[name] = {}
        for idx in range(workloads.INPUT_SETS):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(idx),
                 "--seconds", "0", "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {idx}: outputs failed their checks; nothing recorded")
            values = HERE.parent / ".perfbench_work" / name / "values.json"
            reference[name][str(idx)] = json.loads(values.read_text())
            print(f"{name} input set {idx}: recorded", flush=True)
    path.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
