"""Toy-size self-check of the benchmark.

    python3 -m pytest perfbench/tests -q

Runs every workload on its toy inputs, traced and untraced, and checks that
every metric BENCHMARK.json names is printed with its unit.  Also checks that
the report.csv checks reject corrupted reports, that repeats whose outputs
differ count as failures, and that the benchmark refuses to run without the
fqlab source tree.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    out = bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"git_sha", "src_sha256", "python", "numpy", "scipy", "blas", "thread_env",
            "jobs", "cpu_count", "nproc"} <= set(env)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = bench(tmp_path, "theory_rates", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


# ---------------------------------------------------------------------------
# report.csv checks

GOOD_ROWS = [
    "2048,10,0,ope,reuse,0.2,0.01,45.7,np.float64(2.7),np.float64(2.5),0.06,0",
    "8192,10,0,ope,reuse,0.21,0.012,45.7,2.72,2.51,0.062,0",
]


def write_report(out_dir: Path, rows):
    from fqlab.harness import CSV_COLUMNS, CSV_SCHEMA

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report_schema.json").write_text(json.dumps(CSV_SCHEMA))
    (out_dir / "report.csv").write_text("\n".join([",".join(CSV_COLUMNS)] + rows) + "\n")


def test_checks_accept_a_valid_report_and_count_wrapped_cells(tmp_path):
    write_report(tmp_path, GOOD_ROWS)
    ops, cells, wrapped = workloads.check_report(tmp_path, 2)
    assert [op["ok"] for op in ops] == [True, True]
    assert wrapped == 2
    assert ops[0]["values"][3] == 2.7 and cells[1]["n"] == 8192


@pytest.mark.parametrize("column, value", [
    ("subopt", "-0.1"), ("kappa_hat", "0.5"), ("bound_slack", "np.float64(-0.001)"),
    ("failed", "1"), ("max_residual", "nan"), ("final_train_loss", "inf"),
    ("bound_rhs", "garbage"), ("mode", "bogus"), ("n", "2048.5"),
])
def test_checks_reject_a_corrupted_cell(tmp_path, column, value):
    from fqlab.harness import CSV_COLUMNS

    fields = GOOD_ROWS[1].split(",")
    fields[CSV_COLUMNS.index(column)] = value
    write_report(tmp_path, [GOOD_ROWS[0], ",".join(fields)])
    ops, _, _ = workloads.check_report(tmp_path, 2)
    assert [op["ok"] for op in ops] == [True, False]


@pytest.mark.parametrize("rows, expected, failed", [
    (GOOD_ROWS[:1], 2, 1),                          # a cell is missing
    ([GOOD_ROWS[0], GOOD_ROWS[1][:20]], 2, 1),      # a truncated row
    (GOOD_ROWS + GOOD_ROWS[:1], 2, 1),              # an extra row
])
def test_checks_reject_missing_and_malformed_rows(tmp_path, rows, expected, failed):
    write_report(tmp_path, rows)
    ops, _, _ = workloads.check_report(tmp_path, expected)
    assert sum(not op["ok"] for op in ops) == failed


def test_checks_reject_a_header_that_breaks_the_schema(tmp_path):
    write_report(tmp_path, GOOD_ROWS)
    text = (tmp_path / "report.csv").read_text().replace("subopt", "sub_opt", 1)
    (tmp_path / "report.csv").write_text(text)
    ops, _, _ = workloads.check_report(tmp_path, 2)
    assert not any(op["ok"] for op in ops)


def test_repeats_with_different_outputs_count_as_failed():
    op = {"ok": True, "text": GOOD_ROWS[0], "values": [], "problems": []}
    other = dict(op, text=GOOD_ROWS[1])
    reps = [{"ops": [op, op]}, {"ops": [op, other]}, {"ops": [op]}]
    attempted, failed, _ = run.count_failures(reps)
    assert (attempted, failed) == (6, 2)


def test_values_changed_counts_bitwise_differences():
    ops = [{"values": [0.1, 0.2]}, {"values": [0.3]}]
    assert workloads.values_changed(ops, [[0.1, 0.2], [0.3]]) == 0
    assert workloads.values_changed(ops, [[0.1, math.nextafter(0.2, 1.0)], [0.3]]) == 1
    assert workloads.values_changed(ops, [[0.1, 0.2]]) == 1
    assert workloads.values_changed(ops, None) == -1


def test_sub_root_table_passes_the_sub_root_check():
    from fqlab.rademacher import SubRootSpec

    rng = np.random.default_rng(5)
    radii = [0.02, 0.04, 0.08, 0.16, 0.32]
    for _ in range(200):
        estimates = rng.uniform(0.0, 0.3, len(radii))
        psi = SubRootSpec(form="tabulated", r_values=np.array(radii),
                          psi_values=workloads.sub_root_table(radii, estimates, 1 / 128))
        psi.check_sub_root(1e-20, 2.0)
