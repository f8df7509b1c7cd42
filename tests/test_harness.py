import csv
import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

import fqlab
import fqlab.harness as harness
import fqlab.oracle as oracle_module
from fqlab.fqi import decomposition_bound, measure_bellman_residuals, run_lsvi
from fqlab.harness import (RETRY_SEED_OFFSET, AuditSummary, CellRecord, ExperimentConfig,
                           ExperimentReport, audit_decomposition, run_sweep,
                           sample_size_hint, write_report)
from fqlab.mdp import UniformPolicy
from fqlab.relunet import TrainConfig


def tiny_config(**kw):
    base = dict(
        mdp={"kind": "chain5"},
        n_values=(256, 512, 1024, 2048),
        k_values=(3,),
        seeds=(0, 1),
        modes=("ope",),
        data_modes=("reuse",),
        arch=fqlab.ArchitectureSpec(height=2, width=12, sparsity=10**6, weight_bound=8.0),
        train=TrainConfig(epochs=10, restarts=1, learning_rate=1.2,
                          batch_size=256, seed=0),
        residual_samples=512,
        probe_horizons=tuple(range(5)),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def diverging_config(**kw):
    # lr 1e8 overflows the loss between projection checkpoints
    base = dict(
        n_values=(256,), k_values=(2,), seeds=(0,),
        arch=fqlab.ArchitectureSpec(height=3, width=32, sparsity=10**6, weight_bound=1e9),
        train=TrainConfig(epochs=50, restarts=1, learning_rate=1e8, seed=0),
        residual_samples=256, probe_horizons=(0, 1))
    base.update(kw)
    return tiny_config(**base)


def mixed_config(**kw):
    # one cell of every (mode, data_mode) pair
    return tiny_config(n_values=(256,), k_values=(2,), seeds=(0,), modes=("ope", "opl"),
                       data_modes=("reuse", "split"), probe_horizons=(0, 1, 2), **kw)


def _os_threads():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("Threads:"))


def threads_around_a_matmul():
    """This process's thread count before and after a matmul big enough for
    a multi-threaded OpenBLAS to use its thread server."""
    before = _os_threads()
    a = np.ones((256, 256))
    a @ a
    return before, _os_threads()


@pytest.fixture(scope="module")
def tiny_report():
    return run_sweep(tiny_config())


class TestRunSweep:
    def test_report_complete(self, tiny_report):
        assert len(tiny_report.records) == 4 * 2
        assert all(not r.failed for r in tiny_report.records)
        assert tiny_report.kappa_hat >= 1.0

    def test_single_cell_matches_direct_run(self):
        cfg = tiny_config(n_values=(512,), seeds=(3,))
        report = run_sweep(cfg)
        assert len(report.records) == 1
        rec = report.records[0]

        mdp = fqlab.mdp_from_config({"kind": "chain5"})
        pi = UniformPolicy(mdp.n_actions)
        oracle = fqlab.ground_truth(fqlab.build_oracle(mdp), pi)
        data = fqlab.sample_visitation(mdp, pi, 512, seed=3)
        estimate, _ = run_lsvi(data, oracle, cfg.arch, replace(cfg.train, seed=3), 3)
        direct = fqlab.subopt(oracle, estimate)
        assert rec.subopt == pytest.approx(direct, abs=1e-12)

    def test_single_state_sweep_runs_on_its_one_node_chain(self, monkeypatch, tmp_path):
        # every cell runs in a worker and measures its residuals through the
        # multilinear interpolant, whose state axis is the chain's one node
        calls = tmp_path / "multilinear_state_nodes"
        multilinear = oracle_module._multilinear

        def spy(axes, vals, pts):
            with open(calls, "a") as log:
                log.write(f"{len(axes[0])}\n")
            return multilinear(axes, vals, pts)

        monkeypatch.setattr(oracle_module, "_multilinear", spy)
        cfg = tiny_config(mdp="single_state", n_values=(256, 512), seeds=(0,),
                          modes=("ope", "opl"), jobs=2)
        write_report(run_sweep(cfg), tmp_path / "rep")
        with open(tmp_path / "rep" / "report.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(int(r["n"]), r["mode"]) for r in rows] == [
            (256, "ope"), (512, "ope"), (256, "opl"), (512, "opl")]
        for row in rows:
            assert row["failed"] == "0" and np.isfinite(float(row["max_residual"]))
            # a fixed-action probe over the uniform eta on two actions: 2, up to summation noise
            assert float(row["kappa_hat"]) == 2.000000000000007
        assert set(calls.read_text().split()) == {"1"}

    def test_rate_fit_present(self, tiny_report):
        assert len(tiny_report.rate_fits) == 1
        fit = tiny_report.rate_fits[0]
        assert fit.n_values == [256, 512, 1024, 2048]
        assert np.isfinite(fit.slope)
        assert "stat_exponent" in tiny_report.theory

    def test_bound_slack_finite(self, tiny_report):
        for rec in tiny_report.records:
            assert np.isfinite(rec.bound_slack)

    def test_one_grid_build_serves_both_targets(self, monkeypatch):
        builds = []

        def counting_build(*args, **kwargs):
            builds.append(args)
            return fqlab.build_oracle(*args, **kwargs)

        monkeypatch.setattr(harness, "build_oracle", counting_build)
        cfg = tiny_config(n_values=(256,), k_values=(2,), seeds=(0,), modes=("ope", "opl"),
                          probe_horizons=(0, 1, 2))
        report = run_sweep(cfg)
        assert len(builds) == 1
        assert not any(r.failed for r in report.records)
        mdp = fqlab.mdp_from_config(cfg.mdp)
        pi = UniformPolicy(mdp.n_actions)
        fresh = fqlab.estimate_concentration(fqlab.build_oracle(mdp), pi,
                                             fqlab.harness.default_probes(mdp.n_actions),
                                             cfg.probe_horizons)
        assert report.kappa_hat == fresh.kappa_hat

    def test_ope_sweep_solves_only_the_policy_target(self, monkeypatch):
        targets = []

        def recording_ground_truth(oracle, policy=None):
            targets.append(policy)
            return fqlab.ground_truth(oracle, policy)

        monkeypatch.setattr(harness, "ground_truth", recording_ground_truth)
        run_sweep(tiny_config(n_values=(256,), k_values=(2,), seeds=(0,)))
        assert len(targets) == 1 and isinstance(targets[0], UniformPolicy)

    def test_steps_target_equalizes_gradient_steps(self, monkeypatch):
        class Captured(Exception):
            pass

        def capture(data, oracle, arch, train, iterations, data_mode):
            raise Captured(train)

        monkeypatch.setattr(harness, "run_lsvi", capture)
        cfg = tiny_config(n_values=(10_000,), k_values=(10,), seeds=(0,),
                          data_modes=("reuse", "split"),
                          train=TrainConfig(epochs=1, batch_size=1024),
                          train_steps_target=600)
        setup = harness.sweep_setup(cfg)
        steps = {}
        for cell in cfg.cells():
            with pytest.raises(Captured) as caught:
                harness.run_attempt(cfg, setup, CellRecord(*cell))
            train = caught.value.args[0]
            # a reuse fit sees all 10000 samples, a split fit one fold of 1000
            fit_n = 10_000 if cell[4] == "reuse" else 1_000
            batch = min(train.batch_size, fit_n)
            steps[cell[4]] = (train.epochs, -(-fit_n // batch))
        assert steps == {"reuse": (60, 10), "split": (600, 1)}

    def test_nonfinite_loss_recorded_as_failed_cell(self):
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_sweep(diverging_config())
        (rec,) = report.records
        assert rec.failed
        assert rec.seed == 0 + RETRY_SEED_OFFSET
        assert rec.fail_reason.startswith("attempt 1:")
        assert "non-finite" in rec.fail_reason


class TestAudit:
    def test_zero_residual_slack_is_algorithmic_tail(self):
        rec = CellRecord(n=100, K=10, seed=0, mode="ope", data_mode="reuse",
                         subopt=0.0, max_residual=0.0, kappa_hat=2.0,
                         bound_rhs=decomposition_bound("ope", 2.0, 0.9, 10, 0.0))
        rec.bound_slack = rec.bound_rhs - rec.subopt
        report = ExperimentReport(config=tiny_config(), records=[rec],
                                  kappa_hat=2.0, rate_fits=[], theory={}, sizing_hint={})
        audit = audit_decomposition(report)
        assert audit.cells_checked == 1
        assert not audit.violations
        assert audit.min_slack == pytest.approx(0.9 ** 5 / np.sqrt(0.1))

    def test_a_negative_slack_is_a_violation_and_a_failed_cell_is_not_checked(self):
        negative = CellRecord(n=100, K=10, seed=0, mode="ope", data_mode="reuse",
                              subopt=0.5, bound_rhs=0.25, bound_slack=-0.25)
        failed = CellRecord(n=100, K=10, seed=1, mode="ope", data_mode="reuse",
                            bound_slack=-1.0, failed=True)
        report = ExperimentReport(config=tiny_config(), records=[negative, failed],
                                  kappa_hat=2.0, rate_fits=[], theory={}, sizing_hint={})
        audit = audit_decomposition(report)
        assert audit.cells_checked == 1
        assert audit.violations == [negative]
        assert audit.min_slack == -0.25

    def test_tail_shrinks_with_iterations(self):
        r10 = decomposition_bound("opl", 2.0, 0.9, 10, 0.02)
        r300 = decomposition_bound("opl", 2.0, 0.9, 300, 0.02)
        assert r300 < r10
        floor = 4 * 0.9 * np.sqrt(2.0) / 0.01 * 0.02
        assert r300 == pytest.approx(floor, rel=1e-5)

    def test_sweep_audit_no_violations(self, tiny_report):
        audit = audit_decomposition(tiny_report)
        assert audit.cells_checked == len(tiny_report.records)
        assert len(audit.violations) == 0


class TestReportEmission:
    def test_files_and_determinism(self, tmp_path):
        cfg = tiny_config(n_values=(256, 512), seeds=(0,))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        write_report(run_sweep(cfg), out1)
        write_report(run_sweep(cfg), out2)
        for name in ("report.csv", "report.json", "report_schema.json"):
            assert (out1 / name).exists()
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_csv_columns_match_schema(self, tmp_path):
        cfg = tiny_config(n_values=(256,), seeds=(0,), k_values=(2,),
                          modes=("ope", "opl"), data_modes=("reuse", "split"))
        write_report(run_sweep(cfg), tmp_path)
        header, *rows = (tmp_path / "report.csv").read_text().splitlines()
        schema = json.loads((tmp_path / "report_schema.json").read_text())
        assert header.split(",") == list(schema.keys())
        # every cell is a plain int, float or label: no np.float64(...) wrapper
        assert len(rows) == 4
        for row in rows:
            cells = row.split(",")
            assert len(cells) == len(schema)
            for col, cell in zip(schema, cells):
                if col in ("mode", "data_mode"):
                    assert cell in ("ope", "opl", "reuse", "split")
                elif col in ("n", "K", "seed", "failed"):
                    int(cell)
                else:
                    float(cell)

    def test_json_has_audit_and_exponents(self, tmp_path):
        cfg = tiny_config(n_values=(256,), seeds=(0,), k_values=(2,))
        write_report(run_sweep(cfg), tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["audit"]["violation_count"] == 0
        assert "stat_exponent" in payload["theory_exponents"]
        assert payload["sizing_hint"]["n_hint"] > 0

    def test_json_names_where_kappa_hat_came_from(self, tmp_path):
        cfg = tiny_config(n_values=(256,), seeds=(0,), k_values=(2,))
        write_report(run_sweep(cfg), tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        # recompute the probe occupancy over data visitation ratio at the
        # reported probe, horizon and cell: it is the reported kappa_hat
        oracle = fqlab.build_oracle(fqlab.mdp_from_config(cfg.mdp))
        n_actions = len(oracle.action_grid)
        where = payload["kappa_argmax"]
        probe = harness.default_probes(n_actions)[where["probe"]].probs(oracle.nodes)
        occ = oracle.rho[:, None] * probe
        for _ in range(where["horizon"]):
            occ = oracle.next_op.push(occ)[:, None] * probe
        mu = fqlab.tabulate_visitation(oracle, UniformPolicy(n_actions))
        node, action = where["cell"]
        assert occ[node, action] / mu[node, action] == pytest.approx(payload["kappa_hat"],
                                                                     rel=1e-12)
        assert payload["kappa_undefined_cells"] == 0

    def test_json_has_stage_seconds_per_cell(self, tmp_path):
        write_report(run_sweep(mixed_config()), tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        walls = payload["timing_seconds_nondeterministic"]
        stages = payload["stage_seconds_nondeterministic"]
        assert set(stages) == set(walls) and len(walls) == 4
        for key, seconds in stages.items():
            assert set(seconds) == {"sampling", "run_lsvi", "bellman_residuals"}
            assert all(s > 0 for s in seconds.values())
            assert sum(seconds.values()) <= walls[key]

    def test_json_has_setup_seconds(self, tmp_path):
        write_report(run_sweep(mixed_config()), tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        setup = payload["setup_seconds_nondeterministic"]
        assert set(setup) == {"build_oracle", "ground_truth_ope", "ground_truth_opl",
                              "estimate_concentration", "residual_samples"}
        assert all(s > 0 for s in setup.values())
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert "seconds" not in header


class TestConfigValidation:
    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(n_values=())

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(seeds=(1, 1))

    @pytest.mark.parametrize("overrides", [
        {"modes": ("ope", "pe")},
        {"data_modes": ("reuse", "splits")},
        {"n_values": (256, 0)},
        {"k_values": (0,)},
        {"data_modes": ("split",), "n_values": (2, 256), "k_values": (3,)},
        # folds of 1025 and 1024 samples: 2 and 1 batches per epoch
        {"data_modes": ("reuse", "split"), "n_values": (10_240, 10_245), "k_values": (10,),
         "train_steps_target": 600, "train": TrainConfig(batch_size=1024)},
    ])
    def test_degenerate_axes_rejected(self, overrides):
        with pytest.raises(ValueError):
            tiny_config(**overrides)

    @pytest.mark.parametrize("horizons", [(), (-3, 0)], ids=["empty", "negative"])
    def test_degenerate_probe_horizons_rejected(self, horizons):
        with pytest.raises(ValueError, match="probe_horizons"):
            tiny_config(probe_horizons=horizons)

    @pytest.mark.parametrize("overrides,message", [
        ({"alpha": -1.0}, "alpha and epsilon"), ({"alpha": float("nan")}, "alpha and epsilon"),
        ({"alpha": float("inf")}, "alpha and epsilon"), ({"epsilon": 0.0}, "alpha and epsilon"),
        ({"epsilon": float("nan")}, "alpha and epsilon"), ({"delta": 0.0}, "delta"),
        ({"delta": 1.5}, "delta"), ({"delta": float("nan")}, "delta"),
        ({"jobs": 0}, "jobs must be at least 1, got 0"),
        ({"residual_samples": 0}, "residual_samples must be at least 1, got 0"),
        ({"p": 0.0}, "p must be positive"), ({"p": -1.0}, "p must be positive"),
        ({"p": float("nan")}, "p must be positive"),
    ])
    def test_degenerate_rate_hint_and_count_settings_rejected_before_any_oracle(
            self, monkeypatch, overrides, message):
        # each of these used to fail after every cell had run, or not at all
        def no_build(*args, **kwargs):
            raise AssertionError("oracle built for a degenerate config")

        monkeypatch.setattr(harness, "build_oracle", no_build)
        with pytest.raises(ValueError, match=message):
            run_sweep(tiny_config(n_values=(256,), seeds=(0,), **overrides))

    @pytest.mark.parametrize("overrides,message", [
        ({"n_values": (64.7,)}, "n_values must hold integers, got 64.7"),
        ({"n_values": (True,)}, "n_values must hold integers, got True"),
        ({"k_values": (2.5,)}, "k_values must hold integers, got 2.5"),
        ({"seeds": (0.9,)}, "seeds must hold integers, got 0.9"),
        ({"seeds": (0.1, 0.9)}, "seeds must hold integers, got 0.1"),
        ({"probe_horizons": (0.5, 1.5)}, "probe_horizons must hold integers, got 0.5"),
        ({"jobs": 1.5}, "jobs must hold integers, got 1.5"),
        ({"residual_samples": 64.5}, "residual_samples must hold integers, got 64.5"),
        ({"train_steps_target": 600.5}, "train_steps_target must hold integers, got 600.5"),
        ({"train_steps_target": True}, "train_steps_target must hold integers, got True"),
    ])
    def test_a_count_seed_or_horizon_that_is_not_an_integer_fails_before_any_oracle(
            self, monkeypatch, overrides, message):
        # unchecked, int() would truncate each of these or a later step would raise TypeError
        def no_build(*args, **kwargs):
            raise AssertionError("oracle built for a degenerate config")

        monkeypatch.setattr(harness, "build_oracle", no_build)
        with pytest.raises(ValueError, match=message):
            run_sweep(tiny_config(**{"n_values": (256,), "seeds": (0,), **overrides}))

    @pytest.mark.parametrize("overrides,message", [
        ({"n_values": (256, 0)}, "n_values must be at least 1, got 0"),
        ({"k_values": (0,)}, "k_values must be at least 1, got 0"),
        ({"seeds": (0, -1)}, "seeds must be at least 0, got -1"),
        ({"probe_horizons": (-3, 0)}, "probe_horizons must be at least 0, got -3"),
        ({"train_steps_target": 0}, "train_steps_target must be at least 1, got 0"),
        ({"train_steps_target": -5}, "train_steps_target must be at least 1, got -5"),
    ])
    def test_a_count_below_its_least_value_fails_before_any_oracle(
            self, monkeypatch, overrides, message):
        # a negative seed used to abort the sweep in its first cell, after the
        # oracle was built, and a target below 1 trained every fit for one epoch
        builds = []
        monkeypatch.setattr(harness, "build_oracle", lambda *a, **kw: builds.append(a))
        with pytest.raises(ValueError, match=message):
            run_sweep(tiny_config(**{"n_values": (256,), "seeds": (0,), **overrides}))
        assert builds == []

    def test_numpy_integer_counts_are_taken(self):
        cfg = tiny_config(n_values=(np.int64(256),), seeds=(np.int32(0),), jobs=np.int64(1))
        assert list(cfg.cells()) == [(256, 3, 0, "ope", "reuse")]

    @pytest.mark.parametrize("overrides,message", [
        ({"n_values": (256, 1)}, "need n >= 2"),
        ({"alpha": 0.5, "p": 2.0}, "inadmissible"),  # alpha <= d / min(p, 2) at d = 2
    ], ids=["one_sample", "inadmissible_rate"])
    def test_an_architecture_the_selector_rejects_fails_before_any_oracle(
            self, monkeypatch, overrides, message):
        # without arch, a cell picks its architecture after the oracles and
        # kappa are built, and an error there would abort the sweep
        def no_build(*args, **kwargs):
            raise AssertionError("oracle built for a degenerate config")

        monkeypatch.setattr(harness, "build_oracle", no_build)
        with pytest.raises(ValueError, match=message):
            run_sweep(tiny_config(seeds=(0,), arch=None, **overrides))

    def test_split_shorter_than_k_rejected_before_any_oracle(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("oracle built for a degenerate config")

        monkeypatch.setattr(harness, "build_oracle", no_build)
        with pytest.raises(ValueError, match="split"):
            run_sweep(ExperimentConfig(mdp={"kind": "gaussian", "state_dim": 2},
                                       n_values=(4,), k_values=(8,), seeds=(0,),
                                       data_modes=("split",)))

    def test_sizing_hint_scales_with_precision(self):
        loose = sample_size_hint(0.2, 0.05, 2.0, 2)
        tight = sample_size_hint(0.05, 0.05, 2.0, 2)
        assert tight["n_hint"] > loose["n_hint"]
        assert loose["exponent"] == pytest.approx(2.0)


class TestParallel:
    def test_jobs_reproduce_serial_results(self):
        cfg_serial = tiny_config(n_values=(256, 512), seeds=(0, 1))
        cfg_par = tiny_config(n_values=(256, 512), seeds=(0, 1), jobs=2)
        a = run_sweep(cfg_serial)
        b = run_sweep(cfg_par)
        for ra, rb in zip(a.records, b.records):
            assert ra.subopt == rb.subopt
            assert ra.max_residual == rb.max_residual

    def test_worker_report_csv_bytes_match_serial(self, tmp_path):
        write_report(run_sweep(mixed_config()), tmp_path / "serial")
        write_report(run_sweep(mixed_config(jobs=2)), tmp_path / "workers")
        serial = (tmp_path / "serial" / "report.csv").read_bytes()
        assert serial.count(b"\n") == 5
        assert (tmp_path / "workers" / "report.csv").read_bytes() == serial

    def test_diverging_cells_recorded_failed_in_workers(self):
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_sweep(diverging_config(seeds=(0, 1), jobs=2))
        assert [r.seed for r in report.records] == [s + RETRY_SEED_OFFSET for s in (0, 1)]
        for rec in report.records:
            assert rec.failed
            assert rec.fail_reason.startswith("attempt 1:")
            assert "non-finite" in rec.fail_reason

    def test_dead_worker_raises_broken_pool(self, monkeypatch, blas_thread_counts):
        def die(*args, **kwargs):
            os._exit(3)

        # patched before the fork, so the workers inherit it
        monkeypatch.setattr(harness, "run_lsvi", die)
        before = blas_thread_counts()
        with pytest.raises(BrokenProcessPool):
            run_sweep(tiny_config(n_values=(256,), seeds=(0, 1), jobs=2))
        assert blas_thread_counts() == before  # the parent's counts are restored
        assert multiprocessing.active_children() == []

    def test_a_forking_sweep_builds_its_setup_at_one_blas_thread(self, monkeypatch,
                                                                  blas_thread_counts):
        before = blas_thread_counts()
        if not before:
            pytest.skip("no OpenBLAS library reports its thread count")
        seen, build = [], harness.sweep_setup

        def sweep_setup(cfg):
            seen.append(blas_thread_counts())
            return build(cfg)

        monkeypatch.setattr(harness, "sweep_setup", sweep_setup)
        for jobs in (1, 2):  # in-process, the setup keeps the caller's counts
            run_sweep(tiny_config(n_values=(256,), seeds=(0, 1), k_values=(2,), jobs=jobs))
        assert seen == [before, [1] * len(before)]
        assert blas_thread_counts() == before

    def test_workers_start_no_blas_thread(self):
        # a worker inherits OpenBLAS at one thread and calls no setter, which
        # would restart the thread server in the child
        if not os.path.exists("/proc/self/status"):
            pytest.skip("no /proc/self/status")
        assert harness._forked_map(lambda _: threads_around_a_matmul(), [0], 2) == [(1, 1)]

    def test_workers_run_one_blas_thread(self, blas_thread_counts):
        before = blas_thread_counts()
        if not before:
            pytest.skip("no OpenBLAS library reports its thread count")
        run_sweep(tiny_config(n_values=(256,), seeds=(0, 1), k_values=(2,), jobs=2))
        in_worker = harness._forked_map(lambda _: blas_thread_counts(), [0], 2)
        assert in_worker == [[1] * len(before)]
        assert blas_thread_counts() == before

    def test_a_daemonic_process_runs_the_cells_in_process(self, monkeypatch):
        # a daemonic process may start no children: jobs=2 falls back in-process
        cfg = tiny_config(n_values=(256,), seeds=(0, 1), k_values=(2,), jobs=2)
        expected = [(r.subopt, r.max_residual) for r in run_sweep(cfg).records]
        forks = []
        monkeypatch.setattr(harness, "_forked_map", lambda *args: forks.append(args))
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def sweep_and_send():
            send.send(([(r.subopt, r.max_residual) for r in run_sweep(cfg).records], forks))

        proc = ctx.Process(target=sweep_and_send, daemon=True)
        proc.start()
        send.close()  # a child that dies without sending ends recv with EOFError
        assert receive.poll(120) and receive.recv() == (expected, [])
        proc.join(60)
        assert proc.exitcode == 0
