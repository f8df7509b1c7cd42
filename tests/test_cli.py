import ctypes
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fqlab
from fqlab import harness
from fqlab.cli import build_parser, main

# report.csv sha256 of `fqlab report` on the toy benchmark configs, recorded
# with numpy 2.4.6 on OpenBLAS's SkylakeX core: the bytes hold for that build
# and core only (another core sums the matmuls in another order)
GOLDEN_NUMPY, GOLDEN_CORE = "2.4.6", "SkylakeX"
GOLDEN_REPORTS = {
    "sweep_chain_ope": "42456d2708d22061bc0aeb00f93c5874d686bbc95effcfc0cd578383780f6d75",
    "sweep_gauss2d": "7b76b141ff0200675325112abb9f7f9d22e5c26175af4cdc6717dfdf0c99e9f1",
}
TOY_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "toy"


def _openblas_core():
    """The core type scipy-openblas picked at load time, or None without it."""
    for lib in harness._openblas_libraries():
        get = getattr(lib, "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            return get().decode()
    return None


def test_every_command_in_the_readme_parses():
    """Each `fqlab ...` line of README's "Command line" block, continuation
    lines joined, parses as written, so a flag the CLI drops fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("fqlab ")]
    assert [argv[0] for argv in commands] == ["gen-data", "run-fqi", "measure-rates",
                                              "analyze-smoothness", "rademacher", "report"]
    for argv in commands:
        build_parser().parse_args(argv)


class TestGenData:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "data.csv"
        main(["gen-data", "--mdp", "chain5", "--n", "100", "--seed", "4",
              "--out", str(out)])
        data = fqlab.OfflineDataset.load_csv(out)
        assert data.n == 100


class TestRunFqi:
    def test_emits_trace_result_and_network(self, tmp_path):
        out = tmp_path / "run"
        main(["run-fqi", "--mdp", "chain5", "--n", "512", "--K", "3",
              "--mode", "ope", "--seed", "1", "--out", str(out),
              "--epochs", "10", "--restarts", "1"])
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "k,train_loss,residual"
        assert len(trace) == 4
        for k, row in enumerate(trace[1:], start=1):
            step, loss, residual = row.split(",")
            assert int(step) == k
            float(loss), float(residual)  # plain floats, no np.float64(...) wrapper
        result = json.loads((out / "result.json").read_text())
        assert {"subopt", "kappa_hat", "bound_rhs", "value"} <= set(result)
        net = fqlab.ReluNetwork.load(out / "q_final.net")
        assert net.input_dim == 2

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_a_non_finite_kernel_sigma_fails_before_any_output(self, tmp_path, sigma):
        mdp = tmp_path / "mdp.json"
        mdp.write_text(json.dumps({"kind": "gaussian", "kernel_sigma": sigma}))
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            main(["run-fqi", "--mdp", str(mdp), "--n", "256", "--K", "2", "--out", str(out),
                  "--epochs", "2", "--restarts", "1"])
        assert not out.exists()

    def test_a_p_that_is_not_positive_fails_before_any_output(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="p must be positive"):
            main(["run-fqi", "--mdp", "chain5", "--n", "64", "--K", "1", "--p", "0",
                  "--out", str(out)])
        assert not out.exists()

    def test_an_mdp_file_that_is_not_a_json_object_fails_before_any_output(self, tmp_path):
        mdp = tmp_path / "list.json"
        mdp.write_text("[1, 2]")
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="mdp config must be a JSON object, got list"):
            main(["run-fqi", "--mdp", str(mdp), "--n", "256", "--K", "2", "--out", str(out)])
        assert not out.exists()

    def test_opl_mode(self, tmp_path):
        out = tmp_path / "run-opl"
        main(["run-fqi", "--mdp", "chain5", "--n", "256", "--K", "2",
              "--mode", "opl", "--seed", "1", "--out", str(out),
              "--epochs", "8", "--restarts", "1"])
        result = json.loads((out / "result.json").read_text())
        assert len(result["greedy_action_by_state_node"]) == 5


class TestAnalyzeSmoothness:
    def test_synthetic_input(self, tmp_path, capsys):
        out = tmp_path / "smooth.json"
        main(["analyze-smoothness", "--kind", "weierstrass", "--alpha", "0.5",
              "--r", "1", "--p", "inf", "--q", "inf", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert abs(payload["estimated_exponent"] - 0.5) <= 0.1
        assert payload["seminorm"] > 0

    def test_csv_input(self, tmp_path):
        f = fqlab.synth_function("weierstrass", 0.5, resolution=257)
        src = tmp_path / "f.csv"
        f.save_csv(src)
        out = tmp_path / "out.json"
        main(["analyze-smoothness", "--input", str(src), "--alpha", "0.5",
              "--out", str(out)])
        assert json.loads(out.read_text())["kind"] == "file"

    @pytest.mark.parametrize("argv", [
        ["analyze-smoothness", "--p", "two"], ["analyze-smoothness", "--q", "inf1"],
        ["run-fqi", "--n", "8", "--K", "1", "--out", "run", "--p", "abc"],
        ["measure-rates", "--n-values", "8", "--out", "rates", "--p", ""]])
    def test_a_bad_norm_exponent_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid float value" in capsys.readouterr().err


    @pytest.mark.parametrize("flag", ["--p", "--q"])
    def test_a_nan_norm_exponent_fails_before_any_output(self, tmp_path, flag):
        out = tmp_path / "smooth.json"
        with pytest.raises(ValueError, match="p and q"):
            main(["analyze-smoothness", flag, "nan", "--out", str(out)])
        assert not out.exists()

    def test_an_infinite_alpha_fails_before_any_output(self, tmp_path, capsys):
        src = tmp_path / "g.csv"
        fqlab.synth_function("weierstrass", 0.5, resolution=65).save_csv(src)
        out = tmp_path / "smooth.json"
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            main(["analyze-smoothness", "--input", str(src), "--alpha", "inf",
                  "--out", str(out)])
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("order", ["0", "-1", "5000"])
    def test_a_difference_order_the_grid_cannot_take_fails_before_any_output(
            self, tmp_path, order):
        out = tmp_path / "smooth.json"
        with pytest.raises(ValueError, match="order"):
            main(["analyze-smoothness", "--r", order, "--out", str(out)])
        assert not out.exists()


class TestRademacherCli:
    def test_finite_class(self, tmp_path):
        vals = np.vstack([np.ones(50), -np.ones(50)])
        src = tmp_path / "cls.csv"
        np.savetxt(src, vals, delimiter=",")
        out = tmp_path / "rad.json"
        main(["rademacher", "--class", f"finite:{src}", "--draws", "500",
              "--seed", "0", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["method"] == "exhaustive"
        assert abs(payload["value"] - np.sqrt(2 / (np.pi * 50))) < 0.02

    def test_net_class_localized(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"height": 2, "width": 6, "sparsity": 10000, "weight_bound": 5.0}))
        out = tmp_path / "rad.json"
        main(["rademacher", "--class", f"net:{spec}", "--draws", "2",
              "--radius", "0.5", "--n-points", "32", "--seed", "0",
              "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["method"] == "trained"
        assert "lower estimate" in payload["bias_note"]


    def test_net_class_spec_with_an_unknown_key_is_rejected(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 2, "widht": 6}))
        out = tmp_path / "rad.json"
        with pytest.raises(ValueError, match=r"unknown arch keys \['widht'\]; accepted"):
            main(["rademacher", "--class", f"net:{spec}", "--draws", "2", "--out", str(out)])
        assert not out.exists()


class TestReportCommand:
    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_toy_benchmark_reports_keep_their_recorded_bytes(self, tmp_path, name):
        here = (np.__version__, _openblas_core())
        if here != (GOLDEN_NUMPY, GOLDEN_CORE):
            pytest.skip(f"bytes recorded with numpy {GOLDEN_NUMPY} on OpenBLAS core "
                        f"{GOLDEN_CORE}; this is numpy {here[0]} on core {here[1]}")
        main(["report", "--config", str(TOY_CONFIGS / f"{name}.json"), "--out", str(tmp_path)])
        digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_REPORTS[name]

    def test_sweep_from_config(self, tmp_path):
        cfg = {
            "mdp": {"kind": "chain5"},
            "n_values": [256, 512],
            "k_values": [2],
            "seeds": [0],
            "modes": ["ope"],
            "data_modes": ["reuse"],
            "arch": {"height": 2, "width": 8, "sparsity": 1000000,
                     "weight_bound": 8.0},
            "train": {"epochs": 8, "restarts": 1, "learning_rate": 1.2,
                      "batch_size": 256},
            "residual_samples": 256,
            "probe_horizons": [0, 1, 2],
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "rep"
        main(["report", "--config", str(cfg_path), "--out", str(out)])
        assert (out / "report.csv").exists()
        payload = json.loads((out / "report.json").read_text())
        assert payload["audit"]["violation_count"] == 0

    @pytest.mark.parametrize("mdp, message", [
        ({"kind": "gaussian", "gamma": 0.999999}, "32236226 value-iteration sweeps"),
        ({"kind": "single_state", "reward": 2}, "node rewards"),
        ({"kind": "single_state", "reward": -1}, "node rewards"),
        ({"kind": "single_state", "reward": float("nan")}, "node rewards")],
        ids=["gamma_near_one", "reward_2", "reward_-1", "reward_nan"])
    def test_a_degenerate_mdp_fails_before_any_oracle_or_output(self, tmp_path, monkeypatch,
                                                                 mdp, message):
        def no_build(*args, **kwargs):
            raise AssertionError("oracle built for a degenerate config")

        monkeypatch.setattr(harness, "build_oracle", no_build)
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"mdp": mdp, "n_values": [32], "k_values": [1],
                                        "seeds": [0], "train": {"epochs": 2}}))
        with pytest.raises(ValueError, match=message):
            main(["report", "--config", str(cfg_path), "--out", str(tmp_path / "rep")])
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("section,key", [(None, "ope_return"), ("train", "epoch"),
                                             ("arch", "depth")])
    def test_unknown_config_key_rejected(self, tmp_path, section, key):
        cfg = {"mdp": "chain5", "n_values": [256], "k_values": [2], "seeds": [0],
               "arch": {"height": 2, "width": 8, "sparsity": 1000000, "weight_bound": 8.0},
               "train": {"epochs": 2}}
        (cfg if section is None else cfg[section])[key] = 1
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match=f"unknown .*'{key}'.*accepted"):
            main(["report", "--config", str(cfg_path), "--out", str(tmp_path / "rep")])
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["config", "jobs_flag"])
    def test_a_config_that_is_not_a_json_object_fails_before_any_output(self, tmp_path, jobs):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="sweep config must be a JSON object, got list"):
            main(["report", "--config", str(cfg_path), "--out", str(tmp_path / "rep"), *jobs])
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("train, message", [
        ({"lr_decay": 0.05}, r"unknown train keys \['lr_decay'\]"),  # a constant, LR_DECAY
        ({"learning_rate": float("nan")}, "learning_rate must be positive")])
    def test_an_untrainable_step_fails_before_any_output(self, tmp_path, train, message):
        cfg = {"mdp": "chain5", "n_values": [256], "k_values": [2], "seeds": [0],
               "arch": {"height": 2, "width": 8, "sparsity": 1000000, "weight_bound": 8.0},
               "train": dict(train, epochs=2)}
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match=message):
            main(["report", "--config", str(cfg_path), "--out", str(tmp_path / "rep")])
        assert not (tmp_path / "rep").exists()


class TestMeasureRates:
    def test_rate_command(self, tmp_path):
        out = tmp_path / "rates"
        main(["measure-rates", "--mdp", "chain5", "--n-values", "256", "512",
              "1024", "2048", "--K", "2", "--seeds", "1", "--out", str(out),
              "--epochs", "8", "--restarts", "1",
              "--arch", str(_write_arch(tmp_path))])
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["rate_fits"]) == 1

    def test_mdp_json_file_without_json_suffix(self, tmp_path):
        mdp_cfg = tmp_path / "mdp.cfg"
        mdp_cfg.write_text('{"kind": "chain5", "gamma": 0.5}')
        out = tmp_path / "rates"
        main(["measure-rates", "--mdp", str(mdp_cfg), "--n-values", "256", "--K", "2",
              "--seeds", "1", "--out", str(out), "--epochs", "2", "--restarts", "1",
              "--arch", str(_write_arch(tmp_path))])
        (row,) = (out / "report.csv").read_text().splitlines()[1:]
        assert row.startswith("256,2,0,ope,reuse,")


class TestRunFqiMatchesSweepCell:
    """run-fqi is one sweep cell: its result.json numbers are the CellRecord's."""

    @pytest.mark.parametrize("mode,data_mode", [("ope", "reuse"), ("opl", "split")])
    def test_result_equals_one_cell_sweep(self, tmp_path, mode, data_mode):
        out = tmp_path / "run"
        main(["run-fqi", "--mdp", "chain5", "--n", "512", "--K", "3", "--mode", mode,
              "--data-mode", data_mode, "--seed", "1", "--out", str(out),
              "--epochs", "10", "--restarts", "1"])
        result = json.loads((out / "result.json").read_text())
        cfg = fqlab.ExperimentConfig(
            mdp={"kind": "chain5"}, n_values=(512,), k_values=(3,), seeds=(1,),
            modes=(mode,), data_modes=(data_mode,),
            train=fqlab.TrainConfig(epochs=10, restarts=1))
        (rec,) = fqlab.run_sweep(cfg).records
        assert not rec.failed
        for key in ("subopt", "kappa_hat", "bound_rhs", "bound_slack", "max_residual"):
            assert result[key] == getattr(rec, key), key


def _write_arch(tmp_path):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps({"height": 2, "width": 8, "sparsity": 1000000,
                                "weight_bound": 8.0}))
    return path


def _run_python(code, *args):
    src = os.path.dirname(os.path.dirname(fqlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300, check=True)


class TestNumpyOnlyRuntime:
    def test_importing_the_cli_loads_no_scipy_and_numpy_random(self):
        code = ("import sys, fqlab.cli; print(sorted(m for m in sys.modules if m == 'scipy' "
                "or m.startswith('scipy.')), 'numpy.random' in sys.modules)")
        assert _run_python(code).stdout.strip() == "[] True"

    def test_a_gaussian_report_in_workers_runs_where_scipy_cannot_be_imported(self, tmp_path):
        cfg = {"mdp": {"kind": "gaussian"}, "n_values": [256, 512], "k_values": [2],
               "seeds": [0], "modes": ["ope"], "data_modes": ["reuse"],
               "arch": {"height": 2, "width": 8, "sparsity": 1000000, "weight_bound": 8.0},
               "train": {"epochs": 4, "restarts": 1, "learning_rate": 1.2, "batch_size": 256},
               "residual_samples": 256, "probe_horizons": [0, 1], "jobs": 2}
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        code = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} cannot be imported here")

sys.meta_path.insert(0, NoScipy())
from fqlab.cli import main
main(["report", "--config", sys.argv[1], "--out", sys.argv[2]])
"""
        _run_python(code, str(cfg_path), str(tmp_path / "no_scipy"))
        main(["report", "--config", str(cfg_path), "--out", str(tmp_path / "here")])
        csv = (tmp_path / "here" / "report.csv").read_bytes()
        assert csv.count(b"\n") == 3
        assert (tmp_path / "no_scipy" / "report.csv").read_bytes() == csv
