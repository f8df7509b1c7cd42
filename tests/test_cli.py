import json

import numpy as np
import pytest

import fqlab
from fqlab.cli import main


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


class TestReportCommand:
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
