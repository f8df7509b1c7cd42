"""Command-line entry points: data generation, single runs, rate sweeps,
smoothness analysis, Rademacher estimation, and full reports."""
from __future__ import annotations

import argparse
import json
from dataclasses import fields
from pathlib import Path

import numpy as np


def _load_json(path):
    return json.loads(Path(path).read_text())


def _train_kwargs(args):
    """TrainConfig fields given on the command line."""
    names = ("epochs", "restarts", "learning_rate")
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _json_object(raw, what: str) -> dict:
    """raw itself, or a ValueError if it is not a JSON object."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(raw).__name__}")
    return raw


def _build(cls, raw: dict, what: str):
    """cls(**raw), or a ValueError if raw is not a JSON object or has keys cls does not take."""
    accepted = {f.name for f in fields(cls)}
    unknown = set(_json_object(raw, what)) - accepted
    if unknown:
        raise ValueError(f"unknown {what} keys {sorted(unknown)}; accepted: {sorted(accepted)}")
    return cls(**raw)


def _experiment_config(raw: dict):
    """ExperimentConfig from a JSON-shaped dict (lists, nested arch/train dicts)."""
    from .harness import ExperimentConfig
    from .relunet import ArchitectureSpec, TrainConfig

    raw = dict(_json_object(raw, "sweep config"))
    if raw.get("arch") is not None:
        raw["arch"] = _build(ArchitectureSpec, raw["arch"], "arch")
    if "train" in raw:
        raw["train"] = _build(TrainConfig, raw["train"], "train")
    for key in ("n_values", "k_values", "seeds", "modes", "data_modes"):
        if key in raw:
            raw[key] = tuple(raw[key])
    return _build(ExperimentConfig, raw, "sweep config")


def _sweep(raw: dict, out):
    """Run the sweep a JSON-shaped config dict describes and write its report."""
    from .harness import run_sweep, write_report

    report = run_sweep(_experiment_config(raw))
    write_report(report, out)
    return report


def cmd_gen_data(args):
    from .mdp import UniformPolicy, mdp_from_config, sample_visitation

    mdp = mdp_from_config(args.mdp)
    data = sample_visitation(mdp, UniformPolicy(mdp.n_actions), args.n, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data.save_csv(out)
    print(f"wrote {data.n} transitions to {out}")


def cmd_run_fqi(args):
    from .harness import CellRecord, run_attempt, sweep_setup

    # one sweep cell with the sweep defaults; no retry, so divergence raises
    cfg = _experiment_config({
        "mdp": args.mdp, "n_values": [args.n], "k_values": [args.K], "seeds": [args.seed],
        "modes": [args.mode], "data_modes": [args.data_mode], "alpha": args.alpha,
        "p": args.p, "train": _train_kwargs(args)})
    setup = sweep_setup(cfg)
    (cell,) = cfg.cells()
    rec = CellRecord(*cell, kappa_hat=setup.kappa_hat)
    estimate, trace, residuals = run_attempt(cfg, setup, rec)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["k,train_loss,residual"]
    for k in range(args.K):
        rows.append(f"{k + 1},{float(trace.train_losses[k])!r},{float(residuals[k])!r}")
    (out / "trace.csv").write_text("\n".join(rows) + "\n")
    payload = {"mode": args.mode}
    payload.update({key: getattr(rec, key) for key in
                    ("subopt", "kappa_hat", "bound_rhs", "bound_slack", "max_residual")})
    if args.mode == "ope":
        payload["value"] = estimate
    else:
        payload["greedy_action_by_state_node"] = (
            estimate.act(setup.oracles["opl"].nodes).tolist())
    (out / "result.json").write_text(json.dumps(payload, indent=2) + "\n")
    trace.q_iterates[-1].save(out / "q_final.net")
    print(f"subopt={rec.subopt:.6f} bound_rhs={rec.bound_rhs:.6f} -> {out}")


def cmd_measure_rates(args):
    report = _sweep({
        "mdp": args.mdp, "n_values": args.n_values, "k_values": [args.K],
        "seeds": range(args.seeds), "modes": [args.mode], "data_modes": ["reuse"],
        "arch": _load_json(args.arch) if args.arch is not None else None,
        "alpha": args.alpha, "p": args.p, "train": _train_kwargs(args),
        "jobs": args.jobs}, args.out)
    for fit in report.rate_fits:
        print(f"{fit.mode}/{fit.data_mode}/K={fit.K}: slope={fit.slope:.3f} "
              f"(se {fit.slope_stderr:.3f}); theory stat exponent "
              f"{report.theory['stat_exponent']:.3f}")
    print(f"report written to {args.out}")


def cmd_analyze_smoothness(args):
    from .besov import (BesovParams, FunctionOnGrid, besov_seminorm,
                        estimate_smoothness_exponent, synth_function)

    params = BesovParams(alpha=args.alpha, p=args.p, q=args.q)  # bad values fail before any output
    if args.input:
        f = FunctionOnGrid.load_csv(args.input)
    else:
        f = synth_function(args.kind, args.alpha, d=args.d, seed=args.seed)
    est = estimate_smoothness_exponent(f, args.r, args.p)
    semi = besov_seminorm(f, params)
    payload = {
        "kind": args.kind if not args.input else "file",
        "alpha": args.alpha,
        "difference_order": args.r,
        "estimated_exponent": est.exponent,
        "exponent_saturated": est.saturated,
        "seminorm": semi,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


def cmd_rademacher(args):
    from .rademacher import (FiniteFunctionClass, NetworkFunctionClass,
                             empirical_rademacher, localized_rademacher)
    from .relunet import ArchitectureSpec, ReluNetwork, TrainConfig

    rng = np.random.default_rng(args.seed)
    kind, _, spec_arg = args.cls.partition(":")
    if kind == "finite":
        values = np.loadtxt(spec_arg, delimiter=",", ndmin=2)
        est = empirical_rademacher(FiniteFunctionClass(values), None,
                                   args.draws, args.seed)
    elif kind == "net":
        spec = _build(ArchitectureSpec, _load_json(spec_arg), "arch")
        xs = rng.random((args.n_points, args.input_dim))
        train = TrainConfig(epochs=60, restarts=1, learning_rate=0.3)
        if args.radius is not None:
            anchor = ReluNetwork.random(args.input_dim, spec,
                                        np.random.default_rng(args.seed + 1))
            mu = rng.random((args.n_points, args.input_dim))
            est = localized_rademacher(spec, anchor, args.radius, xs, mu,
                                       args.draws, args.seed)
        else:
            cls = NetworkFunctionClass(spec, train, args.input_dim)
            est = empirical_rademacher(cls, xs, args.draws, args.seed)
    else:
        raise SystemExit("--class must look like finite:<csv> or net:<spec.json>")
    payload = {"value": est.value, "stderr": est.stderr, "method": est.sup_method,
               "bias_note": est.bias_note, "n": est.n, "draws": est.sigma_draws}
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


def cmd_report(args):
    raw = _json_object(_load_json(args.config), "sweep config")
    if args.jobs is not None:
        raw["jobs"] = args.jobs
    report = _sweep(raw, args.out)
    print(f"{len(report.records)} cells -> {args.out}")


def _add_cell_flags(p):
    """Flags run-fqi and measure-rates share: MDP, mode, architecture rate, training."""
    p.add_argument("--mdp", default="chain5", help="preset name or JSON config path")
    p.add_argument("--mode", choices=("ope", "opl"), default="ope")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--p", type=float, default=np.inf)
    p.add_argument("--epochs", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--learning-rate", type=float)


def build_parser():
    parser = argparse.ArgumentParser(prog="fqlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="sample offline transitions from an MDP")
    p.add_argument("--mdp", default="chain5", help="preset name or JSON config path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("run-fqi", help="one value-iteration run with diagnostics")
    _add_cell_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--data-mode", choices=("reuse", "split"), default="reuse")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run_fqi)

    p = sub.add_parser("measure-rates", help="error-vs-n sweep with rate fit")
    _add_cell_flags(p)
    p.add_argument("--n-values", type=int, nargs="+", required=True)
    p.add_argument("--K", type=int, default=10)
    p.add_argument("--seeds", type=int, default=5, help="number of seeds (0..seeds-1)")
    p.add_argument("--arch", help="JSON file with explicit architecture fields")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_measure_rates)

    p = sub.add_parser("analyze-smoothness", help="exponent estimate and seminorm")
    p.add_argument("--input", help="CSV grid function (overrides --kind)")
    p.add_argument("--kind", default="weierstrass",
                   choices=("weierstrass", "spline_series", "piecewise_spiky"))
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--p", type=float, default=np.inf)
    p.add_argument("--q", type=float, default=np.inf)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze_smoothness)

    p = sub.add_parser("rademacher", help="empirical Rademacher complexity")
    p.add_argument("--class", dest="cls", required=True,
                   help="finite:<values.csv> or net:<spec.json>")
    p.add_argument("--draws", type=int, default=200)
    p.add_argument("--radius", type=float, help="localization radius (net classes)")
    p.add_argument("--n-points", type=int, default=128)
    p.add_argument("--input-dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rademacher)

    p = sub.add_parser("report", help="full sweep from a JSON experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
