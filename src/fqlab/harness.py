"""Batch experiment orchestration: seeded sweeps, rate fitting,
decomposition-bound auditing, and report emission."""
from __future__ import annotations

import ctypes
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, replace
from functools import cache, partial
from itertools import product
from pathlib import Path

import numpy as np

from .fqi import FqiConfig, decomposition_bound, measure_bellman_residuals, run_lsvi
from .mdp import FixedActionPolicy, UniformPolicy, mdp_from_config, sample_visitation
from .oracle import build_oracle, estimate_concentration, ground_truth, subopt
from .rademacher import rate_exponent
from .relunet import ArchitectureSpec, TrainConfig, TrainingDiverged, architecture_for

RETRY_SEED_OFFSET = 777_000_003

CSV_SCHEMA = {
    "n": "offline sample count of the cell",
    "K": "value-iteration count of the cell",
    "seed": "data/training seed of the cell (post-retry seed when retried)",
    "mode": "ope (policy evaluation) or opl (policy learning)",
    "data_mode": "reuse (full data every iterate) or split (one fold per iterate)",
    "subopt": "measured sub-optimality against the grid oracle",
    "max_residual": "max over k of the visitation-RMS distance of Q_{k+1} from the Bellman image of Q_k",
    "kappa_hat": "probe-based lower estimate of the concentration coefficient (sweep-wide)",
    "bound_rhs": "decomposition bound evaluated with kappa_hat and max_residual",
    "bound_slack": "bound_rhs - subopt (negative values flag a violation)",
    "final_train_loss": "training MSE of the last fitted iterate",
    "failed": "1 when the cell failed after one retry, else 0",
}
CSV_COLUMNS = list(CSV_SCHEMA)


@dataclass
class ExperimentConfig:
    """Sweep axes and shared settings for a batch of value-iteration runs.

    mdp is anything mdp_from_config takes: a config dict, a preset name or a
    JSON file path.  When arch is None, each cell picks its architecture from
    the rate-driven selector using (alpha, p) and the cell's sample count.
    epsilon/delta feed the reported sample-size hint only; nothing is gated
    on it.  Degenerate axes and probe horizons raise ValueError here, before any
    oracle is built.
    """

    mdp: dict | str = field(default_factory=lambda: {"kind": "chain5"})
    n_values: tuple = (1024, 2048, 4096)
    k_values: tuple = (10,)
    seeds: tuple = (0, 1, 2)
    modes: tuple = ("ope",)
    data_modes: tuple = ("reuse",)
    arch: ArchitectureSpec | None = None
    alpha: float = 2.0
    p: float = float("inf")
    train: TrainConfig = field(default_factory=TrainConfig)
    epsilon: float = 0.1
    delta: float = 0.05
    residual_samples: int = 4096
    probe_horizons: tuple = tuple(range(0, 21))
    jobs: int = 1
    # when set, each cell's epoch count is chosen so every fit takes about
    # this many gradient steps regardless of n (isolates the statistical
    # effect of the sample size from the optimization effort); split mode
    # then needs every K to divide every n, so that all folds are equal
    train_steps_target: int | None = None

    def __post_init__(self):
        for axis, name in ((self.n_values, "n_values"), (self.k_values, "k_values"),
                           (self.seeds, "seeds"), (self.modes, "modes"),
                           (self.data_modes, "data_modes")):
            if len(axis) == 0:
                raise ValueError(f"sweep axis {name} must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if not set(self.modes) <= {"ope", "opl"}:
            raise ValueError(f"modes must be 'ope' or 'opl', got {self.modes}")
        if not set(self.data_modes) <= {"reuse", "split"}:
            raise ValueError(f"data_modes must be 'reuse' or 'split', got {self.data_modes}")
        if min(self.n_values) < 1 or min(self.k_values) < 1:
            raise ValueError("every n and every K must be at least 1")
        if len(self.probe_horizons) == 0 or min(self.probe_horizons) < 0:
            raise ValueError("probe_horizons must be nonempty, every horizon at least 0")
        if "split" in self.data_modes and min(self.n_values) < max(self.k_values):
            raise ValueError("split mode needs n >= K in every cell")
        if (self.train_steps_target is not None and "split" in self.data_modes
                and any(n % k for n in self.n_values for k in self.k_values)):
            raise ValueError("split mode with train_steps_target needs every K to divide "
                             "every n: unequal folds would take unequal step counts")

    def cells(self):
        for mode, data_mode, k, n, seed in product(self.modes, self.data_modes, self.k_values,
                                                   self.n_values, self.seeds):
            yield (int(n), int(k), int(seed), mode, data_mode)


@dataclass
class CellRecord:
    n: int
    K: int
    seed: int
    mode: str
    data_mode: str
    subopt: float = float("nan")
    max_residual: float = float("nan")
    kappa_hat: float = float("nan")
    bound_rhs: float = float("nan")
    bound_slack: float = float("nan")
    final_train_loss: float = float("nan")
    failed: bool = False
    fail_reason: str = ""
    wallclock: float = 0.0
    # seconds per stage, summed over both attempts of a retried cell
    sampling_s: float = 0.0
    run_lsvi_s: float = 0.0
    residuals_s: float = 0.0


@dataclass
class RateFit:
    mode: str
    data_mode: str
    K: int
    slope: float
    slope_stderr: float
    n_values: list
    mean_subopt: list


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    records: list
    kappa_hat: float
    rate_fits: list
    theory: dict
    sizing_hint: dict
    setup_seconds: dict = field(default_factory=dict)
    kappa_origin: dict = field(default_factory=dict)


def sample_size_hint(epsilon: float, delta: float, alpha: float, d: int) -> dict:
    """Constant-free fixed point of n = (1/eps^2)^(1+d/alpha) log^6 n + ...

    Reported as a hint only; the analysis leaves the absolute constants
    unspecified, so the value fixes them at 1.
    """
    expo = rate_exponent(alpha, d).sample_exponent
    n = float(np.e ** 2)
    for _ in range(60):
        n = ((1.0 / epsilon ** 2) ** expo * np.log(n) ** 6
             + (1.0 / epsilon ** 2) * (np.log(1.0 / delta) + np.log(np.log(n))))
    return {"epsilon": epsilon, "delta": delta, "exponent": expo, "n_hint": float(n)}


def _ols_slope(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    slope = float(xc @ y / (xc @ xc))
    resid = y - (y.mean() + slope * xc)
    dof = max(len(x) - 2, 1)
    se = float(np.sqrt(resid @ resid / dof / (xc @ xc)))
    return slope, se


def default_probes(n_actions: int):
    return [UniformPolicy(n_actions), FixedActionPolicy(0, n_actions),
            FixedActionPolicy(n_actions - 1, n_actions)]


# OpenBLAS thread-count symbols ("get" or "set" filled in), in the order
# they are tried per library
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_",
                        "openblas_%s_num_threads", "scipy_openblas_%s_num_threads")

# in a forked worker, the function of the _forked_map that started it
_WORKER_FN = None


@cache
def _openblas_libraries():
    """Every OpenBLAS library mapped into this process at the first call
    (numpy ships one; fqlab loads no scipy, but a caller that does maps
    scipy's too), or none where /proc/self/maps does not exist."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return ()
    return tuple(ctypes.CDLL(path) for path in sorted(paths))


def _init_worker(fn):
    # fork hands fn over unpickled, with all it is bound to, so a worker rebuilds none of it
    global _WORKER_FN
    _WORKER_FN = fn


def _run_worker_item(item):
    return _WORKER_FN(item)


def _fork_workers(wanted: int) -> int:
    """wanted, or 1 (in-process) without fork or in a daemonic process."""
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    return wanted if can_fork and not multiprocessing.current_process().daemon else 1


@contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS library at one thread, and restore each one's
    count on exit."""
    restore = []
    for lib in _openblas_libraries():
        symbol = next((s for s in _BLAS_THREAD_SYMBOLS if hasattr(lib, s % "set")), None)
        if symbol is not None:
            get, put = getattr(lib, symbol % "get"), getattr(lib, symbol % "set")
            get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
            restore.append((put, get()))
            put(1)
    try:
        yield
    finally:
        for put, count in restore:
            put(count)


def _forked_map(fn, items, workers: int, here: int = 0) -> list:
    """[fn(item) for item in items]: this process computes the first here
    items while a pool of workers forked processes computes the rest.  This
    process holds one BLAS thread until the pool ends and the workers inherit
    it, so as not to oversubscribe the cores; a setter called in a worker
    would restart OpenBLAS's thread server there.  fn's exceptions reach the
    caller as themselves; a dead worker raises BrokenProcessPool.  On return
    or raise every worker has ended and the thread counts are restored."""
    with _one_blas_thread(), ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker, initargs=(fn,)) as pool:
        rest = pool.map(_run_worker_item, items[here:])
        return [fn(item) for item in items[:here]] + list(rest)


@contextmanager
def _timed(seconds: dict, key: str):
    """Add the seconds spent in the block to seconds[key] (0 when absent);
    vars(rec) as seconds adds them to a CellRecord's stage field."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        seconds[key] = seconds.get(key, 0.0) + time.perf_counter() - t0


@dataclass
class SweepSetup:
    """What every cell of a sweep shares: policy collects the data and is the
    OPE target, and oracles maps each mode to its populated grid oracle, which
    carries the MDP.  kappa_origin holds report.json's kappa_argmax and
    kappa_undefined_cells.  seconds holds the wall time of each setup stage."""

    policy: UniformPolicy
    oracles: dict
    kappa_hat: float
    kappa_origin: dict
    mu_samples: tuple
    seconds: dict


def sweep_setup(cfg: ExperimentConfig) -> SweepSetup:
    """Build the MDP, one grid oracle populated for each mode in cfg.modes,
    the concentration estimate and the residual samples."""
    mdp = mdp_from_config(cfg.mdp)
    policy = UniformPolicy(mdp.n_actions)
    seconds, oracles = {}, {}
    with _timed(seconds, "build_oracle"):
        grid = build_oracle(mdp)
    for mode in cfg.modes:
        with _timed(seconds, f"ground_truth_{mode}"):
            oracles[mode] = ground_truth(grid, policy if mode == "ope" else None)
    with _timed(seconds, "estimate_concentration"):
        conc = estimate_concentration(grid, policy, default_probes(mdp.n_actions),
                                      cfg.probe_horizons)
    with _timed(seconds, "residual_samples"):
        mu_data = sample_visitation(mdp, policy, cfg.residual_samples, seed=940_001)
    origin = {"kappa_argmax": {"probe": conc.argmax_probe, "horizon": conc.argmax_horizon,
                               "cell": conc.argmax_cell},
              "kappa_undefined_cells": len(conc.undefined_cells)}
    return SweepSetup(policy=policy, oracles=oracles, kappa_hat=conc.kappa_hat,
                      kappa_origin=origin, mu_samples=(mu_data.states, mu_data.actions),
                      seconds=seconds)


def run_attempt(cfg: ExperimentConfig, setup: SweepSetup, rec: CellRecord):
    """One attempt at the cell rec names, seeded with rec.seed: fills rec's
    numbers and stage seconds and returns (FqiResult, FqiTrace, residuals).
    A diverged fit raises TrainingDiverged and leaves rec's numbers as they were."""
    oracle = setup.oracles[rec.mode]
    mdp = oracle.mdp
    train = replace(cfg.train, seed=rec.seed)
    if cfg.train_steps_target is not None:
        per_fit = rec.n // rec.K if rec.data_mode == "split" else rec.n
        batch = min(train.batch_size or per_fit, per_fit)
        steps_per_epoch = (per_fit + batch - 1) // batch
        epochs = max(1, int(np.ceil(cfg.train_steps_target / steps_per_epoch)))
        train = replace(train, epochs=epochs)
    fqi_cfg = FqiConfig(
        iterations=rec.K, train=train, data_mode=rec.data_mode,
        arch=cfg.arch or architecture_for(rec.n, cfg.alpha, cfg.p, mdp.dim))
    with _timed(vars(rec), "sampling_s"):
        data = sample_visitation(mdp, setup.policy, rec.n, rec.seed)
    with _timed(vars(rec), "run_lsvi_s"):
        result, trace = run_lsvi(data, fqi_cfg, oracle)
    with _timed(vars(rec), "residuals_s"):
        resid = measure_bellman_residuals(trace, oracle, setup.mu_samples)
    rec.subopt = subopt(oracle, result.estimate)
    rec.max_residual = float(resid.max())
    rec.bound_rhs = decomposition_bound(rec.mode, setup.kappa_hat, mdp.gamma, rec.K, rec.max_residual)
    rec.bound_slack = rec.bound_rhs - rec.subopt
    rec.final_train_loss = float(trace.train_losses[-1])
    return result, trace, resid


def run_cell(cfg: ExperimentConfig, setup: SweepSetup, cell) -> CellRecord:
    """Run one cell, retrying once with a shifted seed after a diverged fit;
    a cell that diverges twice is recorded as failed, never raised."""
    rec = CellRecord(*cell, kappa_hat=setup.kappa_hat)
    t0 = time.perf_counter()
    for attempt, use_seed in enumerate((rec.seed, rec.seed + RETRY_SEED_OFFSET)):
        rec.seed = use_seed
        try:
            run_attempt(cfg, setup, rec)
            rec.failed = False
            rec.fail_reason = ""
            break
        except TrainingDiverged as exc:
            rec.failed = True
            rec.fail_reason = f"attempt {attempt}: {exc}"
    rec.wallclock = time.perf_counter() - t0
    return rec


def run_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute every sweep cell, audit the decomposition bound per cell, and
    fit the empirical error-vs-n rate per (mode, data_mode, K) group.

    Both the data-collection policy and the OPE target policy are uniform over
    the action grid.  Cell failures are retried once with a shifted seed and
    then recorded, never aborting the sweep.  When cfg.jobs > 1 and the sweep
    has more than one cell, cells run in up to cfg.jobs forked worker
    processes with one BLAS thread each, after a setup built at one BLAS
    thread (in-process without fork or in a daemonic process), and the
    parent's thread counts are restored at the end; aggregation is
    order-independent.  A worker that dies raises
    concurrent.futures.process.BrokenProcessPool.
    """
    cells = list(cfg.cells())
    workers = _fork_workers(min(cfg.jobs, len(cells)))
    # a sweep that forks holds one BLAS thread from its setup on: the setup's
    # matmuls are small, and an idle OpenBLAS helper spins on a core the
    # workers need
    with _one_blas_thread() if workers > 1 else nullcontext():
        setup = sweep_setup(cfg)
        cell_fn = partial(run_cell, cfg, setup)
        ordered = (_forked_map(cell_fn, cells, workers) if workers > 1
                   else [cell_fn(cell) for cell in cells])

    rate_fits = []
    for mode, data_mode, k_iter in product(cfg.modes, cfg.data_modes, cfg.k_values):
        group = [r for r in ordered
                 if (r.mode, r.data_mode, r.K) == (mode, data_mode, k_iter) and not r.failed]
        by_n = {}
        for r in group:
            by_n.setdefault(r.n, []).append(r.subopt)
        ns = sorted(by_n)
        if len(ns) < 4:
            continue
        means = [float(np.mean(by_n[n])) for n in ns]
        slope, se = _ols_slope(np.log(ns), np.log(means))
        rate_fits.append(RateFit(mode=mode, data_mode=data_mode, K=int(k_iter), slope=slope,
                                 slope_stderr=se, n_values=ns, mean_subopt=means))

    d = setup.oracles[cfg.modes[0]].mdp.dim
    theory = asdict(rate_exponent(cfg.alpha, d))
    return ExperimentReport(
        config=cfg, records=ordered, kappa_hat=setup.kappa_hat, rate_fits=rate_fits,
        theory=theory, sizing_hint=sample_size_hint(cfg.epsilon, cfg.delta, cfg.alpha, d),
        setup_seconds=setup.seconds, kappa_origin=setup.kappa_origin,
    )


@dataclass
class AuditSummary:
    """Decomposition-bound audit over a finished sweep.

    kappa_hat under-estimates the true shift coefficient, so a negative slack
    can mean either a bug or an insufficient probe set; the audit reports the
    violations and leaves the triage (enlarging the probe set) to the caller.
    """

    cells_checked: int
    violations: list
    min_slack: float
    note: str = ("violations can stem from kappa_hat under-estimation; retry "
                 "with an enlarged probe set before treating them as failures")


def audit_decomposition(report: ExperimentReport) -> AuditSummary:
    checked = 0
    violations = []
    min_slack = float("inf")
    for rec in report.records:
        if rec.failed or not np.isfinite(rec.bound_slack):
            continue
        checked += 1
        min_slack = min(min_slack, rec.bound_slack)
        if rec.bound_slack < 0:
            violations.append(rec)
    return AuditSummary(cells_checked=checked, violations=violations,
                        min_slack=min_slack if checked else float("nan"))


# ---------------------------------------------------------------------------
# report emission


def _fmt(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        # float() drops numpy-2's np.float64(...) repr wrapper; digits are unchanged
        return repr(float(value))
    return str(value)


def _cell_key(rec: CellRecord) -> str:
    return f"{rec.mode}/{rec.data_mode}/n{rec.n}/K{rec.K}/s{rec.seed}"


def write_report(report: ExperimentReport, out_dir) -> None:
    """Emit report.csv (one deterministic row per cell), report.json
    (aggregates, exponents, audit, timing), and the CSV schema file.

    Wallclock lives only in report.json: the CSV must reproduce bit-exactly
    across reruns of the same config.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(CSV_COLUMNS)]
    for rec in report.records:
        row = [_fmt(getattr(rec, col)) for col in CSV_COLUMNS]
        lines.append(",".join(row))
    (out / "report.csv").write_text("\n".join(lines) + "\n")
    (out / "report_schema.json").write_text(json.dumps(CSV_SCHEMA, indent=2) + "\n")

    audit = audit_decomposition(report)
    payload = {
        "kappa_hat": report.kappa_hat,
        **report.kappa_origin,
        "rate_fits": [asdict(f) for f in report.rate_fits],
        "theory_exponents": report.theory,
        "sizing_hint": report.sizing_hint,
        "audit": {
            "cells_checked": audit.cells_checked,
            "violation_count": len(audit.violations),
            "min_slack": audit.min_slack,
            "note": audit.note,
        },
        "timing_seconds_nondeterministic": {
            _cell_key(r): r.wallclock for r in report.records
        },
        "stage_seconds_nondeterministic": {
            _cell_key(r): {"sampling": r.sampling_s, "run_lsvi": r.run_lsvi_s,
                           "bellman_residuals": r.residuals_s}
            for r in report.records
        },
        "setup_seconds_nondeterministic": report.setup_seconds,
        "failures": [
            {"n": r.n, "K": r.K, "seed": r.seed, "reason": r.fail_reason}
            for r in report.records if r.failed
        ],
    }
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
