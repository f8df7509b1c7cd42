"""Batch experiment orchestration: seeded sweeps, rate fitting,
decomposition-bound auditing, and report emission."""
from __future__ import annotations

import ctypes
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from .fqi import FqiConfig, decomposition_bound, measure_bellman_residuals, run_lsvi
from .mdp import (FixedActionPolicy, SyntheticMdp, UniformPolicy, mdp_from_config,
                  sample_visitation)
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
    on it.  Degenerate axes raise ValueError here, before any oracle is built.
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
    ope_return: str = "mean"
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


# OpenBLAS thread setters by symbol, in the order they are tried per library
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                        "openblas_set_num_threads", "scipy_openblas_set_num_threads")

# in a forked worker, the cell function of the sweep that started the pool
_WORKER_CELL = None


def _openblas_libraries():
    """Every OpenBLAS library mapped into this process (numpy and scipy each
    ship their own), or none where /proc/self/maps does not exist."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return []
    return [ctypes.CDLL(path) for path in sorted(paths)]


def _pin_blas_threads():
    """One BLAS thread per worker, so that jobs workers do not oversubscribe
    the cores with jobs x BLAS threads."""
    for lib in _openblas_libraries():
        setter = next((getattr(lib, name) for name in _BLAS_THREAD_SETTERS
                       if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def _init_worker(run_cell):
    # fork hands run_cell over unpickled, with the sweep setup it is bound
    # to, so a worker rebuilds none of the MDP, the oracles or the samples
    global _WORKER_CELL
    _WORKER_CELL = run_cell
    _pin_blas_threads()


def _run_worker_cell(cell):
    return _WORKER_CELL(cell)


def _worker_pool(workers: int, run_cell) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(run_cell,))


@contextmanager
def _stage(rec: CellRecord, field_name: str):
    """Add the seconds spent in the block to rec's stage field."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        setattr(rec, field_name, getattr(rec, field_name) + time.perf_counter() - t0)


@dataclass
class SweepSetup:
    """What every cell of a sweep shares: policy collects the data and is the
    OPE target, and oracles maps each mode to its populated grid oracle."""

    mdp: SyntheticMdp
    policy: UniformPolicy
    oracles: dict
    kappa_hat: float
    mu_samples: tuple


def sweep_setup(cfg: ExperimentConfig) -> SweepSetup:
    """Build the MDP, one grid oracle populated for each mode in cfg.modes,
    the concentration estimate and the residual samples."""
    mdp = mdp_from_config(cfg.mdp)
    policy = UniformPolicy(mdp.n_actions)
    grid = build_oracle(mdp)
    oracles = {mode: ground_truth(grid, policy if mode == "ope" else None)
               for mode in cfg.modes}
    conc = estimate_concentration(grid, policy, default_probes(mdp.n_actions),
                                  cfg.probe_horizons)
    mu_data = sample_visitation(mdp, policy, cfg.residual_samples, seed=940_001)
    return SweepSetup(mdp=mdp, policy=policy, oracles=oracles, kappa_hat=conc.kappa_hat,
                      mu_samples=(mu_data.states, mu_data.actions))


def run_attempt(cfg: ExperimentConfig, setup: SweepSetup, rec: CellRecord):
    """One attempt at the cell rec names, seeded with rec.seed: fills rec's
    numbers and stage seconds and returns (FqiResult, FqiTrace, residuals).
    A diverged fit raises TrainingDiverged and leaves rec's numbers as they were."""
    mdp, mode = setup.mdp, rec.mode
    target = setup.policy if mode == "ope" else None
    oracle = setup.oracles[mode]
    train = replace(cfg.train, seed=rec.seed)
    if cfg.train_steps_target is not None:
        per_fit = rec.n // rec.K if rec.data_mode == "split" else rec.n
        batch = min(train.batch_size or per_fit, per_fit)
        steps_per_epoch = (per_fit + batch - 1) // batch
        epochs = max(1, int(np.ceil(cfg.train_steps_target / steps_per_epoch)))
        train = replace(train, epochs=epochs)
    fqi_cfg = FqiConfig(
        iterations=rec.K, mode=mode, train=train, target_policy=target,
        arch=cfg.arch or architecture_for(rec.n, cfg.alpha, cfg.p, mdp.dim),
        data_mode=rec.data_mode, ope_return=cfg.ope_return)
    with _stage(rec, "sampling_s"):
        data = sample_visitation(mdp, setup.policy, rec.n, rec.seed)
    with _stage(rec, "run_lsvi_s"):
        result, trace = run_lsvi(data, fqi_cfg, oracle)
    with _stage(rec, "residuals_s"):
        resid = measure_bellman_residuals(trace, oracle, setup.mu_samples, policy=target)
    rec.subopt = subopt(oracle, result.value if mode == "ope" else result.policy)
    rec.max_residual = float(resid.max())
    rec.bound_rhs = decomposition_bound(mode, setup.kappa_hat, mdp.gamma, rec.K, rec.max_residual)
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
    processes with one BLAS thread each (in-process where the platform cannot
    fork); aggregation is order-independent.  A worker that dies raises
    concurrent.futures.process.BrokenProcessPool.
    """
    setup = sweep_setup(cfg)
    cell_fn = partial(run_cell, cfg, setup)
    cells = list(cfg.cells())
    workers = min(cfg.jobs, len(cells))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        with _worker_pool(workers, cell_fn) as pool:
            ordered = list(pool.map(_run_worker_cell, cells))
    else:
        ordered = [cell_fn(cell) for cell in cells]

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

    d = setup.mdp.dim
    theory = asdict(rate_exponent(cfg.alpha, d))
    return ExperimentReport(
        config=cfg, records=ordered, kappa_hat=setup.kappa_hat, rate_fits=rate_fits,
        theory=theory, sizing_hint=sample_size_hint(cfg.epsilon, cfg.delta, cfg.alpha, d),
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
        "failures": [
            {"n": r.n, "K": r.K, "seed": r.seed, "reason": r.fail_reason}
            for r in report.records if r.failed
        ],
    }
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
