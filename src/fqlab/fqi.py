"""Least-squares value iteration on offline data, for policy evaluation and
policy learning, with data-reuse and K-fold data-splitting modes."""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .mdp import (GreedyPolicy, OfflineDataset, Policy, SyntheticMdp, pair_with_actions,
                  sample_visitation, state_action_inputs)
from .oracle import GridOracle, apply_bellman, build_oracle, subopt
from .relunet import (ArchitectureSpec, ReluNetwork, TrainConfig, TrainingDiverged,
                      fit_least_squares)


@dataclass
class FqiConfig:
    """One value-iteration run: K regression passes over the offline data.

    data_mode "reuse" fits every iterate on the full dataset; "split" shuffles
    once (seeded) and fits iterate k on fold k of K contiguous equal blocks.
    ope_return picks the final value readout: "mean" is E[Q_K] under the
    initial distribution and target policy, "norm" the root mean square.
    Both are computed and reported; they disagree for non-constant Q.
    """

    iterations: int
    mode: str                              # "ope" | "opl"
    arch: ArchitectureSpec
    train: TrainConfig
    target_policy: Policy | None = None
    data_mode: str = "reuse"
    ope_return: str = "mean"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.mode not in ("ope", "opl"):
            raise ValueError("mode must be 'ope' or 'opl'")
        if self.data_mode not in ("reuse", "split"):
            raise ValueError("data_mode must be 'reuse' or 'split'")
        if self.ope_return not in ("mean", "norm"):
            raise ValueError("ope_return must be 'mean' or 'norm'")
        if self.mode == "ope" and self.target_policy is None:
            raise ValueError("ope mode needs a target policy")


@dataclass
class FqiTrace:
    """Per-run record: the frozen iterates Q_0..Q_K and their training losses."""

    q_iterates: list
    train_losses: np.ndarray
    wallclock: float

    def __post_init__(self):
        if len(self.q_iterates) != len(self.train_losses) + 1:
            raise ValueError("expected one training loss per fitted iterate")


@dataclass
class FqiResult:
    mode: str
    value: float | None              # configured OPE readout, None for OPL
    v_mean: float | None = None
    v_norm: float | None = None
    policy: Policy | None = None
    q_final: ReluNetwork | None = None


def q_on_actions(net: ReluNetwork, states: np.ndarray, action_grid: np.ndarray) -> np.ndarray:
    """Evaluate a network at every action-grid value for each state row."""
    pts = state_action_inputs(*pair_with_actions(states, action_grid))
    return net.forward(pts).reshape(len(states), len(action_grid))


def greedy_policy(net: ReluNetwork, action_grid: np.ndarray) -> GreedyPolicy:
    """Greedy readout of a frozen network on the action grid, first index on ties."""
    grid = np.asarray(action_grid, dtype=float)
    return GreedyPolicy(lambda states: q_on_actions(net, states, grid), len(grid))


def _split_folds(n: int, k_folds: int, seed: int):
    if n < k_folds:
        raise ValueError("split mode needs n >= K")
    if k_folds == 1:
        return [np.arange(n)]  # one fold is the full data; no shuffle so it
        # coincides bit-for-bit with the reuse run
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xf01d]))
    perm = rng.permutation(n)
    return np.array_split(perm, k_folds)


def run_lsvi(data: OfflineDataset, cfg: FqiConfig, mdp: SyntheticMdp | None = None,
             oracle: GridOracle | None = None):
    """Iterated least-squares regression of Bellman targets onto the network class.

    Returns (FqiResult, FqiTrace).  Q_0 is the zero network projected into the
    architecture; iterate k regresses r_i + gamma * continuation(Q_{k-1}, s'_i)
    on the data (or on fold k in split mode).  The final readout integrates on
    the oracle grid; an oracle is built on demand when not supplied.
    """
    mdp = mdp or data.mdp
    if mdp is None:
        raise ValueError("need the generating MDP (pass mdp= or use a dataset that carries it)")
    if oracle is None:
        oracle = build_oracle(mdp)
    t0 = time.perf_counter()
    k_iter = cfg.iterations
    folds = _split_folds(data.n, k_iter, cfg.train.seed) if cfg.data_mode == "split" else None

    grid = mdp.action_grid
    n, n_a = data.n, len(grid)
    xs_all = data.x
    next_pts = state_action_inputs(*pair_with_actions(data.next_states, grid))
    if cfg.mode == "ope":
        pi_probs = cfg.target_policy.probs(data.next_states)

    q = ReluNetwork.zeros(mdp.dim, cfg.arch).projected()
    iterates = [q]
    losses = np.empty(k_iter)
    for k in range(1, k_iter + 1):
        q_next = iterates[-1].forward(next_pts).reshape(n, n_a)
        if cfg.mode == "ope":
            cont = np.sum(pi_probs * q_next, axis=1)
        else:
            cont = q_next.max(axis=1)
        ys = data.rewards + mdp.gamma * cont
        idx = folds[k - 1] if folds is not None else slice(None)
        if cfg.train.epochs == 0:
            q = iterates[-1]  # no steps: every iterate stays at the zero initialization
        else:
            seed_k = int(np.random.SeedSequence([cfg.train.seed, k]).generate_state(1)[0])
            train_k = replace(cfg.train, seed=seed_k)
            init = ReluNetwork.random(mdp.dim, cfg.arch, np.random.default_rng(seed_k))
            try:
                q = fit_least_squares(init, xs_all[idx], ys[idx], train_k)
            except TrainingDiverged as exc:
                raise TrainingDiverged(f"iteration {k}: {exc}") from exc
        losses[k - 1] = q.mse(xs_all[idx], ys[idx])
        iterates.append(q)

    trace = FqiTrace(q_iterates=iterates, train_losses=losses,
                     wallclock=time.perf_counter() - t0)
    q_final = iterates[-1]
    if cfg.mode == "ope":
        table = oracle.tabulate(lambda pts: q_final.forward(pts))
        v_mean = oracle.value_of(table, cfg.target_policy)
        v_norm = float(np.sqrt(oracle.value_of(table ** 2, cfg.target_policy)))
        value = v_mean if cfg.ope_return == "mean" else v_norm
        result = FqiResult(mode="ope", value=value, v_mean=v_mean, v_norm=v_norm,
                           q_final=q_final)
    else:
        result = FqiResult(mode="opl", value=None, policy=greedy_policy(q_final, grid),
                           q_final=q_final)
    return result, trace


def measure_bellman_residuals(trace: FqiTrace, oracle: GridOracle, mdp: SyntheticMdp,
                              mu_samples, policy: Policy | None = None) -> np.ndarray:
    """Visitation-norm distance of each iterate from the Bellman image of its
    predecessor.

    The Bellman image is computed exactly by grid quadrature and interpolated
    at the sample points; the norm is the root mean square over mu_samples.
    Returns the per-iteration array.
    """
    pts = state_action_inputs(*mu_samples)
    out = np.empty(len(trace.q_iterates) - 1)
    for k in range(len(out)):
        q_k = trace.q_iterates[k]
        image = apply_bellman(oracle, mdp, lambda p: q_k.forward(p), policy)
        image_at = oracle.interpolator(image)(pts)
        next_at = trace.q_iterates[k + 1].forward(pts)
        out[k] = float(np.sqrt(np.mean((next_at - image_at) ** 2)))
    return out


def decomposition_bound(mode: str, kappa: float, gamma: float, iterations: int,
                max_residual: float) -> float:
    """Decomposition bound: statistical term scaled by the shift coefficient
    plus the geometric algorithmic tail."""
    if mode == "ope":
        return (np.sqrt(kappa) / (1 - gamma) * max_residual
                + gamma ** (iterations / 2) / np.sqrt(1 - gamma))
    if mode == "opl":
        return (4 * gamma * np.sqrt(kappa) / (1 - gamma) ** 2 * max_residual
                + 4 * gamma ** (1 + iterations / 2) / (1 - gamma) ** 1.5)
    raise ValueError("mode must be 'ope' or 'opl'")


def run_exact_lsvi(oracle: GridOracle, mdp: SyntheticMdp, iterations: int,
                   policy: Policy | None = None, reference: np.ndarray | None = None):
    """Value iteration with exact grid regression in place of the network fit.

    Each iterate is the exact Bellman image of its predecessor tabulated on
    the grid, so the sup-distance to the fixed point must contract by gamma
    at every step; that contraction is asserted.
    """
    q = np.zeros_like(oracle.rewards)
    iterates = [q]
    if reference is None:
        if not oracle.populated:
            raise ValueError("need a populated oracle or an explicit reference table")
        reference = oracle.q
    err = float(np.abs(q - reference).max())
    for _ in range(iterations):
        q = apply_bellman(oracle, mdp, q, policy)
        new_err = float(np.abs(q - reference).max())
        # the reference table is itself only tol-accurate at the fixed point
        if new_err > mdp.gamma * err + oracle.tol:
            raise AssertionError("exact-regression iterates failed to contract")
        err = new_err
        iterates.append(q)
    return iterates


@dataclass
class ComparisonRecord:
    """Seed-paired comparison of data-reuse against K-fold data-splitting."""

    n: int
    iterations: int
    seeds: list
    subopt_reuse: np.ndarray
    subopt_split: np.ndarray

    @property
    def mean_reuse(self):
        return float(self.subopt_reuse.mean())

    @property
    def mean_split(self):
        return float(self.subopt_split.mean())

    def stderr(self, which):
        arr = self.subopt_reuse if which == "reuse" else self.subopt_split
        return float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0

    @property
    def pooled_stderr(self):
        return float(np.hypot(self.stderr("reuse"), self.stderr("split")))


def compare_reuse_vs_split(mdp: SyntheticMdp, oracle: GridOracle, eta: Policy,
                           cfg_base: FqiConfig, n: int, seeds,
                           split_train: TrainConfig | None = None) -> ComparisonRecord:
    """Run both data modes per seed on identical data and score sub-optimality.

    Each seed draws one dataset; the reuse and split runs share it and the
    training seed, so at K = 1 the two runs coincide exactly.  split_train,
    when given, replaces the training settings of the split runs only; use it
    to equalize gradient steps per fit (folds hold n/K samples), so the
    comparison isolates the sample-size effect.
    """
    sub_r, sub_s = [], []
    for seed in seeds:
        data = sample_visitation(mdp, eta, n, int(seed))
        for mode, sink in (("reuse", sub_r), ("split", sub_s)):
            train = cfg_base.train if mode == "reuse" or split_train is None else split_train
            cfg = replace(cfg_base, data_mode=mode,
                          train=replace(train, seed=int(seed)))
            result, _ = run_lsvi(data, cfg, mdp, oracle)
            estimate = result.value if cfg.mode == "ope" else result.policy
            sink.append(subopt(oracle, estimate))
    return ComparisonRecord(n=n, iterations=cfg_base.iterations, seeds=list(seeds),
                            subopt_reuse=np.array(sub_r), subopt_split=np.array(sub_s))
