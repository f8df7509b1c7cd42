"""Least-squares value iteration on offline data, for policy evaluation and
policy learning, with data-reuse and K-fold data-splitting modes."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mdp import GreedyPolicy, OfflineDataset, Policy, pair_with_actions, state_action_inputs
from .oracle import GridOracle, apply_bellman
from .relunet import (ArchitectureSpec, ReluNetwork, TrainConfig, TrainingDiverged, _forward,
                      fit_least_squares)


@dataclass
class FqiTrace:
    """Per-run record: the frozen iterates Q_0..Q_K and their training losses."""

    q_iterates: list
    train_losses: np.ndarray

    def __post_init__(self):
        if len(self.q_iterates) != len(self.train_losses) + 1:
            raise ValueError("expected one training loss per fitted iterate")


def _target(oracle: GridOracle) -> Policy | None:
    """The populated oracle's target policy, None for the optimal target."""
    if not oracle.populated:
        raise ValueError("need an oracle populated by ground_truth: it names the target")
    return oracle.target


def _split_folds(n: int, k_folds: int, seed: int):
    if n < k_folds:
        raise ValueError("split mode needs n >= K")
    if k_folds == 1:
        return [np.arange(n)]  # one fold is the full data; no shuffle so it
        # coincides bit-for-bit with the reuse run
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xf01d]))
    perm = rng.permutation(n)
    return np.array_split(perm, k_folds)


def run_lsvi(data: OfflineDataset, oracle: GridOracle, arch: ArchitectureSpec,
             train: TrainConfig, iterations: int, data_mode: str = "reuse"):
    """Iterated least-squares regression of Bellman targets onto the network class.

    Returns (estimate, FqiTrace).  estimate is what subopt scores: E_rho,pi[Q_K]
    for the populated oracle's target pi (OPE), integrated on the oracle's grid,
    or the greedy policy of Q_K for the optimal target (OPL).  Q_0 is the zero
    network projected into arch; iterate k = 1..iterations regresses
    r_i + gamma * continuation(Q_{k-1}, s'_i) on the data, with gamma, the
    action grid and the target of the oracle (ValueError if unpopulated).
    data_mode "reuse" fits every iterate on the full data; "split" shuffles once
    (seeded by train.seed) and fits iterate k on fold k of K contiguous equal
    blocks.  iterations below 1 or another data_mode raises ValueError.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if data_mode not in ("reuse", "split"):
        raise ValueError("data_mode must be 'reuse' or 'split'")
    policy = _target(oracle)
    folds = _split_folds(data.n, iterations, train.seed) if data_mode == "split" else None

    mdp = oracle.mdp
    grid = mdp.action_grid
    n, n_a = data.n, len(grid)
    xs_all = data.x
    # the input ReLU of the n * |A| next-state inputs, once per run
    z_next = np.maximum(state_action_inputs(*pair_with_actions(data.next_states, grid)), 0.0)
    if policy is not None:
        pi_probs = policy.probs(data.next_states)

    q = ReluNetwork.zeros(mdp.dim, arch).projected()
    iterates = [q]
    losses = np.empty(iterations)
    cache = None  # every Q_{k-1} is evaluated into the arrays of the first pass
    for k in range(1, iterations + 1):
        prev = iterates[-1]
        cache = _forward(prev.weights, prev.biases, z_next, cache)
        if prev.output_clamp:
            np.clip(cache[0], 0.0, 1.0, out=cache[0])
        q_next = cache[0].reshape(n, n_a)
        if policy is not None:
            cont = np.sum(pi_probs * q_next, axis=1)
        else:
            cont = q_next.max(axis=1)
        ys = data.rewards + mdp.gamma * cont
        idx = folds[k - 1] if folds is not None else slice(None)
        if train.epochs == 0:
            q = iterates[-1]  # no steps: every iterate stays at the zero initialization
        else:
            seed_k = int(np.random.SeedSequence([train.seed, k]).generate_state(1)[0])
            train_k = replace(train, seed=seed_k)
            init = ReluNetwork.random(mdp.dim, arch, np.random.default_rng(seed_k))
            try:
                q = fit_least_squares(init, xs_all[idx], ys[idx], train_k)
            except TrainingDiverged as exc:
                raise TrainingDiverged(f"iteration {k}: {exc}") from exc
        losses[k - 1] = q.mse(xs_all[idx], ys[idx])
        iterates.append(q)

    if policy is not None:
        estimate = oracle.value_of(oracle.tabulate(q.forward), policy)
    else:
        estimate = GreedyPolicy(q, grid)
    return estimate, FqiTrace(q_iterates=iterates, train_losses=losses)


def measure_bellman_residuals(trace: FqiTrace, oracle: GridOracle, mu_samples) -> np.ndarray:
    """Visitation-norm distance of each iterate from the Bellman image of its
    predecessor, under the populated oracle's target.

    The Bellman image is computed exactly by grid quadrature and interpolated
    at the sample points; the norm is the root mean square over mu_samples.
    Returns the per-iteration array.  An unpopulated oracle raises ValueError.
    """
    policy = _target(oracle)
    pts = state_action_inputs(*mu_samples)
    out = np.empty(len(trace.q_iterates) - 1)
    for k in range(len(out)):
        image = apply_bellman(oracle, trace.q_iterates[k].forward, policy)
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


def run_exact_lsvi(oracle: GridOracle, iterations: int, policy: Policy | None = None):
    """Value iteration with exact grid regression in place of the network fit.

    Each iterate is the exact Bellman image of its predecessor tabulated on
    the grid, so the sup-distance to the populated oracle's fixed point must
    contract by gamma at every step; that contraction is asserted.  policy
    must be the target the oracle was populated for.
    """
    if not oracle.populated:
        raise ValueError("need a populated oracle")
    if policy is not oracle.target:
        raise ValueError("policy is not the target the oracle was populated for")
    q = np.zeros_like(oracle.rewards)
    iterates = [q]
    err = float(np.abs(q - oracle.q).max())
    for _ in range(iterations):
        q = apply_bellman(oracle, q, policy)
        new_err = float(np.abs(q - oracle.q).max())
        # the fixed-point table is itself only tol-accurate
        if new_err > oracle.mdp.gamma * err + oracle.tol:
            raise AssertionError("exact-regression iterates failed to contract")
        err = new_err
        iterates.append(q)
    return iterates
