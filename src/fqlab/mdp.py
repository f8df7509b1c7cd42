"""Synthetic continuous-state MDPs, policies, and offline data generation.

A state is a point in [0,1]^state_dim, an action is a value on a uniform
grid in [0,1], and regression covariates are the concatenation (s, a), so
the full input space is the unit cube of dimension state_dim + 1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .besov import _weierstrass_axis

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _norm_pdf(z):
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def pair_with_actions(states: np.ndarray, action_grid: np.ndarray):
    """Every (state, grid action) pair, row-major in (state, action): each
    state row repeated once per action, and the action grid tiled."""
    return np.repeat(states, len(action_grid), axis=0), np.tile(action_grid, len(states))


def state_action_inputs(states: np.ndarray, action_values: np.ndarray) -> np.ndarray:
    """Concatenate states and action values into (s, a) network inputs."""
    return np.concatenate([np.asarray(states, dtype=float),
                           np.asarray(action_values, dtype=float)[:, None]], axis=1)


def _sample_rows(rng, probs):
    """One categorical draw per row of a (B, K) probability matrix."""
    cum = np.cumsum(probs, axis=1)
    cum[:, -1] = 1.0  # guard against float shortfall
    u = rng.random(len(probs))
    return np.argmax(u[:, None] <= cum, axis=1)


# ---------------------------------------------------------------------------
# transition kernels


class DenseNextOp:
    """Tabulated next-state operator: probs[i, j, k] = P(node k | node i, action j)."""

    def __init__(self, probs: np.ndarray):
        self.probs = probs
        s, a, s2 = probs.shape
        if s != s2:
            raise ValueError("transition table must be square in the node axis")
        self._flat = probs.reshape(s * a, s2)

    def expect(self, g: np.ndarray) -> np.ndarray:
        """E[g(s')] for every (node, action); g tabulated on the state nodes."""
        s, a, _ = self.probs.shape
        return (self._flat @ np.asarray(g, dtype=float)).reshape(s, a)

    def push(self, occupancy: np.ndarray) -> np.ndarray:
        """Next-state distribution of a joint (node, action) occupancy."""
        return self._flat.T @ occupancy.ravel()


class SeparableNextOp:
    """Axis-factorized next-state operator for product kernels on [0,1]^2.

    When each axis's mean depends only on that axis's coordinate and the
    action, m0 is (G0, A, G0) and m1 (G1, A, G1), and push/expect contract one
    state axis at a time; otherwise both hold one row per (node, action),
    (G0*G1*A, G_axis), and each call is one joint GEMM.
    """

    def __init__(self, m0: np.ndarray, m1: np.ndarray, grid_shape, n_actions: int):
        self.m0 = m0
        self.m1 = m1
        self.grid_shape = tuple(grid_shape)
        self.n_actions = n_actions

    def expect(self, g: np.ndarray) -> np.ndarray:
        (g0, g1), n_act = self.grid_shape, self.n_actions
        g2 = np.asarray(g, dtype=float).reshape(self.grid_shape)
        if self.m0.ndim == 3:
            # u[i0, a, j1] = sum_j0 m0[i0, a, j0] g[j0, j1], then per action
            # vals[a, i0, i1] = sum_j1 u[i0, a, j1] m1[i1, a, j1]
            u = (self.m0.reshape(-1, g0) @ g2).reshape(g0, n_act, g1)
            vals = np.matmul(u.transpose(1, 0, 2), self.m1.transpose(1, 2, 0))
            return vals.transpose(1, 2, 0).reshape(g0 * g1, n_act)
        u = self.m1 @ g2.T  # (X, G0)
        vals = np.einsum("xk,xk->x", self.m0, u)
        return vals.reshape(g0 * g1, n_act)

    def push(self, occupancy: np.ndarray) -> np.ndarray:
        if self.m0.ndim == 3:
            # per action t[a, i0, j1] = sum_i1 occ[i0, i1, a] m1[i1, a, j1],
            # then out[j0, j1] = sum_(i0, a) m0[i0, a, j0] t[a, i0, j1]
            g0, g1 = self.grid_shape
            occ = occupancy.reshape(g0, g1, self.n_actions).transpose(2, 0, 1)
            t = np.matmul(occ, self.m1.transpose(1, 0, 2)).transpose(1, 0, 2)
            return (self.m0.reshape(-1, g0).T @ t.reshape(-1, g1)).ravel()
        # out[i, j] = sum_x occ[x] m0[x, i] m1[x, j] as one GEMM; m0.T is a
        # view, so the only temporary is the occupancy-scaled (G0, X) factor
        occ = occupancy.ravel()
        return ((self.m0.T * occ) @ self.m1).ravel()


class FiniteChainKernel:
    """Chain on a finite set of node states embedded in [0,1].

    The transition matrix interpolates linearly in the action value between
    two row-stochastic matrices, M(a) = (1-a)*m_left + a*m_right, so an
    action-independent kernel is the special case m_left == m_right.
    Next states are always members of ``nodes``.
    """

    is_finite = True

    def __init__(self, nodes: np.ndarray, m_left: np.ndarray, m_right: np.ndarray | None = None):
        self.nodes = np.asarray(nodes, dtype=float)
        self.m_left = np.asarray(m_left, dtype=float)
        self.m_right = self.m_left if m_right is None else np.asarray(m_right, dtype=float)
        n = len(self.nodes)
        for m in (self.m_left, self.m_right):
            if m.shape != (n, n):
                raise ValueError("transition matrix shape does not match node count")
            if np.any(m < 0) or not np.allclose(m.sum(axis=1), 1.0, atol=1e-9):
                raise ValueError("transition matrix rows must be probability vectors")

    def matrix(self, action_values: np.ndarray) -> np.ndarray:
        a = np.asarray(action_values, dtype=float)
        return (1.0 - a)[..., None, None] * self.m_left + a[..., None, None] * self.m_right

    def node_index(self, states: np.ndarray) -> np.ndarray:
        idx = np.argmin(np.abs(states[:, 0][:, None] - self.nodes[None, :]), axis=1)
        return idx

    def sample(self, rng: np.random.Generator, states: np.ndarray, action_values: np.ndarray) -> np.ndarray:
        mats = self.matrix(action_values)  # (B, S, S)
        rows = mats[np.arange(len(states)), self.node_index(states)]
        nxt = _sample_rows(rng, rows)
        return self.nodes[nxt][:, None]

    def node_transition(self, state_axes, action_grid) -> DenseNextOp:
        (axis,) = state_axes
        if len(axis) != len(self.nodes) or not np.allclose(axis, self.nodes):
            raise ValueError("oracle grid must coincide with the chain nodes")
        mats = self.matrix(np.asarray(action_grid))  # (A, S, S)
        probs = np.transpose(mats, (1, 0, 2))
        return DenseNextOp(probs)


class SingleStateKernel:
    """Degenerate kernel for a zero-dimensional state space."""

    is_finite = True
    nodes = None

    def sample(self, rng, states, action_values):
        return np.zeros((len(action_values), 0))

    def node_transition(self, state_axes, action_grid) -> DenseNextOp:
        return DenseNextOp(np.ones((1, len(action_grid), 1)))


class TruncatedGaussianKernel:
    """Truncated-Gaussian transition density on [0,1]^state_dim.

    Per axis, s' ~ N(mean_fn(s,a), sigma^2) renormalized to [0,1]; the
    density is evaluated with the Gaussian pdf and node-cell masses with the
    Gaussian cdf, so tabulated transition rows sum to one exactly.
    """

    is_finite = False

    def __init__(self, mean_fn: Callable, sigma, state_dim: int = 1):
        self.mean_fn = mean_fn  # (states, action_values) -> (B, state_dim) means
        self.sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (state_dim,)).copy()
        self.state_dim = state_dim
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be positive")

    def _means(self, states, action_values):
        m = np.asarray(self.mean_fn(states, action_values), dtype=float)
        if m.ndim == 1:
            m = m[:, None]
        return m

    def sample(self, rng, states, action_values):
        m = self._means(states, action_values)
        out = np.empty_like(m)
        for k in range(self.state_dim):
            lo = ndtr((0.0 - m[:, k]) / self.sigma[k])
            hi = ndtr((1.0 - m[:, k]) / self.sigma[k])
            u = rng.random(len(m))
            out[:, k] = m[:, k] + self.sigma[k] * ndtri(lo + u * (hi - lo))
        return np.clip(out, 0.0, 1.0)

    def _axis_masses(self, means_k, sigma_k, axis_nodes):
        # analytic cell masses: cells are the trapezoid cells of the node grid
        edges = np.concatenate(([axis_nodes[0]], 0.5 * (axis_nodes[1:] + axis_nodes[:-1]), [axis_nodes[-1]]))
        z = (edges[None, :] - means_k[:, None]) / sigma_k
        cdf = ndtr(z)
        lo = ndtr((0.0 - means_k) / sigma_k)
        hi = ndtr((1.0 - means_k) / sigma_k)
        masses = np.diff(cdf, axis=1) / (hi - lo)[:, None]
        # boundary cells absorb the truncated tails
        masses[:, 0] += (cdf[:, 0] - lo) / (hi - lo)
        masses[:, -1] += (hi - cdf[:, -1]) / (hi - lo)
        return masses

    def node_transition(self, state_axes, action_grid):
        action_grid = np.asarray(action_grid, dtype=float)
        if self.state_dim == 1:
            (axis,) = state_axes
            m = self._means(*pair_with_actions(axis[:, None], action_grid))
            masses = self._axis_masses(m[:, 0], self.sigma[0], axis)
            return DenseNextOp(masses.reshape(len(axis), len(action_grid), len(axis)))
        if self.state_dim == 2:
            ax0, ax1 = state_axes
            shape = (len(ax0), len(ax1), len(action_grid))
            nodes = np.stack(np.meshgrid(ax0, ax1, indexing="ij"), axis=-1).reshape(-1, 2)
            m = self._means(*pair_with_actions(nodes, action_grid))
            c = m.reshape(*shape, 2)
            if (c[..., 0] == c[:, :1, :, 0]).all() and (c[..., 1] == c[:1, :, :, 1]).all():
                # axis-local means: tabulate only the G0*A and G1*A distinct rows
                m0 = self._axis_masses(c[:, 0, :, 0].ravel(), self.sigma[0], ax0)
                m1 = self._axis_masses(c[0, :, :, 1].ravel(), self.sigma[1], ax1)
                m0, m1 = m0.reshape(shape[0], shape[2], -1), m1.reshape(shape[1], shape[2], -1)
            else:
                m0 = self._axis_masses(m[:, 0], self.sigma[0], ax0)
                m1 = self._axis_masses(m[:, 1], self.sigma[1], ax1)
            return SeparableNextOp(m0, m1, shape[:2], shape[2])
        raise ValueError("tabulated transitions support state_dim <= 2 only")

    def density(self, states, action_values, next_states):
        m = self._means(states, action_values)
        out = np.ones(len(m))
        for k in range(self.state_dim):
            lo = ndtr((0.0 - m[:, k]) / self.sigma[k])
            hi = ndtr((1.0 - m[:, k]) / self.sigma[k])
            z = (next_states[:, k] - m[:, k]) / self.sigma[k]
            out *= _norm_pdf(z) / (self.sigma[k] * (hi - lo))
        return out


# ---------------------------------------------------------------------------
# initial-state distributions


class PointInit:
    """Point mass on the empty state (zero-dimensional state space)."""

    def sample(self, rng, n):
        return np.zeros((n, 0))

    def mass_on_nodes(self, nodes, node_weights):
        return np.ones(1)


class FiniteInit:
    """Distribution over a finite node set; uniform unless probs are given."""

    def __init__(self, nodes, probs=None):
        self.nodes = np.asarray(nodes, dtype=float)
        if probs is None:
            probs = np.full(len(self.nodes), 1.0 / len(self.nodes))
        self.probs = np.asarray(probs, dtype=float)
        if np.any(self.probs < 0) or not np.isclose(self.probs.sum(), 1.0):
            raise ValueError("probs must be a probability vector")

    def sample(self, rng, n):
        idx = rng.choice(len(self.nodes), size=n, p=self.probs)
        return self.nodes[idx][:, None]

    def mass_on_nodes(self, nodes, node_weights):
        if len(nodes) != len(self.nodes) or not np.allclose(nodes[:, 0], self.nodes):
            raise ValueError("grid nodes must coincide with the finite support")
        return self.probs.copy()


class UniformInit:
    """Uniform density on [0,1]^state_dim."""

    def __init__(self, state_dim: int = 1):
        self.state_dim = state_dim

    def sample(self, rng, n):
        return rng.random((n, self.state_dim))

    def mass_on_nodes(self, nodes, node_weights):
        return node_weights / node_weights.sum()


# ---------------------------------------------------------------------------
# policies


class Policy:
    """Distribution over the action grid, conditioned on the state."""

    def probs(self, states: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, states: np.ndarray) -> np.ndarray:
        """Sample one action index per state row."""
        return _sample_rows(rng, self.probs(states))

    def act(self, states: np.ndarray) -> np.ndarray:
        """Deterministic reading: most probable action index, lowest index on ties."""
        return np.argmax(self.probs(states), axis=1)


class UniformPolicy(Policy):
    def __init__(self, n_actions: int):
        self.n_actions = n_actions

    def probs(self, states):
        return np.full((len(states), self.n_actions), 1.0 / self.n_actions)


class FixedActionPolicy(Policy):
    def __init__(self, index: int, n_actions: int):
        self.index = index
        self.n_actions = n_actions

    def probs(self, states):
        p = np.zeros((len(states), self.n_actions))
        p[:, self.index] = 1.0
        return p


class GreedyPolicy(Policy):
    """argmax over the action grid of a state-action value function.

    q_fn maps a batch of states to a (batch, n_actions) value table; ties
    break toward the smallest action index.
    """

    def __init__(self, q_fn: Callable, n_actions: int):
        self.q_fn = q_fn
        self.n_actions = n_actions

    def probs(self, states):
        q = np.asarray(self.q_fn(states), dtype=float)
        p = np.zeros_like(q)
        p[np.arange(len(q)), np.argmax(q, axis=1)] = 1.0
        return p


# ---------------------------------------------------------------------------
# the MDP container


@dataclass
class SyntheticMdp:
    """Continuous-state MDP with analytically evaluable transition density.

    reward_mean maps (states, action_values) to means in [0,1].  With
    noise_kind "uniform", realized rewards add uniform noise of half-width
    min(reward_noise, mean, 1-mean), staying in [0,1] with the stated mean;
    "bernoulli" draws r in {0,1} with P(1) = mean, the maximal-variance
    reward distribution for that mean (reward_noise is ignored).
    """

    state_dim: int
    gamma: float
    reward_mean: Callable
    reward_noise: float
    kernel: object
    init_dist: object
    action_grid: np.ndarray
    name: str = "mdp"
    noise_kind: str = "uniform"

    def __post_init__(self):
        self.action_grid = np.asarray(self.action_grid, dtype=float)
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("discount must satisfy 0 <= gamma < 1")
        if not (0.0 <= self.reward_noise <= 0.5):
            raise ValueError("reward noise scale must lie in [0, 0.5]")
        if self.action_grid.ndim != 1 or len(self.action_grid) < 1:
            raise ValueError("action grid must be a nonempty 1-d array")
        if self.action_grid.min() < 0.0 or self.action_grid.max() > 1.0:
            raise ValueError("action grid must lie in [0,1]")
        if self.noise_kind not in ("uniform", "bernoulli"):
            raise ValueError("noise_kind must be 'uniform' or 'bernoulli'")

    @property
    def dim(self) -> int:
        """Dimension of the joint state-action input."""
        return self.state_dim + 1

    @property
    def n_actions(self) -> int:
        return len(self.action_grid)

    def sample_rewards(self, rng, states, action_values):
        mean = np.asarray(self.reward_mean(states, action_values), dtype=float)
        if np.any(mean < -1e-12) or np.any(mean > 1 + 1e-12):
            raise ValueError("reward mean escaped [0,1]")
        mean = np.clip(mean, 0.0, 1.0)
        if self.noise_kind == "bernoulli":
            return (rng.random(len(mean)) < mean).astype(float)
        width = np.minimum(self.reward_noise, np.minimum(mean, 1.0 - mean))
        return mean + width * rng.uniform(-1.0, 1.0, size=len(mean))


# ---------------------------------------------------------------------------
# offline data


@dataclass
class OfflineDataset:
    """Logged transitions (s, a, s', r) drawn i.i.d. from the visitation law."""

    states: np.ndarray
    actions: np.ndarray
    next_states: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.actions = np.asarray(self.actions, dtype=float)
        self.next_states = np.asarray(self.next_states, dtype=float)
        self.rewards = np.asarray(self.rewards, dtype=float)
        if self.n < 1:
            raise ValueError("dataset must contain at least one transition")
        for arr, name in ((self.states, "states"), (self.actions, "actions"),
                          (self.next_states, "next_states"), (self.rewards, "rewards")):
            if arr.size and (arr.min() < -1e-12 or arr.max() > 1 + 1e-12):
                raise ValueError(f"{name} escaped [0,1]")

    @property
    def n(self) -> int:
        return len(self.rewards)

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @property
    def x(self) -> np.ndarray:
        return state_action_inputs(self.states, self.actions)

    @staticmethod
    def _columns(state_dim):
        axes = range(state_dim)
        return [f"s{i}" for i in axes] + ["a"] + [f"sp{i}" for i in axes] + ["r"]

    def save_csv(self, path):
        table = np.concatenate([self.states, self.actions[:, None], self.next_states,
                                self.rewards[:, None]], axis=1)
        np.savetxt(path, table, delimiter=",", header=",".join(self._columns(self.state_dim)),
                   comments="", fmt="%.17g")

    @classmethod
    def load_csv(cls, path):
        """Read what save_csv writes: the state dimension comes from the
        header, and any other header, a row of another width or a file with
        no transitions raises ValueError."""
        lines = Path(path).read_text().strip().splitlines()
        header = lines[0].split(",") if lines else []
        ds = (len(header) - 2) // 2
        if header != cls._columns(ds):
            raise ValueError(f"dataset CSV header must read s0..,a,sp0..,r, got {header}")
        if len(lines) < 2:
            raise ValueError("dataset CSV holds no transitions")
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        if table.shape[1] != len(header):
            raise ValueError("dataset CSV rows must be as wide as its header")
        return cls(states=table[:, :ds], actions=table[:, ds],
                   next_states=table[:, ds + 1:2 * ds + 1], rewards=table[:, 2 * ds + 1])


def sample_visitation(mdp: SyntheticMdp, eta: Policy, n: int, seed: int) -> OfflineDataset:
    """Draw n i.i.d. transitions from the discounted visitation distribution.

    Each sample draws a horizon T ~ Geometric(1 - gamma) (support 0, 1, ...),
    rolls out from the initial distribution under eta for T steps, and emits
    (s_T, a_T, s', r).  This samples the (1-gamma)-normalized, discounted
    occupancy mixture exactly, with no truncation bias.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    if mdp.gamma >= 1.0:
        raise ValueError("geometric horizon undefined at gamma = 1")
    rng = np.random.default_rng(seed)
    horizons = rng.geometric(1.0 - mdp.gamma, size=n) - 1
    states = mdp.init_dist.sample(rng, n)

    out_s = np.empty((n, mdp.state_dim))
    out_a = np.empty(n)
    out_sp = np.empty((n, mdp.state_dim))
    out_r = np.empty(n)

    active = np.arange(n)
    t = 0
    while len(active):
        s_act = states[active]
        a_idx = eta.sample(rng, s_act)
        a_val = mdp.action_grid[a_idx]
        s_next = mdp.kernel.sample(rng, s_act, a_val)
        finish = horizons[active] == t
        fin = active[finish]
        if len(fin):
            out_s[fin] = s_act[finish]
            out_a[fin] = a_val[finish]
            out_sp[fin] = s_next[finish]
            out_r[fin] = mdp.sample_rewards(rng, s_act[finish], a_val[finish])
        states[active] = s_next
        active = active[~finish]
        t += 1

    return OfflineDataset(out_s, out_a, out_sp, out_r)


# ---------------------------------------------------------------------------
# ready-made MDPs


def make_single_state_mdp(gamma=0.5, reward=0.5, n_actions=2, noise=0.0) -> SyntheticMdp:
    """One-point state space with a constant mean reward."""
    r = float(reward)
    return SyntheticMdp(
        state_dim=0, gamma=gamma,
        reward_mean=lambda s, a: np.full(len(a), r),
        reward_noise=noise, kernel=SingleStateKernel(), init_dist=PointInit(),
        action_grid=np.linspace(0.0, 1.0, n_actions), name="single_state",
    )


def make_finite_mdp(matrix, node_rewards, gamma, n_actions=2, noise=0.0,
                    m_right=None) -> SyntheticMdp:
    """Finite chain with action-independent rewards given per node."""
    matrix = np.asarray(matrix, dtype=float)
    node_rewards = np.asarray(node_rewards, dtype=float)
    nodes = np.linspace(0.0, 1.0, len(node_rewards)) if len(node_rewards) > 1 else np.array([0.5])
    kernel = FiniteChainKernel(nodes, matrix, m_right)

    def reward(states, actions):
        return node_rewards[kernel.node_index(states)]

    return SyntheticMdp(
        state_dim=1, gamma=gamma, reward_mean=reward, reward_noise=noise,
        kernel=kernel, init_dist=FiniteInit(nodes),
        action_grid=np.linspace(0.0, 1.0, n_actions), name="finite",
    )


def _drift_matrices(n_states):
    # m_left drifts toward node 0, m_right toward the last node
    def build(back, stay, fwd):
        m = np.zeros((n_states, n_states))
        for i in range(n_states):
            m[i, max(i - 1, 0)] += back
            m[i, i] += stay
            m[i, min(i + 1, n_states - 1)] += fwd
        return m

    return build(0.6, 0.3, 0.1), build(0.1, 0.3, 0.6)


def make_chain_mdp(n_states=5, gamma=0.9, n_actions=11, noise=0.1, normalize=True,
                   noise_kind="uniform") -> SyntheticMdp:
    """Chain of node states with action-controlled drift.

    With normalize=True the mean reward is scaled by (1 - gamma) so value
    functions land in [0,1] and the unit-ball network class is a valid
    hypothesis space.
    """
    nodes = np.linspace(0.0, 1.0, n_states)
    m_left, m_right = _drift_matrices(n_states)
    kernel = FiniteChainKernel(nodes, m_left, m_right)
    scale = (1.0 - gamma) if normalize else 1.0

    def reward(states, actions):
        base = 0.25 + 0.5 * states[:, 0] + 0.25 * np.sin(np.pi * np.asarray(actions))
        return scale * base

    return SyntheticMdp(
        state_dim=1, gamma=gamma, reward_mean=reward, reward_noise=noise,
        kernel=kernel, init_dist=FiniteInit(nodes),
        action_grid=np.linspace(0.0, 1.0, n_actions), name=f"chain{n_states}",
        noise_kind=noise_kind,
    )


def make_gaussian_mdp(gamma=0.9, sigma=0.15, n_actions=11, noise=0.05, normalize=True,
                      state_dim=1) -> SyntheticMdp:
    """Smooth MDP: truncated-Gaussian transitions, analytic reward surface.

    With state_dim = 2 the kernel is an axis-separable product of truncated
    Gaussians: the action drifts the first axis and the second contracts on
    its own.  Each axis's mean depends only on that axis's coordinate and the
    action, so the grid oracle's SeparableNextOp contracts one axis at a time;
    a mean that coupled the axes would fall back to the joint GEMM.
    """
    if state_dim == 1:
        def mean_fn(s, a):
            return s[:, 0] + 0.25 * (np.asarray(a) - 0.5)
    elif state_dim == 2:
        def mean_fn(s, a):
            drift = 0.25 * (np.asarray(a) - 0.5)
            return np.stack([s[:, 0] + drift, 0.85 * s[:, 1] + 0.075], axis=1)
    else:
        raise ValueError("gaussian MDPs support state_dim in {1, 2}")
    kernel = TruncatedGaussianKernel(mean_fn=mean_fn, sigma=sigma, state_dim=state_dim)
    scale = (1.0 - gamma) if normalize else 1.0

    def reward(states, actions):
        base = 0.5 + 0.4 * np.sin(np.pi * states[:, 0]) * np.cos(0.5 * np.pi * np.asarray(actions))
        if state_dim == 2:
            base = 0.5 + (base - 0.5) * np.cos(0.5 * np.pi * states[:, 1])
        return scale * base

    return SyntheticMdp(
        state_dim=state_dim, gamma=gamma, reward_mean=reward, reward_noise=noise,
        kernel=kernel, init_dist=UniformInit(state_dim),
        action_grid=np.linspace(0.0, 1.0, n_actions), name=f"gaussian{state_dim}d",
    )


def make_rough_reward_mdp(alpha=0.5, gamma=0.0, n_actions=11, sigma=0.15, terms=26) -> SyntheticMdp:
    """MDP whose mean reward is a lacunar cosine series of prescribed roughness.

    Used to probe how much smoothness the Bellman image inherits from the
    reward; at gamma = 0 the Bellman image IS the reward.
    """
    w = _weierstrass_axis(np.linspace(0.0, 1.0, 4097), alpha, terms)
    w_lo, w_hi = w.min(), w.max()

    def reward(states, actions):
        v = _weierstrass_axis(states[:, 0], alpha, terms)
        # range normalized on a finite grid; clip the off-grid overshoot
        return np.clip((v - w_lo) / (w_hi - w_lo), 0.0, 1.0)

    kernel = TruncatedGaussianKernel(mean_fn=lambda s, a: s[:, 0], sigma=sigma, state_dim=1)
    return SyntheticMdp(
        state_dim=1, gamma=gamma, reward_mean=reward, reward_noise=0.0,
        kernel=kernel, init_dist=UniformInit(1),
        action_grid=np.linspace(0.0, 1.0, n_actions), name="rough_reward",
    )


_PRESETS = {
    "chain5": lambda cfg: make_chain_mdp(
        n_states=int(cfg.get("n_states", 5)), gamma=float(cfg.get("gamma", 0.9)),
        n_actions=int(cfg.get("n_actions", 11)), noise=float(cfg.get("noise", 0.1)),
        normalize=bool(cfg.get("normalize", True)),
        noise_kind=str(cfg.get("noise_kind", "uniform"))),
    # Bernoulli rewards have no noise width, so a "noise" key is ignored
    "chain5_bernoulli": lambda cfg: _PRESETS["chain5"](
        {**cfg, "noise": 0.1, "noise_kind": "bernoulli"}),
    "gaussian": lambda cfg: make_gaussian_mdp(
        gamma=float(cfg.get("gamma", 0.9)), sigma=float(cfg.get("kernel_sigma", 0.15)),
        n_actions=int(cfg.get("n_actions", 11)), noise=float(cfg.get("noise", 0.05)),
        normalize=bool(cfg.get("normalize", True)),
        state_dim=int(cfg.get("state_dim", 1))),
    "single_state": lambda cfg: make_single_state_mdp(
        gamma=float(cfg.get("gamma", 0.5)), reward=float(cfg.get("reward", 0.5)),
        n_actions=int(cfg.get("n_actions", 2)), noise=float(cfg.get("noise", 0.0))),
    "rough_reward": lambda cfg: make_rough_reward_mdp(
        alpha=float(cfg.get("alpha", 0.5)), gamma=float(cfg.get("gamma", 0.0)),
        n_actions=int(cfg.get("n_actions", 11)), sigma=float(cfg.get("kernel_sigma", 0.15))),
}
_PRESETS["chain"] = _PRESETS["chain5"]
_CONFIG_KEYS = {"kind", "gamma", "n_states", "n_actions", "noise", "noise_kind", "kernel_sigma",
                "state_dim", "reward", "alpha", "normalize", "seed"}


def mdp_from_config(cfg) -> SyntheticMdp:
    """Build an MDP from a config dict, JSON file path, or preset name; a
    string that is neither raises ValueError as an unknown kind.

    Documented keys: kind (preset name; "chain" is an alias of "chain5"),
    gamma, n_states, n_actions, noise, noise_kind, kernel_sigma, state_dim,
    reward, alpha, normalize, seed (accepted, unused: MDP construction is
    deterministic).  Any other key raises ValueError.
    """
    if isinstance(cfg, (str, Path)):
        text = str(cfg)
        if text not in _PRESETS and Path(text).is_file():
            cfg = json.loads(Path(text).read_text())
        else:
            cfg = {"kind": text}
    kind = cfg.get("kind", "chain5")
    if kind not in _PRESETS:
        raise ValueError(f"unknown mdp kind {kind!r}; choose from {sorted(_PRESETS)}")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown mdp config keys {sorted(unknown)}; accepted: {sorted(_CONFIG_KEYS)}")
    return _PRESETS[kind](cfg)
