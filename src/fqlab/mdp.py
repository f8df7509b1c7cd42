"""Synthetic continuous-state MDPs, policies, and offline data generation.

A state is a point in [0,1]^state_dim, an action is a value on a uniform
grid in [0,1], and regression covariates are the concatenation (s, a), so
the full input space is the unit cube of dimension state_dim + 1.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable

import numpy as np
# numpy 2 loads numpy.random lazily, on the first draw: load it at start-up
import numpy.random  # noqa: F401

from .besov import _weierstrass_axis

DEFAULT_RESOLUTION = {1: 201, 2: 51}  # oracle grid nodes per axis, by state_dim


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


def _axis_weights(axis):
    # trapezoid node weights: half cells at the ends
    w = np.empty(len(axis))
    w[1:-1] = 0.5 * (axis[2:] - axis[:-2])
    w[0] = 0.5 * (axis[1] - axis[0])
    w[-1] = 0.5 * (axis[-1] - axis[-2])
    return w


# ---------------------------------------------------------------------------
# transition kernels: each is its state space too, with the initial law rho
# uniform on it (initial_states draws from rho; grid lays out the oracle's
# state axes and puts rho on their nodes)


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
    """Axis-factorized next-state operator for product kernels on [0,1]^2
    whose axis-k mean depends only on s_k and the action.

    m0[i0, a, j0] and m1[i1, a, j1] are the per-axis transition rows, (G0, A,
    G0) and (G1, A, G1); push and expect contract one state axis at a time.
    """

    def __init__(self, m0: np.ndarray, m1: np.ndarray):
        self.m0, self.m1 = m0, m1
        self.grid_shape = (len(m0), len(m1))
        self.n_actions = m0.shape[1]

    def expect(self, g: np.ndarray) -> np.ndarray:
        # u[i0, a, j1] = sum_j0 m0[i0, a, j0] g[j0, j1], then per action
        # vals[a, i0, i1] = sum_j1 u[i0, a, j1] m1[i1, a, j1]
        (g0, g1), n_act = self.grid_shape, self.n_actions
        g2 = np.asarray(g, dtype=float).reshape(self.grid_shape)
        u = (self.m0.reshape(-1, g0) @ g2).reshape(g0, n_act, g1)
        vals = np.matmul(u.transpose(1, 0, 2), self.m1.transpose(1, 2, 0))
        return vals.transpose(1, 2, 0).reshape(g0 * g1, n_act)

    def push(self, occupancy: np.ndarray) -> np.ndarray:
        # per action t[a, i0, j1] = sum_i1 occ[i0, i1, a] m1[i1, a, j1],
        # then out[j0, j1] = sum_(i0, a) m0[i0, a, j0] t[a, i0, j1]
        g0, g1 = self.grid_shape
        occ = occupancy.reshape(g0, g1, self.n_actions).transpose(2, 0, 1)
        t = np.matmul(occ, self.m1.transpose(1, 0, 2)).transpose(1, 0, 2)
        return (self.m0.reshape(-1, g0).T @ t.reshape(-1, g1)).ravel()


class FiniteChainKernel:
    """Chain on a finite set of node states embedded in [0,1].

    The transition matrix interpolates linearly in the action value between
    two row-stochastic matrices, M(a) = (1-a)*m_left + a*m_right, so an
    action-independent kernel is the special case m_left == m_right.
    Next states are always members of ``nodes``.
    """

    state_dim = 1

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

    def _rho(self):
        return np.full(len(self.nodes), 1.0 / len(self.nodes))

    def initial_states(self, rng, n):
        idx = rng.choice(len(self.nodes), size=n, p=self._rho())  # p= fixes the seeded draws
        return self.nodes[idx][:, None]

    def grid(self, action_grid, resolution=None):
        """The nodes themselves at mass 1/S each, and the (S, A, S) transition
        table on them; resolution is ignored."""
        probs = np.transpose(self.matrix(action_grid), (1, 0, 2))
        return (self.nodes.copy(),), self._rho(), DenseNextOp(probs)

    def matrix(self, action_values: np.ndarray) -> np.ndarray:
        a = np.asarray(action_values, dtype=float)
        return (1.0 - a)[..., None, None] * self.m_left + a[..., None, None] * self.m_right

    def node_index(self, states: np.ndarray) -> np.ndarray:
        return np.argmin(np.abs(states[:, 0][:, None] - self.nodes[None, :]), axis=1)

    def sample(self, rng: np.random.Generator, states: np.ndarray, action_values: np.ndarray) -> np.ndarray:
        mats = self.matrix(action_values)  # (B, S, S)
        rows = mats[np.arange(len(states)), self.node_index(states)]
        nxt = _sample_rows(rng, rows)
        return self.nodes[nxt][:, None]


# Cephes' normal cdf and its inverse (Moshier 1989) with scipy.special's bits: its operation order,
# and libm's exp and log, where numpy's SIMD ones differ in the last bit.  Polynomial coefficients,
# highest degree first; a denominator's leading 1 (Cephes' p1evl) is written out, as 1.0 * x is exact.
_T = (9.604973739870516, 90.02601972038427, 2232.005345946843, 7003.325141128051, 55592.30130103949)
_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801, 22629.000061389095, 49267.39426086359)
_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699, 48.63719709856814, 196.5208329560771,
      526.4451949954773, 934.5285271719576, 1027.5518868951572, 557.5353353693994)
_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199, 975.7085017432055,
      1823.9091668790973, 2246.3376081871097, 1656.6630919416134, 557.5353408177277)
_R = (0.5641895835477551, 1.275366707599781, 5.019050422511805, 6.160210979930536, 7.4097426995044895,
      2.9788666537210022)
_S = (1.0, 2.2605286322011726, 9.396035249380015, 12.048953980809666, 17.08144507475659,
      9.608968090632859, 3.369076451000815)
_P0 = (-59.96335010141079, 98.00107541859997, -56.67628574690703, 13.931260938727968, -1.2391658386738125)
_Q0 = (1.0, 1.9544885833814176, 4.676279128988815, 86.36024213908905, -225.46268785411937,
       200.26021238006066, -82.03722561683334, 15.90562251262117, -1.1833162112133)
_P1 = (4.0554489230596245, 31.525109459989388, 57.16281922464213, 44.08050738932008, 14.684956192885803,
       2.1866330685079025, -0.1402560791713545, -0.03504246268278482, -0.0008574567851546854)
_Q1 = (1.0, 15.779988325646675, 45.39076351288792, 41.3172038254672, 15.04253856929075, 2.504649462083094,
       -0.14218292285478779, -0.03808064076915783, -0.0009332594808954574)
_P2 = (3.2377489177694603, 6.915228890689842, 3.9388102529247444, 1.3330346081580755, 0.20148538954917908,
       0.012371663481782003, 0.00030158155350823543, 2.6580697468673755e-06, 6.239745391849833e-09)
_Q2 = (1.0, 6.02427039364742, 3.6798356385616087, 1.3770209948908132, 0.21623699359449663,
       0.013420400608854318, 0.00032801446468212774, 2.8924786474538068e-06, 6.790194080099813e-09)
_MAXLOG, _S2PI = 709.782712893384, 2.5066282746310007
_EXPM2, _SQRT1_2 = 0.1353352832366127, 0.7071067811865476
_BLOCK = 4096  # elements per pass, which bounds the temporaries


def _polevl(x, coef):
    a = np.full_like(x, coef[0])
    for c in coef[1:]:
        a *= x
        a += c
    return a


def _libm(fn, v):
    """math.exp or math.log element by element: libm's bits."""
    return np.fromiter(map(fn, v.tolist()), float, len(v))


def _blockwise(fn):
    """fn over a float array of any shape, _BLOCK elements at a time."""
    def run(a):
        a = np.asarray(a, dtype=float)
        flat, out = a.ravel(), np.empty(a.size)
        for i in range(0, a.size, _BLOCK):
            out[i:i + _BLOCK] = fn(flat[i:i + _BLOCK])
        return out.reshape(a.shape)
    return run


@_blockwise
def _ndtr(a):
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.zeros_like(x)  # 0.5 erfc(z); 0 where exp(-z^2) underflows
    y[np.isnan(z)] = np.nan  # Cephes' own NaN, whatever the input's payload
    mid = z < 1.0
    xm = x[mid]
    erf = xm * _polevl(xm * xm, _T) / _polevl(xm * xm, _U)  # erf(x), Cephes form for |x| < 1
    y[mid] = 0.5 * (1.0 - np.abs(erf))
    tail = (z >= 1.0) & (np.minimum(z, 27.0) ** 2 <= _MAXLOG)
    near = tail & (z < 8.0)
    for part, num, den in ((near, _P, _Q), (tail & ~near, _R, _S)):
        zt = z[part]
        y[part] = 0.5 * (_libm(math.exp, -(zt * zt)) * _polevl(zt, num) / _polevl(zt, den))
    out = np.where(x > 0, 1.0 - y, y)
    central = z < _SQRT1_2  # a subset of mid
    out[central] = 0.5 + 0.5 * erf[central[mid]]
    return out


@_blockwise
def _ndtri(y0):
    flip = y0 > 1.0 - _EXPM2
    y = np.where(flip, 1.0 - y0, y0)
    out = np.empty_like(y)
    central = y > _EXPM2
    t = y[central] - 0.5
    t2 = t * t
    out[central] = (t + t * (t2 * _polevl(t2, _P0) / _polevl(t2, _Q0))) * _S2PI
    tail = ~(central | (y <= 0.0))  # NaN takes the tail, as in Cephes
    x = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    far = x >= 8.0
    x1[far] = z[far] * _polevl(z[far], _P2) / _polevl(z[far], _Q2)
    x = x - _libm(math.log, x) / x - x1
    out[tail] = np.where(flip[tail], x, -x)
    out[(y0 < 0.0) | (y0 > 1.0)] = np.nan
    out[y0 == 0.0], out[y0 == 1.0] = -np.inf, np.inf
    return out


def _check_mass(m, lo, hi):
    # a NaN or infinite mean fails too: its lo and hi are NaN or equal
    if not (hi > lo).all():
        raise ValueError(f"truncated Gaussian at mean {float(m[~(hi > lo)][0])} has no "
                         "mass in [0, 1] in double precision")


class TruncatedGaussianKernel:
    """Truncated-Gaussian transition kernel on [0,1]^state_dim.

    Per axis, s' ~ N(mean_fn(s,a), sigma^2) renormalized to [0,1], with sigma
    positive and finite; node-cell masses come from the Gaussian cdf, so
    tabulated transition rows sum to one up to rounding (within 4 ulp of 1 on
    the presets' grids).  On a 2-d grid the axis-k mean may depend only on
    s_k and the action; grid rejects means that couple the axes.  Both grid
    and sample reject a mean that is not finite or whose Gaussian has no mass
    in [0,1] in double precision.
    """

    def __init__(self, mean_fn: Callable, sigma, state_dim: int = 1):
        if state_dim not in DEFAULT_RESOLUTION:
            raise ValueError(f"truncated Gaussian kernels support state_dim 1 or 2, got {state_dim!r}")
        self.mean_fn = mean_fn  # (states, action_values) -> (B, state_dim) means
        self.sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (state_dim,)).copy()
        self.state_dim = state_dim
        if not np.all((self.sigma > 0) & np.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {sigma!r}")

    def initial_states(self, rng, n):
        return rng.random((n, self.state_dim))

    def grid(self, action_grid, resolution=None):
        """resolution (default DEFAULT_RESOLUTION) nodes per axis on [0,1], rho
        on them (the product trapezoid weights over their sum), and the
        next-state operator of the cell masses on them."""
        g = DEFAULT_RESOLUTION[self.state_dim] if resolution is None else resolution
        axes = tuple(np.linspace(0.0, 1.0, g) for _ in range(self.state_dim))
        weights = reduce(np.multiply.outer, map(_axis_weights, axes)).ravel()  # row-major like nodes
        return axes, weights / weights.sum(), self._next_op(axes, action_grid)

    def _means(self, states, action_values):
        m = np.asarray(self.mean_fn(states, action_values), dtype=float)
        if m.ndim == 1:
            m = m[:, None]
        return m

    def sample(self, rng, states, action_values):
        m = self._means(states, action_values)
        lo, hi = _ndtr(np.stack([(0.0 - m) / self.sigma, (1.0 - m) / self.sigma]))
        _check_mass(m, lo, hi)
        u = rng.random((self.state_dim, len(m))).T  # axis by axis, one draw per row
        return np.clip(m + self.sigma * _ndtri(lo + u * (hi - lo)), 0.0, 1.0)

    def _axis_masses(self, means_k, sigma_k, axis_nodes):
        # a row depends on its mean alone: one row per distinct mean (by bits, so
        # +0.0 and -0.0 stay apart), gathered back once its temporaries are freed;
        # a dict groups them, as a sort would page in memory nothing else uses
        row_of = {}
        bits = means_k.view(np.int64).tolist()
        rows = np.fromiter((row_of.setdefault(b, len(row_of)) for b in bits), np.intp, len(bits))
        distinct = np.array(list(row_of), dtype=np.int64).view(float)
        return self._cell_masses(distinct, sigma_k, axis_nodes)[rows]

    def _cell_masses(self, means_k, sigma_k, axis_nodes):
        # analytic cell masses: cells are the trapezoid cells of the node grid;
        # one cdf pass over the truncation points 0 and 1 and the cell edges
        mids = 0.5 * (axis_nodes[1:] + axis_nodes[:-1])
        points = np.concatenate(([0.0, axis_nodes[0]], mids, [axis_nodes[-1], 1.0]))
        cdf = _ndtr((points[None, :] - means_k[:, None]) / sigma_k)
        lo, hi, cdf = cdf[:, 0], cdf[:, -1], cdf[:, 1:-1]
        _check_mass(means_k, lo, hi)
        masses = np.diff(cdf, axis=1) / (hi - lo)[:, None]
        # boundary cells absorb the truncated tails
        masses[:, 0] += (cdf[:, 0] - lo) / (hi - lo)
        masses[:, -1] += (hi - cdf[:, -1]) / (hi - lo)
        return masses

    def _next_op(self, state_axes, action_grid):
        action_grid = np.asarray(action_grid, dtype=float)
        if self.state_dim == 1:
            (axis,) = state_axes
            m = self._means(*pair_with_actions(axis[:, None], action_grid))
            masses = self._axis_masses(m[:, 0], self.sigma[0], axis)
            return DenseNextOp(masses.reshape(len(axis), len(action_grid), len(axis)))
        ax0, ax1 = state_axes
        shape = (len(ax0), len(ax1), len(action_grid))
        nodes = np.stack(np.meshgrid(ax0, ax1, indexing="ij"), axis=-1).reshape(-1, 2)
        c = self._means(*pair_with_actions(nodes, action_grid)).reshape(*shape, 2)
        if not ((c[..., 0] == c[:, :1, :, 0]).all() and (c[..., 1] == c[:1, :, :, 1]).all()):
            raise ValueError("2-d means must be axis-local: the axis-k mean may "
                             "depend only on s_k and the action")
        # tabulate only the G0*A and G1*A distinct rows
        m0 = self._axis_masses(c[:, 0, :, 0].ravel(), self.sigma[0], ax0)
        m1 = self._axis_masses(c[0, :, :, 1].ravel(), self.sigma[1], ax1)
        return SeparableNextOp(m0.reshape(shape[0], shape[2], -1),
                               m1.reshape(shape[1], shape[2], -1))


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

    q maps (s, a) input rows to values, as a network or an oracle
    interpolant does; ties break toward the smallest action index.
    """

    def __init__(self, q: Callable, action_grid: np.ndarray):
        self.q = q
        self.action_grid = np.asarray(action_grid, dtype=float)

    def probs(self, states):
        pts = state_action_inputs(*pair_with_actions(states, self.action_grid))
        q = np.asarray(self.q(pts), dtype=float).reshape(len(states), len(self.action_grid))
        p = np.zeros_like(q)
        p[np.arange(len(q)), np.argmax(q, axis=1)] = 1.0
        return p


# ---------------------------------------------------------------------------
# the MDP container


@dataclass
class SyntheticMdp:
    """Continuous-state MDP with an analytically tabulated transition kernel.

    reward_mean maps (states, action_values) to means in [0,1].  With
    noise_kind "uniform", realized rewards add uniform noise of half-width
    min(reward_noise, mean, 1-mean), staying in [0,1] with the stated mean;
    "bernoulli" draws r in {0,1} with P(1) = mean, the maximal-variance
    reward distribution for that mean (reward_noise is ignored).  The kernel
    is the state space: it draws the initial states and lays out the oracle grid.
    """

    gamma: float
    reward_mean: Callable
    reward_noise: float
    kernel: object
    action_grid: np.ndarray
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
    def state_dim(self) -> int:
        return self.kernel.state_dim

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
        if not (self.rewards.ndim == 1 and self.n >= 1 and self.actions.shape == self.rewards.shape):
            raise ValueError("actions and rewards must be 1-d arrays of one length n >= 1")
        if not (self.states.ndim == 2 and self.states.shape[1] >= 1
                and self.states.shape == self.next_states.shape and len(self.states) == self.n):
            raise ValueError("states and next_states must be (n, d) arrays with one d >= 1")
        for arr, name in ((self.states, "states"), (self.actions, "actions"),
                          (self.next_states, "next_states"), (self.rewards, "rewards")):
            # negated, so that a NaN fails it
            if not (arr.min() >= -1e-12 and arr.max() <= 1 + 1e-12):
                raise ValueError(f"{name} must be finite and lie in [0,1]")

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
    states = mdp.kernel.initial_states(rng, n)

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
    """One-node chain at s = 0.5 with a constant mean reward."""
    return make_finite_mdp([[1.0]], [reward], gamma, n_actions, noise)


def make_finite_mdp(matrix, node_rewards, gamma, n_actions=2, noise=0.0) -> SyntheticMdp:
    """Finite chain with action-independent transitions and rewards given per
    node; a reward that is not in [0, 1] (NaN included) raises ValueError."""
    matrix = np.asarray(matrix, dtype=float)
    node_rewards = np.asarray(node_rewards, dtype=float)
    if not np.all((node_rewards >= 0.0) & (node_rewards <= 1.0)):
        raise ValueError(f"node rewards must lie in [0, 1], got {node_rewards.tolist()}")
    nodes = np.linspace(0.0, 1.0, len(node_rewards)) if len(node_rewards) > 1 else np.array([0.5])
    kernel = FiniteChainKernel(nodes, matrix)

    def reward(states, actions):
        return node_rewards[kernel.node_index(states)]

    return SyntheticMdp(gamma=gamma, reward_mean=reward, reward_noise=noise, kernel=kernel,
                        action_grid=np.linspace(0.0, 1.0, n_actions))


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


def make_chain_mdp(n_states=5, gamma=0.9, n_actions=11, noise=0.1,
                   noise_kind="uniform") -> SyntheticMdp:
    """Chain of node states with action-controlled drift.

    The mean reward is scaled by (1 - gamma) so value functions land in [0,1],
    where the clamped network class can represent them.
    """
    nodes = np.linspace(0.0, 1.0, n_states)
    m_left, m_right = _drift_matrices(n_states)
    kernel = FiniteChainKernel(nodes, m_left, m_right)

    def reward(states, actions):
        base = 0.25 + 0.5 * states[:, 0] + 0.25 * np.sin(np.pi * np.asarray(actions))
        return (1.0 - gamma) * base

    return SyntheticMdp(gamma=gamma, reward_mean=reward, reward_noise=noise, kernel=kernel,
                        action_grid=np.linspace(0.0, 1.0, n_actions), noise_kind=noise_kind)


def make_gaussian_mdp(gamma=0.9, sigma=0.15, n_actions=11, noise=0.05,
                      state_dim=1) -> SyntheticMdp:
    """Smooth MDP: truncated-Gaussian transitions, analytic reward surface.

    The mean reward is scaled by (1 - gamma) so value functions land in [0,1].
    With state_dim = 2 the kernel is an axis-separable product of truncated
    Gaussians: the action drifts the first axis and the second contracts on
    its own.  Each axis's mean depends only on that axis's coordinate and the
    action, as TruncatedGaussianKernel requires on a 2-d grid, so the grid
    oracle's SeparableNextOp contracts one axis at a time.
    """
    def mean_fn(s, a):
        drift = 0.25 * (np.asarray(a) - 0.5)
        if state_dim == 1:
            return s[:, 0] + drift
        return np.stack([s[:, 0] + drift, 0.85 * s[:, 1] + 0.075], axis=1)

    kernel = TruncatedGaussianKernel(mean_fn=mean_fn, sigma=sigma, state_dim=state_dim)

    def reward(states, actions):
        base = 0.5 + 0.4 * np.sin(np.pi * states[:, 0]) * np.cos(0.5 * np.pi * np.asarray(actions))
        if state_dim == 2:
            base = 0.5 + (base - 0.5) * np.cos(0.5 * np.pi * states[:, 1])
        return (1.0 - gamma) * base

    return SyntheticMdp(gamma=gamma, reward_mean=reward, reward_noise=noise, kernel=kernel,
                        action_grid=np.linspace(0.0, 1.0, n_actions))


def make_rough_reward_mdp(alpha=0.5, gamma=0.0, n_actions=11, sigma=0.15) -> SyntheticMdp:
    """MDP whose mean reward is a lacunar cosine series of prescribed roughness.

    Used to probe how much smoothness the Bellman image inherits from the
    reward; at gamma = 0 the Bellman image IS the reward.
    """
    w = _weierstrass_axis(np.linspace(0.0, 1.0, 4097), alpha)
    w_lo, w_hi = w.min(), w.max()

    def reward(states, actions):
        v = _weierstrass_axis(states[:, 0], alpha)
        # range normalized on a finite grid; clip the off-grid overshoot
        return np.clip((v - w_lo) / (w_hi - w_lo), 0.0, 1.0)

    kernel = TruncatedGaussianKernel(mean_fn=lambda s, a: s[:, 0], sigma=sigma, state_dim=1)
    return SyntheticMdp(gamma=gamma, reward_mean=reward, reward_noise=0.0, kernel=kernel,
                        action_grid=np.linspace(0.0, 1.0, n_actions))


# kind: (factory, the config keys it takes, fixed arguments).  Defaults live
# in the factory signatures; kernel_sigma is passed as sigma.
_PRESETS = {
    "chain5": (make_chain_mdp, ("gamma", "n_states", "n_actions", "noise"), {}),
    # Bernoulli rewards have no noise width, so the kind takes no noise key
    "chain5_bernoulli": (make_chain_mdp, ("gamma", "n_states", "n_actions"),
                         {"noise_kind": "bernoulli"}),
    "gaussian": (make_gaussian_mdp, ("gamma", "kernel_sigma", "n_actions", "noise", "state_dim"), {}),
    "single_state": (make_single_state_mdp, ("gamma", "reward", "n_actions", "noise"), {}),
    "rough_reward": (make_rough_reward_mdp, ("alpha", "gamma", "n_actions", "kernel_sigma"), {}),
}
_PRESETS["chain"] = _PRESETS["chain5"]
_INT_KEYS = {"n_states", "n_actions", "state_dim"}


def mdp_from_config(cfg) -> SyntheticMdp:
    """Build an MDP from a config dict, JSON file path, or preset name; a
    string that is neither raises ValueError as an unknown kind.

    A config holds kind (preset name, default chain5; "chain" is an alias of
    "chain5") and any of the keys _PRESETS lists for that kind, each defaulting
    to its factory's default; any other key raises ValueError.
    """
    if isinstance(cfg, (str, Path)):
        text = str(cfg)
        if text not in _PRESETS and Path(text).is_file():
            cfg = json.loads(Path(text).read_text())
        else:
            cfg = {"kind": text}
    if not isinstance(cfg, dict):
        raise ValueError(f"mdp config must be a JSON object, got {type(cfg).__name__}")
    kind = cfg.get("kind", "chain5")
    if kind not in _PRESETS:
        raise ValueError(f"unknown mdp kind {kind!r}; choose from {sorted(_PRESETS)}")
    factory, keys, fixed = _PRESETS[kind]
    unknown = set(cfg) - {"kind", *keys}
    if unknown:
        raise ValueError(f"unknown {kind} config keys {sorted(unknown)}; "
                         f"accepted: {sorted(['kind', *keys])}")
    kwargs = {("sigma" if key == "kernel_sigma" else key): (int if key in _INT_KEYS else float)(cfg[key])
              for key in keys if key in cfg}
    return factory(**kwargs, **fixed)
