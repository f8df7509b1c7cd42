"""Grid-based ground truth: Bellman quadrature, value iteration, sub-optimality,
and concentration-coefficient estimation."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .mdp import Policy, SyntheticMdp, pair_with_actions, state_action_inputs

DEFAULT_RESOLUTION = {1: 201, 2: 51}
F_VALUE_CAP = 10.0  # reject candidate functions outside [-10, 10] before quadrature
VISITATION_TAIL = 1e-14  # tabulate_visitation stops once gamma^t falls below this


class OracleError(RuntimeError):
    pass


def _state_axes(mdp: SyntheticMdp, resolution):
    kernel = mdp.kernel
    if mdp.state_dim == 0:
        return ()
    if kernel.is_finite:
        return (kernel.nodes.copy(),)
    if mdp.state_dim not in DEFAULT_RESOLUTION:
        raise OracleError("grid oracles support state_dim <= 2 only")
    g = resolution or DEFAULT_RESOLUTION[mdp.state_dim]
    if g < 2:
        raise ValueError("need at least 2 grid nodes per axis")
    return tuple(np.linspace(0.0, 1.0, g) for _ in range(mdp.state_dim))


def _axis_weights(axis):
    # trapezoid node weights: half cells at the ends
    w = np.empty(len(axis))
    w[1:-1] = 0.5 * (axis[2:] - axis[:-2])
    w[0] = 0.5 * (axis[1] - axis[0])
    w[-1] = 0.5 * (axis[-1] - axis[-2])
    return w


@dataclass(frozen=True)
class GridOracle:
    """Tensor-product grid over the state-action space of mdp with tabulation
    machinery: the one handle on mdp's discretized Bellman operator.

    Frozen: ground_truth returns a populated copy that shares the grid and
    next_op.  On a populated oracle, target None means the optimal target.
    """

    mdp: SyntheticMdp
    state_axes: tuple
    nodes: np.ndarray           # (S, state_dim) state grid nodes
    node_weights: np.ndarray    # (S,) quadrature weights (counting measure if finite)
    action_grid: np.ndarray
    next_op: object
    rewards: np.ndarray         # (S, A) mean rewards on the grid
    tol: float = 1e-8
    q: np.ndarray | None = None             # (S, A) once populated
    target: Policy | None = None            # the evaluated policy, None for optimal
    sweep_deltas: list = field(default_factory=list)

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def populated(self):
        return self.q is not None

    def init_mass(self):
        return self.mdp.init_dist.mass_on_nodes(self.nodes, self.node_weights)

    def x_grid(self):
        """All (state, action) grid points as network inputs, row-major in (node, action)."""
        return state_action_inputs(*pair_with_actions(self.nodes, self.action_grid))

    def tabulate(self, f) -> np.ndarray:
        """Evaluate a callable on the grid, or pass a (S, A) table through."""
        if callable(f):
            vals = np.asarray(f(self.x_grid()), dtype=float).reshape(self.n_nodes, len(self.action_grid))
        else:
            vals = np.asarray(f, dtype=float)
            if vals.shape != (self.n_nodes, len(self.action_grid)):
                raise ValueError("tabulated values have the wrong grid shape")
        if not np.all(np.isfinite(vals)):
            raise ValueError("function values must be finite on the grid")
        if np.abs(vals).max() > F_VALUE_CAP:
            raise ValueError(f"function values escape [-{F_VALUE_CAP}, {F_VALUE_CAP}]")
        return vals

    def aggregate(self, table, policy: Policy | None):
        """Per-node value of a (S, A) table: the max over the action grid when
        policy is None, else the policy-weighted sum over it."""
        if policy is None:
            return table.max(axis=1)
        return np.sum(policy.probs(self.nodes) * table, axis=1)

    def value_of(self, q_table, policy: Policy | None):
        """Initial-state value by quadrature: E_rho[ aggregated q ]."""
        return float(self.init_mass() @ self.aggregate(q_table, policy))

    def interpolator(self, table):
        """Multilinear interpolant of a (S, A) table over the full input cube."""
        shape = tuple(len(ax) for ax in self.state_axes) + (len(self.action_grid),)
        vals = np.asarray(table, dtype=float).reshape(shape)
        if not self.state_axes:
            return lambda pts: np.interp(np.asarray(pts)[:, -1], self.action_grid, vals)
        axes = self.state_axes + (self.action_grid,)
        rgi = RegularGridInterpolator(axes, vals, method="linear", bounds_error=False, fill_value=None)
        return lambda pts: rgi(np.asarray(pts, dtype=float))


def build_oracle(mdp: SyntheticMdp, resolution: int | None = None, tol: float = 1e-8) -> GridOracle:
    """Assemble the grid, quadrature weights, transition table, and rewards."""
    axes = _state_axes(mdp, resolution)
    if not axes:
        nodes = np.zeros((1, 0))
        weights = np.ones(1)
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=-1)
        # counting measure on a finite chain, else the product of the per-axis
        # trapezoid weights, row-major like nodes
        weights = (np.ones(len(nodes)) if mdp.kernel.is_finite
                   else reduce(np.multiply.outer, map(_axis_weights, axes)).ravel())

    next_op = mdp.kernel.node_transition(axes, mdp.action_grid)
    rewards = np.asarray(mdp.reward_mean(*pair_with_actions(nodes, mdp.action_grid)),
                         dtype=float).reshape(len(nodes), len(mdp.action_grid))
    return GridOracle(mdp=mdp, state_axes=axes, nodes=nodes, node_weights=weights,
                      action_grid=mdp.action_grid.copy(), next_op=next_op, rewards=rewards, tol=tol)


def apply_bellman(oracle: GridOracle, f, policy: Policy | None = None) -> np.ndarray:
    """One Bellman sweep on the grid: expected reward plus discounted continuation.

    policy=None applies the optimality backup (max over the action grid);
    otherwise the continuation integrates f(s', .) against the policy on the
    action grid.  The next-state integral uses the tabulated kernel masses.
    """
    g = oracle.aggregate(oracle.tabulate(f), policy)
    return oracle.rewards + oracle.mdp.gamma * oracle.next_op.expect(g)


def max_sweeps(gamma: float, tol: float, margin: int = 50) -> int:
    if gamma == 0.0:
        return 2 + margin
    target = tol * (1.0 - gamma)
    if target >= 1.0:
        return 1 + margin
    return int(np.ceil(np.log(target) / np.log(gamma))) + margin


def ground_truth(oracle: GridOracle, policy: Policy | None = None) -> GridOracle:
    """Copy of the oracle populated with the Bellman fixed point of its MDP
    for policy (None: the optimality backup), by value iteration to oracle.tol.

    Raises OracleError if the sweep count exceeds the contraction bound plus a
    safety margin, which signals a mis-specified kernel.
    """
    q = np.zeros_like(oracle.rewards)
    cap = max_sweeps(oracle.mdp.gamma, oracle.tol)
    deltas = []
    for _ in range(cap):
        q_new = apply_bellman(oracle, q, policy)
        delta = float(np.abs(q_new - q).max())
        deltas.append(delta)
        q = q_new
        if delta <= oracle.tol:
            break
    else:
        raise OracleError("value iteration failed to contract within the sweep budget")
    if q.min() < -1e-9 or q.max() > 1.0 / (1.0 - oracle.mdp.gamma) + 1e-9:
        raise OracleError("tabulated values escaped [0, 1/(1-gamma)]")
    return replace(oracle, q=q, target=policy, sweep_deltas=deltas)


def oracle_value(oracle: GridOracle) -> float:
    """V under the populated target: E_rho,pi[Q^pi] or E_rho[max_a Q*]."""
    if not oracle.populated:
        raise OracleError("oracle not populated")
    return oracle.value_of(oracle.q, oracle.target)


def subopt(oracle: GridOracle, estimate) -> float:
    """Sub-optimality of a value estimate (float) or a learned policy.

    Value estimates compare against the populated fixed point's initial value;
    policies are scored as E_rho[ V*(s) - Q*(s, policy(s)) ] on the grid.
    """
    if not oracle.populated:
        raise OracleError("oracle not populated")
    if isinstance(estimate, Policy):
        if oracle.target is not None:
            raise OracleError("policy sub-optimality needs the optimal-target oracle")
        rho = oracle.init_mass()
        v_star = oracle.q.max(axis=1)
        picked = oracle.q[np.arange(oracle.n_nodes), estimate.act(oracle.nodes)]
        return float(rho @ (v_star - picked))
    return abs(oracle_value(oracle) - float(estimate))


# ---------------------------------------------------------------------------
# concentration coefficient


@dataclass
class ConcentrationReport:
    """Probe-based lower estimate of the worst-case occupancy density ratio.

    kappa_hat maximizes nu/mu over finitely many probe policies, horizons, and
    grid cells, so it under-estimates the supremum over all realizable
    occupancy distributions; it is reported as a lower estimate, never as
    exact.
    """

    kappa_hat: float
    argmax_probe: int
    argmax_horizon: int
    argmax_cell: tuple
    mu: np.ndarray                     # (S, A) tabulated visitation mass
    undefined_cells: list              # cells where mu < 1e-12 but some nu has mass
    note: str = ("kappa_hat is a lower estimate: only finitely many probe "
                 "policies and horizons were tabulated")


def tabulate_visitation(oracle: GridOracle, eta: Policy) -> np.ndarray:
    """Discounted visitation mass on the grid by explicit geometric-series summation."""
    mdp = oracle.mdp
    rho = oracle.init_mass()
    eta_probs = eta.probs(oracle.nodes)
    occ = rho[:, None] * eta_probs
    mu = (1.0 - mdp.gamma) * occ.copy()
    if mdp.gamma > 0.0:
        t_max = int(np.ceil(np.log(VISITATION_TAIL) / np.log(mdp.gamma)))
        coef = 1.0 - mdp.gamma
        for _ in range(t_max):
            coef *= mdp.gamma
            nxt = oracle.next_op.push(occ)
            occ = nxt[:, None] * eta_probs
            mu += coef * occ
    return mu


def estimate_concentration(oracle: GridOracle, eta: Policy, probes: list,
                           horizon_set) -> ConcentrationReport:
    """Estimate the concentration coefficient by tabulating probe occupancies.

    Uses only the oracle's grid and next-state operator, so a populated
    oracle can be shared with the value-iteration ground truth.  Cells where
    the visitation mass is below 1e-12 while a probe assigns mass are
    reported as undefined (infinite ratio) rather than silently clipped.
    An empty horizon set or a negative horizon raises ValueError.
    """
    if not probes:
        raise ValueError("need at least one probe policy")
    horizons = sorted(set(int(t) for t in horizon_set))
    if not horizons or horizons[0] < 0:
        raise ValueError("probe horizons must be nonempty, every horizon at least 0")
    mu = tabulate_visitation(oracle, eta)
    best = (-np.inf, -1, -1, (0, 0))
    undefined = []
    defined = mu >= 1e-12
    for pi_idx, probe in enumerate(probes):
        probe_probs = probe.probs(oracle.nodes)
        occ = oracle.init_mass()[:, None] * probe_probs
        t_prev = 0
        for t in horizons:
            for _ in range(t - t_prev):
                occ = oracle.next_op.push(occ)[:, None] * probe_probs
            t_prev = t
            bad = (~defined) & (occ > 1e-12)
            for cell in zip(*np.nonzero(bad)):
                undefined.append((pi_idx, t, cell))
            ratio = np.where(defined, occ / np.where(defined, mu, 1.0), 0.0)
            cell_flat = int(np.argmax(ratio))
            val = float(ratio.ravel()[cell_flat])
            if val > best[0]:
                best = (val, pi_idx, t, np.unravel_index(cell_flat, ratio.shape))
    if undefined:
        kappa_hat = float("inf")
    else:
        # two probability measures on the same cells: the max ratio is >= 1,
        # shaved at most by float summation noise
        kappa_hat = max(best[0], 1.0)
    return ConcentrationReport(
        kappa_hat=kappa_hat, argmax_probe=best[1], argmax_horizon=best[2],
        argmax_cell=tuple(int(c) for c in best[3]), mu=mu, undefined_cells=undefined,
    )
