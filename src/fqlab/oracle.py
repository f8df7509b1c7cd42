"""Grid-based ground truth: Bellman quadrature, value iteration, sub-optimality,
and concentration-coefficient estimation."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .besov import _check_resolution
from .mdp import Policy, SyntheticMdp, pair_with_actions, state_action_inputs

F_VALUE_CAP = 10.0  # reject candidate functions outside [-10, 10] before quadrature
VISITATION_TAIL = 1e-14  # tabulate_visitation stops once gamma^t falls below this
SWEEP_MARGIN = 50  # value iteration may run this many sweeps past the contraction bound
# the largest sweep budget max_sweeps grants: a sweep of the largest default grid
# (2-d gaussian, 51^2 nodes x 11 actions) took 0.37 ms on 2 shared Xeon cores, so
# the cap is about 20 s per solve; gamma 0.999 needs 25,366 sweeps at tol 1e-8
MAX_SWEEPS = 50_000


class OracleError(RuntimeError):
    pass


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
    rho: np.ndarray             # (S,) initial-state law on the nodes
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
        return float(self.rho @ self.aggregate(q_table, policy))

    def interpolator(self, table):
        """Multilinear interpolant of a (S, A) table over the full input cube."""
        shape = tuple(len(ax) for ax in self.state_axes) + (len(self.action_grid),)
        vals = np.asarray(table, dtype=float).reshape(shape)
        axes = self.state_axes + (self.action_grid,)
        return lambda pts: _multilinear(axes, vals, np.asarray(pts, dtype=float))


def _multilinear(axes, vals, pts):
    """Multilinear interpolant of vals on the grid axes at the rows of pts,
    extrapolated linearly, with the bits of scipy's RegularGridInterpolator
    (method="linear", fill_value=None); a one-node axis adds its node alone."""
    idx, frac = [], []
    for ax, p in zip(axes, pts.T):
        i = np.clip(np.searchsorted(ax, p, side="right") - 1, 0, len(ax) - 2)
        idx.append(i)  # -1 on a one-node axis, whose i + 1 is then node 0 as well
        frac.append((p - ax[i]) / (ax[i + 1] - ax[i]) if len(ax) > 1 else np.zeros_like(p))
    if len(axes) == 2:
        # scipy's compiled loop and order, taken for a writeable float64 table:
        # every table here is a fresh array (apply_bellman's output, oracle.q)
        (i0, i1), (y0, y1) = idx, frac
        return (vals[i0, i1] * (1 - y0) * (1 - y1) + vals[i0, i1 + 1] * (1 - y0) * y1
                + vals[i0 + 1, i1] * y0 * (1 - y1) + vals[i0 + 1, i1 + 1] * y0 * y1)
    # scipy's generic loop over the corners of the enclosing cell
    out = np.array([0.0])
    for corner in itertools.product((0, 1), repeat=len(axes)):
        weight = np.array([1.0])
        for c, y in zip(corner, frac):
            weight = weight * (y if c else 1 - y)
        out = out + vals[tuple(i + c for i, c in zip(idx, corner))] * weight
    return out


def build_oracle(mdp: SyntheticMdp, resolution: int | None = None,
                 tol: float = GridOracle.tol) -> GridOracle:
    """Assemble the kernel's grid, initial law and next-state operator, and the rewards.

    resolution is the nodes per state axis of a Gaussian kernel's grid (None:
    DEFAULT_RESOLUTION); a chain's grid is its nodes, whatever the resolution.
    A resolution that is not None or an integer >= 2 raises ValueError.
    """
    _check_resolution(resolution)
    axes, rho, next_op = mdp.kernel.grid(mdp.action_grid, resolution)
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    rewards = np.asarray(mdp.reward_mean(*pair_with_actions(nodes, mdp.action_grid)),
                         dtype=float).reshape(len(nodes), len(mdp.action_grid))
    return GridOracle(mdp=mdp, state_axes=axes, nodes=nodes, rho=rho,
                      action_grid=mdp.action_grid.copy(), next_op=next_op, rewards=rewards, tol=tol)


def apply_bellman(oracle: GridOracle, f, policy: Policy | None = None) -> np.ndarray:
    """One Bellman sweep on the grid: expected reward plus discounted continuation.

    policy=None applies the optimality backup (max over the action grid);
    otherwise the continuation integrates f(s', .) against the policy on the
    action grid.  The next-state integral uses the tabulated kernel masses.
    """
    g = oracle.aggregate(oracle.tabulate(f), policy)
    return oracle.rewards + oracle.mdp.gamma * oracle.next_op.expect(g)


def max_sweeps(gamma: float, tol: float) -> int:
    """Value-iteration sweeps that reach tol from Q = 0, plus SWEEP_MARGIN; a
    budget above MAX_SWEEPS (gamma too near 1) raises ValueError."""
    if gamma == 0.0:
        return 2 + SWEEP_MARGIN
    target = tol * (1.0 - gamma)
    if target >= 1.0:
        return 1 + SWEEP_MARGIN
    sweeps = int(np.ceil(np.log(target) / np.log(gamma))) + SWEEP_MARGIN
    if sweeps > MAX_SWEEPS:
        raise ValueError(f"gamma {gamma} needs {sweeps} value-iteration sweeps to reach tol "
                         f"{tol}, above the cap of {MAX_SWEEPS}")
    return sweeps


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
        v_star = oracle.q.max(axis=1)
        picked = oracle.q[np.arange(oracle.n_nodes), estimate.act(oracle.nodes)]
        return float(oracle.rho @ (v_star - picked))
    return abs(oracle.value_of(oracle.q, oracle.target) - float(estimate))


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


def _occupancies(oracle: GridOracle, policy: Policy):
    """The (S, A) occupancies of policy from rho at t = 0, 1, ..., each pushed
    through the tabulated kernel when the next one is asked for."""
    probs = policy.probs(oracle.nodes)
    occ = oracle.rho[:, None] * probs
    while True:
        yield occ
        occ = oracle.next_op.push(occ)[:, None] * probs


def tabulate_visitation(oracle: GridOracle, eta: Policy) -> np.ndarray:
    """Discounted visitation mass on the grid by explicit geometric-series summation."""
    gamma = oracle.mdp.gamma
    occupancies = _occupancies(oracle, eta)
    mu = (1.0 - gamma) * next(occupancies)
    if gamma > 0.0:
        t_max = int(np.ceil(np.log(VISITATION_TAIL) / np.log(gamma)))
        coef = 1.0 - gamma
        for occ in itertools.islice(occupancies, t_max):
            coef *= gamma
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
        for t, occ in zip(range(horizons[-1] + 1), _occupancies(oracle, probe)):
            if t not in horizons:
                continue
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
