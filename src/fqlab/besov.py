"""Numerical smoothness machinery: finite differences, moduli of smoothness,
Besov seminorms, exponent estimation, and synthetic test functions."""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from numbers import Integral
from pathlib import Path

import numpy as np


@dataclass(frozen=True, eq=False)
class FunctionOnGrid:
    """Real values tabulated on a uniform tensor grid over [0,1]^d.

    Immutable: the axes and values are read-only copies of what was passed
    in, so the step-norm tables memoized on the instance stay valid.  Equality
    and hash are by identity, as ndarray fields have no single truth value.
    """

    axes: tuple
    values: np.ndarray
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        axes = tuple(np.array(ax, dtype=float) for ax in self.axes)
        values = np.array(self.values, dtype=float)
        for a in axes + (values,):
            a.flags.writeable = False
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", values)
        if self.values.shape != tuple(len(ax) for ax in self.axes):
            raise ValueError("value shape must match the axes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        for ax in self.axes:
            if len(ax) < 4:
                raise ValueError("need at least 4 nodes per axis")
            steps = np.diff(ax)
            if not np.allclose(steps, steps[0], rtol=0, atol=1e-12 * max(1.0, abs(steps[0]))):
                raise ValueError("axes must be uniformly spaced")

    @property
    def ndim(self):
        return len(self.axes)

    def step(self, axis=0):
        ax = self.axes[axis]
        return float(ax[1] - ax[0])

    @property
    def min_step(self):
        return min(self.step(axis) for axis in range(self.ndim))

    def save_csv(self, path):
        mesh = np.meshgrid(*self.axes, indexing="ij")
        cols = [m.ravel() for m in mesh] + [self.values.ravel()]
        header = ",".join([f"x{i}" for i in range(self.ndim)] + ["value"])
        np.savetxt(path, np.stack(cols, axis=-1), delimiter=",", header=header,
                   comments="", fmt="%.17g")

    @classmethod
    def load_csv(cls, path):
        """Read what save_csv writes, in any row order: each row is placed by
        its coordinates.  Any header but x0..,value, a row of another width or
        a table that does not hold every node of a grid over [0,1]^d once
        raises ValueError."""
        lines = Path(path).read_text().strip().splitlines()
        header = lines[0].split(",") if lines else []
        d = len(header) - 1
        if d < 1 or header != [f"x{i}" for i in range(d)] + ["value"] or len(lines) < 2:
            raise ValueError(f"grid CSV needs the header x0..,value and rows of values, got {header}")
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        if table.shape[1] != d + 1:
            raise ValueError("grid CSV rows must be as wide as its header")
        coords = table[:, :d].T
        axes = tuple(np.unique(col) for col in coords)
        shape = tuple(len(a) for a in axes)
        cells = np.ravel_multi_index([np.searchsorted(a, col) for a, col in zip(axes, coords)], shape)
        spans = all(a[0] == 0.0 and a[-1] == 1.0 for a in axes)
        if not spans or len(cells) != np.prod(shape) or len(np.unique(cells)) != len(cells):
            raise ValueError("grid CSV must hold every node of a grid over [0,1]^d exactly once")
        return cls(axes, table[np.argsort(cells), -1].reshape(shape))


@dataclass(frozen=True)
class BesovParams:
    alpha: float
    p: float = np.inf
    q: float = np.inf

    def __post_init__(self):
        # negated comparisons, so that NaN fails them too
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (self.p >= 1 and self.q >= 1):
            raise ValueError("p and q must be >= 1")

    @property
    def order(self):
        """Difference order used by the seminorm: floor(alpha) + 1."""
        return int(np.floor(self.alpha)) + 1


@dataclass
class ModulusCurve:
    """Modulus of smoothness sampled on a decreasing-to-zero step grid."""

    t_values: np.ndarray        # descending
    omega_values: np.ndarray
    order: int
    p: float

    def __post_init__(self):
        self.t_values = np.asarray(self.t_values, dtype=float)
        self.omega_values = np.asarray(self.omega_values, dtype=float)
        if np.any(np.diff(self.t_values) >= 0):
            raise ValueError("t grid must be strictly decreasing")
        if np.any(self.omega_values < 0):
            raise ValueError("modulus values must be nonnegative")
        # omega is a sup over a growing step set, hence nondecreasing in t
        if np.any(np.diff(self.omega_values) > 1e-12):
            raise ValueError("modulus must be nonincreasing along the descending t grid")


def translation_difference(f: FunctionOnGrid, h_steps: int, order: int, axis: int = 0) -> FunctionOnGrid:
    """Order-r binomial difference with step h_steps grid cells along one axis.

    Evaluated only where the shifted argument stays inside the grid; raises if
    the valid subgrid is empty.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if h_steps < 1:
        raise ValueError("step must be a positive number of grid cells")
    valid = f.values.shape[axis] - order * h_steps
    if valid < 1:
        raise ValueError("step too large: empty valid subgrid")
    out = _difference_values(f.values, h_steps, order, axis)
    if valid < 4:
        # below FunctionOnGrid's resolution floor; hand back raw values
        return out
    new_axes = list(f.axes)
    new_axes[axis] = f.axes[axis][:valid]
    return FunctionOnGrid(tuple(new_axes), out)


def _difference_values(values: np.ndarray, h_steps: int, order: int, axis: int) -> np.ndarray:
    """sum_k comb(order, k) (-1)^(order-k) values[k*h : k*h + valid] along axis.

    Unchecked kernel behind translation_difference: the shifted copies are
    basic-slice views and the sum accumulates in place, term by term in
    increasing k, so the result matches the validated path bit for bit up to
    the sign of an exact zero.
    """
    valid = values.shape[axis] - order * h_steps
    lead = (slice(None),) * axis
    out = (-1.0) ** order * values[lead + (slice(0, valid),)]
    term = np.empty_like(out)
    for k in range(1, order + 1):
        shifted = values[lead + (slice(k * h_steps, k * h_steps + valid),)]
        np.multiply(comb(order, k) * (-1.0) ** (order - k), shifted, out=term)
        np.add(out, term, out=out)
    return out


def _pnorm(values: np.ndarray, p: float) -> float:
    a = np.abs(np.asarray(values, dtype=float))
    if np.isinf(p):
        return float(a.max())
    return float(np.mean(a ** p) ** (1.0 / p))


def _axis_step_norms(f: FunctionOnGrid, order: int, p: float):
    """Every axis-aligned grid-multiple step h in ascending order, and the
    p-norm of the order-r difference at each."""
    hs, norms = [], []
    for axis in range(f.ndim):
        step, g = f.step(axis), f.values.shape[axis]
        for j in range(1, (g - 1) // order + 1):
            hs.append(j * step)
            norms.append(_pnorm(_difference_values(f.values, j, order, axis), p))
    ascending = np.argsort(hs, kind="stable")
    return np.array(hs)[ascending], np.array(norms)[ascending]


def _step_norm_table(f: FunctionOnGrid, order: int, p: float):
    """(ascending steps h, [0, running max of their norms]): entry i of the
    second is the modulus at any t with exactly i steps h <= t.  Independent
    of the t grid, so it is built once per (order, p) and memoized on f."""
    if (order, p) not in f._tables:
        hs, norms = _axis_step_norms(f, order, p)
        f._tables[order, p] = (hs, np.concatenate(([0.0], np.maximum.accumulate(norms))))
    return f._tables[order, p]


def _sup_oscillation(f: FunctionOnGrid, t_grid: np.ndarray) -> np.ndarray:
    """The order-1, p = inf modulus at each t of t_grid without the table: with J
    the largest lag J*h <= t on an axis, the largest first difference at lags <= J
    is the largest max - min over windows of J + 1 nodes, the same double, as rounded
    subtraction is monotone (abs: +0.0 even if max and min split a tie of zeros)."""
    omega = np.zeros(t_grid.shape)
    for axis in range(f.ndim):
        hi = lo = np.moveaxis(f.values, axis, 0)
        lags = np.searchsorted(np.arange(1, len(hi)) * f.step(axis), t_grid * (1 + 1e-12),
                               side="right")
        nodes = 1  # hi and lo hold the max and min over windows of this many nodes
        for lag in np.unique(lags):
            while nodes <= lag:
                s = min(nodes, lag + 1 - nodes)
                hi, lo = np.maximum(hi[:-s], hi[s:]), np.minimum(lo[:-s], lo[s:])
                nodes += s
            np.maximum(omega, abs((hi - lo).max()), out=omega, where=lags == lag)
    return omega


def modulus_of_smoothness(f: FunctionOnGrid, order: int, p: float, t_grid) -> ModulusCurve:
    """sup over axis-aligned steps h <= t of the discrete p-norm of the
    r-th difference, for each t in t_grid, returned in decreasing t.

    The p-norm is taken against the uniform probability measure on the valid
    subgrid.  Restricting the sup to axis directions makes the curve a lower
    estimate of the isotropic modulus.  An order below 1, one that leaves
    no step on any axis (order >= the node count), or p < 1 or NaN raises ValueError.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order >= max(f.values.shape):
        raise ValueError(f"order {order} leaves no step on a grid of {f.values.shape} nodes")
    if not p >= 1:  # negated, so that NaN fails too
        raise ValueError(f"p must be >= 1, got {p}")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < f.min_step * (1 - 1e-12)):
        raise ValueError("t values below the grid step are unresolvable")
    if order == 1 and p == np.inf:
        omega = _sup_oscillation(f, t_grid)
    else:
        hs, sup_norms = _step_norm_table(f, order, p)
        omega = sup_norms[np.searchsorted(hs, t_grid * (1 + 1e-12), side="right")]
    order_desc = np.argsort(-t_grid, kind="stable")
    return ModulusCurve(t_grid[order_desc], omega[order_desc], order, p)


def besov_seminorm(f: FunctionOnGrid, params: BesovParams) -> float:
    """Scale-aggregated modulus: the q-integral of omega_r(t)/t^alpha over
    41 log-spaced t from the grid step up to 1 (max over t when q is infinite)."""
    curve = modulus_of_smoothness(f, params.order, params.p, np.geomspace(f.min_step, 1.0, 41))
    t = curve.t_values[::-1]
    ratio = curve.omega_values[::-1] / t ** params.alpha
    if np.isinf(params.q):
        return float(ratio.max())
    return float(np.trapezoid(ratio ** params.q, np.log(t)) ** (1.0 / params.q))


@dataclass
class SmoothnessEstimate:
    """Log-log slope of the modulus curve, clipped to [0, order].

    exponent is None when the curve is flat at zero; then the only honest
    statement is that the smoothness is at least the difference order, and
    saturated is set.
    """

    exponent: float | None
    order: int
    saturated: bool
    curve: ModulusCurve | None = None

    def __str__(self):
        if self.saturated:
            return f"exponent >= {self.order}"
        return f"exponent ~= {self.exponent:.3f}"


def estimate_smoothness_exponent(f: FunctionOnGrid, order: int, p: float) -> SmoothnessEstimate:
    """Fit log omega against log t over the interior of 25 log-spaced t from
    the grid step up to 1.

    The two largest and two smallest t values are dropped: the small end
    suffers discretization bias and the large end saturates.
    """
    curve = modulus_of_smoothness(f, order, p, np.geomspace(f.min_step, 1.0, 25))
    # ascending t without the two smallest and two largest values
    t, om = curve.t_values[::-1][2:-2], curve.omega_values[::-1][2:-2]
    usable = om > 1e-12
    if usable.sum() < 5:
        return SmoothnessEstimate(None, order, True, curve)
    slope = np.polyfit(np.log(t[usable]), np.log(om[usable]), 1)[0]
    return SmoothnessEstimate(float(np.clip(slope, 0.0, order)), order, False, curve)


# ---------------------------------------------------------------------------
# synthetic functions of prescribed smoothness


def _weierstrass_axis(xs, alpha):
    a, k = 4.0 ** (-alpha), np.arange(26)
    return ((a ** k)[None, :] * np.cos(np.pi * (4.0 ** k)[None, :] * xs[:, None])).sum(axis=1)


def _check_resolution(resolution):
    """ValueError unless resolution, a grid's nodes per axis, is None or an integer >= 2."""
    if resolution is not None and not (isinstance(resolution, Integral) and resolution >= 2):
        raise ValueError(f"resolution must be None or an integer >= 2, got {resolution!r}")


def _normalize_unit(vals):
    lo, hi = vals.min(), vals.max()
    return (vals - lo) / (hi - lo)


def _hat(x):
    return np.maximum(0.0, 1.0 - np.abs(x))


def synth_function(kind: str, target_alpha: float, d: int = 1, seed: int = 0,
                   resolution: int | None = None) -> FunctionOnGrid:
    """Deterministic-by-seed test functions with a prescribed smoothness profile.

    kinds: "weierstrass" (lacunar cosine series, exponent target_alpha),
    "spline_series" (random hat-function series with dyadic coefficient decay
    2^(-j (alpha + 1/2 - 1/p)) at p = 2), and "piecewise_spiky" (smooth bump
    plus one localized cusp of lower exponent, for inhomogeneity experiments).
    """
    if d not in (1, 2):
        raise ValueError("synthetic functions support d in {1, 2}")
    if kind == "weierstrass" and not (0.0 < target_alpha <= 2.0):
        raise ValueError("weierstrass alpha must lie in (0, 2]")
    _check_resolution(resolution)
    g = (4097 if d == 1 else 257) if resolution is None else resolution
    axes = tuple(np.linspace(0.0, 1.0, g) for _ in range(d))
    rng = np.random.default_rng(seed)

    if kind == "weierstrass":
        per_axis = [_normalize_unit(_weierstrass_axis(ax, target_alpha)) for ax in axes]
        return FunctionOnGrid(axes, per_axis[0] if d == 1 else np.multiply.outer(*per_axis))
    if kind == "spline_series":
        levels = max(2, int(np.log2(g - 1)) - 2)
        decay = target_alpha + 0.5 - 1.0 / 2.0  # not target_alpha: the sum rounds
        axis_vals = []
        for ax in axes:
            v = np.zeros(len(ax))
            for j in range(levels):
                centers = (np.arange(2 ** j) + 0.5) / 2 ** j
                coef = rng.standard_normal(len(centers)) * 2.0 ** (-j * decay)
                # hat k is nonzero only inside its dyadic cell (k, k+1) / 2^j,
                # whose exact ends bound the rounded ax - c, so a node takes
                # only its own cell's hat: every other hat is +-0.0, and adding
                # it leaves v as it is (v starts at +0.0, so it never holds -0.0)
                k = np.minimum((ax * 2 ** j).astype(np.intp), 2 ** j - 1)
                v += coef[k] * _hat((ax - centers[k]) * 2 ** j * 2)
            axis_vals.append(v)
    elif kind == "piecewise_spiky":
        cusp_alpha = 0.5 * target_alpha
        x0 = rng.uniform(0.3, 0.7)
        c0 = rng.uniform(0.2, 0.8)

        def spiky(ax):
            bump = np.exp(-((ax - c0) / 0.25) ** 2)
            window = _hat((ax - x0) / 0.2)
            return bump + window * np.abs(ax - x0) ** cusp_alpha
        axis_vals = [spiky(ax) for ax in axes]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    vals = axis_vals[0] if d == 1 else axis_vals[0][:, None] + axis_vals[1][None, :]
    return FunctionOnGrid(axes, _normalize_unit(vals))


# ---------------------------------------------------------------------------
# dynamic-closure diagnostic


@dataclass
class ClosureEntry:
    net_index: int
    policy_index: int
    estimate: SmoothnessEstimate
    seminorm: float


@dataclass
class ClosureReport:
    """Smoothness of Bellman images of a batch of networks.

    A finite batch cannot verify the closure property over the whole class;
    the report states the batch size and only summarizes what was measured.
    """

    entries: list
    min_exponent: float | None
    max_seminorm: float
    batch_size: int
    params: BesovParams
    note: str = ("finite diagnostic batch: consistency evidence only, not a "
                 "verification of closure over the whole class")


def diagnose_dynamic_closure(mdp, oracle, nets, policies, params: BesovParams) -> ClosureReport:
    """Apply each policy's Bellman operator to each network (a callable or an
    (S, A) table) and measure the image's first-order smoothness exponent and
    Besov seminorm on the oracle grid; mdp must be the MDP the oracle was
    built from (ValueError otherwise)."""
    from .oracle import apply_bellman

    if oracle.mdp is not mdp:
        raise ValueError("oracle was built from a different MDP")
    entries = []
    axes = oracle.state_axes + (oracle.action_grid,)
    shape = tuple(len(a) for a in axes)
    for ni, net in enumerate(nets):
        for pi, policy in enumerate(policies):
            image = apply_bellman(oracle, net, policy)
            fog = FunctionOnGrid(axes, image.reshape(shape))
            est = estimate_smoothness_exponent(fog, 1, params.p)
            semi = besov_seminorm(fog, params)
            entries.append(ClosureEntry(ni, pi, est, semi))
    exponents = [e.estimate.exponent for e in entries if not e.estimate.saturated]
    return ClosureReport(entries=entries, min_exponent=min(exponents) if exponents else None,
                         max_seminorm=max(e.seminorm for e in entries),
                         batch_size=len(entries), params=params)
