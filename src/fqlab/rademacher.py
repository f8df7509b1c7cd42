"""Empirical and localized Rademacher complexity estimation, sub-root
fixed-point solving, and the theoretical rate-exponent calculator."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .relunet import (ArchitectureSpec, ReluNetwork, TrainConfig, _clip_and_prune, _forward,
                      _output_gradient, _split, _Workspace, fit_least_squares)


@dataclass
class RademacherEstimate:
    """Average over sign draws of the supremum correlation with the class.

    For finite classes the per-draw supremum is exact; for network classes it
    comes from gradient ascent and is a lower estimate of the true supremum,
    flagged through bias_note.
    """

    value: float
    n: int
    sigma_draws: int
    sup_method: str                 # "exhaustive" | "trained"
    stderr: float
    bias_note: str | None = None
    per_draw: np.ndarray | None = None


def _estimate(sups: np.ndarray, n: int, exhaustive=False, caveat="") -> RademacherEstimate:
    """Mean of the per-draw suprema and its standard error; a trained
    supremum carries the bias note, followed by caveat."""
    draws = len(sups)
    return RademacherEstimate(
        value=float(sups.mean()), n=n, sigma_draws=draws,
        sup_method="exhaustive" if exhaustive else "trained",
        stderr=float(sups.std(ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0,
        bias_note=None if exhaustive else "trained supremum: lower estimate of the true sup" + caveat,
        per_draw=sups)


class FiniteFunctionClass:
    """Function class given by its value matrix at the sample points."""

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("expected a (n_functions, n_points) matrix")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite function values")

    def sup_correlation(self, sigma: np.ndarray) -> float:
        return float(np.max(self.values @ sigma) / len(sigma))


class NetworkFunctionClass:
    """Constrained ReLU class; the supremum is approximated by training."""

    def __init__(self, spec: ArchitectureSpec, train: TrainConfig, input_dim: int):
        self.spec = spec
        self.train = train
        self.input_dim = input_dim

    def sup_correlation(self, sigma: np.ndarray, xs: np.ndarray, seed: int) -> float:
        # least-squares fit of the +-1 targets maximizes alignment within [0,1]
        cfg = replace(self.train, seed=seed)
        net = ReluNetwork.zeros(self.input_dim, self.spec)
        fitted = fit_least_squares(net, xs, 0.5 * (sigma + 1.0), cfg)
        out = fitted.forward(xs)
        base = float(sigma @ out / len(sigma))
        # the zero function is always in the class; never report below it
        return max(base, 0.0)


def _in_parts(part, draws: int) -> list:
    """[part(lo, hi) for whole-draw parts [lo, hi) of range(draws)], one per
    usable core; this process computes the first and forked workers the rest,
    or all run here on one usable core, without fork, or in a daemonic process."""
    from .harness import _fork_workers, _forked_map  # harness imports this module

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = _fork_workers(min(cores or 1, draws))
    if workers == 1:
        return [part(0, draws)]
    bounds = [draws * k // workers for k in range(workers + 1)]
    return _forked_map(lambda b: part(*b), list(zip(bounds, bounds[1:])), workers - 1, here=1)


def empirical_rademacher(function_class, xs, sigma_draws: int, seed: int) -> RademacherEstimate:
    """Monte-Carlo Rademacher average: mean over sign draws of the supremum of
    (1/n) sum_i sigma_i f(x_i).

    A network class draws every sign here, then fits whole-draw parts as
    _in_parts runs them.  Fit i depends only on its signs and its seed
    seed * 1000003 + i, so the split changes no number.  A fit's exception,
    such as TrainingDiverged, reaches the caller as itself and a dead worker
    raises concurrent.futures.process.BrokenProcessPool; either way no worker
    is left running and the BLAS thread counts are restored."""
    if sigma_draws < 1:
        raise ValueError("need at least one sign draw")
    finite = isinstance(function_class, FiniteFunctionClass)
    xs = xs if finite else np.asarray(xs, dtype=float)
    n = function_class.values.shape[1] if finite else len(xs)
    if n < 1:
        raise ValueError("need a nonempty point set")
    rng = np.random.default_rng(seed)
    sigmas = (rng.choice([-1.0, 1.0], size=n) for _ in range(sigma_draws))
    if finite:
        sups = [function_class.sup_correlation(sigma) for sigma in sigmas]
        return _estimate(np.array(sups), n, exhaustive=True)
    sigmas = list(sigmas)
    parts = _in_parts(lambda lo, hi: [function_class.sup_correlation(
        sigmas[i], xs, seed=int(seed) * 1000003 + i) for i in range(lo, hi)], sigma_draws)
    return _estimate(np.array([s for part in parts for s in part]), n)


# the ascent stacks whole sign draws until candidates x max(n, m) x width
# reaches this many elements, which bounds the activation memory
_STACK_ELEMENTS = 1 << 22
ASCENT_LR = 0.1        # step size of the localized ascent
ASCENT_PENALTY = 10.0  # weight of the hinge penalty outside the ball
ASCENT_RESTARTS = 2    # perturbed starts per sign draw


def localized_rademacher(spec: ArchitectureSpec, anchor: ReluNetwork, radius: float,
                         xs, mu_samples, sigma_draws: int, seed: int,
                         ascent_steps: int = 120) -> RademacherEstimate:
    """Rademacher average of {f - anchor : f feasible, ||f - anchor||^2 <= radius}.

    The squared norm is Monte-Carlo estimated on mu_samples.  Ascent (step
    ASCENT_LR, ASCENT_RESTARTS perturbed starts per draw) maximizes the signed
    correlation with a hinge penalty of weight ASCENT_PENALTY outside the ball;
    candidates are accepted only if the evaluated norm is inside the ball, and
    the zero difference (f = anchor) is always feasible, so the estimate is >= 0.

    Every restart of every sign draw is one candidate network; the candidates
    ascend in lockstep as one stacked network, in chunks of whole draws, and
    each gets exactly the numbers it would get ascending on its own.  Every
    sign and start of a chunk is drawn here, and the chunk ascends in
    whole-draw parts as _in_parts runs them, so the split changes no number.
    An exception in a part reaches the caller as itself and a dead worker
    raises concurrent.futures.process.BrokenProcessPool; either way no worker
    is left running and the BLAS thread counts are restored.  The feasible
    set is the anchor's architecture, so spec must describe it.
    """
    # a one-layer network has no hidden width to compare
    if (anchor.height != spec.height or (anchor.height > 1 and anchor.width != spec.width)
            or anchor.sparsity != spec.sparsity or anchor.weight_bound != spec.weight_bound):
        raise ValueError("spec disagrees with the anchor's height, width, sparsity "
                         "or weight bound")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if sigma_draws < 1:
        raise ValueError("need at least one sign draw")
    xs = np.asarray(xs, dtype=float)
    mu_samples = np.asarray(mu_samples, dtype=float)
    if xs.ndim != 2 or mu_samples.ndim != 2 or len(xs) < 1 or len(mu_samples) < 1:
        raise ValueError("xs and mu_samples must be nonempty (points, dim) arrays")
    n, m = len(xs), len(mu_samples)
    z_xs, z_mu = np.maximum(xs, 0.0), np.maximum(mu_samples, 0.0)  # the input ReLU
    anchor_xs = anchor.forward(xs)
    anchor_mu = anchor.forward(mu_samples)
    chunk = max(1, _STACK_ELEMENTS // (ASCENT_RESTARTS * max(n, m) * anchor.width))
    n_weights = sum(w.size for w in anchor.weights)  # the weights lead the parameter vector

    def ascend(params, sigmas):
        # ascends params in place: (each draw's best correlation, any candidate inside)
        weights, biases = _split(params, anchor._dims)
        w_xs = np.repeat(np.stack(sigmas) / n, ASCENT_RESTARTS, axis=0)
        best = [0.0] * len(sigmas)  # the anchor itself: zero difference, inside the ball
        accepted = False
        # one workspace per point set, so the gradient and the penalty have their own arrays
        work_xs = _Workspace(anchor._dims, n, (len(params),))
        work_mu = _Workspace(anchor._dims, m, (len(params),))
        cache_xs = _forward(weights, biases, z_xs, reuse=work_xs.cache)
        cache_mu = _forward(weights, biases, z_mu, reuse=work_mu.cache)
        for step in range(ascent_steps):
            diff_mu = cache_mu[0] - anchor_mu
            over = np.mean(diff_mu ** 2, axis=-1) > radius
            grad = _output_gradient(weights, cache_xs[1], cache_xs[2], w_xs, work_xs)
            if over.any():
                pen = _output_gradient(weights, cache_mu[1], cache_mu[2],
                                       -ASCENT_PENALTY * 2.0 * diff_mu / m, work_mu)
                # add only where over, not a 0/1 mask: a masked add can flip a zero's sign
                np.add(grad, pen, out=grad, where=over[:, None])
            grad *= ASCENT_LR
            params += grad
            checkpoint = (step + 1) % 20 == 0 or step + 1 == ascent_steps
            if checkpoint:
                for row in params:
                    _clip_and_prune(row, anchor.weight_bound, anchor.sparsity)
            # one pass per point set serves this checkpoint and the next step
            cache_xs = _forward(weights, biases, z_xs, reuse=work_xs.cache)
            cache_mu = _forward(weights, biases, z_mu, reuse=work_mu.cache)
            if not checkpoint:
                continue
            f_xs, f_mu = cache_xs[0], cache_mu[0]
            if anchor.output_clamp:
                f_xs, f_mu = np.clip(f_xs, 0.0, 1.0), np.clip(f_mu, 0.0, 1.0)
            for c in range(len(params)):
                if float(np.mean((f_mu[c] - anchor_mu) ** 2)) <= radius:
                    accepted = True
                    i = c // ASCENT_RESTARTS
                    corr = float(sigmas[i] @ (f_xs[c] - anchor_xs) / n)
                    best[i] = max(best[i], corr)
        return best, accepted

    rng = np.random.default_rng(seed)
    sups = np.empty(sigma_draws)
    rejected_all = True
    for start in range(0, sigma_draws, chunk):
        # one row of params per candidate: every sign and perturbation of the
        # chunk, in one-draw-at-a-time order, then the projection of the row
        sigmas, count = [], min(chunk, sigma_draws - start) * ASCENT_RESTARTS
        params = np.repeat(anchor.params[None], count, axis=0)
        for c, row in enumerate(params):
            if c % ASCENT_RESTARTS == 0:
                sigmas.append(rng.choice([-1.0, 1.0], size=n))
            row[:n_weights] += 0.01 * rng.standard_normal(n_weights)
            _clip_and_prune(row, anchor.weight_bound, anchor.sparsity)
        parts = _in_parts(lambda lo, hi: ascend(
            params[lo * ASCENT_RESTARTS:hi * ASCENT_RESTARTS], sigmas[lo:hi]), len(sigmas))
        sups[start:start + len(sigmas)] = [b for best, _ in parts for b in best]
        rejected_all = rejected_all and not any(accepted for _, accepted in parts)
    caveat = "; no ascent candidate stayed inside the radius (estimate is the anchor's 0)"
    return _estimate(sups, n, caveat=caveat if rejected_all else "")


# ---------------------------------------------------------------------------
# sub-root functions and fixed points


@dataclass
class SubRootSpec:
    """Nonnegative, nondecreasing psi with psi(r)/sqrt(r) nonincreasing.

    forms: "affine" gives psi(r) = a*sqrt(r) + b; "tabulated" interpolates
    monotone samples.  An unknown form, or a form without finite fields, raises
    ValueError at construction.
    """

    form: str
    a: float | None = None
    b: float | None = None
    r_values: np.ndarray | None = None
    psi_values: np.ndarray | None = None

    def __post_init__(self):
        needs = {"affine": ("a", "b"), "tabulated": ("r_values", "psi_values")}.get(self.form)
        values = [getattr(self, k) for k in needs or ()]
        if needs is None or any(v is None or not np.all(np.isfinite(v)) for v in values):
            raise ValueError(f"need form 'affine' with finite a and b, or 'tabulated' with finite "
                             f"r_values and psi_values; got form {self.form!r}")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.form == "affine":
            return self.a * np.sqrt(r) + self.b
        return np.interp(r, self.r_values, self.psi_values)

    def closed_form_fixed_point(self) -> float:
        """Quadratic-formula fixed point, affine form only: sqrt(r*) = (a + sqrt(a^2+4b))/2."""
        if self.form != "affine":
            raise ValueError("closed form available for the affine form only")
        s = 0.5 * (self.a + math.sqrt(self.a * self.a + 4.0 * self.b))
        return s * s

    def check_sub_root(self, r_lo, r_hi):
        grid = np.geomspace(max(r_lo, 1e-300), r_hi, 64)
        vals = self(grid)
        if np.any(vals < -1e-12):
            raise ValueError("psi must be nonnegative")
        if np.any(np.diff(vals) < -1e-9 * max(1.0, np.abs(vals).max())):
            raise ValueError("psi must be nondecreasing")
        ratio = vals / np.sqrt(grid)
        if np.any(np.diff(ratio) > 1e-9 * max(1.0, ratio.max())):
            raise ValueError("psi(r)/sqrt(r) must be nonincreasing")


def sub_root_fixed_point(psi, r_max: float, tol: float) -> float:
    """Bisection for the positive fixed point r* = psi(r*).

    The bracket starts at tol^2 rather than 0 because psi(0) may vanish and
    make 0 a spurious fixed point; sub-rootness makes psi(r) - r cross from
    positive to negative exactly once on the bracket.
    """
    if tol <= 0 or r_max <= tol * tol:
        raise ValueError("need tol > 0 and r_max > tol^2")
    if isinstance(psi, SubRootSpec):
        psi.check_sub_root(tol * tol, r_max)
    lo, hi = tol * tol, float(r_max)
    g_lo = float(psi(lo)) - lo
    g_hi = float(psi(hi)) - hi
    if g_lo <= 0.0:
        raise ValueError("psi(tol^2) <= tol^2: no positive crossing above the bracket floor")
    if g_hi >= 0.0:
        raise ValueError("psi(r_max) >= r_max: enlarge r_max")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if float(psi(mid)) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RateExponents:
    """Closed-form exponents of the convergence-rate analysis."""

    beta: float
    n_exponent: float          # network resolution grows like n^n_exponent
    stat_exponent: float       # statistical error decays like n^-stat_exponent
    sample_exponent: float     # samples scale like (1/eps^2)^sample_exponent


def rate_exponent(alpha: float, d: int) -> RateExponents:
    if alpha <= 0 or d < 1:
        raise ValueError("need alpha > 0 and d >= 1")
    beta = 1.0 / (2.0 + d * d / (alpha * (alpha + d)))
    n_exp = (beta + 0.5) * d / (2.0 * alpha + d)
    stat = 0.5 / (2.0 * alpha / (2.0 * alpha + d) + d / alpha)
    sample = 1.0 + d / alpha
    return RateExponents(beta=beta, n_exponent=n_exp, stat_exponent=stat, sample_exponent=sample)
