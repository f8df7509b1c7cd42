"""Constrained deep ReLU networks: exact backprop, projected least-squares
training, and the theory-driven architecture selector.

The network applies the ReLU to the raw input before the first affine layer;
for inputs in the unit cube this is a no-op, and it keeps evaluation aligned
with the constrained function class the rest of the code reasons about.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

_MAGIC = b"FQLNET01"


class TrainingDiverged(RuntimeError):
    """Every restart saw its loss blow past 10x the initialization loss or
    turn non-finite."""


class NonFiniteLoss(ValueError):
    """A training loss overflowed to inf or NaN."""


@dataclass(frozen=True)
class ArchitectureSpec:
    """Size and constraint budget of a constrained ReLU network.

    height counts affine layers, sparsity caps the total number of nonzero
    parameters across all weights and biases, and weight_bound caps every
    entry's magnitude.  The remaining fields record the inputs the
    rate-driven selector derived the sizes from; they stay None for
    hand-set specs.
    """

    height: int
    width: int
    sparsity: int
    weight_bound: float
    resolution: int | None = None
    alpha: float | None = None
    p: float | None = None
    input_dim: int | None = None
    beta: float | None = None
    excess: float | None = None
    n_exponent: float | None = None

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.sparsity < 1:
            raise ValueError("height, width, sparsity must be positive")
        if self.weight_bound <= 0:
            raise ValueError("weight_bound must be positive")


def architecture_for(n: int, alpha: float, p: float, d: int) -> ArchitectureSpec:
    """Pick the network sizes the convergence analysis prescribes for n samples.

    All proportionality constants are taken as 1 and logs are natural, so the
    selector is deterministic: with N = ceil(n^((beta + 1/2) d / (2 alpha + d)))
    it returns height ceil(log N), width ceil(N log N), sparsity N, and weight
    bound N^(1/d + 2 excess / (alpha - excess)).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if d < 1:
        raise ValueError("need d >= 1")
    if not alpha > d / min(p, 2.0):
        raise ValueError("inadmissible parameters: need alpha > d / min(p, 2)")
    excess = d * max(1.0 / p - 1.0 / (1 + math.floor(alpha)), 0.0)
    beta = 1.0 / (2.0 + d * d / (alpha * (alpha + d)))
    n_exponent = (beta + 0.5) * d / (2.0 * alpha + d)
    resolution = int(math.ceil(n ** n_exponent))
    height = max(1, int(math.ceil(math.log(resolution))))
    width = max(1, int(math.ceil(resolution * math.log(resolution))))
    bound = resolution ** (1.0 / d + 2.0 * excess / (alpha - excess))
    return ArchitectureSpec(
        height=height, width=width, sparsity=resolution, weight_bound=bound,
        resolution=resolution, alpha=alpha, p=p, input_dim=d, beta=beta,
        excess=excess, n_exponent=n_exponent,
    )


@dataclass
class TrainConfig:
    """Projected full-batch gradient descent settings.

    learning_rate is relative: the actual step is learning_rate divided by a
    curvature estimate of the initialization (twice the mean squared
    activation norm feeding the output layer), so values below 2 cannot
    overshoot the head subspace at the start regardless of the width.  The
    step then decays geometrically to learning_rate * lr_decay across the
    epochs.  Constraints are re-projected every projection_period steps and at
    termination.  restarts independent random initializations are trained and
    the lowest-loss one returned.
    """

    learning_rate: float = 1.0
    lr_decay: float = 0.05
    epochs: int = 300
    projection_period: int = 50
    restarts: int = 3
    seed: int = 0
    batch_size: int | None = None  # None = full batch

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.projection_period < 1:
            raise ValueError("projection_period must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when set")


class ReluNetwork:
    """Feed-forward ReLU network under sparsity and sup-norm constraints.

    Outputs are clamped to [0,1] at evaluation when output_clamp is set; the
    clamp is never applied inside gradient computations (training acts on the
    raw output so the clamp cannot zero out gradients).
    """

    def __init__(self, weights, biases, sparsity, weight_bound, output_clamp=True):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.sparsity = int(sparsity)
        self.weight_bound = float(weight_bound)
        self.output_clamp = bool(output_clamp)
        self._check_shapes()

    def _check_shapes(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        L = len(self.weights)
        if L < 1:
            raise ValueError("need at least one affine layer")
        if self.weights[-1].shape[0] != 1 or self.biases[-1].shape != (1,):
            raise ValueError("output layer must map to a scalar")
        for l in range(L - 1):
            if self.weights[l].shape[0] != self.biases[l].shape[0]:
                raise ValueError("bias length must match layer width")
            if self.weights[l + 1].shape[1] != self.weights[l].shape[0]:
                raise ValueError("consecutive layer shapes do not chain")
        for w, b in zip(self.weights, self.biases):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("non-finite parameter detected")

    # -- construction -------------------------------------------------------

    @classmethod
    def zeros(cls, input_dim: int, spec: ArchitectureSpec, output_clamp=True):
        ws, bs = [], []
        L, m = spec.height, spec.width
        if L == 1:
            ws.append(np.zeros((1, input_dim)))
            bs.append(np.zeros(1))
        else:
            ws.append(np.zeros((m, input_dim)))
            bs.append(np.zeros(m))
            for _ in range(L - 2):
                ws.append(np.zeros((m, m)))
                bs.append(np.zeros(m))
            ws.append(np.zeros((1, m)))
            bs.append(np.zeros(1))
        return cls(ws, bs, spec.sparsity, spec.weight_bound, output_clamp)

    @classmethod
    def random(cls, input_dim: int, spec: ArchitectureSpec, rng: np.random.Generator,
               output_clamp=True):
        """He-style Gaussian hidden layers with a zero output head, projected.

        The zero head starts the prediction at 0, so the initial loss sits at
        the target scale and the first descent steps cannot blow up.
        """
        net = cls.zeros(input_dim, spec, output_clamp)
        for l, w in enumerate(net.weights[:-1]):
            fan_in = w.shape[1]
            net.weights[l] = rng.standard_normal(w.shape) * math.sqrt(2.0 / fan_in)
        if net.height == 1:
            net.weights[0] = rng.standard_normal(net.weights[0].shape) * math.sqrt(2.0 / input_dim)
        net._project_inplace()
        return net

    def copy(self):
        return ReluNetwork([w.copy() for w in self.weights], [b.copy() for b in self.biases],
                           self.sparsity, self.weight_bound, self.output_clamp)

    @property
    def height(self):
        return len(self.weights)

    @property
    def input_dim(self):
        return self.weights[0].shape[1]

    def n_params(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def nnz(self):
        return sum(int(np.count_nonzero(w)) + int(np.count_nonzero(b))
                   for w, b in zip(self.weights, self.biases))

    # -- evaluation ---------------------------------------------------------

    def _forward_cached(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.input_dim:
            raise ValueError("input dimension mismatch")
        pre = []
        z = np.maximum(x, 0.0)  # ReLU on the raw input; identity on [0,1]^d
        acts = [z]
        for l in range(self.height - 1):
            a = z @ self.weights[l].T + self.biases[l]
            pre.append(a)
            z = np.maximum(a, 0.0)
            acts.append(z)
        out = (z @ self.weights[-1].T + self.biases[-1])[:, 0]
        return out, pre, acts

    def forward(self, x, clamp: bool | None = None) -> np.ndarray:
        """Evaluate on a batch of points; clamp defaults to the instance flag."""
        out, _, _ = self._forward_cached(x)
        use_clamp = self.output_clamp if clamp is None else clamp
        if use_clamp:
            out = np.clip(out, 0.0, 1.0)
        return out

    def __call__(self, x):
        return self.forward(x)

    # -- gradients ----------------------------------------------------------

    def weighted_output_gradient(self, x, out_weights, _cache=None):
        """Gradient of sum_i w_i f(x_i) w.r.t. every parameter (no clamp).

        The ReLU subgradient at a kink is taken as 0.  Returns (grad_weights,
        grad_biases) shaped like the parameters.
        """
        out, pre, acts = self._forward_cached(x) if _cache is None else _cache
        w = np.asarray(out_weights, dtype=float)
        gw = [np.zeros_like(m) for m in self.weights]
        gb = [np.zeros_like(b) for b in self.biases]
        delta = w[:, None]  # upstream derivative at the output node
        gw[-1] = delta.T @ acts[-1]
        gb[-1] = delta.sum(axis=0)
        for l in range(self.height - 2, -1, -1):
            delta = (delta @ self.weights[l + 1]) * (pre[l] > 0.0)
            gw[l] = delta.T @ acts[l]
            gb[l] = delta.sum(axis=0)
        return gw, gb

    def mse_gradient(self, x, y):
        """(loss, grads) for the mean squared error over the batch, no clamp."""
        y = np.asarray(y, dtype=float)
        if len(y) == 0:
            raise ValueError("empty batch")
        cache = self._forward_cached(x)
        resid = cache[0] - y
        loss = float(np.mean(resid ** 2))
        if not np.isfinite(loss):
            raise NonFiniteLoss("non-finite training loss")
        gw, gb = self.weighted_output_gradient(x, 2.0 * resid / len(y), _cache=cache)
        return loss, gw, gb

    def mse(self, x, y):
        out = self.forward(x, clamp=False)
        return float(np.mean((out - np.asarray(y, dtype=float)) ** 2))

    # -- constraint projection ----------------------------------------------

    def _project_inplace(self):
        b = self.weight_bound
        for arr in self.weights + self.biases:
            np.clip(arr, -b, b, out=arr)
        nnz = self.nnz()
        if nnz > self.sparsity:
            flat = np.concatenate([a.ravel() for a in self.weights + self.biases])
            order = np.argsort(-np.abs(flat), kind="stable")
            keep = np.zeros(len(flat), dtype=bool)
            keep[order[: self.sparsity]] = True
            pos = 0
            for arr in self.weights + self.biases:
                mask = keep[pos:pos + arr.size].reshape(arr.shape)
                arr *= mask
                pos += arr.size
        return self

    def projected(self):
        return self.copy()._project_inplace()

    def feasible(self, atol=0.0):
        sup = max(max(np.abs(w).max(initial=0.0), np.abs(b).max(initial=0.0))
                  for w, b in zip(self.weights, self.biases))
        return self.nnz() <= self.sparsity and sup <= self.weight_bound + atol

    # -- serialization ------------------------------------------------------

    def save(self, path):
        """Flat little-endian float64 record behind a 16-byte magic/version header."""
        header = _MAGIC + struct.pack("<BB6x", 1, int(self.output_clamp))
        chunks = [np.array([self.height, self.weights[0].shape[0] if self.height > 1 else 1,
                            self.sparsity, self.weight_bound], dtype="<f8")]
        for w, b in zip(self.weights, self.biases):
            chunks.append(w.astype("<f8").ravel())
            chunks.append(b.astype("<f8").ravel())
        Path(path).write_bytes(header + np.concatenate(chunks).tobytes())

    @classmethod
    def load(cls, path):
        raw = Path(path).read_bytes()
        if len(raw) < 16 or raw[:8] != _MAGIC:
            raise ValueError("not a network record")
        version, clamp = struct.unpack("<BB6x", raw[8:16])
        if version != 1:
            raise ValueError(f"unsupported record version {version}")
        flat = np.frombuffer(raw[16:], dtype="<f8")
        if len(flat) < 4:
            raise ValueError("record header is truncated")
        sizes = flat[:3]
        if not (np.all(np.isfinite(sizes)) and np.all(sizes == np.floor(sizes))
                and np.all(sizes >= 1)):
            raise ValueError("record sizes must be finite integers >= 1")
        height, width, sparsity = (int(v) for v in sizes)
        bound = float(flat[3])
        rest = flat[4:]
        # everything but the first layer's weight matrix has a known length;
        # what is left must fill `rows` rows of at least one input each
        rows = 1 if height == 1 else width
        first = len(rest) - rows
        if height > 1:
            first -= (height - 2) * (width * width + width) + width + 1
        if first < rows or first % rows:
            raise ValueError("record length does not match the declared sizes")
        input_dim = first // rows
        ws, bs, pos = [], [], 0

        def take(shape):
            nonlocal pos
            k = int(np.prod(shape))
            out = rest[pos:pos + k].reshape(shape).copy()
            pos += k
            return out

        if height == 1:
            ws.append(take((1, input_dim)))
            bs.append(take((1,)))
        else:
            ws.append(take((width, input_dim)))
            bs.append(take((width,)))
            for _ in range(height - 2):
                ws.append(take((width, width)))
                bs.append(take((width,)))
            ws.append(take((1, width)))
            bs.append(take((1,)))
        return cls(ws, bs, sparsity, bound, bool(clamp))


def project_constraints(net: ReluNetwork) -> ReluNetwork:
    """Clip every parameter into [-B, B], then keep the sparsity-budget largest
    magnitudes (global magnitude pruning).  Clip first, prune second; the map
    is idempotent."""
    return net.projected()


def fit_least_squares(net: ReluNetwork, xs, ys, cfg: TrainConfig) -> ReluNetwork:
    """Projected gradient descent on the mean squared error.

    Runs cfg.restarts initializations (the passed net first, the rest random),
    projects every projection_period steps and at termination, and returns the
    best projected iterate seen, so the returned loss never exceeds the
    winning restart's initialization loss.  epochs counts passes over the
    data; with batch_size set, each pass walks a fresh shuffled partition.
    Divergence (full-data loss past 10x the initialization, or any non-finite
    loss) aborts a restart; TrainingDiverged is raised only if every restart
    blows up.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) == 0:
        raise ValueError("empty training data")
    if not np.all(np.isfinite(ys)):
        raise ValueError("targets must be finite")
    if cfg.epochs == 0:
        return net.projected()

    n = len(xs)
    batch = min(cfg.batch_size or n, n)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5eed]))
    spec = ArchitectureSpec(height=net.height,
                            width=net.weights[0].shape[0] if net.height > 1 else 1,
                            sparsity=net.sparsity, weight_bound=net.weight_bound)
    best_net, best_loss = None, np.inf
    diverged = 0
    for restart in range(cfg.restarts):
        cand = net.projected() if restart == 0 else ReluNetwork.random(
            net.input_dim, spec, rng, net.output_clamp)
        init_loss = cand.mse(xs, ys)
        local_net, local_loss = cand.copy(), init_loss
        head_acts = cand._forward_cached(xs[:batch])[2][-1]
        curvature = 2.0 * (float(np.mean(np.sum(head_acts ** 2, axis=1))) + 1.0)
        base_step = cfg.learning_rate / curvature
        blew_up = False
        total_steps = cfg.epochs * ((n + batch - 1) // batch)
        step = 0
        for epoch in range(cfg.epochs):
            order = rng.permutation(n) if batch < n else np.arange(n)
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                lr = base_step * cfg.lr_decay ** (step / max(1, total_steps - 1))
                try:
                    loss, gw, gb = cand.mse_gradient(xs[idx], ys[idx])
                except NonFiniteLoss:
                    blew_up = True
                    break
                for l in range(cand.height):
                    cand.weights[l] -= lr * gw[l]
                    cand.biases[l] -= lr * gb[l]
                step += 1
                if step % cfg.projection_period == 0 or step == total_steps:
                    cand._project_inplace()
                    loss_now = cand.mse(xs, ys)
                    if loss_now < local_loss:
                        local_net, local_loss = cand.copy(), loss_now
                    if not loss_now <= 10.0 * init_loss + 1e-12:  # also catches NaN
                        blew_up = True
                        break
            if blew_up:
                break
        if blew_up:
            diverged += 1
            continue
        if local_loss < best_loss:
            best_net, best_loss = local_net, local_loss
    if best_net is None:
        raise TrainingDiverged(f"all {diverged} restart(s) exceeded 10x the initial loss "
                               "or went non-finite")
    return best_net
