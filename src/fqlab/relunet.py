"""Constrained deep ReLU networks: exact backprop, projected least-squares
training, and the theory-driven architecture selector.

The network applies the ReLU to the raw input before the first affine layer;
for inputs in the unit cube this is a no-op, and it keeps evaluation aligned
with the constrained function class the rest of the code reasons about.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
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
    from .rademacher import rate_exponent  # rademacher imports this module

    if n < 2:
        raise ValueError("need n >= 2")
    if d < 1:
        raise ValueError("need d >= 1")
    if not alpha > d / min(p, 2.0):
        raise ValueError("inadmissible parameters: need alpha > d / min(p, 2)")
    excess = d * max(1.0 / p - 1.0 / (1 + math.floor(alpha)), 0.0)
    rates = rate_exponent(alpha, d)
    resolution = int(math.ceil(n ** rates.n_exponent))
    height = max(1, int(math.ceil(math.log(resolution))))
    width = max(1, int(math.ceil(resolution * math.log(resolution))))
    bound = resolution ** (1.0 / d + 2.0 * excess / (alpha - excess))
    return ArchitectureSpec(
        height=height, width=width, sparsity=resolution, weight_bound=bound,
        resolution=resolution, alpha=alpha, p=p, input_dim=d, beta=rates.beta,
        excess=excess, n_exponent=rates.n_exponent,
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


def _layer_dims(input_dim: int, height: int, width: int) -> list:
    """Input size of every affine layer, then the scalar output: [d, m, ..., m, 1]."""
    return [input_dim] + [width] * (height - 1) + [1]


class _Layers(list):
    """Per-layer views of a parameter vector; assigning a layer writes into it."""

    def __setitem__(self, index, value):
        view, value = self[index], np.asarray(value, dtype=float)
        if value.shape != view.shape:
            raise ValueError(f"layer is shaped {view.shape}, got {value.shape}")
        view[...] = value


def _split(flat, dims):
    """(weights, biases) views of a parameter vector, or of every row of a
    (C, P) stack: all weights in layer order, row-major, then all biases."""
    weights, biases, lead = _Layers(), _Layers(), flat.shape[:-1]
    pos, bias_pos = 0, sum(fan_out * fan_in for fan_in, fan_out in zip(dims, dims[1:]))
    for fan_in, fan_out in zip(dims, dims[1:]):
        weights.append(flat[..., pos:pos + fan_out * fan_in].reshape(lead + (fan_out, fan_in)))
        biases.append(flat[..., bias_pos:bias_pos + fan_out])
        pos, bias_pos = pos + fan_out * fan_in, bias_pos + fan_out
    return weights, biases


# -- kernels ----------------------------------------------------------------
# Each kernel takes one network's parameters (weights[l] shaped (out, in),
# biases[l] shaped (out,)) or a stack of networks with a leading batch axis
# (weights[l] shaped (C, out, in)).  Per slice a stacked call runs the same
# routines on the same operand layouts as the unstacked one, so its results
# are bit-identical to C separate calls.


def _forward(weights, biases, x, reuse=None):
    """(out, pre, acts) of the ReLU network on the rows of x.

    x is (n, d); a stack of networks shares it.  pre holds the hidden
    pre-activations, acts the inputs of every affine layer.  Passing the
    result of an earlier call on the same shapes as reuse overwrites its
    hidden arrays instead of allocating new ones.
    """
    z = np.maximum(x, 0.0)  # ReLU on the raw input; identity on [0,1]^d
    pre, acts = [], [z]
    for l, (w, b) in enumerate(zip(weights[:-1], biases[:-1])):
        a = np.matmul(z, np.swapaxes(w, -1, -2), out=None if reuse is None else reuse[1][l])
        a += b[..., None, :]
        pre.append(a)
        z = np.maximum(a, 0.0, out=None if reuse is None else reuse[2][l + 1])
        acts.append(z)
    y = z @ np.swapaxes(weights[-1], -1, -2)
    y += biases[-1][..., None, :]
    return y[..., 0], pre, acts


def _output_gradient(weights, pre, acts, w):
    """Gradient of sum_i w_i f(x_i) w.r.t. every parameter, from a _forward
    cache, in the layout of the parameters; w is (n,), or (C, n) for a stack.
    The ReLU subgradient at a kink is taken as 0."""
    dims = [weights[0].shape[-1]] + [a.shape[-2] for a in weights]
    grad = np.empty(w.shape[:-1] + (sum(a.shape[-2] * (a.shape[-1] + 1) for a in weights),))
    gw, gb = _split(grad, dims)
    height = len(weights)
    delta = w[..., None]  # upstream derivative at the output node
    for l in range(height - 1, -1, -1):
        if l < height - 1:
            if l == height - 2:
                # (n, 1) @ (1, width) is an outer product, which matmul forms
                # without BLAS as 0 + a*b; einsum gives the same bits faster
                delta = np.einsum("...ni,...ij->...nj", delta, weights[l + 1])
            else:
                delta = delta @ weights[l + 1]
            delta *= pre[l] > 0.0
        np.matmul(np.swapaxes(delta, -1, -2), acts[l], out=gw[l])
        np.add.reduce(delta, axis=-2, out=gb[l])
    return grad


def _clip_and_prune(params, bound, sparsity):
    """Clip every entry of a parameter vector into [-bound, bound], then zero all
    but the sparsity largest magnitudes (ties to the earlier entry); in place."""
    np.clip(params, -bound, bound, out=params)
    # *= 0 rather than = 0: a pruned negative entry keeps its sign as -0.0
    params[np.argsort(-np.abs(params), kind="stable")[sparsity:]] *= 0.0


class ReluNetwork:
    """Feed-forward ReLU network with hidden layers of one width, under sparsity
    and sup-norm constraints, its parameters held in one float64 vector,
    params, of which weights and biases are per-layer views (layout: _split).
    Outputs are clamped to [0,1] at evaluation when output_clamp is set, never
    inside gradient computations (training acts on the raw output so the
    clamp cannot zero out gradients).
    """

    def __init__(self, weights, biases, sparsity, weight_bound, output_clamp=True):
        weights = [np.asarray(w, dtype=float) for w in weights]
        biases = [np.asarray(b, dtype=float) for b in biases]
        if not weights or len(weights) != len(biases):
            raise ValueError("need at least one layer, and one bias per weight matrix")
        dims = self._dims = [weights[0].shape[-1]] + [w.shape[0] for w in weights]
        if (dims[-1] != 1 or [w.shape for w in weights] != list(zip(dims[1:], dims))
                or [b.shape for b in biases] != [(out,) for out in dims[1:]]
                or len(set(dims[1:-1])) > 1):
            raise ValueError("layer shapes must chain, at one hidden width, to a scalar output")
        self.sparsity = int(sparsity)
        self.weight_bound = float(weight_bound)
        self.output_clamp = bool(output_clamp)
        self.params = np.concatenate([a.ravel() for a in weights + biases])
        if not np.all(np.isfinite(self.params)):
            raise ValueError("non-finite parameter detected")
        self.weights, self.biases = _split(self.params, dims)

    def __reduce__(self):
        # pickle and deepcopy rebuild through __init__, so the views share params
        return ReluNetwork, (self.weights, self.biases, self.sparsity, self.weight_bound,
                             self.output_clamp)

    # -- construction -------------------------------------------------------

    @classmethod
    def zeros(cls, input_dim: int, spec: ArchitectureSpec, output_clamp=True):
        dims = _layer_dims(input_dim, spec.height, spec.width)
        params = np.zeros(sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(dims, dims[1:])))
        return cls(*_split(params, dims), spec.sparsity, spec.weight_bound, output_clamp)

    @classmethod
    def random(cls, input_dim: int, spec: ArchitectureSpec, rng: np.random.Generator,
               output_clamp=True):
        """He-style Gaussian hidden layers with a zero output head, projected.

        The zero head starts the prediction at 0, so the initial loss sits at
        the target scale and the first descent steps cannot blow up.
        """
        net = cls.zeros(input_dim, spec, output_clamp)
        # the hidden layers, or the only layer of a one-layer network
        for w in net.weights[:max(net.height - 1, 1)]:
            w[...] = rng.standard_normal(w.shape) * math.sqrt(2.0 / w.shape[1])
        net._project_inplace()
        return net

    def copy(self):
        return ReluNetwork(*self.__reduce__()[1])

    @property
    def height(self):
        return len(self._dims) - 1

    @property
    def input_dim(self):
        return self._dims[0]

    @property
    def width(self):
        return self._dims[1] if self.height > 1 else 1

    def n_params(self):
        return self.params.size

    def nnz(self):
        return int(np.count_nonzero(self.params))

    # -- evaluation ---------------------------------------------------------

    def _forward_cached(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.input_dim:
            raise ValueError("input dimension mismatch")
        return _forward(self.weights, self.biases, x)

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
        """Gradient of sum_i w_i f(x_i) w.r.t. every parameter (no clamp), laid
        out like params; the ReLU subgradient at a kink is taken as 0."""
        _, pre, acts = self._forward_cached(x) if _cache is None else _cache
        return _output_gradient(self.weights, pre, acts, np.asarray(out_weights, dtype=float))

    def mse_gradient(self, x, y):
        """(loss, grad) of the batch mean squared error, no clamp; grad is laid out like params."""
        y = np.asarray(y, dtype=float)
        if len(y) == 0:
            raise ValueError("empty batch")
        cache = self._forward_cached(x)
        resid = cache[0] - y
        loss = float(np.mean(resid ** 2))
        if not np.isfinite(loss):
            raise NonFiniteLoss("non-finite training loss")
        return loss, self.weighted_output_gradient(x, 2.0 * resid / len(y), _cache=cache)

    def mse(self, x, y):
        out = self.forward(x, clamp=False)
        return float(np.mean((out - np.asarray(y, dtype=float)) ** 2))

    # -- constraint projection ----------------------------------------------

    def _project_inplace(self):
        _clip_and_prune(self.params, self.weight_bound, self.sparsity)
        return self

    def projected(self):
        """Clip every parameter into [-B, B], then keep the sparsity-budget
        largest magnitudes (global magnitude pruning).  Clip first, prune
        second; the map is idempotent."""
        return self.copy()._project_inplace()

    def feasible(self, atol=0.0):
        return (self.nnz() <= self.sparsity
                and np.abs(self.params).max(initial=0.0) <= self.weight_bound + atol)

    # -- serialization ------------------------------------------------------

    def save(self, path):
        """Flat little-endian float64 record behind a 16-byte magic/version
        header; layer by layer, each layer's weights then its biases."""
        header = _MAGIC + struct.pack("<BB6x", 1, int(self.output_clamp))
        chunks = [[self.height, self.width, self.sparsity, self.weight_bound]]
        for w, b in zip(self.weights, self.biases):
            chunks += [w.ravel(), b]
        Path(path).write_bytes(header + np.concatenate(chunks, dtype="<f8").tobytes())

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
        dims = _layer_dims(first // rows, height, width)
        # layer by layer: the weight matrix, then the bias
        ends = np.cumsum([k for i, o in zip(dims, dims[1:]) for k in (o * i, o)])
        parts = np.split(rest, ends[:-1])
        return cls([w.reshape(len(b), -1) for w, b in zip(parts[0::2], parts[1::2])],
                   parts[1::2], sparsity, bound, bool(clamp))


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
    spec = ArchitectureSpec(net.height, net.width, net.sparsity, net.weight_bound)
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
                    loss, grad = cand.mse_gradient(xs[idx], ys[idx])
                except NonFiniteLoss:
                    blew_up = True
                    break
                cand.params -= lr * grad
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
