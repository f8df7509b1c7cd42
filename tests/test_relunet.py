import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqlab
from fqlab import relunet
from fqlab.relunet import (ArchitectureSpec, NonFiniteLoss, ReluNetwork, TrainConfig,
                           TrainingDiverged, _Workspace, _clip_and_prune, _forward, _mse_loss,
                           _output_gradient, _split, architecture_for, fit_least_squares)


def small_spec(height=2, width=8, sparsity=10**6, bound=50.0):
    return ArchitectureSpec(height=height, width=width, sparsity=sparsity,
                            weight_bound=bound)


def random_net(rng, input_dim=2, height=2, width=8, clamp=False):
    net = ReluNetwork.zeros(input_dim, small_spec(height, width), output_clamp=clamp)
    for l, w in enumerate(net.weights):
        net.weights[l] = rng.standard_normal(w.shape) * 0.7
        net.biases[l] = rng.standard_normal(net.biases[l].shape) * 0.3
    return net


class TestForward:
    def test_zero_network(self):
        net = ReluNetwork.zeros(3, small_spec())
        x = np.random.default_rng(0).random((20, 3))
        np.testing.assert_array_equal(net.forward(x), 0.0)

    def test_single_affine_identity(self):
        net = ReluNetwork([np.array([[1.0]])], [np.array([0.0])],
                          sparsity=10, weight_bound=5.0, output_clamp=False)
        x = np.linspace(0, 1, 11)[:, None]
        np.testing.assert_allclose(net.forward(x), x[:, 0])

    def test_hand_set_hat_function(self):
        # two units realize max(0, 1 - |2x - 1|)
        net = ReluNetwork(
            [np.array([[2.0], [2.0]]), np.array([[1.0, -2.0]])],
            [np.array([0.0, -1.0]), np.array([0.0])],
            sparsity=10, weight_bound=5.0, output_clamp=False)
        xs = np.array([0.0, 0.25, 0.5, 1.0])[:, None]
        np.testing.assert_allclose(net.forward(xs), [0.0, 0.5, 1.0, 0.0], atol=1e-15)

    def test_clamp_keeps_unit_interval(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            net = random_net(rng, input_dim=2, clamp=True)
            x = rng.random((50, 2))
            out = net.forward(x)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_shape_mismatch(self):
        net = ReluNetwork.zeros(3, small_spec())
        with pytest.raises(ValueError):
            net.forward(np.zeros((4, 2)))

    def test_rejects_nonfinite_params(self):
        with pytest.raises(ValueError):
            ReluNetwork([np.array([[np.nan]])], [np.array([0.0])], 5, 1.0)

    @pytest.mark.parametrize("sparsity,bound", [(0, 1.0), (5, -1.0), (5, 0.0), (5, np.nan)])
    def test_rejects_empty_sparsity_or_nonpositive_bound(self, sparsity, bound):
        with pytest.raises(ValueError):
            ReluNetwork([np.array([[1.0]])], [np.array([0.0])], sparsity, bound)

    def test_rejects_unequal_hidden_widths(self):
        # save records one hidden width and fit restarts draw at it, so a
        # [2 -> 3 -> 5 -> 1] network could neither round-trip nor keep its shape
        rng = np.random.default_rng(0)
        dims = [2, 3, 5, 1]
        weights = [rng.standard_normal((out, fan_in)) for fan_in, out in zip(dims, dims[1:])]
        with pytest.raises(ValueError, match="one hidden width"):
            ReluNetwork(weights, [np.zeros(out) for out in dims[1:]], 100, 5.0)


class TestGradient:
    def test_zero_net_zero_targets(self):
        net = ReluNetwork.zeros(2, small_spec())
        x = np.random.default_rng(0).random((6, 2))
        loss, grad = net.mse_gradient(x, np.zeros(6))
        assert loss == 0.0
        assert grad.shape == net.params.shape
        np.testing.assert_array_equal(grad, 0.0)

    def test_single_affine_hand_chain_rule(self):
        net = ReluNetwork([np.array([[0.5, -0.25]])], [np.array([0.1])],
                          sparsity=10, weight_bound=5.0, output_clamp=False)
        x = np.array([[0.4, 0.8]])
        y = np.array([0.3])
        f = 0.5 * 0.4 - 0.25 * 0.8 + 0.1  # 0.1; relu(x) = x on [0,1]
        loss, grad = net.mse_gradient(x, y)
        assert abs(loss - (f - 0.3) ** 2) < 1e-15
        # params are [w_0, w_1, b]
        np.testing.assert_allclose(grad, 2 * (f - 0.3) * np.array([0.4, 0.8, 1.0]), atol=1e-15)

    def test_matches_central_finite_differences(self):
        # 100 random configurations; parameters checked only when every
        # pre-activation stays clear of the kink by 1e-3
        rng = np.random.default_rng(42)
        checked = 0
        trials = 0
        while checked < 100 and trials < 1000:
            trials += 1
            height = int(rng.integers(1, 4))
            width = int(rng.integers(2, 7))
            net = random_net(rng, input_dim=2, height=height, width=width)
            x = rng.random((int(rng.integers(3, 20)), 2))
            y = rng.random(len(x))
            _, pre, _ = net._forward_cached(x)
            if pre and min(float(np.abs(p).min()) for p in pre) < 1e-3:
                continue
            checked += 1
            _, grad = net.mse_gradient(x, y)
            step = 1e-5
            for j in range(net.params.size):
                orig = net.params[j]
                net.params[j] = orig + step
                up = net.mse(x, y)
                net.params[j] = orig - step
                dn = net.mse(x, y)
                net.params[j] = orig
                fd = (up - dn) / (2 * step)
                denom = max(abs(fd), abs(grad[j]), 1e-8)
                assert abs(fd - grad[j]) / denom < 1e-4
        assert checked == 100


def same_bits(a, b):
    """Equal shapes and bytes: stricter than array_equal, which lets 0.0 == -0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def stack_params(nets):
    """(stack, weights, biases): the (C, P) stack of the networks' params and
    its per-layer views."""
    stack = np.stack([net.params for net in nets])
    return (stack, *_split(stack, nets[0]._dims))


class TestStackedKernels:
    @pytest.mark.parametrize("height", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 7, 128])
    def test_stack_matches_each_network_bit_for_bit(self, height, rows):
        rng = np.random.default_rng(100 * height + rows)
        nets = [random_net(rng, input_dim=2, height=height, width=5) for _ in range(4)]
        nets[1].weights[0][0] = 0.0  # a dead unit: exact zeros through the backward pass
        x = rng.random((rows, 2))
        w = rng.standard_normal((len(nets), rows))
        _, weights, biases = stack_params(nets)
        out, pre, acts = _forward(weights, biases, x)
        grad = _output_gradient(weights, pre, acts, w)
        for c, net in enumerate(nets):
            ref_out, ref_pre, ref_acts = net._forward_cached(x)
            assert same_bits(out[c], ref_out)
            assert all(same_bits(a[c], b) for a, b in zip(pre, ref_pre))
            assert same_bits(acts[0], ref_acts[0])  # the shared input layer
            assert all(same_bits(a[c], b) for a, b in zip(acts[1:], ref_acts[1:]))
            assert same_bits(grad[c], net.weighted_output_gradient(x, w[c]))

    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_reused_cache_matches_fresh_pass(self, height):
        rng = np.random.default_rng(height)
        nets = [random_net(rng, height=height, width=6) for _ in range(3)]
        _, weights, biases = stack_params(nets)
        x = rng.random((20, 2))
        stale = _forward(weights, biases, rng.random((20, 2)))
        fresh = _forward(weights, biases, x)
        reused = _forward(weights, biases, x, reuse=stale)
        assert all(a is b for a, b in zip(reused[1], stale[1]))
        assert np.shares_memory(reused[0], stale[0])  # the head output is reused too
        assert same_bits(reused[0], fresh[0])
        for got, want in zip(reused[1] + reused[2], fresh[1] + fresh[2]):
            assert same_bits(got, want)

    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_rows_outermost_workspace_matches_each_network_bit_for_bit(self, height):
        rng = np.random.default_rng(200 + height)
        nets = [random_net(rng, height=height, width=5) for _ in range(4)]
        nets[2].weights[0][0] = 0.0  # a dead unit
        x, w = rng.random((128, 2)), rng.standard_normal((len(nets), 128))
        _, weights, biases = stack_params(nets)
        work = _Workspace(nets[0]._dims, 128, (len(nets),))
        # the stack's hidden arrays: (C, rows, width) views of (rows, C, width) memory
        assert all(a.strides[0] < a.strides[1] for a in work.cache[1] + work.delta + work.mask)
        out, pre, acts = _forward(weights, biases, x, reuse=work.cache)
        grad = _output_gradient(weights, pre, acts, w, work)
        for c, net in enumerate(nets):
            ref_out, ref_pre, ref_acts = net._forward_cached(x)
            assert same_bits(out[c], ref_out)
            assert all(same_bits(a[c], b) for a, b in zip(pre + acts[1:], ref_pre + ref_acts[1:]))
            assert same_bits(grad[c], net.weighted_output_gradient(x, w[c]))


class TestProjection:
    def test_feasible_unchanged(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        net.sparsity = net.params.size
        net.weight_bound = 100.0
        np.testing.assert_array_equal(net.projected().params, net.params)

    def test_uniform_clip_then_prune(self):
        spec = ArchitectureSpec(height=1, width=1, sparsity=3, weight_bound=1.5)
        net = ReluNetwork([np.full((1, 5), 3.0)], [np.array([3.0])], 3, 1.5)
        out = net.projected()
        kept = out.params
        assert np.count_nonzero(kept) <= 3
        assert set(np.unique(kept)) <= {0.0, 1.5}

    def test_top_magnitude_selection(self):
        net = ReluNetwork([np.array([[3.0, -2.0, 1.0, 0.5]])], [np.array([0.0])],
                          sparsity=2, weight_bound=10.0)
        out = net.projected()
        np.testing.assert_array_equal(out.weights[0], [[3.0, -2.0, 0.0, 0.0]])

    def test_idempotent_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            net = random_net(rng, height=int(rng.integers(1, 4)),
                             width=int(rng.integers(2, 9)))
            net.sparsity = int(rng.integers(1, net.params.size + 1))
            net.weight_bound = float(rng.uniform(0.05, 2.0))
            once = net.projected()
            assert same_bits(once.projected().params, once.params)


@st.composite
def constrained_nets(draw, copies=1):
    """copies networks of one drawn shape with any entries, sparsity and bound;
    entries mix arbitrary floats with exact zeros and magnitude ties."""
    height = draw(st.integers(1, 3))
    width = draw(st.integers(1, 5))
    input_dim = draw(st.integers(1, 3))
    zero = ReluNetwork.zeros(input_dim, small_spec(height=height, width=width))
    size = zero.params.size
    entry = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1.0, -1.0]))
    sparsity = draw(st.integers(1, size + 2))
    bound = draw(st.floats(0.05, 5.0))
    nets = []
    for _ in range(copies):
        flat = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
        nets.append(ReluNetwork(*_split(flat, zero._dims), sparsity, bound, output_clamp=False))
    return nets


def assert_feasible(params, sparsity, bound):
    assert np.count_nonzero(params) <= sparsity
    assert np.abs(params).max(initial=0.0) <= bound


class TestProjectionProperties:
    @given(constrained_nets())
    def test_idempotent_and_feasible(self, nets):
        once = nets[0].projected()
        assert_feasible(once.params, once.sparsity, once.weight_bound)
        assert same_bits(once.projected().params, once.params)

    @given(constrained_nets(copies=3))
    def test_stack_views_project_like_each_network(self, nets):
        stack, _, _ = stack_params(nets)
        sparsity, bound = nets[0].sparsity, nets[0].weight_bound
        for _ in range(2):  # the second pass checks idempotence on the stack
            for c, net in enumerate(nets):
                _clip_and_prune(stack[c], bound, sparsity)
                assert_feasible(stack[c], sparsity, bound)
                assert same_bits(stack[c], net.projected().params)


class TestFit:
    def test_constant_targets(self):
        rng = np.random.default_rng(5)
        xs = rng.random((300, 2))
        ys = np.full(300, 0.7)
        net = ReluNetwork.zeros(2, small_spec())
        fit = fit_least_squares(net, xs, ys, TrainConfig(epochs=300, restarts=2, seed=1))
        held = rng.random((100, 2))
        assert np.abs(fit.forward(held) - 0.7).max() <= 0.02

    def test_zero_epochs_returns_projected_init(self):
        rng = np.random.default_rng(6)
        net = random_net(rng)
        net.sparsity = 5
        fit = fit_least_squares(net, rng.random((10, 2)), rng.random(10),
                                TrainConfig(epochs=0, seed=0))
        assert same_bits(fit.params, net.projected().params)

    def test_linear_function(self):
        rng = np.random.default_rng(8)
        xs = rng.random((200, 1))
        ys = xs[:, 0]
        net = ReluNetwork.zeros(1, small_spec(width=16))
        fit = fit_least_squares(net, xs, ys,
                                TrainConfig(epochs=400, restarts=3, seed=2))
        held = rng.random((200, 1))
        rmse = float(np.sqrt(np.mean((fit.forward(held) - held[:, 0]) ** 2)))
        assert rmse <= 0.05

    def test_final_loss_never_exceeds_init(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            net = random_net(rng, clamp=False)
            xs = rng.random((50, 2))
            ys = rng.random(50)
            init_loss = net.projected().mse(xs, ys)
            fit = fit_least_squares(net, xs, ys,
                                    TrainConfig(epochs=30, restarts=1, seed=seed))
            assert fit.mse(xs, ys) <= init_loss + 1e-12

    def test_divergence_reported(self, monkeypatch):
        rng = np.random.default_rng(10)
        net = random_net(rng)
        xs = rng.random((40, 2))
        ys = rng.random(40)
        monkeypatch.setattr(relunet, "LR_DECAY", 1.0)  # no decay: the step stays hot
        hot = TrainConfig(epochs=200, restarts=1, learning_rate=200.0,
                          projection_period=5, seed=0)
        with pytest.raises(TrainingDiverged):
            fit_least_squares(net, xs, ys, hot)

    @pytest.mark.parametrize("xs, ys", [
        (np.full(8, 0.5), np.zeros(8)),                        # 1-d inputs
        (np.full((8, 3), 0.5), np.zeros(8)),                   # wrong input dimension
        (np.zeros((0, 2)), np.zeros(0)),                       # no points
        (np.full((8, 2), 0.5), np.zeros(7)),                   # one target short
        (np.full((8, 2), 0.5), np.zeros((8, 1))),              # targets not one per point
        (np.where(np.eye(8, 2) > 0, np.nan, 0.5), np.zeros(8)),  # NaN input
        (np.where(np.eye(8, 2) > 0, -np.inf, 0.5), np.zeros(8)),  # infinite input
        (np.full((8, 2), 0.5), np.r_[np.nan, np.zeros(7)]),    # NaN target
    ])
    def test_rejects_malformed_data(self, xs, ys):
        net = random_net(np.random.default_rng(0))
        for epochs in (0, 3):
            with pytest.raises(ValueError):
                fit_least_squares(net, xs, ys, TrainConfig(epochs=epochs, restarts=1))

    def test_restarts_keep_the_layer_shapes(self):
        rng = np.random.default_rng(8)
        net = random_net(rng, input_dim=2, height=3, width=5)
        xs = rng.random((64, 2))
        fitted = fit_least_squares(net, xs, xs.sum(axis=1) / 2,
                                   TrainConfig(epochs=5, restarts=3, seed=1))
        assert [w.shape for w in fitted.weights] == [w.shape for w in net.weights]

    def test_constraints_hold_after_fit(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            spec = ArchitectureSpec(height=int(rng.integers(1, 4)),
                                    width=int(rng.integers(2, 9)),
                                    sparsity=int(rng.integers(3, 30)),
                                    weight_bound=float(rng.uniform(0.2, 3.0)))
            net = ReluNetwork.zeros(2, spec)
            xs = rng.random((40, 2))
            ys = rng.random(40)
            fit = fit_least_squares(net, xs, ys, TrainConfig(epochs=60, restarts=1, seed=trial))
            assert fit.nnz() <= spec.sparsity
            assert fit.feasible(atol=1e-12)

    @pytest.mark.parametrize("learning_rate", [np.nan, 0.0, -0.5])
    def test_config_rejects_a_step_it_cannot_train_with(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            TrainConfig(learning_rate=learning_rate)


def reference_mse_gradient(net, x, y):
    """(loss, grad) of the batch mean squared error by plain backprop: numpy
    expressions on fresh arrays, one layer at a time."""
    z = np.maximum(x, 0.0)
    pre, acts = [], [z]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        pre.append(z @ w.T + b)
        z = np.maximum(pre[-1], 0.0)
        acts.append(z)
    resid = (z @ net.weights[-1].T + net.biases[-1])[:, 0] - y
    delta = (2.0 * resid / len(y))[:, None]
    gw, gb = [None] * net.height, [None] * net.height
    for l in range(net.height - 1, -1, -1):
        if l == net.height - 2:  # einsum: matmul forms this outer product as 0 + a*b
            delta = np.einsum("ni,ij->nj", delta, net.weights[l + 1]) * (pre[l] > 0.0)
        elif l < net.height - 2:
            delta = (delta @ net.weights[l + 1]) * (pre[l] > 0.0)
        gw[l], gb[l] = delta.T @ acts[l], np.add.reduce(delta, axis=0)
    return float(np.mean(resid ** 2)), np.concatenate([g.ravel() for g in gw + gb])


def reference_fit(net, xs, ys, cfg):
    """fit_least_squares as a plain loop: the public mse_gradient on xs[idx],
    params -= lr * grad and _project_inplace, on the same random stream."""
    n = len(xs)
    batch = min(cfg.batch_size or n, n)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5eed]))
    spec = ArchitectureSpec(net.height, net.width, net.sparsity, net.weight_bound)
    total = cfg.epochs * ((n + batch - 1) // batch)
    best, best_loss = None, np.inf
    for restart in range(cfg.restarts):
        cand = net.projected() if restart == 0 else ReluNetwork.random(
            net.input_dim, spec, rng, net.output_clamp)
        init_loss = cand.mse(xs, ys)
        local, local_loss = cand.copy(), init_loss
        head = cand._forward_cached(xs[:batch])[2][-1]
        base = cfg.learning_rate / (2.0 * (float(np.mean(np.sum(head ** 2, axis=1))) + 1.0))
        step, blew_up = 0, False
        for _ in range(cfg.epochs):
            order = rng.permutation(n) if batch < n else np.arange(n)
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                lr = base * relunet.LR_DECAY ** (step / max(1, total - 1))
                try:
                    _, grad = cand.mse_gradient(xs[idx], ys[idx])
                except NonFiniteLoss:
                    blew_up = True
                    break
                cand.params -= lr * grad
                step += 1
                if step % cfg.projection_period == 0 or step == total:
                    cand._project_inplace()
                    loss = cand.mse(xs, ys)
                    if loss < local_loss:
                        local, local_loss = cand.copy(), loss
                    if not loss <= 10.0 * init_loss + 1e-12:
                        blew_up = True
                        break
            if blew_up:
                break
        if not blew_up and local_loss < best_loss:
            best, best_loss = local, local_loss
    if best is None:
        raise TrainingDiverged("every restart blew up")
    return best


class TestFusedStepBitIdentity:
    """The fused step in fit_least_squares against reference_fit, and the
    kernels behind it against reference_mse_gradient, byte for byte."""

    @pytest.mark.parametrize("height", [1, 2, 3])
    @pytest.mark.parametrize("rows, width", [(16, 6), (64, 1), (1024, 24)])
    def test_mse_gradient_matches_plain_backprop(self, height, rows, width):
        rng = np.random.default_rng(rows + height)
        net = random_net(rng, height=height, width=width)
        x = rng.random((rows, 2)) - 0.2
        y = rng.random(rows)
        loss, grad = net.mse_gradient(x, y)
        ref_loss, ref_grad = reference_mse_gradient(net, x, y)
        assert same_bits(loss, ref_loss) and same_bits(grad, ref_grad)
        # the loss helper behind the step and the full-data losses is ReluNetwork.mse
        work = _Workspace(net._dims, rows)
        out = _forward(net.weights, net.biases, np.maximum(x, 0.0), work.cache)[0]
        assert same_bits(_mse_loss(out, y, work), net.mse(x, y))

    @pytest.mark.parametrize("height", [1, 2, 3])
    @pytest.mark.parametrize("n, batch_size", [(48, 16), (50, 16), (40, None)])
    @pytest.mark.parametrize("signed", [False, True])
    def test_matches_reference_loop(self, height, n, batch_size, signed):
        rng = np.random.default_rng(7 * height + n)
        xs = rng.random((n, 2))
        if signed:  # negative entries and -0.0: the input ReLU is not the identity
            xs[::3, 0] -= 0.6
            xs[1::4, 1] = -0.0
        ys = 0.5 * np.sin(4.0 * xs[:, 0]) + 0.3 * xs[:, 1]
        net = ReluNetwork.random(2, small_spec(height, width=6, bound=4.0), rng)
        cfg = TrainConfig(epochs=4, restarts=2, batch_size=batch_size, projection_period=3,
                          seed=height)
        assert same_bits(fit_least_squares(net, xs, ys, cfg).params,
                         reference_fit(net, xs, ys, cfg).params)

    def test_binding_sparsity_prunes_to_negative_zero(self):
        rng = np.random.default_rng(12)
        xs = rng.random((60, 2)) - 0.2
        ys = xs[:, 0] - xs[:, 1]
        net = ReluNetwork.random(2, small_spec(height=2, width=6, sparsity=12), rng)
        cfg = TrainConfig(epochs=6, restarts=2, batch_size=16, projection_period=2, seed=3)
        fit = fit_least_squares(net, xs, ys, cfg)
        assert same_bits(fit.params, reference_fit(net, xs, ys, cfg).params)
        assert np.any((fit.params == 0.0) & np.signbit(fit.params))  # pruned -0.0 entries

    def test_divergence_matches_reference_loop(self, monkeypatch):
        rng = np.random.default_rng(13)
        net = random_net(rng)
        xs, ys = rng.random((40, 2)), rng.random(40)
        monkeypatch.setattr(relunet, "LR_DECAY", 1.0)
        hot = TrainConfig(epochs=50, restarts=2, learning_rate=200.0,
                          projection_period=5, batch_size=8, seed=0)
        for fit in (fit_least_squares, reference_fit):
            with pytest.raises(TrainingDiverged):
                fit(net, xs, ys, hot)


class TestArchitectureSelector:
    def test_infinite_p_kills_excess(self):
        spec = architecture_for(1000, 1.5, float("inf"), 2)
        assert spec.excess == 0.0
        assert spec.weight_bound == pytest.approx(spec.resolution ** 0.5)

    def test_beta_formula(self):
        spec = architecture_for(100, 1.0, float("inf"), 1)
        assert spec.beta == pytest.approx(0.4)

    def test_derived_sizes_example(self):
        spec = architecture_for(10**4, 1.0, float("inf"), 1)
        assert spec.n_exponent == pytest.approx(0.3)
        assert spec.resolution == 16
        assert spec.height == 3
        assert spec.width == 45
        assert spec.sparsity == 16
        assert spec.weight_bound == pytest.approx(16.0)

    @pytest.mark.parametrize("bound", [0.0, -1.0, np.nan])
    def test_spec_rejects_nonpositive_or_nan_bound(self, bound):
        with pytest.raises(ValueError):
            ArchitectureSpec(height=2, width=4, sparsity=10, weight_bound=bound)

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            architecture_for(100, 0.5, 2.0, 1)          # alpha <= d / min(p,2)
        with pytest.raises(ValueError):
            architecture_for(1, 1.0, float("inf"), 1)   # n too small

    @pytest.mark.parametrize("p", [0.0, -1.0, np.nan])
    def test_rejects_a_p_that_is_not_positive(self, p):
        # p = 0 would divide by zero, and a negative p passes the admissibility check
        with pytest.raises(ValueError, match="need p > 0"):
            architecture_for(100, 4.0, p, 1)

    def test_resolution_monotone_in_n(self):
        specs = [architecture_for(n, 1.0, float("inf"), 1)
                 for n in (10, 100, 1000, 10**4, 10**5)]
        res = [s.resolution for s in specs]
        assert all(a <= b for a, b in zip(res, res[1:]))


class TestSerialization:
    @pytest.mark.parametrize("height,width,input_dim", [(1, 1, 3), (2, 5, 2), (4, 6, 1)])
    def test_roundtrip_bit_exact(self, tmp_path, height, width, input_dim):
        rng = np.random.default_rng(height * 100 + width)
        net = random_net(rng, input_dim=input_dim, height=height, width=width)
        net.sparsity = 17
        net.weight_bound = 2.5
        path = tmp_path / "net.bin"
        net.save(path)
        back = ReluNetwork.load(path)
        assert back.sparsity == 17 and back.weight_bound == 2.5
        assert back.output_clamp == net.output_clamp
        assert same_bits(back.params, net.params)

    def test_rejects_truncated_first_layer(self, tmp_path):
        rng = np.random.default_rng(5)
        net = random_net(rng, input_dim=2, height=2, width=4)
        path = tmp_path / "net.bin"
        net.save(path)
        raw = path.read_bytes()
        # drop the 4x2 first-layer weights that follow the 16-byte magic and
        # the 5-value size header
        path.write_bytes(raw[:16 + 5 * 8] + raw[16 + 13 * 8:])
        with pytest.raises(ValueError):
            ReluNetwork.load(path)

    # slots: input_dim, height, width, sparsity, weight_bound; a shape size
    # larger than the record is rejected before anything is sized by it
    @pytest.mark.parametrize("slot,value", [(0, 0.0), (0, 2.5), (0, np.nan), (1, 0.0),
                                            (1, np.inf), (2, -1.0), (2, np.inf),
                                            (3, -1.0), (3, 0.0), (3, np.nan), (4, -1.0),
                                            (4, 0.0), (4, np.nan), (0, 1e300), (1, 1e15),
                                            (2, 1e15), (0, 3.0)])
    def test_rejects_bad_header_sizes(self, tmp_path, slot, value):
        rng = np.random.default_rng(6)
        path = tmp_path / "net.bin"
        random_net(rng, input_dim=2, height=2, width=4).save(path)
        raw = bytearray(path.read_bytes())
        raw[16 + 8 * slot:24 + 8 * slot] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            ReluNetwork.load(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"not a network record at all")
        with pytest.raises(ValueError):
            ReluNetwork.load(path)

    def test_record_layout(self, tmp_path):
        # version 2 in byte 8, the output clamp in byte 9, then the sizes
        net = random_net(np.random.default_rng(7), input_dim=3, height=2, width=4, clamp=True)
        path = tmp_path / "net.bin"
        net.save(path)
        raw = path.read_bytes()
        assert raw[:10] == b"FQLNET01" + bytes([2, 1])
        head = np.frombuffer(raw[16:56], dtype="<f8")
        np.testing.assert_array_equal(head, [3, 2, 4, net.sparsity, net.weight_bound])
        assert len(raw) == 56 + 8 * net.params.size

    def test_rejects_version_1_record(self, tmp_path):
        # version 1 had no input_dim; a v1 record must not load by guessing it
        net = random_net(np.random.default_rng(9), input_dim=2, height=2, width=3)
        path = tmp_path / "net.bin"
        net.save(path)
        raw = bytearray(path.read_bytes())
        raw[8] = 1
        path.write_bytes(bytes(raw[:16] + raw[24:]))  # the v1 layout: input_dim dropped
        with pytest.raises(ValueError):
            ReluNetwork.load(path)

    def test_damaged_record_raises_value_error_or_loads_a_valid_net(self, tmp_path,
                                                                    damaged_records):
        # a damaged record either fails to load or keeps the saved
        # (input_dim, height, width); what loads meets the constructor's rules
        path = tmp_path / "net.bin"
        random_net(np.random.default_rng(8), input_dim=2, height=2, width=3).save(path)
        raw = path.read_bytes()

        @settings(max_examples=400)
        @given(damaged_records(raw))
        def check(record):
            path.write_bytes(record)
            try:
                back = ReluNetwork.load(path)
            except ValueError:
                return
            assert (back.input_dim, back.height, back.width) == (2, 2, 3)
            assert back.sparsity >= 1 and back.weight_bound > 0
            assert np.all(np.isfinite(back.params))

        check()


class TestParameterLayout:
    """weights and biases are views of one params vector, and stay views."""

    @staticmethod
    def assert_views_share(net):
        for view in net.weights + net.biases:
            assert np.shares_memory(view, net.params)

    def test_params_hold_weights_then_biases(self):
        net = ReluNetwork([np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0]])],
                          [np.array([7.0, 8.0]), np.array([9.0])], 100, 10.0)
        np.testing.assert_array_equal(net.params, np.arange(1.0, 10.0))
        assert net.params.flags.c_contiguous and net.params.dtype == np.float64

    def test_head_assignment_writes_through(self, tmp_path):
        # the assignment pattern of a network given a nonzero head by hand
        rng = np.random.default_rng(40)
        spec = small_spec(height=3, width=6, sparsity=10**4, bound=5.0)
        net = ReluNetwork.random(2, spec, rng)
        head = rng.uniform(-0.3, 0.3, net.weights[-1].shape)
        net.weights[-1] = head
        net.biases[-1] = np.array([0.5])
        n_weights = sum(w.size for w in net.weights)
        np.testing.assert_array_equal(net.params[n_weights - head.size:n_weights], head[0])
        assert net.params[-1] == 0.5
        x = rng.random((16, 2))
        assert np.all(net.forward(x, clamp=False) != 0.0)
        path = tmp_path / "net.bin"
        net.save(path)
        for other in (net.projected(), net.copy(), ReluNetwork.load(path)):
            self.assert_views_share(other)
            assert same_bits(other.params, net.params)
            assert same_bits(other.forward(x), net.forward(x))

    def test_wrong_shape_rejected(self):
        net = ReluNetwork.zeros(2, small_spec(height=2, width=4))
        before = net.params.copy()
        with pytest.raises(ValueError):
            net.weights[-1] = np.ones((4, 1))
        with pytest.raises(ValueError):
            net.weights[0] = np.ones(8)
        with pytest.raises(ValueError):
            net.biases[-1] = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            net.biases[0] = 1.0
        assert same_bits(net.params, before)

    def test_views_share_memory_after_every_constructor(self, tmp_path):
        rng = np.random.default_rng(41)
        spec = small_spec(height=3, width=5)
        random = ReluNetwork.random(2, spec, rng)
        random.save(tmp_path / "net.bin")
        for net in (ReluNetwork.zeros(2, spec), random, ReluNetwork.load(tmp_path / "net.bin")):
            self.assert_views_share(net)
            twin = net.copy()
            self.assert_views_share(twin)
            assert not np.shares_memory(twin.params, net.params)
            assert not any(np.shares_memory(a, b) for a in twin.weights + twin.biases
                           for b in net.weights + net.biases)

    def test_pickle_keeps_views_on_params(self):
        net = random_net(np.random.default_rng(42), height=3, width=4)
        back = pickle.loads(pickle.dumps(net))
        self.assert_views_share(back)
        assert same_bits(back.params, net.params)
        back.params[:] = 0.0
        assert np.all(back.weights[0] == 0.0) and not np.all(net.weights[0] == 0.0)
