import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fqlab
from fqlab.relunet import (ArchitectureSpec, ReluNetwork, TrainConfig,
                           TrainingDiverged, _clip_and_prune, _forward,
                           _output_gradient, architecture_for, fit_least_squares)


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


class TestGradient:
    def test_zero_net_zero_targets(self):
        net = ReluNetwork.zeros(2, small_spec())
        x = np.random.default_rng(0).random((6, 2))
        loss, gw, gb = net.mse_gradient(x, np.zeros(6))
        assert loss == 0.0
        for g in gw + gb:
            np.testing.assert_array_equal(g, 0.0)

    def test_single_affine_hand_chain_rule(self):
        net = ReluNetwork([np.array([[0.5, -0.25]])], [np.array([0.1])],
                          sparsity=10, weight_bound=5.0, output_clamp=False)
        x = np.array([[0.4, 0.8]])
        y = np.array([0.3])
        f = 0.5 * 0.4 - 0.25 * 0.8 + 0.1  # 0.1; relu(x) = x on [0,1]
        loss, gw, gb = net.mse_gradient(x, y)
        assert abs(loss - (f - 0.3) ** 2) < 1e-15
        np.testing.assert_allclose(gw[0], 2 * (f - 0.3) * x, atol=1e-15)
        np.testing.assert_allclose(gb[0], [2 * (f - 0.3)], atol=1e-15)

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
            _, gw, gb = net.mse_gradient(x, y)
            step = 1e-5
            for arrs, grads in ((net.weights, gw), (net.biases, gb)):
                for arr, grad in zip(arrs, grads):
                    flat = arr.ravel()
                    for j in range(flat.size):
                        orig = flat[j]
                        flat[j] = orig + step
                        up = net.mse(x, y)
                        flat[j] = orig - step
                        dn = net.mse(x, y)
                        flat[j] = orig
                        fd = (up - dn) / (2 * step)
                        g = grad.ravel()[j]
                        denom = max(abs(fd), abs(g), 1e-8)
                        assert abs(fd - g) / denom < 1e-4
        assert checked == 100


def same_bits(a, b):
    """Equal shapes and bytes: stricter than array_equal, which lets 0.0 == -0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def stack_params(nets):
    return ([np.stack([net.weights[l] for net in nets]) for l in range(nets[0].height)],
            [np.stack([net.biases[l] for net in nets]) for l in range(nets[0].height)])


class TestStackedKernels:
    @pytest.mark.parametrize("height", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 7, 128])
    def test_stack_matches_each_network_bit_for_bit(self, height, rows):
        rng = np.random.default_rng(100 * height + rows)
        nets = [random_net(rng, input_dim=2, height=height, width=5) for _ in range(4)]
        nets[1].weights[0][0] = 0.0  # a dead unit: exact zeros through the backward pass
        x = rng.random((rows, 2))
        w = rng.standard_normal((len(nets), rows))
        weights, biases = stack_params(nets)
        out, pre, acts = _forward(weights, biases, x)
        gw, gb = _output_gradient(weights, pre, acts, w)
        for c, net in enumerate(nets):
            ref_out, ref_pre, ref_acts = net._forward_cached(x)
            assert same_bits(out[c], ref_out)
            assert all(same_bits(a[c], b) for a, b in zip(pre, ref_pre))
            assert same_bits(acts[0], ref_acts[0])  # the shared input layer
            assert all(same_bits(a[c], b) for a, b in zip(acts[1:], ref_acts[1:]))
            ref_gw, ref_gb = net.weighted_output_gradient(x, w[c])
            assert all(same_bits(a[c], b) for a, b in zip(gw, ref_gw))
            assert all(same_bits(a[c], b) for a, b in zip(gb, ref_gb))

    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_reused_cache_matches_fresh_pass(self, height):
        rng = np.random.default_rng(height)
        nets = [random_net(rng, height=height, width=6) for _ in range(3)]
        weights, biases = stack_params(nets)
        x = rng.random((20, 2))
        stale = _forward(weights, biases, rng.random((20, 2)))
        fresh = _forward(weights, biases, x)
        reused = _forward(weights, biases, x, reuse=stale)
        assert all(a is b for a, b in zip(reused[1], stale[1]))
        assert same_bits(reused[0], fresh[0])
        for got, want in zip(reused[1] + reused[2], fresh[1] + fresh[2]):
            assert same_bits(got, want)


class TestProjection:
    def test_feasible_unchanged(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        net.sparsity = net.n_params()
        net.weight_bound = 100.0
        out = net.projected()
        for a, b in zip(out.weights, net.weights):
            np.testing.assert_array_equal(a, b)

    def test_uniform_clip_then_prune(self):
        spec = ArchitectureSpec(height=1, width=1, sparsity=3, weight_bound=1.5)
        net = ReluNetwork([np.full((1, 5), 3.0)], [np.array([3.0])], 3, 1.5)
        out = net.projected()
        kept = np.concatenate([out.weights[0].ravel(), out.biases[0]])
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
            net.sparsity = int(rng.integers(1, net.n_params() + 1))
            net.weight_bound = float(rng.uniform(0.05, 2.0))
            once = net.projected()
            twice = once.projected()
            for a, b in zip(once.weights + once.biases, twice.weights + twice.biases):
                np.testing.assert_array_equal(a, b)


@st.composite
def constrained_nets(draw, copies=1):
    """copies networks of one drawn shape with any entries, sparsity and bound;
    entries mix arbitrary floats with exact zeros and magnitude ties."""
    height = draw(st.integers(1, 3))
    width = draw(st.integers(1, 5))
    input_dim = draw(st.integers(1, 3))
    zero = ReluNetwork.zeros(input_dim, small_spec(height=height, width=width))
    shapes = [p.shape for p in zero.weights + zero.biases]
    size = sum(int(np.prod(shape)) for shape in shapes)
    entry = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1.0, -1.0]))
    sparsity = draw(st.integers(1, size + 2))
    bound = draw(st.floats(0.05, 5.0))
    nets = []
    for _ in range(copies):
        flat = draw(st.lists(entry, min_size=size, max_size=size))
        params, pos = [], 0
        for shape in shapes:
            k = int(np.prod(shape))
            params.append(np.array(flat[pos:pos + k]).reshape(shape))
            pos += k
        nets.append(ReluNetwork(params[:height], params[height:], sparsity, bound,
                                output_clamp=False))
    return nets


def assert_feasible(arrays, sparsity, bound):
    assert sum(int(np.count_nonzero(a)) for a in arrays) <= sparsity
    assert all(np.abs(a).max(initial=0.0) <= bound for a in arrays)


class TestProjectionProperties:
    @given(constrained_nets())
    def test_idempotent_and_feasible(self, nets):
        once = nets[0].projected()
        assert_feasible(once.weights + once.biases, once.sparsity, once.weight_bound)
        twice = once.projected()
        for a, b in zip(once.weights + once.biases, twice.weights + twice.biases):
            assert same_bits(a, b)

    @given(constrained_nets(copies=3))
    def test_stack_views_project_like_each_network(self, nets):
        weights, biases = stack_params(nets)
        sparsity, bound = nets[0].sparsity, nets[0].weight_bound
        for _ in range(2):  # the second pass checks idempotence on the stack
            for c, net in enumerate(nets):
                views = [w[c] for w in weights] + [b[c] for b in biases]
                _clip_and_prune(views, bound, sparsity)
                assert_feasible(views, sparsity, bound)
                want = net.projected()
                for got, ref in zip(views, want.weights + want.biases):
                    assert same_bits(got, ref)


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
        expected = net.projected()
        for a, b in zip(fit.weights + fit.biases, expected.weights + expected.biases):
            np.testing.assert_array_equal(a, b)

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

    def test_divergence_reported(self):
        rng = np.random.default_rng(10)
        net = random_net(rng)
        xs = rng.random((40, 2))
        ys = rng.random(40)
        hot = TrainConfig(epochs=200, restarts=1, learning_rate=200.0,
                          lr_decay=1.0, projection_period=5, seed=0)
        with pytest.raises(TrainingDiverged):
            fit_least_squares(net, xs, ys, hot)

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

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            architecture_for(100, 0.5, 2.0, 1)          # alpha <= d / min(p,2)
        with pytest.raises(ValueError):
            architecture_for(1, 1.0, float("inf"), 1)   # n too small

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
        for a, b in zip(net.weights + net.biases, back.weights + back.biases):
            np.testing.assert_array_equal(a, b)

    def test_rejects_truncated_first_layer(self, tmp_path):
        rng = np.random.default_rng(5)
        net = random_net(rng, input_dim=2, height=2, width=4)
        path = tmp_path / "net.bin"
        net.save(path)
        raw = path.read_bytes()
        # drop the 4x2 first-layer weights that follow the 16-byte magic and
        # the 4-value size header
        path.write_bytes(raw[:16 + 4 * 8] + raw[16 + 12 * 8:])
        with pytest.raises(ValueError):
            ReluNetwork.load(path)

    @pytest.mark.parametrize("slot,value", [(0, 0.0), (0, 2.5), (0, np.nan), (1, 0.0),
                                            (1, np.inf), (2, -1.0), (2, np.inf)])
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
