import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import chi2, truncnorm

import fqlab
import fqlab.mdp as mdp_module
from fqlab.mdp import (FiniteChainKernel, UniformPolicy, pair_with_actions,
                       state_action_inputs)
from fqlab.oracle import build_oracle


def brute_force_visitation(mdp, eta_probs, t_max=200):
    """Discounted occupancy by explicit geometric-series summation of the
    tabulated kernel: independent of the library's tabulation path."""
    kernel = mdp.kernel
    n_s, n_a = len(kernel.nodes), mdp.n_actions
    rho = np.full(n_s, 1.0 / n_s)
    mats = kernel.matrix(mdp.action_grid)  # (A, S, S)
    occ = rho[:, None] * eta_probs
    mu = (1.0 - mdp.gamma) * occ.copy()
    for t in range(1, t_max + 1):
        nxt = np.zeros(n_s)
        for a in range(n_a):
            nxt += occ[:, a] @ mats[a]
        occ = nxt[:, None] * eta_probs
        mu += (1.0 - mdp.gamma) * mdp.gamma ** t * occ
    return mu


class TestGeometricHorizonSampler:
    def test_gamma_zero_marginal_is_rho_times_eta(self, chain_mdp):
        mdp = fqlab.make_chain_mdp(gamma=0.0, noise=0.0)
        eta = UniformPolicy(mdp.n_actions)
        n = 100_000
        data = fqlab.sample_visitation(mdp, eta, n, seed=7)
        nodes = mdp.kernel.nodes
        s_idx = np.argmin(np.abs(data.states[:, 0][:, None] - nodes[None, :]), axis=1)
        a_idx = np.argmin(np.abs(data.actions[:, None] - mdp.action_grid[None, :]), axis=1)
        counts = np.zeros((len(nodes), mdp.n_actions))
        np.add.at(counts, (s_idx, a_idx), 1)
        expected = n / counts.size
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, counts.size - 1)

    def test_single_state_tuples(self):
        # the single state is the one node of a chain, at s = 0.5
        mdp = fqlab.make_single_state_mdp(gamma=0.5, reward=0.5, n_actions=2)
        data = fqlab.sample_visitation(mdp, UniformPolicy(2), 64, seed=3)
        for states in (data.states, data.next_states):
            assert states.shape == (64, 1)
            assert np.all(states == 0.5)
        np.testing.assert_allclose(data.rewards, 0.5)
        assert set(np.round(data.actions, 6)) <= {0.0, 1.0}

    def test_chain_frequencies_match_brute_force(self, chain_mdp, uniform_pi):
        n = 100_000
        data = fqlab.sample_visitation(chain_mdp, uniform_pi, n, seed=11)
        eta_probs = np.full((5, 11), 1.0 / 11)
        mu = brute_force_visitation(chain_mdp, eta_probs)
        nodes = chain_mdp.kernel.nodes
        s_idx = np.argmin(np.abs(data.states[:, 0][:, None] - nodes[None, :]), axis=1)
        a_idx = np.argmin(np.abs(data.actions[:, None] - chain_mdp.action_grid[None, :]), axis=1)
        counts = np.zeros_like(mu)
        np.add.at(counts, (s_idx, a_idx), 1)
        z = (counts - n * mu) / np.sqrt(n * mu * (1 - mu))
        assert np.abs(z).max() <= 3.0

    def test_rejects_bad_args(self, chain_mdp, uniform_pi):
        with pytest.raises(ValueError):
            fqlab.sample_visitation(chain_mdp, uniform_pi, 0, seed=0)
        with pytest.raises(ValueError):
            fqlab.make_chain_mdp(gamma=1.0)

    def test_determinism(self, chain_mdp, uniform_pi):
        a = fqlab.sample_visitation(chain_mdp, uniform_pi, 500, seed=5)
        b = fqlab.sample_visitation(chain_mdp, uniform_pi, 500, seed=5)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.rewards, b.rewards)


class TestRewards:
    def test_noise_keeps_support_and_mean(self, chain_mdp):
        rng = np.random.default_rng(0)
        states = chain_mdp.kernel.nodes[rng.integers(0, 5, 20000)][:, None]
        actions = chain_mdp.action_grid[rng.integers(0, 11, 20000)]
        r = chain_mdp.sample_rewards(rng, states, actions)
        mean = chain_mdp.reward_mean(states, actions)
        assert r.min() >= 0.0 and r.max() <= 1.0
        assert abs((r - mean).mean()) < 3 * r.std() / np.sqrt(len(r))

    def test_bernoulli_rewards_are_binary_with_the_chain_mean(self, chain_mdp):
        bern = fqlab.mdp_from_config("chain5_bernoulli")
        rng = np.random.default_rng(1)
        states = chain_mdp.kernel.nodes[rng.integers(0, 5, 20000)][:, None]
        actions = chain_mdp.action_grid[rng.integers(0, 11, 20000)]
        mean = chain_mdp.reward_mean(states, actions)
        np.testing.assert_array_equal(bern.reward_mean(states, actions), mean)
        r = bern.sample_rewards(rng, states, actions)
        assert set(np.unique(r)) <= {0.0, 1.0}
        assert abs((r - mean).mean()) < 4 * np.sqrt(np.mean(mean * (1 - mean)) / len(r))

    @pytest.mark.parametrize("reward", [2.0, -1.0, float("nan"), float("inf")])
    def test_a_node_reward_outside_the_unit_interval_is_rejected(self, reward):
        with pytest.raises(ValueError, match=r"node rewards must lie in \[0, 1\]"):
            fqlab.make_finite_mdp([[0.5, 0.5], [0.5, 0.5]], [0.5, reward], gamma=0.9)
        with pytest.raises(ValueError, match=r"node rewards must lie in \[0, 1\]"):
            fqlab.mdp_from_config({"kind": "single_state", "reward": reward})


_HEADER_NAMES = ["s0", "s1", "s2", "a", "sp0", "sp1", "sp2", "r", "x", ""]


def _damaged_csv(text):
    """A strategy for the dataset CSV text truncated at any byte, with one
    column dropped or one added, or with one header name changed."""
    rows = [line.split(",") for line in text.splitlines()]

    def join(table):
        return "\n".join(",".join(row) for row in table) + "\n"

    def drop(j):
        return join([row[:j] + row[j + 1:] for row in rows])

    def add(j, name):
        return join([row[:j] + [name if i == 0 else "0.5"] + row[j:] for i, row in enumerate(rows)])

    def rename(j, name):
        return join([rows[0][:j] + [name] + rows[0][j + 1:]] + rows[1:])

    width = len(rows[0])
    return st.one_of(
        st.integers(0, len(text) - 1).map(lambda k: text[:k]),
        st.integers(0, width - 1).map(drop),
        st.builds(add, st.integers(0, width), st.sampled_from(_HEADER_NAMES)),
        st.builds(rename, st.integers(0, width - 1), st.sampled_from(_HEADER_NAMES)))


def _dataset(kind, n, seed):
    mdp = fqlab.mdp_from_config(kind)
    return fqlab.sample_visitation(mdp, UniformPolicy(mdp.n_actions), n, seed)


class TestDatasetIO:
    def test_csv_roundtrip(self, tmp_path):
        # %.17g round-trips every float64, so the CSV is bit-exact
        path = tmp_path / "d.csv"
        for kind in ("chain5", {"kind": "gaussian", "state_dim": 2}, "single_state"):
            data = _dataset(kind, 300, seed=1)
            data.save_csv(path)
            back = fqlab.OfflineDataset.load_csv(path)
            assert back.state_dim == data.state_dim
            for field in ("states", "actions", "next_states", "rewards"):
                np.testing.assert_array_equal(getattr(back, field), getattr(data, field))

    @pytest.mark.parametrize("damage", ["no_reward_column", "extra_column", "renamed_column",
                                        "header_only", "empty"])
    def test_csv_rejects_a_table_unlike_its_header(self, tmp_path, damage):
        path = tmp_path / "d.csv"
        _dataset("chain5", 6, seed=2).save_csv(path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        if damage == "no_reward_column":  # a column count alone reads this as 0-d
            rows = [row[:-1] for row in rows]
        elif damage == "extra_column":
            rows = [row + ["0.5"] for row in rows]
        elif damage == "renamed_column":
            rows[0][1] = "action"
        else:
            rows = rows[:1] if damage == "header_only" else []
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(ValueError):
            fqlab.OfflineDataset.load_csv(path)

    @pytest.mark.parametrize("kind", ["chain5", "gaussian2d"])
    def test_damaged_csv_raises_value_error_or_keeps_state_dim(self, tmp_path, kind):
        cfg = {"kind": "gaussian", "state_dim": 2} if kind == "gaussian2d" else kind
        data = _dataset(cfg, 5, seed=3)
        path = tmp_path / "d.csv"
        data.save_csv(path)
        text = path.read_text()

        @given(_damaged_csv(text))
        def check(record):
            path.write_text(record)
            try:
                back = fqlab.OfflineDataset.load_csv(path)
            except ValueError:
                return
            assert back.state_dim == data.state_dim

        check()

    def test_invariants(self):
        with pytest.raises(ValueError):
            fqlab.OfflineDataset(np.array([[0.5]]), np.array([0.5]),
                                 np.array([[0.5]]), np.array([1.5]))

    @pytest.mark.parametrize("field, value", [
        ("rewards", np.array([0.5, np.nan, 0.5])),
        ("states", np.array([[0.5], [np.nan], [0.5]])),
        ("next_states", np.array([[0.5], [0.5], [np.inf]])),
        ("actions", np.array([0.5, -np.inf, 0.5])),
        ("actions", np.array([0.5, 0.5])),  # 3 states, 2 actions
        ("next_states", np.full((5, 1), 0.5)),  # 5 next states for 3 rewards
        ("rewards", np.full((3, 1), 0.5)),
        ("states", np.full(3, 0.5)),  # a 1-d states array
        ("next_states", np.full((3, 2), 0.5)),  # beside states of shape (3, 1)
    ], ids=["nan_reward", "nan_state", "inf_next_state", "inf_action", "two_actions",
            "five_next_states", "column_rewards", "flat_states", "wider_next_states"])
    def test_rejects_what_would_fail_later_or_never(self, field, value):
        columns = {"states": np.full((3, 1), 0.5), "actions": np.full(3, 0.5),
                   "next_states": np.full((3, 1), 0.5), "rewards": np.full(3, 0.5)}
        fqlab.OfflineDataset(**columns)
        with pytest.raises(ValueError):
            fqlab.OfflineDataset(**{**columns, field: value})

    def test_rejects_zero_dimensional_states(self, tmp_path):
        with pytest.raises(ValueError):
            fqlab.OfflineDataset(np.empty((3, 0)), np.full(3, 0.5), np.empty((3, 0)), np.full(3, 0.5))
        path = tmp_path / "d.csv"
        path.write_text("a,r\n0.5,0.5\n")
        with pytest.raises(ValueError):
            fqlab.OfflineDataset.load_csv(path)


@st.composite
def _repeated_means(draw):
    """Means drawn with repeats from a small pool that may hold +0.0 and -0.0."""
    pool = draw(st.lists(st.one_of(st.floats(-0.2, 1.2), st.sampled_from([0.0, -0.0, 1.0])),
                         min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    return np.array([pool[i] for i in picks])


def _cell_masses_reference(means, sigma, axis_nodes):
    """Trapezoid-cell masses of truncated Gaussians, one cdf row per mean given."""
    mids = 0.5 * (axis_nodes[1:] + axis_nodes[:-1])
    points = np.concatenate(([0.0, axis_nodes[0]], mids, [axis_nodes[-1], 1.0]))
    cdf = ndtr((points[None, :] - means[:, None]) / sigma)
    lo, hi, cdf = cdf[:, 0], cdf[:, -1], cdf[:, 1:-1]
    masses = np.diff(cdf, axis=1) / (hi - lo)[:, None]
    masses[:, 0] += (cdf[:, 0] - lo) / (hi - lo)
    masses[:, -1] += (hi - cdf[:, -1]) / (hi - lo)
    return masses


class TestKernels:
    def test_finite_rows_are_stochastic(self, chain_mdp):
        mats = chain_mdp.kernel.matrix(chain_mdp.action_grid)
        np.testing.assert_allclose(mats.sum(axis=-1), 1.0, atol=1e-12)

    def test_a_zero_dimensional_state_space_is_rejected(self):
        # a kernel's state space is [0,1] or [0,1]^2: nothing else has an oracle grid
        for state_dim in (0, 3):
            with pytest.raises(ValueError, match="support state_dim 1 or 2"):
                mdp_module.TruncatedGaussianKernel(lambda s, a: s, 0.1, state_dim=state_dim)

    @pytest.mark.parametrize("cfg", ["chain5", "single_state", {"kind": "gaussian"},
                                     {"kind": "gaussian", "state_dim": 2}],
                             ids=["chain5", "single_state", "gaussian1d", "gaussian2d"])
    def test_initial_draws_follow_the_oracle_rho(self, cfg):
        # the kernel both draws the initial states and puts rho on the oracle grid
        mdp = fqlab.mdp_from_config(cfg)
        oracle = build_oracle(mdp)
        assert abs(oracle.rho.sum() - 1.0) <= 1e-15
        if isinstance(mdp.kernel, FiniteChainKernel):
            assert np.all(oracle.rho == 1.0 / len(mdp.kernel.nodes))
        n = 100_000
        draws = mdp.kernel.initial_states(np.random.default_rng(20), n)
        assert draws.shape == (n, mdp.state_dim)
        # bin each coordinate to its node's cell, whose edges are the midpoints
        # between nodes; row-major, like the oracle's nodes
        cell = np.ravel_multi_index(
            [np.searchsorted(0.5 * (ax[1:] + ax[:-1]), x) for ax, x in zip(oracle.state_axes, draws.T)],
            tuple(len(ax) for ax in oracle.state_axes))
        counts = np.bincount(cell, minlength=oracle.n_nodes)
        expected = n * oracle.rho
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat <= (chi2.ppf(0.999, oracle.n_nodes - 1) if oracle.n_nodes > 1 else 0.0)

    @pytest.mark.parametrize("kind", ["gaussian", "rough_reward"])
    @pytest.mark.parametrize("nodes", [101, 201])
    def test_gaussian_masses_sum_to_one(self, kind, nodes):
        mdp = fqlab.mdp_from_config(kind)
        _, _, op = mdp.kernel.grid(mdp.action_grid, nodes)
        assert np.abs(op.probs.sum(axis=-1) - 1.0).max() <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            fqlab.mdp_from_config({"kind": "gaussian", "kernel_sigma": sigma})

    def test_rejects_a_mean_with_no_mass_in_the_unit_interval(self):
        # at s = 0, a = 0 the mean is -0.125: 125 sigma below 0, where the
        # double-precision cdf reads 0 at both ends of [0, 1]
        mdp = fqlab.mdp_from_config({"kind": "gaussian", "kernel_sigma": 0.001})
        with pytest.raises(ValueError, match="no mass in"):
            build_oracle(mdp, resolution=21)
        with pytest.raises(ValueError, match="no mass in"):
            mdp.kernel.sample(np.random.default_rng(0), np.zeros((1, 1)), np.zeros(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_mean_that_is_not_finite(self, bad):
        kernel = mdp_module.TruncatedGaussianKernel(
            lambda s, a: np.where(np.asarray(a) > 0.5, bad, s[:, 0]), sigma=0.2)
        with pytest.raises(ValueError, match="no mass in"):
            kernel.grid(np.array([0.0, 1.0]), 5)
        with pytest.raises(ValueError, match="no mass in"):
            kernel.sample(np.random.default_rng(0), np.full((2, 1), 0.5), np.array([0.0, 1.0]))

    @given(_repeated_means(), st.floats(0.1, 5.0), st.integers(2, 40))
    def test_cell_masses_match_a_per_row_reference(self, means, sigma, nodes):
        axis = np.linspace(0.0, 1.0, nodes)
        kernel = mdp_module.TruncatedGaussianKernel(lambda s, a: s[:, 0], sigma=sigma)
        got = kernel._axis_masses(means, sigma, axis)
        ref = np.concatenate([_cell_masses_reference(means[i:i + 1], sigma, axis)
                              for i in range(len(means))])
        assert got.tobytes() == ref.tobytes()

    def test_one_cdf_row_per_distinct_mean(self, monkeypatch):
        # the rough-reward mean ignores the action: 22,539 (node, action)
        # pairs hold 2,049 distinct means, each a row of 2,049 + 3 cdf points
        evaluated = []

        def counting_ndtr(a):
            evaluated.append(np.size(a))
            return ndtr_port(a)

        ndtr_port = mdp_module._ndtr
        monkeypatch.setattr(mdp_module, "_ndtr", counting_ndtr)
        build_oracle(fqlab.make_rough_reward_mdp(0.5, 0.0), resolution=2049)
        assert sum(evaluated) == 2049 * 2052

    def test_sampler_draws_the_per_axis_reference_bits(self):
        # the reference: scipy's ndtr/ndtri, one axis at a time, one draw per axis
        mdp = fqlab.make_gaussian_mdp(sigma=0.1, state_dim=2)
        states = np.random.default_rng(1).random((5000, 2))
        actions = np.random.default_rng(2).choice(mdp.action_grid, 5000)
        m, sigma, rng = mdp.kernel._means(states, actions), mdp.kernel.sigma, np.random.default_rng(3)
        ref = np.empty_like(m)
        for k in range(2):
            lo, hi = ndtr((0.0 - m[:, k]) / sigma[k]), ndtr((1.0 - m[:, k]) / sigma[k])
            u = rng.random(len(m))
            ref[:, k] = m[:, k] + sigma[k] * ndtri(lo + u * (hi - lo))
        out = mdp.kernel.sample(np.random.default_rng(3), states, actions)
        assert out.tobytes() == np.clip(ref, 0.0, 1.0).tobytes()

    def test_gaussian_sampler_tracks_masses(self):
        mdp = fqlab.make_gaussian_mdp(sigma=0.2)
        rng = np.random.default_rng(0)
        states = np.full((50_000, 1), 0.3)
        actions = np.full(50_000, 0.5)
        draws = mdp.kernel.sample(rng, states, actions)[:, 0]
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        # at action 0.5 the mean is the state itself: N(0.3, 0.2^2) truncated to [0,1]
        exact = truncnorm.mean((0.0 - 0.3) / 0.2, (1.0 - 0.3) / 0.2, loc=0.3, scale=0.2)
        assert abs(draws.mean() - exact) < 4 * draws.std() / np.sqrt(len(draws))

    def test_rejects_nonstochastic_matrix(self):
        with pytest.raises(ValueError):
            FiniteChainKernel(np.array([0.0, 1.0]), np.array([[0.5, 0.4], [0.2, 0.8]]))


def _neighbours(*points):
    return [v for p in points for v in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]


_SQRT1_2, _EXPM2 = mdp_module._SQRT1_2, mdp_module._EXPM2
# where ndtr's branches meet (|a| SQRT1_2 reaches SQRT1_2, 1 and 8) and
# exp(-a^2/2) underflows; where ndtri's branches meet (EXPM2, 1 - EXPM2, and
# exp(-32), where sqrt(-2 log y) = 8) and its domain ends; signed zeros and
# infinities, NaNs with and without a payload, subnormals
_NDTR_EDGES = _neighbours(*(s * v for s in (1.0, -1.0) for v in (
    np.sqrt(2) * _SQRT1_2, np.sqrt(2), 8 * np.sqrt(2), np.sqrt(2 * mdp_module._MAXLOG))))
_NDTRI_EDGES = _neighbours(0.0, 1.0, _EXPM2, 1.0 - _EXPM2, np.exp(-32.0), 1.0 - np.exp(-32.0))
_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
            *np.array([0x7FF8000000000001, 0xFFFA66EAF6117E64], np.uint64).view(float).tolist()]


def _arguments(edges, finite):
    value = st.one_of(st.floats(), finite, st.sampled_from(edges + _SPECIAL),
                      st.floats(0.0, 1e-300))  # subnormals and tiny tails
    return st.lists(value, min_size=1, max_size=64).map(np.array)


class TestNormalCdfPort:
    """The kernel's numpy Cephes ndtr/ndtri against scipy.special, byte for byte."""

    @given(_arguments(_NDTR_EDGES, st.floats(-40.0, 40.0)))
    def test_ndtr_matches_scipy(self, a):
        assert mdp_module._ndtr(a).tobytes() == ndtr(a).tobytes()

    @given(_arguments(_NDTRI_EDGES, st.floats(0.0, 1.0)))
    def test_ndtri_matches_scipy(self, y):
        assert mdp_module._ndtri(y).tobytes() == ndtri(y).tobytes()

    def test_many_blocks_and_any_shape(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 3.0, (3, 50_000))
        y = np.concatenate([rng.random(100_000), rng.random(100_000) ** 8]).reshape(2, -1)
        assert mdp_module._ndtr(a).tobytes() == ndtr(a).tobytes()
        assert mdp_module._ndtri(y).tobytes() == ndtri(y).tobytes()


# every key each kind takes, at its factory's default
_DEFAULTS = {
    "chain5": {"gamma": 0.9, "n_states": 5, "n_actions": 11, "noise": 0.1},
    "chain": {"gamma": 0.9, "n_states": 5, "n_actions": 11, "noise": 0.1},
    "chain5_bernoulli": {"gamma": 0.9, "n_states": 5, "n_actions": 11},
    "gaussian": {"gamma": 0.9, "kernel_sigma": 0.15, "n_actions": 11, "noise": 0.05,
                 "state_dim": 1},
    "single_state": {"gamma": 0.5, "reward": 0.5, "n_actions": 2, "noise": 0.0},
    "rough_reward": {"alpha": 0.5, "gamma": 0.0, "n_actions": 11, "kernel_sigma": 0.15},
}


class TestConfigLoading:
    def test_presets(self):
        mdp = fqlab.mdp_from_config("chain5")
        assert mdp.n_actions == 11 and mdp.gamma == 0.9

    def test_json_file(self, tmp_path):
        cfg = tmp_path / "mdp.json"
        cfg.write_text('{"kind": "chain", "gamma": 0.5, "n_states": 3, "n_actions": 5}')
        mdp = fqlab.mdp_from_config(cfg)
        assert mdp.gamma == 0.5 and len(mdp.kernel.nodes) == 3 and mdp.n_actions == 5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fqlab.mdp_from_config({"kind": "nope"})

    def test_a_json_file_that_is_not_an_object_is_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="must be a JSON object, got list"):
            fqlab.mdp_from_config(path)

    @pytest.mark.parametrize("cfg,key", [({"kind": "chain5", "gama": 0.5}, "gama"),
                                         ({"kind": "gaussian", "sigma": 0.5}, "sigma")])
    def test_unknown_key_rejected(self, tmp_path, cfg, key):
        # a misspelt key must not leave the preset default in place unannounced
        path = tmp_path / "mdp.json"
        path.write_text(json.dumps(cfg))
        accepted = sorted(["kind", *_DEFAULTS[cfg["kind"]]])
        for source in (cfg, path):
            with pytest.raises(ValueError, match=re.escape(f"['{key}']; accepted: {accepted}")):
                fqlab.mdp_from_config(source)

    @pytest.mark.parametrize("cfg", [
        {"kind": "chain5", "state_dim": 2}, {"kind": "chain", "kernel_sigma": 0.2},
        {"kind": "chain5_bernoulli", "noise": 0.3}, {"kind": "gaussian", "n_states": 3},
        {"kind": "single_state", "alpha": 0.5}, {"kind": "rough_reward", "noise": 0.1},
        {"kind": "chain5", "seed": 0}, {"kind": "gaussian", "normalize": False},
        {"kind": "chain5", "noise_kind": "bernoulli"}])
    def test_a_key_the_kind_does_not_take_is_rejected(self, cfg):
        # another kind's key, or a key no kind takes, must not be dropped silently
        key = next(k for k in cfg if k != "kind")
        with pytest.raises(ValueError, match=f"unknown {cfg['kind']} config keys \\['{key}'\\]"):
            fqlab.mdp_from_config(cfg)

    @pytest.mark.parametrize("kind", sorted(_DEFAULTS))
    def test_spelling_out_the_defaults_builds_the_bare_preset(self, kind):
        bare, full = (build_oracle(fqlab.mdp_from_config(cfg), resolution=11)
                      for cfg in (kind, {"kind": kind, **_DEFAULTS[kind]}))
        assert np.array_equal(full.rewards, bare.rewards)
        for table in ("probs", "m0", "m1"):
            if hasattr(bare.next_op, table):
                assert np.array_equal(getattr(full.next_op, table), getattr(bare.next_op, table))
        assert full.mdp.reward_noise == bare.mdp.reward_noise
        assert full.mdp.noise_kind == bare.mdp.noise_kind

    def test_unknown_name_that_is_no_file(self, tmp_path):
        with pytest.raises(ValueError, match="unknown mdp kind"):
            fqlab.mdp_from_config("chian5")
        with pytest.raises(ValueError, match="unknown mdp kind"):
            fqlab.mdp_from_config(str(tmp_path))


class TestStateActionPoints:
    def test_pairs_are_row_major_in_state_then_action(self):
        states = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        grid = np.array([0.0, 0.5])
        s_rep, a_rep = pair_with_actions(states, grid)
        pts = state_action_inputs(s_rep, a_rep)
        assert pts.shape == (6, 3)
        for i, state in enumerate(states):
            for j, action in enumerate(grid):
                np.testing.assert_array_equal(pts[i * len(grid) + j], [*state, action])

    def test_zero_dimensional_states(self):
        pts = state_action_inputs(*pair_with_actions(np.zeros((2, 0)), np.array([0.0, 1.0])))
        np.testing.assert_array_equal(pts, [[0.0], [1.0], [0.0], [1.0]])
