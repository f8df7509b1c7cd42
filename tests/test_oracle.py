import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import RegularGridInterpolator

import fqlab
import fqlab.oracle as oracle_module
from fqlab.fqi import decomposition_bound
from fqlab.harness import default_probes
from fqlab.mdp import (DenseNextOp, FixedActionPolicy, TruncatedGaussianKernel, UniformPolicy,
                       pair_with_actions)
from fqlab.oracle import (MAX_SWEEPS, SWEEP_MARGIN, OracleError, _multilinear, apply_bellman,
                          build_oracle, estimate_concentration, ground_truth, max_sweeps,
                          subopt, tabulate_visitation)


class TestApplyBellman:
    def test_single_state_constant_f(self):
        mdp = fqlab.make_single_state_mdp(gamma=0.5, reward=0.5)
        oracle = build_oracle(mdp)
        out = apply_bellman(oracle, np.ones((1, 2)), UniformPolicy(2))
        np.testing.assert_allclose(out, 1.0)

    def test_zero_f_returns_mean_reward(self, chain_mdp, uniform_pi):
        oracle = build_oracle(chain_mdp)
        out = apply_bellman(oracle, np.zeros_like(oracle.rewards), uniform_pi)
        np.testing.assert_allclose(out, oracle.rewards)

    def test_two_state_hand_kernel(self, two_state_mdp):
        # f = indicator of node 1: [Tf](s,a) = r(s) + gamma * P(1|s)
        oracle = build_oracle(two_state_mdp)
        f = np.zeros((2, 2))
        f[1, :] = 1.0
        out = apply_bellman(oracle, f, UniformPolicy(2))
        expected = np.array([0.2 + 0.9 * 0.1, 0.8 + 0.9 * 0.8])
        np.testing.assert_allclose(out, expected[:, None] * np.ones((2, 2)), atol=1e-12)

    def test_rejects_runaway_values(self, chain_mdp, uniform_pi):
        oracle = build_oracle(chain_mdp)
        with pytest.raises(ValueError):
            apply_bellman(oracle, np.full((5, 11), 11.0), uniform_pi)

    def test_monotone(self, chain_mdp, uniform_pi):
        oracle = build_oracle(chain_mdp)
        rng = np.random.default_rng(0)
        f = rng.random((5, 11))
        g = f + rng.random((5, 11))
        tf = apply_bellman(oracle, f, uniform_pi)
        tg = apply_bellman(oracle, g, uniform_pi)
        assert np.all(tf <= tg + 1e-12)

    def test_optimality_target(self, two_state_mdp):
        oracle = build_oracle(two_state_mdp)
        f = np.array([[0.0, 1.0], [0.5, 0.25]])
        out = apply_bellman(oracle, f, None)
        maxes = np.array([1.0, 0.5])
        p = two_state_mdp.kernel.m_left
        expected = np.array([0.2, 0.8]) + 0.9 * (p @ maxes)
        np.testing.assert_allclose(out, expected[:, None] * np.ones((2, 2)), atol=1e-12)


class TestBellmanContraction:
    """The Bellman operator is a gamma-contraction in sup norm, for the
    optimality backup and for a fixed policy (Munos & Szepesvari 2008)."""

    @pytest.mark.parametrize("uniform", [False, True])
    @pytest.mark.parametrize("which", ["chain", "two_state"])
    def test_sup_norm_contraction(self, which, uniform, chain_mdp, two_state_mdp):
        mdp = chain_mdp if which == "chain" else two_state_mdp
        oracle = build_oracle(mdp)
        policy = UniformPolicy(mdp.n_actions) if uniform else None
        tables = hnp.arrays(np.float64, oracle.rewards.shape, elements=st.floats(-10.0, 10.0))

        @given(tables, tables)
        def check(f, g):
            gap = np.abs(apply_bellman(oracle, f, policy)
                         - apply_bellman(oracle, g, policy)).max()
            assert gap <= mdp.gamma * np.abs(f - g).max() + 1e-12

        check()


class TestGroundTruth:
    def test_single_state_geometric_series(self):
        mdp = fqlab.make_single_state_mdp(gamma=0.5, reward=0.5)
        oracle = ground_truth(build_oracle(mdp), UniformPolicy(2))
        np.testing.assert_allclose(oracle.q, 1.0, atol=1e-7)
        assert abs(oracle.value_of(oracle.q, oracle.target) - 1.0) < 1e-7

    def test_gamma_zero_is_reward(self):
        mdp = fqlab.make_chain_mdp(gamma=0.0, noise=0.0)
        oracle = ground_truth(build_oracle(mdp), None)
        np.testing.assert_allclose(oracle.q, oracle.rewards, atol=1e-12)
        assert len(oracle.sweep_deltas) <= 2

    def test_two_state_matches_linear_solve(self, two_state_mdp):
        oracle = ground_truth(build_oracle(two_state_mdp, tol=1e-10), UniformPolicy(2))
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        r = np.array([0.2, 0.8])
        q_exact = np.linalg.solve(np.eye(2) - 0.9 * p, r)
        np.testing.assert_allclose(oracle.q, q_exact[:, None] * np.ones((2, 2)), atol=1e-8)

    def test_contraction_per_sweep(self, chain_oracle_pi, chain_mdp):
        deltas = np.array(chain_oracle_pi.sweep_deltas)
        assert np.all(deltas[1:] <= chain_mdp.gamma * deltas[:-1] + 1e-12)

    def test_q_range(self, chain_oracle_pi, chain_oracle_star, chain_mdp):
        cap = 1.0 / (1.0 - chain_mdp.gamma)
        for oracle in (chain_oracle_pi, chain_oracle_star):
            assert oracle.q.min() >= 0.0 and oracle.q.max() <= cap

    def test_sweep_budget_flags_broken_kernel(self):
        # rows summing to 1.09 slow the contraction to ~0.98, blowing the
        # sweep budget computed for gamma = 0.9 without escaping the value cap
        mdp = fqlab.make_finite_mdp([[0.9, 0.1], [0.2, 0.8]], [0.05, 0.1],
                                    gamma=0.9, n_actions=2)
        oracle = build_oracle(mdp)
        oracle.next_op.probs = oracle.next_op.probs * 1.09
        oracle.next_op._flat = oracle.next_op.probs.reshape(4, 2)
        with pytest.raises(OracleError):
            ground_truth(oracle, UniformPolicy(2))

    def test_max_sweeps_formula(self):
        assert max_sweeps(0.0, 1e-8) == 2 + SWEEP_MARGIN
        assert max_sweeps(0.5, 10.0) == 1 + SWEEP_MARGIN
        g, tol = 0.9, 1e-6
        expected = int(np.ceil(np.log(tol * (1 - g)) / np.log(g)))
        assert max_sweeps(g, tol) == expected + SWEEP_MARGIN

    def test_max_sweeps_caps_a_gamma_near_one(self):
        assert max_sweeps(0.999, 1e-8) == 25_366 <= MAX_SWEEPS
        with pytest.raises(ValueError, match="gamma 0.999999 needs 32236226 value-iteration "
                                             "sweeps to reach tol 1e-08, above the cap of 50000"):
            max_sweeps(0.999999, 1e-8)

    def test_ground_truth_checks_the_cap_before_any_sweep(self, monkeypatch):
        oracle = build_oracle(fqlab.make_single_state_mdp(gamma=0.99999))

        def no_sweep(*args):
            raise AssertionError("value iteration started past the sweep cap")

        monkeypatch.setattr(oracle_module, "apply_bellman", no_sweep)
        with pytest.raises(ValueError, match="above the cap"):
            ground_truth(oracle)


class TestFrozenOracle:
    def test_ground_truth_returns_a_populated_copy(self, chain_mdp, uniform_pi):
        grid = build_oracle(chain_mdp)
        populated = ground_truth(grid, uniform_pi)
        assert populated is not grid
        assert not grid.populated and grid.target is None and grid.sweep_deltas == []
        assert populated.populated and populated.target is uniform_pi
        assert populated.mdp is chain_mdp and populated.next_op is grid.next_op

    def test_fields_cannot_be_assigned(self, chain_oracle_pi):
        with pytest.raises(dataclasses.FrozenInstanceError):
            chain_oracle_pi.q = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            chain_oracle_pi.mdp = fqlab.make_chain_mdp()


class TestSubopt:
    def test_exact_value_gives_zero(self, chain_oracle_pi):
        value = chain_oracle_pi.value_of(chain_oracle_pi.q, chain_oracle_pi.target)
        assert subopt(chain_oracle_pi, value) == 0.0

    def test_greedy_on_oracle_q_is_optimal(self, chain_oracle_star, chain_mdp):
        interp = chain_oracle_star.interpolator(chain_oracle_star.q)
        policy = fqlab.GreedyPolicy(interp, chain_mdp.action_grid)
        assert subopt(chain_oracle_star, policy) <= 1e-9

    def test_zero_estimate_on_single_state(self):
        mdp = fqlab.make_single_state_mdp(gamma=0.5, reward=0.5)
        oracle = ground_truth(build_oracle(mdp), UniformPolicy(2))
        assert abs(subopt(oracle, 0.0) - 1.0) < 1e-7

    def test_requires_population(self, chain_mdp):
        with pytest.raises(OracleError):
            subopt(build_oracle(chain_mdp), 0.3)


def scipy_multilinear(axes, table, pts):
    """The reference: scipy's multilinear interpolant, extrapolating outside the grid."""
    return RegularGridInterpolator(axes, table, method="linear", bounds_error=False,
                                   fill_value=None)(pts)


@st.composite
def grids_and_points(draw):
    """(axes, table, points): 2 or 3 uneven ascending axes of 1-5 nodes, a
    writeable float64 table on them, and finite points whose coordinates lie
    on a node, between nodes or outside the grid."""
    axes = tuple(np.array(sorted(nodes)) / 8.0 for nodes in draw(st.lists(
        st.lists(st.integers(-16, 16), min_size=1, max_size=5, unique=True),
        min_size=2, max_size=3)))
    table = draw(hnp.arrays(np.float64, tuple(map(len, axes)), elements=st.floats(-10.0, 10.0)))
    coords = [st.one_of(st.sampled_from(ax.tolist()), st.floats(ax[0], ax[-1]),
                        st.floats(-4.0, 4.0)) for ax in axes]
    points = draw(st.lists(st.tuples(*coords), min_size=1, max_size=12))
    return axes, table, np.array(points, dtype=float)


class TestMultilinearInterpolant:
    @given(grids_and_points())
    def test_matches_scipy_byte_for_byte(self, case):
        axes, table, pts = case
        assert table.flags.writeable  # scipy's 2-axis order is the compiled loop's
        ref = scipy_multilinear(axes, table, pts)
        out = _multilinear(axes, table, pts)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()

    def test_oracle_tables_match_scipy_byte_for_byte(self, chain_oracle_star, mdp2):
        rng = np.random.default_rng(5)
        oracle2 = ground_truth(build_oracle(mdp2, resolution=9), UniformPolicy(5))
        for oracle in (chain_oracle_star, oracle2):  # 2 and 3 axes
            axes = oracle.state_axes + (oracle.action_grid,)
            pts = rng.uniform(-0.2, 1.2, (300, len(axes)))
            ref = scipy_multilinear(axes, oracle.q.reshape(tuple(map(len, axes))), pts)
            assert oracle.interpolator(oracle.q)(pts).tobytes() == ref.tobytes()

    def test_importing_the_cli_leaves_scipy_interpolate_unloaded(self):
        src = os.path.dirname(os.path.dirname(fqlab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, fqlab.cli; print('scipy.interpolate' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert run.stdout.strip() == "False"


class TestConcentration:
    def test_uniform_everything_gives_one(self):
        # uniform kernel rows, uniform initial distribution, uniform behavior
        n = 4
        mdp = fqlab.make_finite_mdp(np.full((n, n), 1.0 / n), np.full(n, 0.5),
                                    gamma=0.9, n_actions=3)
        eta = UniformPolicy(3)
        rep = estimate_concentration(build_oracle(mdp), eta, [UniformPolicy(3)], range(5))
        assert abs(rep.kappa_hat - 1.0) <= 1e-6

    def test_single_state_deterministic_probe(self):
        mdp = fqlab.make_single_state_mdp(gamma=0.5, reward=0.5, n_actions=2)
        rep = estimate_concentration(build_oracle(mdp), UniformPolicy(2),
                                     [FixedActionPolicy(0, 2)], [0, 1, 2])
        assert abs(rep.kappa_hat - 2.0) <= 1e-9

    def test_two_state_matches_matrix_powers(self, two_state_mdp):
        eta = UniformPolicy(2)
        probe = FixedActionPolicy(0, 2)
        rep = estimate_concentration(build_oracle(two_state_mdp), eta, [probe], range(21))
        # independent enumeration: occupancy vectors by exact matrix powers
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        rho = np.array([0.5, 0.5])
        gamma = 0.9
        mu = np.zeros((2, 2))
        occ_s = rho.copy()
        for t in range(400):
            mu += (1 - gamma) * gamma ** t * occ_s[:, None] * 0.5
            occ_s = occ_s @ p
        best = 0.0
        occ_s = rho.copy()
        for t in range(21):
            nu = np.zeros((2, 2))
            nu[:, 0] = occ_s
            best = max(best, np.max(nu / mu))
            occ_s = occ_s @ p
        assert abs(rep.kappa_hat - best) <= 1e-6

    def test_flags_unreachable_cells(self, two_state_mdp):
        eta = FixedActionPolicy(0, 2)          # never takes action 1
        probe = FixedActionPolicy(1, 2)        # only takes action 1
        rep = estimate_concentration(build_oracle(two_state_mdp), eta, [probe], [0, 1])
        assert rep.kappa_hat == np.inf
        assert len(rep.undefined_cells) > 0

    def test_kappa_at_least_one(self, chain_mdp, uniform_pi):
        rep = estimate_concentration(build_oracle(chain_mdp), uniform_pi,
                                     [FixedActionPolicy(0, 11), uniform_pi], range(10))
        assert rep.kappa_hat >= 1.0

    def test_visitation_table_sums_to_one(self, chain_mdp, uniform_pi):
        oracle = build_oracle(chain_mdp)
        mu = tabulate_visitation(oracle, uniform_pi)
        assert abs(mu.sum() - 1.0) < 1e-9

    def test_rejects_empty_horizon_set(self, chain_mdp, uniform_pi):
        with pytest.raises(ValueError, match="horizon"):
            estimate_concentration(build_oracle(chain_mdp), uniform_pi, [uniform_pi], [])

    def test_rejects_negative_horizon(self, chain_mdp, uniform_pi):
        with pytest.raises(ValueError, match="horizon"):
            estimate_concentration(build_oracle(chain_mdp), uniform_pi, [uniform_pi], [0, -3])


class TestResolution:
    """build_oracle takes None or an integer >= 2 nodes per axis, for every kernel."""

    @pytest.mark.parametrize("kind", ["gaussian", "chain5"])
    @pytest.mark.parametrize("resolution", [0, 1, 3.5, float("nan"), True, "41"])
    def test_anything_else_raises_naming_it(self, kind, resolution):
        with pytest.raises(ValueError, match=f"integer >= 2, got {resolution!r}"):
            build_oracle(fqlab.mdp_from_config(kind), resolution)

    def test_the_smallest_grid_and_numpy_integers_build(self):
        oracle = build_oracle(fqlab.make_gaussian_mdp(), np.int64(2))
        assert oracle.n_nodes == 2 and oracle.rho.tolist() == [0.5, 0.5]

    def test_a_chain_keeps_its_nodes(self, chain_mdp):
        assert build_oracle(chain_mdp, 41).n_nodes == build_oracle(chain_mdp).n_nodes == 5


def chain_oracle_with(probs, gamma):
    """The grid oracle of an S-node chain (rho uniform on the nodes) whose
    next_op is DenseNextOp(probs), probs[x, a, y] = P(y | x, a)."""
    s, a, _ = probs.shape
    mdp = fqlab.make_finite_mdp(np.full((s, s), 1.0 / s), np.full(s, 0.5), gamma, n_actions=a)
    return dataclasses.replace(build_oracle(mdp), next_op=DenseNextOp(probs))


def random_chain_probs(rng, n_states, n_actions):
    """A random sparse (S, A, S) transition table: about half the entries are 0,
    and one in each row is always positive."""
    shape = (n_states, n_actions, n_states)
    probs = rng.random(shape) * (rng.random(shape) < 0.5)
    probs[np.arange(n_states)[:, None], np.arange(n_actions),
          rng.integers(n_states, size=shape[:2])] += 0.1
    return probs / probs.sum(axis=-1, keepdims=True)


def exact_kappa(oracle, mu, horizons):
    """max over t in horizons and cells (s, a) of reach_t[s] / mu[s, a], where
    reach_t[s] = max over all policies of P(s_t = s), by backward reachability
    for every target node at once: W_0 = I, W_{k+1}[x, s] = max_a sum_y
    P[x, a, y] W_k[y, s], reach_t = rho W_t.  A Markov deterministic policy
    attains each reach_t[s] (Puterman 1994), so this bounds every policy's
    occupancy ratio over those horizons."""
    probs = oracle.next_op.probs
    w, kappa = np.eye(len(probs)), 0.0
    for t in range(max(horizons) + 1):
        if t in horizons:
            kappa = max(kappa, float(np.max((oracle.rho @ w)[:, None] / mu)))
        w = np.einsum("xay,ys->xas", probs, w).max(axis=1)
    return kappa


class TestExactConcentration:
    """estimate_concentration is a lower estimate: kappa_hat never exceeds the
    exact kappa over the same horizons."""

    def test_kappa_hat_is_at_most_the_exact_kappa(self, softmax_policy):
        @given(st.integers(1, 6), st.integers(1, 4), st.floats(0.0, 0.95),
               st.sets(st.integers(0, 12), min_size=1), st.integers(0, 2 ** 32 - 1))
        def check(n_states, n_actions, gamma, horizons, seed):
            rng = np.random.default_rng(seed)
            oracle = chain_oracle_with(random_chain_probs(rng, n_states, n_actions), gamma)
            # a softmax has full support
            eta = softmax_policy(rng.uniform(-3, 3, (1, n_actions)), rng.uniform(-3, 3, n_actions))
            rep = estimate_concentration(oracle, eta, default_probes(n_actions), horizons)
            assert rep.undefined_cells == []
            assert rep.kappa_hat <= exact_kappa(oracle, rep.mu, horizons) * (1 + 1e-12)

        check()

    def test_strict_where_the_probes_cannot_switch_action(self):
        # node 2 is entered only from node 1 under action 1, and node 1 only
        # from node 0 under action 0; node 2 returns to node 0.  Every start
        # reaches node 2 at t = 3 by switching action; of the probes, the first
        # action never enters node 2, the last keeps node 0 where it is, and the
        # uniform one gets there with probability at most 1/4 from any start
        e = np.eye(3)
        probs = np.stack([[e[1], e[0]], [e[0], e[2]], [e[0], e[0]]])
        oracle = chain_oracle_with(probs, 0.5)
        rep = estimate_concentration(oracle, UniformPolicy(2), default_probes(2), range(6))
        kappa = exact_kappa(oracle, rep.mu, range(6))
        assert kappa == pytest.approx(1.0 / rep.mu[2, 0], rel=1e-12)  # reach_3[2] = 1
        assert rep.kappa_hat < 0.6 * kappa  # 4.67 against 8.40


class TestExactOplDecomposition:
    """fqi.decomposition_bound("opl", ...) against approximate value iteration
    Q_k = T* Q_{k-1} + eps_k from Q_0 = 0 on random chains, with every
    quantity exact on the grid: the greedy policy of Q_K reads the interpolant
    of its table, which is the table itself on the grid nodes."""

    # The error propagation of the greedy policy's loss (Munos & Szepesvari
    # 2008) reaches the state-action laws of every horizon t >= 1.  exact_kappa
    # takes horizons 0..HORIZON, where the weight gamma^t of the largest gamma
    # drawn is down to 1e-4 (0.95^180); more horizons could only raise it, so
    # a pass here is a pass for the bound with the supremum over all horizons.
    HORIZON = 180

    def test_opl_bound_holds(self, softmax_policy):
        @given(st.integers(1, 6), st.integers(1, 4), st.floats(0.05, 0.95),
               st.integers(1, 30), st.floats(0.0, 2.0), st.integers(0, 2 ** 32 - 1))
        def check(n_states, n_actions, gamma, iterations, scale, seed):
            rng = np.random.default_rng(seed)
            # mean rewards in [0, 1 - gamma], so Q* lies in [0, 1]
            grid = dataclasses.replace(
                chain_oracle_with(random_chain_probs(rng, n_states, n_actions), gamma),
                rewards=rng.uniform(0.0, 1.0 - gamma, (n_states, n_actions)), tol=1e-12)
            oracle = ground_truth(grid, None)
            # |eps| <= scale (1 - gamma) keeps every |Q_k| <= 3
            top = scale * (1.0 - gamma)
            residuals = rng.uniform(-top, top, (iterations, n_states, n_actions))
            q = np.zeros_like(oracle.rewards)
            for eps in residuals:
                q = apply_bellman(oracle, q) + eps
            # the data policy: a softmax has full support
            eta = softmax_policy(rng.uniform(-3, 3, (1, n_actions)), rng.uniform(-3, 3, n_actions))
            mu = tabulate_visitation(oracle, eta)
            max_residual = max(float(np.sqrt(np.sum(mu * eps ** 2))) for eps in residuals)
            kappa = exact_kappa(oracle, mu, range(self.HORIZON + 1))
            greedy = fqlab.GreedyPolicy(oracle.interpolator(q), oracle.action_grid)
            bound = decomposition_bound("opl", kappa, gamma, iterations, max_residual)
            # oracle.q is within gamma tol / (1 - gamma) of Q*, and subopt reads it twice
            accuracy = 2 * oracle.tol / (1 - gamma) + 1e-14
            assert subopt(oracle, greedy) <= bound + accuracy

        check()


class TestVisitationMassProperty:
    """The discounted visitation of any policy is a probability measure on the
    grid, whatever the kernel (finite chain or truncated Gaussian)."""

    @pytest.mark.parametrize("which", ["chain5", "two_state", "gaussian1d"])
    def test_sums_to_one_for_random_probes(self, which, chain_mdp, two_state_mdp,
                                           softmax_policy):
        mdp = {"chain5": chain_mdp, "two_state": two_state_mdp,
               "gaussian1d": fqlab.make_gaussian_mdp()}[which]
        oracle = build_oracle(mdp, resolution=41)  # finite chains keep their nodes
        logits = st.floats(-10.0, 10.0)

        @given(hnp.arrays(np.float64, (mdp.state_dim, mdp.n_actions), elements=logits),
               hnp.arrays(np.float64, (mdp.n_actions,), elements=logits))
        def check(w, c):
            mu = tabulate_visitation(oracle, softmax_policy(w, c))
            assert mu.min() >= 0.0
            assert abs(mu.sum() - 1.0) < 1e-9

        check()


@pytest.fixture(scope="module")
def mdp2():
    return fqlab.make_gaussian_mdp(gamma=0.5, sigma=0.2, n_actions=5,
                                   noise=0.0, state_dim=2)


class TestTwoDimensionalStates:

    @pytest.mark.parametrize("resolution", [21, 51])
    def test_separable_rows_sum_to_one(self, mdp2, resolution):
        op = build_oracle(mdp2, resolution=resolution).next_op
        # factored layout: m0[i0, a, :] and m1[i1, a, :] are the per-axis rows
        assert op.m0.shape == op.m1.shape == (resolution, 5, resolution)
        for table in (op.m0, op.m1):
            assert np.abs(table.sum(axis=-1) - 1.0).max() <= 4 * np.finfo(float).eps

    def test_default_preset_contracts_one_axis_at_a_time(self):
        # the 2-d gaussian preset's means are axis-local, so it builds per-axis tables
        op = build_oracle(fqlab.make_gaussian_mdp(state_dim=2)).next_op
        assert op.grid_shape == (51, 51)
        assert op.m0.shape == (51, 11, 51) and op.m1.shape == (51, 11, 51)

    def test_value_iteration_and_range(self, mdp2):
        oracle = ground_truth(build_oracle(mdp2, resolution=21), UniformPolicy(5))
        assert oracle.q.min() >= 0.0 and oracle.q.max() <= 2.0
        # constant-function backup: T1 = r + gamma on every node
        out = apply_bellman(oracle, np.ones_like(oracle.rewards), UniformPolicy(5))
        np.testing.assert_allclose(out, oracle.rewards + 0.5, atol=1e-12)

    def test_visitation_mass_conserved(self, mdp2):
        oracle = build_oracle(mdp2, resolution=21)
        mu = tabulate_visitation(oracle, UniformPolicy(5))
        assert abs(mu.sum() - 1.0) < 1e-8

    @pytest.fixture(scope="class")
    def small_op(self):
        mdp = fqlab.make_gaussian_mdp(gamma=0.5, sigma=0.2, n_actions=3,
                                      noise=0.0, state_dim=2)
        return build_oracle(mdp, resolution=9).next_op

    def test_separable_push_matches_joint_kernel(self, small_op):
        # explicit joint kernel P[(i0, i1, a), j0*G1 + j1] = m0[i0, a, j0] * m1[i1, a, j1]
        joint = (small_op.m0[:, None, :, :, None]
                 * small_op.m1[None, :, :, None, :]).reshape(243, 81)
        rng = np.random.default_rng(0)
        occ = rng.random((81, 3))
        np.testing.assert_allclose(small_op.push(occ), joint.T @ occ.ravel(),
                                   rtol=1e-13, atol=0.0)

    def test_separable_push_is_adjoint_of_expect(self, small_op):
        rng = np.random.default_rng(1)
        for _ in range(5):
            occ = rng.random((81, 3))
            g = rng.random(81)
            lhs = small_op.push(occ) @ g
            rhs = np.sum(occ * small_op.expect(g))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)

    @given(g0=st.integers(2, 8), g1=st.integers(2, 8), n_actions=st.integers(1, 4),
           sigma0=st.floats(0.1, 0.5), sigma1=st.floats(0.1, 0.5),
           drift=st.floats(-0.5, 0.5), contraction=st.floats(0.0, 1.0),
           coupling=st.sampled_from([0.0, 0.05, 0.3]), seed=st.integers(0, 2**16))
    def test_both_contraction_paths_match_the_joint_kernel(
            self, g0, g1, n_actions, sigma0, sigma1, drift, contraction, coupling, seed):
        # coupling > 0 makes the axis-0 mean depend on s1, which the kernel rejects
        def mean_fn(s, a):
            return np.stack([s[:, 0] + drift * (a - 0.5) + coupling * s[:, 1],
                             contraction * s[:, 1] + 0.5 * (1.0 - contraction)], axis=1)

        kernel = TruncatedGaussianKernel(mean_fn, [sigma0, sigma1], state_dim=2)
        axes = (np.linspace(0.0, 1.0, g0), np.linspace(0.0, 1.0, g1))
        actions = np.linspace(0.0, 1.0, n_actions)
        if coupling:
            with pytest.raises(ValueError, match="axis-local"):
                kernel._next_op(axes, actions)
            return
        # g0 != g1 is no grid a resolution lays out: tabulate on the axes directly
        op = kernel._next_op(axes, actions)
        # reference: one (node, action) row per axis straight from the means
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        m = mean_fn(*pair_with_actions(nodes, actions))
        rows0 = kernel._axis_masses(m[:, 0], sigma0, axes[0])
        rows1 = kernel._axis_masses(m[:, 1], sigma1, axes[1])
        assert op.m0.shape == (g0, n_actions, g0) and op.m1.shape == (g1, n_actions, g1)
        # the factored rows are the joint rows, bit for bit
        shape = (g0, g1, n_actions)
        assert np.array_equal(np.broadcast_to(op.m0[:, None], shape + (g0,)),
                              rows0.reshape(shape + (g0,)))
        assert np.array_equal(np.broadcast_to(op.m1[None], shape + (g1,)),
                              rows1.reshape(shape + (g1,)))
        joint = (rows0[:, :, None] * rows1[:, None, :]).reshape(len(m), g0 * g1)
        rng = np.random.default_rng(seed)
        occ = rng.random((g0 * g1, n_actions))
        g = rng.random(g0 * g1)
        np.testing.assert_allclose(op.push(occ), joint.T @ occ.ravel(), rtol=1e-13, atol=0.0)
        assert op.push(occ) @ g == pytest.approx(np.sum(occ * op.expect(g)), rel=1e-12, abs=0.0)

    def test_sampler_stays_in_cube(self, mdp2):
        data = fqlab.sample_visitation(mdp2, UniformPolicy(5), 2000, seed=0)
        assert data.states.shape == (2000, 2)
        assert data.x.shape == (2000, 3)
        assert data.next_states.min() >= 0.0 and data.next_states.max() <= 1.0

    def test_default_resolution_cap(self):
        with pytest.raises(Exception):
            fqlab.make_gaussian_mdp(state_dim=3)
