import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fqlab
from fqlab.mdp import (FixedActionPolicy, TruncatedGaussianKernel, UniformPolicy,
                       pair_with_actions)
from fqlab.oracle import (OracleError, apply_bellman, build_oracle,
                          estimate_concentration, ground_truth, max_sweeps,
                          oracle_value, subopt, tabulate_visitation)


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
        assert abs(oracle_value(oracle) - 1.0) < 1e-7

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
        assert max_sweeps(0.0, 1e-8, margin=0) == 2
        g, tol = 0.9, 1e-6
        expected = int(np.ceil(np.log(tol * (1 - g)) / np.log(g)))
        assert max_sweeps(g, tol, margin=0) == expected


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
        assert subopt(chain_oracle_pi, oracle_value(chain_oracle_pi)) == 0.0

    def test_greedy_on_oracle_q_is_optimal(self, chain_oracle_star, chain_mdp):
        interp = chain_oracle_star.interpolator(chain_oracle_star.q)
        policy = fqlab.GreedyPolicy(
            lambda states: interp(np.concatenate(
                [np.repeat(states, 11, axis=0),
                 np.tile(chain_mdp.action_grid, len(states))[:, None]],
                axis=1)).reshape(len(states), 11),
            chain_mdp.n_actions)
        assert subopt(chain_oracle_star, policy) <= 1e-9

    def test_zero_estimate_on_single_state(self):
        mdp = fqlab.make_single_state_mdp(gamma=0.5, reward=0.5)
        oracle = ground_truth(build_oracle(mdp), UniformPolicy(2))
        assert abs(subopt(oracle, 0.0) - 1.0) < 1e-7

    def test_requires_population(self, chain_mdp):
        with pytest.raises(OracleError):
            subopt(build_oracle(chain_mdp), 0.3)


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

    def test_separable_rows_sum_to_one(self, mdp2):
        oracle = build_oracle(mdp2, resolution=21)
        op = oracle.next_op
        # factored layout: m0[i0, a, :] and m1[i1, a, :] are the per-axis rows
        row_sums = op.m0.sum(axis=-1)[:, None, :] * op.m1.sum(axis=-1)[None, :, :]
        assert row_sums.shape == (21, 21, 5)
        np.testing.assert_allclose(row_sums, 1.0, atol=1e-9)

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
                kernel.node_transition(axes, actions)
            return
        op = kernel.node_transition(axes, actions)
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
