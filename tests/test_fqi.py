import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fqlab
from fqlab.fqi import (FqiConfig, greedy_policy, decomposition_bound,
                       measure_bellman_residuals, run_exact_lsvi, run_lsvi)
from fqlab.harness import ExperimentConfig, run_sweep
from fqlab.mdp import UniformPolicy
from fqlab.oracle import (apply_bellman, build_oracle, estimate_concentration, ground_truth,
                          subopt, tabulate_visitation)
from fqlab.relunet import ArchitectureSpec, ReluNetwork, TrainConfig


def reuse_vs_split(report):
    """Seed-averaged subopt of the reuse and the split cells of a one-(n, K)
    sweep, and the pooled standard error of their difference."""
    sub = [np.array([r.subopt for r in report.records if r.data_mode == data_mode])
           for data_mode in ("reuse", "split")]
    stderr = [float(a.std(ddof=1) / np.sqrt(len(a))) if len(a) > 1 else 0.0 for a in sub]
    return float(sub[0].mean()), float(sub[1].mean()), float(np.hypot(*stderr))


def net_from_table(oracle, table):
    """Wrap a grid tabulation as a callable for residual injection tests."""
    interp = oracle.interpolator(table)

    class _Wrapper:
        def forward(self, pts, clamp=None):
            return interp(pts)

    return _Wrapper()


class TestRunLsvi:
    def test_k_zero_rejected(self, compact_arch, fast_train):
        with pytest.raises(ValueError):
            FqiConfig(iterations=0, arch=compact_arch, train=fast_train)

    def test_unpopulated_oracle_rejected(self, chain_mdp, uniform_pi, compact_arch, fast_train):
        # the populated oracle names the Bellman target; a bare grid names none
        data = fqlab.sample_visitation(chain_mdp, uniform_pi, 50, seed=0)
        cfg = FqiConfig(iterations=1, arch=compact_arch, train=fast_train)
        with pytest.raises(ValueError):
            run_lsvi(data, cfg, build_oracle(chain_mdp))

    def test_zero_epochs_returns_zero_value(self, chain_mdp, chain_oracle_pi,
                                            uniform_pi, compact_arch):
        data = fqlab.sample_visitation(chain_mdp, uniform_pi, 200, seed=0)
        cfg = FqiConfig(iterations=1, arch=compact_arch, train=TrainConfig(epochs=0, seed=0))
        result, trace = run_lsvi(data, cfg, chain_oracle_pi)
        assert result.estimate == 0.0
        assert len(trace.q_iterates) == 2
        assert trace.q_iterates[-1].nnz() == 0

    def test_gamma_zero_single_iteration_is_reward_regression(self, compact_arch):
        mdp = fqlab.make_chain_mdp(gamma=0.0, noise=0.1)
        eta = UniformPolicy(mdp.n_actions)
        oracle = ground_truth(build_oracle(mdp), None)
        data = fqlab.sample_visitation(mdp, eta, 8000, seed=1)
        cfg = FqiConfig(iterations=1, arch=compact_arch,
                        train=TrainConfig(epochs=250, restarts=2, learning_rate=1.8,
                                          batch_size=512, seed=1))
        result, trace = run_lsvi(data, cfg, oracle)
        held = fqlab.sample_visitation(mdp, eta, 2000, seed=99)
        mean_r = mdp.reward_mean(held.states, held.actions)
        rmse = float(np.sqrt(np.mean((result.q_final.forward(held.x) - mean_r) ** 2)))
        assert rmse <= 0.05

    def test_chain_ope_beats_tolerance(self, chain_mdp, chain_oracle_pi, uniform_pi,
                                       compact_arch, fast_train):
        # small-n spot-check of the acceptance-scale behavior
        subs = []
        for seed in range(2):
            data = fqlab.sample_visitation(chain_mdp, uniform_pi, 4000, seed=seed)
            cfg = FqiConfig(iterations=20, arch=compact_arch,
                            train=fqlab.TrainConfig(epochs=200, restarts=1,
                                                    learning_rate=1.5,
                                                    batch_size=1024, seed=seed))
            result, _ = run_lsvi(data, cfg, chain_oracle_pi)
            subs.append(subopt(chain_oracle_pi, result.estimate))
        # K = 20 leaves an algorithmic tail of order gamma^K * V ~ 0.08 on top
        # of the statistical error; the acceptance-scale run uses K = 50
        assert np.mean(subs) <= 0.12

    def test_determinism(self, chain_mdp, chain_oracle_pi, uniform_pi, compact_arch):
        data = fqlab.sample_visitation(chain_mdp, uniform_pi, 1000, seed=3)
        cfg = FqiConfig(iterations=3, arch=compact_arch,
                        train=TrainConfig(epochs=15, restarts=1, batch_size=256,
                                          learning_rate=1.2, seed=3))
        r1, t1 = run_lsvi(data, cfg, chain_oracle_pi)
        r2, t2 = run_lsvi(data, cfg, chain_oracle_pi)
        assert r1.estimate == r2.estimate
        np.testing.assert_array_equal(t1.train_losses, t2.train_losses)
        for a, b in zip(t1.q_iterates, t2.q_iterates):
            np.testing.assert_array_equal(a.params, b.params)

    def test_opl_returns_greedy_of_final_iterate(self, chain_mdp, chain_oracle_star,
                                                 uniform_pi, compact_arch):
        data = fqlab.sample_visitation(chain_mdp, uniform_pi, 1000, seed=4)
        cfg = FqiConfig(iterations=2, arch=compact_arch,
                        train=TrainConfig(epochs=15, restarts=1, batch_size=256,
                                          learning_rate=1.2, seed=4))
        result, trace = run_lsvi(data, cfg, chain_oracle_star)
        expected = greedy_policy(trace.q_iterates[-1], chain_mdp.action_grid)
        np.testing.assert_array_equal(result.estimate.act(chain_oracle_star.nodes),
                                      expected.act(chain_oracle_star.nodes))


class TestGreedyPolicy:
    def test_tie_breaks_to_first_action(self, chain_mdp):
        arch = ArchitectureSpec(height=2, width=4, sparsity=100, weight_bound=5.0)
        net = ReluNetwork.zeros(2, arch)  # constant in the action
        policy = greedy_policy(net, chain_mdp.action_grid)
        acts = policy.act(chain_mdp.kernel.nodes[:, None])
        np.testing.assert_array_equal(acts, 0)

    def test_monotone_q_picks_last_action(self):
        grid = np.array([0.0, 0.5, 1.0])
        net = ReluNetwork([np.array([[0.0, 1.0]])], [np.array([0.0])],
                          sparsity=10, weight_bound=5.0, output_clamp=False)
        policy = greedy_policy(net, grid)
        acts = policy.act(np.random.default_rng(0).random((6, 1)))
        np.testing.assert_array_equal(acts, 2)

    def test_oracle_q_gives_zero_opl_subopt(self, chain_oracle_star, chain_mdp):
        interp = chain_oracle_star.interpolator(chain_oracle_star.q)
        policy = fqlab.GreedyPolicy(
            lambda states: interp(np.concatenate(
                [np.repeat(states, chain_mdp.n_actions, axis=0),
                 np.tile(chain_mdp.action_grid, len(states))[:, None]], axis=1)
            ).reshape(len(states), chain_mdp.n_actions),
            chain_mdp.n_actions)
        assert subopt(chain_oracle_star, policy) <= 1e-9


class TestBellmanResiduals:
    def _mu_samples(self, chain_mdp, uniform_pi, m=4096):
        data = fqlab.sample_visitation(chain_mdp, uniform_pi, m, seed=77)
        return data.states, data.actions

    def test_exact_image_gives_zero(self, chain_mdp, chain_oracle_pi, uniform_pi):
        rng = np.random.default_rng(0)
        q0 = rng.random((5, 11))
        image = apply_bellman(chain_oracle_pi, q0, uniform_pi)
        trace = fqlab.FqiTrace(
            q_iterates=[net_from_table(chain_oracle_pi, q0),
                        net_from_table(chain_oracle_pi, image)],
            train_losses=np.zeros(1))
        out = measure_bellman_residuals(trace, chain_oracle_pi,
                                        self._mu_samples(chain_mdp, uniform_pi))
        assert out[0] <= 1e-10

    def test_constant_offset_recovered(self, chain_mdp, chain_oracle_pi, uniform_pi):
        rng = np.random.default_rng(1)
        q0 = rng.random((5, 11))
        image = apply_bellman(chain_oracle_pi, q0, uniform_pi)
        trace = fqlab.FqiTrace(
            q_iterates=[net_from_table(chain_oracle_pi, q0),
                        net_from_table(chain_oracle_pi, image + 0.1)],
            train_losses=np.zeros(1))
        out = measure_bellman_residuals(trace, chain_oracle_pi,
                                        self._mu_samples(chain_mdp, uniform_pi))
        assert out[0] == pytest.approx(0.1, abs=1e-10)

    def test_matches_full_grid_quadrature_oracle(self, chain_mdp, chain_oracle_pi,
                                                 uniform_pi, compact_arch):
        # independent re-implementation: residual as a quadrature against the
        # tabulated visitation distribution, compared within 2 standard errors
        data = fqlab.sample_visitation(chain_mdp, uniform_pi, 3000, seed=6)
        cfg = FqiConfig(iterations=3, arch=compact_arch,
                        train=TrainConfig(epochs=30, restarts=1, batch_size=512,
                                          learning_rate=1.5, seed=6))
        _, trace = run_lsvi(data, cfg, chain_oracle_pi)
        m = 20000
        samples = self._mu_samples(chain_mdp, uniform_pi, m)
        rms = measure_bellman_residuals(trace, chain_oracle_pi, samples)
        mu = fqlab.tabulate_visitation(chain_oracle_pi, uniform_pi)
        xg = chain_oracle_pi.x_grid()
        for k in range(3):
            image = apply_bellman(chain_oracle_pi,
                                  lambda p: trace.q_iterates[k].forward(p), uniform_pi)
            diff_sq = (trace.q_iterates[k + 1].forward(xg).reshape(5, 11) - image) ** 2
            exact = float(np.sqrt(np.sum(mu * diff_sq)))
            # delta-method standard error of the sampled rms
            pts = np.concatenate([samples[0], samples[1][:, None]], axis=1)
            sq = (trace.q_iterates[k + 1].forward(pts)
                  - chain_oracle_pi.interpolator(image)(pts)) ** 2
            se = float(sq.std(ddof=1) / np.sqrt(m) / max(2 * rms[k], 1e-12))
            assert abs(rms[k] - exact) <= 2 * se + 1e-12


    def test_unpopulated_oracle_rejected(self, chain_mdp, chain_oracle_pi, uniform_pi):
        q0 = np.zeros((5, 11))
        trace = fqlab.FqiTrace(q_iterates=[net_from_table(chain_oracle_pi, q0)] * 2,
                               train_losses=np.zeros(1))
        with pytest.raises(ValueError):
            measure_bellman_residuals(trace, build_oracle(chain_mdp),
                                      self._mu_samples(chain_mdp, uniform_pi, 64))


class TestExactRegressionContraction:
    def test_contracts_every_iteration(self, chain_mdp, chain_oracle_pi, uniform_pi):
        iterates = run_exact_lsvi(chain_oracle_pi, 30, policy=uniform_pi)
        assert len(iterates) == 31
        errs = [np.abs(q - chain_oracle_pi.q).max() for q in iterates]
        for a, b in zip(errs, errs[1:]):
            assert b <= chain_mdp.gamma * a + chain_oracle_pi.tol

    def test_target_other_than_the_oracles_rejected(self, chain_oracle_pi, chain_oracle_star,
                                                    uniform_pi):
        # iterating T* against Q^pi, or T^pi against Q*, cannot contract to it
        with pytest.raises(ValueError):
            run_exact_lsvi(chain_oracle_pi, 30)
        with pytest.raises(ValueError):
            run_exact_lsvi(chain_oracle_star, 30, policy=uniform_pi)

    def test_optimality_target(self, chain_mdp, chain_oracle_star):
        iterates = run_exact_lsvi(chain_oracle_star, 20, policy=None)
        final_err = np.abs(iterates[-1] - chain_oracle_star.q).max()
        assert final_err <= chain_mdp.gamma ** 20 / (1 - chain_mdp.gamma) + 1e-8


class TestDecompositionBound:
    def test_zero_residuals_leave_algorithmic_tail(self):
        g, K = 0.9, 10
        assert decomposition_bound("ope", 4.0, g, K, 0.0) == pytest.approx(
            g ** (K / 2) / np.sqrt(1 - g))
        assert decomposition_bound("opl", 4.0, g, K, 0.0) == pytest.approx(
            4 * g ** (1 + K / 2) / (1 - g) ** 1.5)

    def test_tail_vanishes_with_iterations(self):
        vals = [decomposition_bound("ope", 2.0, 0.9, k, 0.05) for k in (5, 20, 80, 320)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(np.sqrt(2.0) / 0.1 * 0.05, rel=1e-3)


def exact_ope_error_and_bound(mdp, pi, eta, residual_draw):
    """OPE sub-optimality of Q_K and its decomposition bound, all exact on the grid.

    residual_draw(shape) gives the (K, S, A) residual tables;
    Q_k = T^pi Q_{k-1} + residuals[k-1] from Q_0 = 0.  The residual norms are
    taken in L2 of eta's discounted visitation, and kappa is the largest
    density ratio of pi's state-action distributions at horizons 0..K-1
    against it, the coefficient the error propagation
    Q^pi - Q_K = -sum_k (gamma P^pi)^(K-k) eps_k + (gamma P^pi)^K Q^pi needs.
    Also returns the accuracy of the error itself: value iteration stops
    within gamma tol / (1 - gamma) of Q^pi, plus float rounding.
    """
    oracle = ground_truth(build_oracle(mdp, tol=1e-12), pi)
    residuals = residual_draw(oracle.rewards.shape)
    q = np.zeros_like(oracle.rewards)
    for eps in residuals:
        q = apply_bellman(oracle, q, pi) + eps
    mu = tabulate_visitation(oracle, eta)
    max_residual = max(float(np.sqrt(np.sum(mu * eps ** 2))) for eps in residuals)
    kappa = estimate_concentration(oracle, eta, [pi], range(len(residuals))).kappa_hat
    bound = decomposition_bound("ope", kappa, mdp.gamma, len(residuals), max_residual)
    accuracy = mdp.gamma * oracle.tol / (1 - mdp.gamma) + 1e-14
    return subopt(oracle, oracle.value_of(q, pi)), bound, kappa, accuracy


def normalized_mdp(which, gamma):
    """Mean rewards in [0, 1 - gamma], so every Q^pi lies in [0, 1]."""
    if which == "chain5":
        return fqlab.make_chain_mdp(n_states=5, gamma=gamma, n_actions=11)
    if which == "two_state":
        return fqlab.make_finite_mdp(matrix=[[0.9, 0.1], [0.2, 0.8]], gamma=gamma,
                                     node_rewards=[0.2 * (1 - gamma), 0.8 * (1 - gamma)])
    return fqlab.make_single_state_mdp(gamma=gamma, reward=0.5 * (1 - gamma), n_actions=3)


class TestExactDecompositionBound:
    """fqi.decomposition_bound against the error propagation it encodes
    (Munos & Szepesvari 2008), with every quantity exact on a grid oracle."""

    def test_ope_bound_holds(self, softmax_policy):
        @given(st.sampled_from(["chain5", "two_state", "single_state"]),
               st.floats(0.05, 0.95), st.integers(1, 30), st.floats(0.0, 2.0),
               st.integers(0, 2 ** 32 - 1))
        def check(which, gamma, iterations, scale, seed):
            mdp = normalized_mdp(which, gamma)
            rng = np.random.default_rng(seed)
            logits = (mdp.state_dim, mdp.n_actions)
            pi = softmax_policy(rng.uniform(-6, 6, logits), rng.uniform(-6, 6, logits[1]))
            eta = softmax_policy(rng.uniform(-3, 3, logits), rng.uniform(-3, 3, logits[1]))
            # |eps| <= scale (1 - gamma) keeps every |Q_k| <= 3
            top = scale * (1 - gamma)
            err, bound, _, accuracy = exact_ope_error_and_bound(
                mdp, pi, eta, lambda shape: rng.uniform(-top, top, (iterations,) + shape))
            assert err <= bound + accuracy

        check()

    @pytest.mark.parametrize("gamma", [0.5, 0.8])
    def test_tight_on_single_state_with_constant_negative_residuals(self, gamma):
        # pi = eta gives kappa = 1; eps_k = -c adds to the tail at every step,
        # so V^pi - V_K = c (1 - gamma^K) / (1 - gamma) + gamma^K V^pi, and only
        # the algorithmic tail is left as slack
        K, c, reward = 30, 0.3 * (1 - gamma), 0.5 * (1 - gamma)
        mdp = fqlab.make_single_state_mdp(gamma=gamma, reward=reward, n_actions=3)
        pi = UniformPolicy(3)
        err, bound, kappa, accuracy = exact_ope_error_and_bound(
            mdp, pi, pi, lambda shape: np.full((K,) + shape, -c))
        v_pi = reward / (1 - gamma)
        assert kappa == pytest.approx(1.0, abs=1e-12)
        assert err == pytest.approx(c * (1 - gamma ** K) / (1 - gamma) + gamma ** K * v_pi,
                                    abs=accuracy)
        assert err <= bound
        assert bound - err <= decomposition_bound("ope", kappa, gamma, K, 0.0)


class TestReuseVsSplit:
    def test_k1_modes_coincide_exactly(self, compact_arch):
        report = run_sweep(ExperimentConfig(
            mdp={"kind": "chain5", "gamma": 0.9, "noise": 0.1}, n_values=(500,),
            k_values=(1,), seeds=(0, 1), data_modes=("reuse", "split"), arch=compact_arch,
            train=TrainConfig(epochs=20, restarts=1, batch_size=256, learning_rate=1.2),
            residual_samples=64, probe_horizons=(0,)))
        by_mode = {m: [r.subopt for r in report.records if r.data_mode == m]
                   for m in ("reuse", "split")}
        np.testing.assert_array_equal(by_mode["reuse"], by_mode["split"])

    def test_split_needs_enough_data(self, chain_mdp, chain_oracle_pi, uniform_pi,
                                     compact_arch, fast_train):
        data = fqlab.sample_visitation(chain_mdp, uniform_pi, 5, seed=0)
        cfg = FqiConfig(iterations=10, arch=compact_arch, train=fast_train, data_mode="split")
        with pytest.raises(ValueError):
            run_lsvi(data, cfg, chain_oracle_pi)

    def test_gamma_zero_sample_size_effect(self, compact_arch):
        # at gamma = 0 the modes differ only in regression sample size; with a
        # monotone learning curve the split error is at least the reuse error
        report = run_sweep(ExperimentConfig(
            mdp={"kind": "chain5", "gamma": 0.0, "noise": 0.1}, n_values=(4096,),
            k_values=(8,), seeds=tuple(range(6)), data_modes=("reuse", "split"),
            arch=compact_arch,
            train=TrainConfig(epochs=40, restarts=1, batch_size=512, learning_rate=1.5),
            residual_samples=64, probe_horizons=(0,), jobs=2))
        mean_reuse, mean_split, pooled_stderr = reuse_vs_split(report)
        assert mean_reuse <= mean_split + pooled_stderr
