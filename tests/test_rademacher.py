import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln

import fqlab
from fqlab import harness, rademacher
from fqlab.rademacher import (FiniteFunctionClass, NetworkFunctionClass,
                              RateExponents, SubRootSpec, empirical_rademacher,
                              localized_rademacher, rate_exponent, sub_root_fixed_point)
from fqlab.relunet import ArchitectureSpec, ReluNetwork, TrainConfig, TrainingDiverged


def all_sign_patterns(n_points):
    """The class of every +-1 labeling of the points: 2^n functions."""
    codes = np.arange(2 ** n_points)[:, None]
    return FiniteFunctionClass(2.0 * ((codes >> np.arange(n_points)) & 1) - 1.0)


def exact_mean_abs_sign_sum(n):
    """E |sum of n signs| / n by direct binomial enumeration."""
    k = np.arange(n + 1)
    log_pmf = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) - n * math.log(2)
    return float(np.sum(np.exp(log_pmf) * np.abs(2 * k - n)) / n)


class TestEmpiricalRademacher:
    def test_zero_singleton_class(self):
        cls = FiniteFunctionClass(np.zeros((1, 50)))
        est = empirical_rademacher(cls, None, sigma_draws=100, seed=0)
        assert est.value == 0.0
        assert est.sup_method == "exhaustive"
        assert est.bias_note is None

    def test_singleton_class_small(self):
        # signed mean of a fixed +-1 vector: |estimate| <= 3 / sqrt(n * draws)
        n, draws = 400, 400
        cls = FiniteFunctionClass(np.ones((1, n)))
        est = empirical_rademacher(cls, None, sigma_draws=draws, seed=1)
        assert abs(est.value) <= 3.0 / math.sqrt(n * draws)

    def test_sign_constants_match_binomial_oracle(self):
        n, draws = 100, 2000
        cls = FiniteFunctionClass(np.vstack([np.ones(n), -np.ones(n)]))
        est = empirical_rademacher(cls, None, sigma_draws=draws, seed=2)
        oracle = exact_mean_abs_sign_sum(n)
        assert abs(oracle - math.sqrt(2 / (math.pi * n))) < 0.01
        assert abs(est.value - oracle) <= 0.005

    def test_shattering_class_is_one(self):
        cls = all_sign_patterns(10)
        est = empirical_rademacher(cls, None, sigma_draws=25, seed=3)
        assert est.value == 1.0

    def test_network_class_is_labeled_lower_estimate(self):
        spec = ArchitectureSpec(height=2, width=8, sparsity=10**4, weight_bound=5.0)
        cls = NetworkFunctionClass(spec, TrainConfig(epochs=40, restarts=1), input_dim=2)
        xs = np.random.default_rng(0).random((64, 2))
        est = empirical_rademacher(cls, xs, sigma_draws=3, seed=4)
        assert est.sup_method == "trained"
        assert "lower estimate" in est.bias_note
        assert 0.0 <= est.value <= 1.0


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(5)
    spec = ArchitectureSpec(height=2, width=8, sparsity=10**4, weight_bound=5.0)
    anchor = ReluNetwork.random(2, spec, rng)
    xs = rng.random((64, 2))
    mu = rng.random((256, 2))
    return spec, anchor, xs, mu


class TestLocalizedRademacher:
    def test_degenerate_radius_vanishes(self, setup):
        spec, anchor, xs, mu = setup
        est = localized_rademacher(spec, anchor, 1e-10, xs, mu, sigma_draws=3, seed=0)
        assert 0.0 <= est.value <= 2e-3

    def test_huge_radius_matches_unconstrained(self, setup):
        # radius 4 >= the squared diameter of the clamped class: the penalty
        # never binds, so the run equals the unconstrained ascent exactly
        spec, anchor, xs, mu = setup
        a = localized_rademacher(spec, anchor, 4.0, xs, mu, sigma_draws=3, seed=1)
        b = localized_rademacher(spec, anchor, 1e9, xs, mu, sigma_draws=3, seed=1)
        assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_monotone_in_radius_on_average(self, setup):
        spec, anchor, xs, mu = setup
        small, large = [], []
        for seed in range(5):
            small.append(localized_rademacher(spec, anchor, 0.01, xs, mu, 2, seed).value)
            large.append(localized_rademacher(spec, anchor, 1.0, xs, mu, 2, seed).value)
        assert np.mean(small) <= np.mean(large) + 1e-12

    def test_rejects_nonpositive_radius(self, setup):
        spec, anchor, xs, mu = setup
        with pytest.raises(ValueError):
            localized_rademacher(spec, anchor, 0.0, xs, mu, 1, 0)

    def test_rejects_no_sign_draw(self, setup):
        spec, anchor, xs, mu = setup
        with pytest.raises(ValueError, match="sign draw"):
            localized_rademacher(spec, anchor, 0.1, xs, mu, sigma_draws=0, seed=0)

    def test_rejects_empty_xs(self, setup):
        spec, anchor, xs, mu = setup
        with pytest.raises(ValueError, match="nonempty"):
            localized_rademacher(spec, anchor, 0.1, xs[:0], mu, 2, 0)

    def test_rejects_empty_mu_samples(self, setup):
        spec, anchor, xs, mu = setup
        with pytest.raises(ValueError, match="nonempty"):
            localized_rademacher(spec, anchor, 0.1, xs, mu[:0], 2, 0)

    def test_rejects_spec_that_disagrees_with_anchor(self, setup):
        spec, anchor, xs, mu = setup
        for other in (replace(spec, sparsity=3, weight_bound=0.01), replace(spec, sparsity=3),
                      replace(spec, weight_bound=0.01), replace(spec, width=16),
                      replace(spec, height=3)):
            with pytest.raises(ValueError, match="disagrees"):
                localized_rademacher(other, anchor, 0.5, xs, mu, 3, 0)

    def test_one_layer_anchor_has_no_width_to_check(self, setup):
        _, _, xs, mu = setup
        spec = ArchitectureSpec(height=1, width=8, sparsity=10**4, weight_bound=5.0)
        anchor = ReluNetwork.random(2, spec, np.random.default_rng(0))
        est = localized_rademacher(spec, anchor, 0.5, xs, mu, 2, 0, ascent_steps=20)
        assert est.value >= 0.0


def reference_localized(anchor, radius, xs, mu_samples, sigma_draws, seed,
                        ascent_steps=120, ascent_lr=0.1, penalty=10.0, restarts=2):
    """The per-candidate ascent, one network at a time through the public
    methods, kept as the reference the stacked ascent must reproduce.

    Returns (per_draw, value, bias_note, penalized), where penalized lists,
    per candidate, the steps at which the hinge penalty was added.
    """
    n, m = len(xs), len(mu_samples)
    anchor_xs = anchor.forward(xs)
    anchor_mu = anchor.forward(mu_samples)
    rng = np.random.default_rng(seed)
    sups = np.empty(sigma_draws)
    rejected_all = True
    penalized = []
    for i in range(sigma_draws):
        sigma = rng.choice([-1.0, 1.0], size=n)
        best = 0.0
        for _ in range(restarts):
            steps_over = set()
            cand = anchor.copy()
            for l in range(cand.height):
                cand.weights[l] = cand.weights[l] + 0.01 * rng.standard_normal(cand.weights[l].shape)
            cand._project_inplace()
            for step in range(ascent_steps):
                out_mu = cand.forward(mu_samples, clamp=False)
                sq = float(np.mean((out_mu - anchor_mu) ** 2))
                grad = cand.weighted_output_gradient(xs, sigma / n)
                if sq > radius:
                    steps_over.add(step)
                    grad = grad + cand.weighted_output_gradient(
                        mu_samples, -penalty * 2.0 * (out_mu - anchor_mu) / m)
                cand.params += ascent_lr * grad
                if (step + 1) % 20 == 0 or step + 1 == ascent_steps:
                    cand._project_inplace()
                    f_xs = cand.forward(xs)
                    f_mu = cand.forward(mu_samples)
                    if float(np.mean((f_mu - anchor_mu) ** 2)) <= radius:
                        rejected_all = False
                        best = max(best, float(sigma @ (f_xs - anchor_xs) / n))
            penalized.append(steps_over)
        sups[i] = best
    note = "trained supremum: lower estimate of the true sup"
    if rejected_all:
        note += "; no ascent candidate stayed inside the radius (estimate is the anchor's 0)"
    return sups, float(sups.mean()), note, penalized


def headed_anchor(spec, rng, input_dim=2, clamp=True):
    # random hidden layers and a nonzero head, so the anchor is not constant
    net = ReluNetwork.random(input_dim, spec, rng, output_clamp=clamp)
    net.weights[-1] = rng.uniform(-0.3, 0.3, net.weights[-1].shape)
    net.biases[-1] = np.array([0.5])
    return net


def stacked_and_reference(spec, anchor, radius, xs, mu, draws, seed, **kw):
    est = localized_rademacher(spec, anchor, radius, xs, mu, draws, seed, **kw)
    ref = reference_localized(anchor, radius, xs, mu, draws, seed, **kw)
    assert est.per_draw.tobytes() == ref[0].tobytes()
    assert est.value == ref[1]
    assert est.bias_note == ref[2]
    return est, ref


class TestStackedAscentMatchesReference:
    """The stacked ascent reproduces the per-candidate loop bit for bit."""

    @pytest.fixture(scope="class")
    def small(self):
        rng = np.random.default_rng(31)
        spec = ArchitectureSpec(height=2, width=8, sparsity=10**4, weight_bound=5.0)
        return spec, headed_anchor(spec, rng), rng.random((48, 2)), rng.random((96, 2))

    def test_benchmark_shape(self):
        rng = np.random.default_rng(30)
        spec = ArchitectureSpec(height=2, width=16, sparsity=10**6, weight_bound=8.0)
        anchor = headed_anchor(spec, rng)
        xs, mu = rng.random((128, 2)), rng.random((256, 2))
        est, _ = stacked_and_reference(spec, anchor, 0.16, xs, mu, 10, 7)
        assert np.any(est.per_draw > 0.0)

    def test_binding_sparsity_prunes(self):
        rng = np.random.default_rng(32)
        spec = ArchitectureSpec(height=3, width=5, sparsity=20, weight_bound=2.0)
        anchor = headed_anchor(spec, rng)
        assert anchor.params.size > spec.sparsity
        stacked_and_reference(spec, anchor, 0.05, rng.random((40, 2)),
                              rng.random((80, 2)), 3, 8)

    def test_penalty_binds_for_some_candidates_only(self, small):
        spec, anchor, xs, mu = small
        _, ref = stacked_and_reference(spec, anchor, 2e-4, xs, mu, 3, 9, ascent_steps=60)
        penalized = ref[3]
        assert any(0 < sum(step in steps for steps in penalized) < len(penalized)
                   for step in range(60))

    def test_all_candidates_rejected(self, small):
        spec, anchor, xs, mu = small
        est, _ = stacked_and_reference(spec, anchor, 1e-12, xs, mu, 3, 10, ascent_steps=40)
        assert "no ascent candidate" in est.bias_note
        assert np.all(est.per_draw == 0.0)

    def test_unclamped_anchor(self):
        rng = np.random.default_rng(33)
        spec = ArchitectureSpec(height=2, width=8, sparsity=10**4, weight_bound=5.0)
        anchor = headed_anchor(spec, rng, clamp=False)
        stacked_and_reference(spec, anchor, 0.05, rng.random((48, 2)),
                              rng.random((96, 2)), 3, 11, ascent_steps=60)

    def test_several_chunks(self, small, monkeypatch):
        spec, anchor, xs, mu = small
        # two draws of two restarts per chunk: five draws take three chunks
        monkeypatch.setattr(rademacher, "_STACK_ELEMENTS", 2 * 2 * len(mu) * spec.width)
        stacked_and_reference(spec, anchor, 0.02, xs, mu, 5, 12, ascent_steps=40)


FORKED_MAP = harness._forked_map


def forks_with_cores(monkeypatch, cores):
    """Let the estimators see cores usable cores; returns a list that gets
    the worker count of every fork."""
    forks = []

    def spy(fn, items, workers, here=0):
        forks.append(workers)
        return FORKED_MAP(fn, items, workers, here)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(harness, "_forked_map", spy)
    return forks


def estimate_bytes(est):
    return est.per_draw.tobytes(), est.value, est.stderr, est.bias_note


class TestSplitDraws:
    """Whole sign draws split across forked workers give the bytes of one process."""

    @pytest.fixture(scope="class")
    def small(self):
        rng = np.random.default_rng(31)
        spec = ArchitectureSpec(height=2, width=8, sparsity=10**4, weight_bound=5.0)
        return spec, headed_anchor(spec, rng), rng.random((48, 2)), rng.random((96, 2))

    @pytest.fixture(scope="class")
    def net_class(self):
        spec = ArchitectureSpec(height=2, width=8, sparsity=10**4, weight_bound=5.0)
        cls = NetworkFunctionClass(spec, TrainConfig(epochs=10, restarts=1), input_dim=2)
        return cls, np.random.default_rng(34).random((32, 2))

    def split_matches_one_process(self, monkeypatch, estimate, workers):
        forks = forks_with_cores(monkeypatch, 1)
        alone = estimate()
        assert forks == []
        forks = forks_with_cores(monkeypatch, workers)
        split = estimate()
        assert estimate_bytes(split) == estimate_bytes(alone)
        return forks, split

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("draws", [1, 2, 3, 10])
    def test_localized(self, small, monkeypatch, draws, workers):
        spec, anchor, xs, mu = small
        forks, _ = self.split_matches_one_process(monkeypatch, lambda: localized_rademacher(
            spec, anchor, 0.02, xs, mu, draws, 12, ascent_steps=40), workers)
        # the parent computes one part, the workers the others
        assert forks == ([min(workers, draws) - 1] if draws > 1 else [])

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("draws", [1, 2, 3, 10])
    def test_empirical(self, net_class, monkeypatch, draws, workers):
        cls, xs = net_class
        forks, _ = self.split_matches_one_process(
            monkeypatch, lambda: empirical_rademacher(cls, xs, draws, 13), workers)
        assert forks == ([min(workers, draws) - 1] if draws > 1 else [])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_several_chunks(self, small, monkeypatch, workers):
        spec, anchor, xs, mu = small
        # three draws of two restarts per chunk: seven draws take three chunks
        monkeypatch.setattr(rademacher, "_STACK_ELEMENTS", 3 * 2 * len(mu) * spec.width)
        forks, _ = self.split_matches_one_process(monkeypatch, lambda: localized_rademacher(
            spec, anchor, 0.02, xs, mu, 7, 12, ascent_steps=40), workers)
        assert forks == [workers - 1, workers - 1]  # the one-draw chunk runs here

    @pytest.mark.parametrize("workers", [2, 3])
    def test_all_candidates_rejected(self, small, monkeypatch, workers):
        # the stacked-ascent case: every part rejects, so the caveat stays
        spec, anchor, xs, mu = small
        _, est = self.split_matches_one_process(monkeypatch, lambda: localized_rademacher(
            spec, anchor, 1e-12, xs, mu, 3, 10, ascent_steps=40), workers)
        assert "no ascent candidate" in est.bias_note

    @pytest.mark.parametrize("workers", [2, 3])
    def test_one_part_accepts(self, small, monkeypatch, workers):
        # only draw 1, which a worker ascends, has a candidate inside the ball:
        # the parent's part rejects, and the caveat must not appear
        spec, anchor, xs, mu = small
        _, est = self.split_matches_one_process(monkeypatch, lambda: localized_rademacher(
            spec, anchor, 0.004, xs, mu, 3, 11, ascent_steps=40), workers)
        assert est.bias_note == "trained supremum: lower estimate of the true sup"
        assert est.per_draw[0] == est.per_draw[2] == 0.0 < est.per_draw[1]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_penalty_binds_for_some_candidates_only(self, small, monkeypatch, workers):
        spec, anchor, xs, mu = small
        self.split_matches_one_process(monkeypatch, lambda: localized_rademacher(
            spec, anchor, 2e-4, xs, mu, 3, 9, ascent_steps=60), workers)


class TestSplitFailures:
    """A failing or dying worker ends as a documented exception, never a hang,
    and leaves no child running and the caller's BLAS thread counts as they were."""

    @pytest.fixture(scope="class")
    def small(self):
        rng = np.random.default_rng(35)
        spec = ArchitectureSpec(height=2, width=8, sparsity=10**4, weight_bound=5.0)
        return spec, headed_anchor(spec, rng), rng.random((32, 2)), rng.random((64, 2))

    def estimators(self, small):
        spec, anchor, xs, mu = small
        cls = NetworkFunctionClass(spec, TrainConfig(epochs=5, restarts=1), input_dim=2)
        return {"localized": lambda: localized_rademacher(spec, anchor, 0.02, xs, mu, 4, 0,
                                                          ascent_steps=20),
                "empirical": lambda: empirical_rademacher(cls, xs, 4, 0)}

    def fail_in_workers(self, monkeypatch, name, failure):
        # patched before the fork, so the workers inherit it; the parent's
        # own part runs the real kernel
        parent, real = os.getpid(), getattr(rademacher, name)

        def patched(*args, **kwargs):
            if os.getpid() != parent:
                failure()
            return real(*args, **kwargs)

        monkeypatch.setattr(rademacher, name, patched)

    @pytest.mark.parametrize("which, kernel", [("localized", "_forward"),
                                               ("empirical", "fit_least_squares")])
    def test_a_worker_exception_reaches_the_caller(self, small, monkeypatch, blas_thread_counts,
                                                   which, kernel):
        def diverge():
            raise TrainingDiverged("all 1 restart(s) exceeded 10x the initial loss")

        forks_with_cores(monkeypatch, 2)
        self.fail_in_workers(monkeypatch, kernel, diverge)
        before = blas_thread_counts()
        with pytest.raises(TrainingDiverged, match="all 1 restart"):
            self.estimators(small)[which]()
        assert multiprocessing.active_children() == []
        assert blas_thread_counts() == before

    @pytest.mark.parametrize("which, kernel", [("localized", "_forward"),
                                               ("empirical", "fit_least_squares")])
    def test_a_dead_worker_raises_broken_pool(self, small, monkeypatch, blas_thread_counts,
                                              which, kernel):
        forks_with_cores(monkeypatch, 3)
        self.fail_in_workers(monkeypatch, kernel, lambda: os._exit(3))
        before = blas_thread_counts()
        with pytest.raises(BrokenProcessPool):
            self.estimators(small)[which]()
        assert multiprocessing.active_children() == []
        assert blas_thread_counts() == before


class TestSplitFallbacks:
    """Where forking is not possible or not useful, the draws run here, with
    the same bytes."""

    @pytest.fixture(scope="class")
    def estimators(self):
        rng = np.random.default_rng(36)
        spec = ArchitectureSpec(height=2, width=8, sparsity=10**4, weight_bound=5.0)
        anchor, xs, mu = headed_anchor(spec, rng), rng.random((32, 2)), rng.random((64, 2))
        cls = NetworkFunctionClass(spec, TrainConfig(epochs=5, restarts=1), input_dim=2)
        return [lambda: localized_rademacher(spec, anchor, 0.02, xs, mu, 4, 1, ascent_steps=20),
                lambda: empirical_rademacher(cls, xs, 4, 1)]

    def split(self, estimators, monkeypatch):
        forks = forks_with_cores(monkeypatch, 2)
        out = [estimate_bytes(estimate()) for estimate in estimators]
        assert forks == [1, 1]
        return out

    def test_one_usable_core(self, estimators, monkeypatch):
        split = self.split(estimators, monkeypatch)
        forks = forks_with_cores(monkeypatch, 1)
        assert [estimate_bytes(estimate()) for estimate in estimators] == split
        assert forks == []

    def test_a_platform_without_fork(self, estimators, monkeypatch):
        split = self.split(estimators, monkeypatch)
        forks = forks_with_cores(monkeypatch, 2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert [estimate_bytes(estimate()) for estimate in estimators] == split
        assert forks == []

    def test_a_daemonic_process(self, estimators, monkeypatch):
        split = self.split(estimators, monkeypatch)
        forks = forks_with_cores(monkeypatch, 2)
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def estimate_and_send():
            send.send(([estimate_bytes(estimate()) for estimate in estimators], forks))

        proc = ctx.Process(target=estimate_and_send, daemon=True)
        proc.start()
        send.close()  # a child that dies without sending ends recv with EOFError
        assert receive.poll(120) and receive.recv() == (split, [])
        proc.join(60)
        assert proc.exitcode == 0


class TestSubRootFixedPoint:
    def test_sqrt_fixed_point_is_one(self):
        psi = SubRootSpec(form="affine", a=1.0, b=0.0)
        assert sub_root_fixed_point(psi, r_max=10.0, tol=1e-10) == pytest.approx(1.0, abs=1e-10)

    def test_constant_fixed_point(self):
        psi = SubRootSpec(form="affine", a=0.0, b=0.37)
        assert sub_root_fixed_point(psi, 10.0, 1e-10) == pytest.approx(0.37, abs=1e-10)

    def test_affine_example(self):
        psi = SubRootSpec(form="affine", a=2.0, b=3.0)
        assert psi.closed_form_fixed_point() == pytest.approx(9.0)
        assert sub_root_fixed_point(psi, 100.0, 1e-10) == pytest.approx(9.0, abs=1e-10)

    def test_closed_form_matches_bisection_on_1000_random_specs(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            a = float(rng.uniform(1e-3, 10.0))
            b = float(rng.uniform(1e-3, 10.0))
            psi = SubRootSpec(form="affine", a=a, b=b)
            exact = psi.closed_form_fixed_point()
            approx = sub_root_fixed_point(psi, r_max=2 * exact + 1.0, tol=1e-10)
            assert abs(approx - exact) <= 1e-9

    @given(st.floats(0.0, 100.0), st.floats(1e-6, 100.0))
    def test_bisection_matches_closed_form(self, a, b):
        # affine psi(r) = a sqrt(r) + b is sub-root, with the unique positive
        # fixed point of Bartlett, Bousquet & Mendelson (2005)
        psi = SubRootSpec(form="affine", a=a, b=b)
        exact = psi.closed_form_fixed_point()
        approx = sub_root_fixed_point(psi, r_max=2 * exact + 1.0, tol=1e-10)
        assert abs(approx - exact) <= 1e-9 * max(1.0, exact)

    def test_tabulated_form(self):
        r = np.geomspace(1e-8, 10.0, 200)
        psi = SubRootSpec(form="tabulated", r_values=r, psi_values=2 * np.sqrt(r) + 3)
        # linear interpolation of a concave curve lies above it: root shifts slightly
        assert sub_root_fixed_point(psi, 100.0, 1e-6) == pytest.approx(9.0, abs=0.05)

    def test_rejects_bad_bracket(self):
        psi = SubRootSpec(form="affine", a=0.0, b=1e-22)  # below the bracket floor
        with pytest.raises(ValueError):
            sub_root_fixed_point(psi, 10.0, 1e-10)
        with pytest.raises(ValueError):
            sub_root_fixed_point(SubRootSpec(form="affine", a=1.0, b=1.0), 0.5, 1e-3)

    @pytest.mark.parametrize("kwargs", [
        {"form": "affine"}, {"form": "affine", "a": 1.0}, {"form": "tabulated"},
        {"form": "tabulated", "r_values": np.ones(3)}, {"form": "bogus", "a": 1.0, "b": 1.0},
        {"form": "theoretical", "a": 1.0, "b": 1.0}, {"form": "affine", "a": np.nan, "b": 1.0},
        {"form": "tabulated", "r_values": np.array([0.0, np.nan]), "psi_values": np.ones(2)}])
    def test_rejects_a_form_without_its_fields_at_construction(self, kwargs):
        with pytest.raises(ValueError, match="form"):
            SubRootSpec(**kwargs)

    def test_rejects_non_sub_root(self):
        r = np.geomspace(1e-8, 10.0, 50)
        psi = SubRootSpec(form="tabulated", r_values=r, psi_values=r ** 2 + 0.1)
        with pytest.raises(ValueError):
            sub_root_fixed_point(psi, 10.0, 1e-6)


def theoretical_psi(resolution: int, n: int, alpha: float, d: int, beta: float, r) -> np.ndarray:
    """Statistical-error envelope with unit constants.

    psi(r) = n^(-beta-1/2) sqrt(N (log^2 N + log n)) + n^(-beta(1-d/(2 alpha))-1/2)
           + sqrt(r/n) sqrt(N (log^2 N + log n)) + sqrt(r) n^(-(1-beta d/alpha)/2)
           + 1/n,  with N the network resolution parameter.
    """
    if resolution < 1 or n < 2 or alpha <= 0 or d < 1:
        raise ValueError("domain violation")
    if not (0.0 < beta < alpha / d):
        raise ValueError("need beta in (0, alpha/d)")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("r must be nonnegative")
    log_n = math.log(n)
    cap = math.sqrt(resolution * (math.log(resolution) ** 2 + log_n))
    term1 = n ** (-beta - 0.5) * cap
    term2 = n ** (-beta * (1.0 - d / (2.0 * alpha)) - 0.5)
    term3 = np.sqrt(r / n) * cap
    term4 = np.sqrt(r) * n ** (-0.5 * (1.0 - beta * d / alpha))
    return term1 + term2 + term3 + term4 + 1.0 / n


class TestTheoreticalPsi:
    def test_r_zero_keeps_only_r_free_terms(self):
        val = theoretical_psi(4, 100, 1.0, 1, 0.4, 0.0)
        log_n = math.log(100)
        cap = math.sqrt(4 * (math.log(4) ** 2 + log_n))
        expected = (100 ** -0.9 * cap + 100 ** (-0.4 * 0.5 - 0.5) + 1 / 100)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_hand_computed_value(self):
        # N = 1, n = e (log n = 1), beta = 0.4, alpha = 1, d = 1, r = 1
        n = math.e
        e = math.e
        expected = (e ** -0.9 + e ** -0.7 + e ** -0.5 + e ** -0.3 + e ** -1.0)
        val = theoretical_psi(1, n, 1.0, 1, 0.4, 1.0)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_sub_root_doubling(self):
        rs = np.geomspace(1e-6, 10.0, 40)
        lo = theoretical_psi(16, 10**4, 1.0, 1, 0.4, rs)
        hi = theoretical_psi(16, 10**4, 1.0, 1, 0.4, 4 * rs)
        assert np.all(hi <= 2 * lo + 1e-15)

    def test_monotone_and_sub_root_shape(self):
        rs = np.geomspace(1e-8, 5.0, 60)
        vals = theoretical_psi(16, 10**4, 1.0, 1, 0.4, rs)
        assert np.all(np.diff(vals) >= -1e-15)
        ratio = vals / np.sqrt(rs)
        assert np.all(np.diff(ratio) <= 1e-15)

    def test_fixed_point_exists(self):
        def psi(r):
            return theoretical_psi(16, 10**4, 1.0, 1, 0.4, r)
        r_star = sub_root_fixed_point(psi, r_max=10.0, tol=1e-10)
        assert abs(float(psi(r_star)) - r_star) <= 1e-8

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            theoretical_psi(16, 100, 1.0, 1, 1.5, 1.0)   # beta >= alpha/d
        with pytest.raises(ValueError):
            theoretical_psi(16, 100, 1.0, 1, 0.4, -1.0)  # negative r


class TestRateExponents:
    def test_alpha_one_d_one(self):
        out = rate_exponent(1.0, 1)
        assert out.beta == pytest.approx(0.4)
        assert out.n_exponent == pytest.approx(0.3)
        assert out.sample_exponent == pytest.approx(2.0)
        assert out.stat_exponent == pytest.approx(0.3)

    def test_alpha_two_d_one(self):
        out = rate_exponent(2.0, 1)
        assert out.stat_exponent == pytest.approx(5.0 / 13.0)

    def test_parametric_limit(self):
        out = rate_exponent(1e9, 3)
        assert out.stat_exponent == pytest.approx(0.5, abs=1e-6)
        assert out.sample_exponent == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_alpha_and_d(self):
        alphas = np.linspace(0.5, 6.0, 12)
        stats = [rate_exponent(a, 2).stat_exponent for a in alphas]
        assert all(x < y for x, y in zip(stats, stats[1:]))
        dims = [1, 2, 3, 4, 6]
        stats_d = [rate_exponent(2.0, d).stat_exponent for d in dims]
        assert all(x > y for x, y in zip(stats_d, stats_d[1:]))
