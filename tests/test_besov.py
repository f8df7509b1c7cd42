import dataclasses
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fqlab
from fqlab import besov
from fqlab.besov import (BesovParams, FunctionOnGrid, _axis_step_norms, _pnorm,
                         _step_norm_table, besov_seminorm, diagnose_dynamic_closure,
                         estimate_smoothness_exponent, modulus_of_smoothness,
                         synth_function, translation_difference)


def besov_norm(f, params):
    """The Besov norm, ||f||_p plus the seminorm."""
    return _pnorm(f.values, params.p) + besov_seminorm(f, params)


def grid_1d(fn, g=101):
    xs = np.linspace(0.0, 1.0, g)
    return FunctionOnGrid((xs,), fn(xs))


def log_grid(f, points=25):
    """points log-spaced t values from the grid step up to 1."""
    return np.geomspace(f.min_step, 1.0, points)


def random_grid(shape, seed=0):
    rng = np.random.default_rng(seed)
    return FunctionOnGrid(tuple(np.linspace(0.0, 1.0, g) for g in shape), rng.random(shape))


def take_difference(values, h_steps, order, axis):
    """Reference r-th difference: gathered copies summed into a fresh array."""
    valid = values.shape[axis] - order * h_steps
    out = np.zeros_like(np.take(values, np.arange(valid), axis=axis))
    for k in range(order + 1):
        sl = np.take(values, np.arange(k * h_steps, k * h_steps + valid), axis=axis)
        out = out + comb(order, k) * (-1.0) ** (order - k) * sl
    return out


class TestTranslationDifference:
    def test_second_difference_of_affine_vanishes(self):
        f = grid_1d(lambda x: 3.0 * x - 1.0)
        d = translation_difference(f, h_steps=7, order=2)
        np.testing.assert_allclose(d, 0.0, atol=1e-14)

    def test_first_difference_of_constant_vanishes(self):
        f = grid_1d(lambda x: np.full_like(x, 0.4))
        d = translation_difference(f, h_steps=3, order=1)
        np.testing.assert_array_equal(d, 0.0)

    def test_square_second_difference_is_2h2(self):
        f = grid_1d(lambda x: x ** 2, g=101)
        d = translation_difference(f, h_steps=10, order=2)  # h = 0.1
        np.testing.assert_allclose(d, 0.02, atol=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        xs = np.linspace(0, 1, 64)
        f = FunctionOnGrid((xs,), rng.random(64))
        g = FunctionOnGrid((xs,), rng.random(64))
        combo = FunctionOnGrid((xs,), 2.0 * f.values - 0.5 * g.values)
        lhs = translation_difference(combo, 4, 2)
        rhs = 2.0 * translation_difference(f, 4, 2) - 0.5 * translation_difference(g, 4, 2)
        # exact up to float reassociation of the scaled sums
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_step_too_large(self):
        f = grid_1d(lambda x: x, g=8)
        with pytest.raises(ValueError):
            translation_difference(f, h_steps=5, order=2)

    def test_axis_selection_2d(self):
        xs = np.linspace(0, 1, 16)
        vals = np.add.outer(xs ** 2, np.zeros(16))
        f = FunctionOnGrid((xs, xs), vals)
        d0 = translation_difference(f, 2, 2, axis=0)
        d1 = translation_difference(f, 2, 2, axis=1)
        assert np.abs(d0).max() > 1e-6
        np.testing.assert_allclose(d1, 0.0, atol=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_gathered_reference_on_both_axes(self, order):
        f = random_grid((23, 17), seed=order)
        for axis in (0, 1):
            for h in range(1, (f.values.shape[axis] - 1) // order + 1):
                d = translation_difference(f, h, order, axis)
                # equal up to the sign of an exact zero
                assert np.array_equal(d, take_difference(f.values, h, order, axis))


class TestModulus:
    @pytest.mark.parametrize("shape", [(41,), (19, 14)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_step_norms_bit_identical_to_public_difference(self, shape, order, p):
        f = random_grid(shape, seed=len(shape) * 10 + order)
        expected = []
        for axis in range(f.ndim):
            for j in range(1, (f.values.shape[axis] - 1) // order + 1):
                d = translation_difference(f, j, order, axis)
                expected.append((j * f.step(axis), _pnorm(d, p)))
        expected.sort(key=lambda hv: hv[0])
        hs, norms = _axis_step_norms(f, order, p)
        # norms are abs-based, so == on the floats is bit-for-bit equality
        assert list(zip(hs.tolist(), norms.tolist())) == expected
        # the memoized table holds those steps and, behind a 0, their running max
        table_hs, sup_norms = _step_norm_table(f, order, p)
        assert table_hs.tolist() == [h for h, _ in expected]
        assert sup_norms.tolist() == [0.0] + list(np.maximum.accumulate([v for _, v in expected]))

    def test_constant_gives_zero(self):
        f = grid_1d(lambda x: np.full_like(x, 2.0))
        for order in (1, 2):
            for p in (1.0, 2.0, np.inf):
                curve = modulus_of_smoothness(f, order, p, log_grid(f))
                np.testing.assert_array_equal(curve.omega_values, 0.0)

    def test_identity_sup_norm_is_largest_step(self):
        f = grid_1d(lambda x: x, g=101)
        t_grid = np.array([0.5, 0.25, 0.1, 0.033, 0.01])
        curve = modulus_of_smoothness(f, 1, np.inf, t_grid)
        expected = np.floor(t_grid / 0.01 + 1e-9) * 0.01
        np.testing.assert_allclose(curve.omega_values, expected, atol=1e-12)

    def test_linear_second_order_zero(self):
        f = grid_1d(lambda x: 5.0 * x)
        curve = modulus_of_smoothness(f, 2, 2.0, log_grid(f))
        np.testing.assert_allclose(curve.omega_values, 0.0, atol=1e-12)

    def test_monotone_in_t(self):
        f = synth_function("weierstrass", 0.5, resolution=513)
        for p in (1.0, np.inf):
            curve = modulus_of_smoothness(f, 1, p, log_grid(f))
            # t descending: omega must be nonincreasing
            assert np.all(np.diff(curve.omega_values) <= 1e-12)

    def test_translation_invariance(self):
        f = synth_function("weierstrass", 0.7, resolution=257)
        g = FunctionOnGrid(f.axes, f.values + 3.3)
        cf = modulus_of_smoothness(f, 1, 2.0, log_grid(f))
        cg = modulus_of_smoothness(g, 1, 2.0, log_grid(g))
        np.testing.assert_allclose(cf.omega_values, cg.omega_values, atol=1e-12)

    @pytest.mark.parametrize("order", [0, -1])
    def test_rejects_an_order_below_one(self, order):
        f = grid_1d(lambda x: x)
        with pytest.raises(ValueError, match="order must be >= 1"):
            modulus_of_smoothness(f, order, 2.0, log_grid(f))

    def test_rejects_an_order_that_leaves_no_step_on_any_axis(self):
        f = random_grid((19, 14))
        assert modulus_of_smoothness(f, 18, 2.0, log_grid(f)).omega_values[0] > 0  # one step
        with pytest.raises(ValueError, match="no step"):
            modulus_of_smoothness(f, 19, 2.0, log_grid(f))

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("p", [np.nan, 0.0, 0.5, -1.0])
    def test_rejects_a_p_that_is_not_a_norm(self, order, p):
        f = synth_function("weierstrass", 0.5, resolution=65)
        with pytest.raises(ValueError, match="p must be >= 1"):
            modulus_of_smoothness(f, order, p, log_grid(f))
        with pytest.raises(ValueError, match="p must be >= 1"):
            estimate_smoothness_exponent(f, order, p)

    @pytest.mark.parametrize("estimate", [
        lambda f: estimate_smoothness_exponent(f, 0, np.inf),
        lambda f: estimate_smoothness_exponent(f, 65, np.inf),
        lambda f: besov_seminorm(f, BesovParams(alpha=5000.0))])
    def test_the_estimators_inherit_the_order_checks(self, estimate):
        with pytest.raises(ValueError, match="order"):
            estimate(grid_1d(lambda x: x, g=65))


def landing_t(f, axis, lag):
    """A resolvable t whose slackened t * (1 + 1e-12) is lag steps on axis
    exactly, if one lies within 8 ulps, so that counting the steps <= it and
    the steps < it differ; the grid step if that t is unresolvable."""
    target = (np.arange(1, f.values.shape[axis]) * f.step(axis))[lag - 1]
    t = target / (1 + 1e-12)
    for _ in range(8):
        if t * (1 + 1e-12) == target:
            break
        t = np.nextafter(t, np.inf if t * (1 + 1e-12) < target else -np.inf)
    return t if t >= f.min_step * (1 - 1e-12) else f.min_step


@st.composite
def sup_norm_cases(draw):
    """(f, t): a 1-d or 2-d grid, its values drawn from a pool (repeats, +-0.0
    and, for a pool of one, constants), and t values >= the grid step: on step
    multiples, random, above 1, and repeated."""
    shape = tuple(draw(st.lists(st.integers(4, 30), min_size=1, max_size=2)))
    pool = draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3),
                         min_size=1, max_size=5))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(pool, size=shape)
    f = FunctionOnGrid(tuple(np.linspace(0.0, 1.0, g) for g in shape), values)
    axis = st.integers(0, len(shape) - 1)
    t = draw(st.lists(st.one_of(
        axis.flatmap(lambda a: st.integers(1, shape[a] - 1).map(lambda j: landing_t(f, a, j))),
        st.floats(f.min_step, 3.0)), min_size=1, max_size=12))
    return f, np.array(t + draw(st.lists(st.sampled_from(t), max_size=3)))


class TestSupNormModulus:
    @given(sup_norm_cases())
    def test_window_extremes_match_the_step_norm_table(self, case):
        f, t = case
        hs, sup_norms = _step_norm_table(FunctionOnGrid(f.axes, f.values), 1, np.inf)

        def table(t):
            return sup_norms[np.searchsorted(hs, t * (1 + 1e-12), side="right")]
        # in t's order, repeats included, then through the public, sorted path
        assert besov._sup_oscillation(f, t).tobytes() == table(t).tobytes()
        curve = modulus_of_smoothness(f, 1, np.inf, np.unique(t))
        assert curve.omega_values.tobytes() == table(curve.t_values).tobytes()


@pytest.fixture
def table_builds(monkeypatch):
    """Counts the step-norm table builds per (order, p)."""
    builds = Counter()
    build = besov._axis_step_norms

    def counting(f, order, p):
        builds[order, p] += 1
        return build(f, order, p)

    monkeypatch.setattr(besov, "_axis_step_norms", counting)
    return builds


class TestMemoizedTables:
    def test_one_table_per_order_and_p(self, table_builds):
        f = synth_function("weierstrass", 0.5, resolution=257)
        estimate_smoothness_exponent(f, 1, np.inf)
        besov_seminorm(f, BesovParams(alpha=0.5))  # order 1, p = inf: window extremes
        modulus_of_smoothness(f, 1, np.inf, log_grid(f))
        estimate_smoothness_exponent(f, 1, 2.0)
        besov_seminorm(f, BesovParams(alpha=0.5, p=2.0))  # order 1, p = 2
        modulus_of_smoothness(f, 1, 2.0, np.array([0.5, 0.1, 0.02]))
        modulus_of_smoothness(f, 2, 2.0, log_grid(f))
        besov_seminorm(f, BesovParams(alpha=1.5, p=2.0, q=2.0))  # order 2, p = 2
        assert table_builds == {(1, 2.0): 1, (2, 2.0): 1}

    def test_closure_builds_one_table_per_image(self, table_builds):
        mdp = fqlab.make_rough_reward_mdp(alpha=0.5, gamma=0.5)
        oracle = fqlab.build_oracle(mdp, resolution=129)
        spec = fqlab.ArchitectureSpec(height=2, width=4, sparsity=100, weight_bound=5.0)
        nets = [fqlab.ReluNetwork.zeros(2, spec) for _ in range(2)]
        report = diagnose_dynamic_closure(mdp, oracle, nets,
                                          [fqlab.UniformPolicy(mdp.n_actions), None],
                                          BesovParams(alpha=0.5, p=2.0))
        assert len(report.entries) == 4
        assert table_builds == {(1, 2.0): 4}

    @pytest.mark.parametrize("p", [2.0, np.inf])
    def test_cache_hits_match_a_fresh_instance_bit_for_bit(self, p):
        f = synth_function("spline_series", 0.5, d=2, seed=4, resolution=33)
        t_grid = np.array([0.8, 0.3, 0.1, 0.05])
        params = BesovParams(alpha=0.5, p=p, q=2.0)
        estimate_smoothness_exponent(f, 1, p)  # fills the (1, p) table
        for call in (lambda g: modulus_of_smoothness(g, 1, p, log_grid(g)).omega_values,
                     lambda g: modulus_of_smoothness(g, 1, p, t_grid).omega_values,
                     lambda g: estimate_smoothness_exponent(g, 1, p).exponent,
                     lambda g: besov_seminorm(g, params)):
            hit, fresh = call(f), call(FunctionOnGrid(f.axes, f.values))
            assert np.asarray(hit).tobytes() == np.asarray(fresh).tobytes()


class TestBesovParams:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": np.nan}, {"alpha": 0.5, "p": np.nan}, {"alpha": 0.5, "q": np.nan},
        {"alpha": 0.5, "p": np.nan, "q": np.nan}])
    def test_rejects_nan(self, kwargs):
        with pytest.raises(ValueError, match="alpha|p and q"):
            BesovParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": -1.0}, {"alpha": 0.5, "p": 0.5}, {"alpha": 0.5, "q": 0.5}])
    def test_rejects_out_of_range_values(self, kwargs):
        with pytest.raises(ValueError, match="alpha|p and q"):
            BesovParams(**kwargs)

    def test_rejects_an_infinite_alpha(self):
        # floor(inf) has no integer difference order
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            BesovParams(alpha=np.inf)


class TestSeminorm:
    def test_constant_zero_seminorm_norm_is_abs(self):
        f = grid_1d(lambda x: np.full_like(x, -0.6))
        params = BesovParams(alpha=0.5, p=2.0, q=2.0)
        assert besov_seminorm(f, params) == 0.0
        assert besov_norm(f, params) == pytest.approx(0.6)

    def test_linear_alpha_between_one_and_two(self):
        f = grid_1d(lambda x: 0.3 + 0.5 * x)
        params = BesovParams(alpha=1.5, p=np.inf, q=np.inf)
        assert besov_seminorm(f, params) <= 1e-12

    def test_polynomials_below_order_vanish(self):
        # r-th differences of degree < r polynomials are float noise; the
        # noise is amplified by t^-alpha, so the finest scale bounds the grid
        xs = np.linspace(0, 1, 65)
        for alpha, coefs in ((0.5, [0.7]), (1.5, [0.2, 0.5]), (2.5, [0.1, -0.3, 0.6])):
            vals = np.polynomial.polynomial.polyval(xs, coefs)
            f = FunctionOnGrid((xs,), vals)
            semi = besov_seminorm(f, BesovParams(alpha=alpha, p=np.inf, q=np.inf))
            assert semi <= 1e-10

    def test_cusp_matches_brute_force_lattice(self):
        # independent oracle: direct maximization over every (h, t) pair
        g = 201
        xs = np.linspace(0, 1, g)
        vals = np.abs(xs - 0.5)
        f = FunctionOnGrid((xs,), vals)
        alpha = 0.5
        semi = besov_seminorm(f, BesovParams(alpha=alpha, p=np.inf, q=np.inf))
        step = 1.0 / (g - 1)
        t_grid = np.geomspace(step, 1.0, 41)
        best = 0.0
        for t in t_grid:
            omega = 0.0
            j = 1
            while j * step <= t * (1 + 1e-12):
                diff = vals[j:] - vals[:-j]
                omega = max(omega, float(np.abs(diff).max()))
                j += 1
            best = max(best, omega / t ** alpha)
        assert abs(semi - best) <= 1e-10
        assert semi > 0.1

    def test_homogeneity(self):
        f = synth_function("weierstrass", 0.5, resolution=257)
        params = BesovParams(alpha=0.5, p=2.0, q=2.0)
        base = besov_seminorm(f, params)
        scaled = besov_seminorm(FunctionOnGrid(f.axes, 4.5 * f.values), params)
        assert abs(scaled - 4.5 * base) <= 1e-10 * max(1.0, scaled)

    def test_q_infinity_is_max_of_ratio_curve(self):
        f = synth_function("weierstrass", 0.5, resolution=513)
        alpha, p = 0.5, np.inf
        semi_inf = besov_seminorm(f, BesovParams(alpha=alpha, p=p, q=np.inf))
        step = f.step()
        t_grid = np.geomspace(step, 1.0, 41)
        curve = modulus_of_smoothness(f, 1, p, t_grid)
        ratio = curve.omega_values / curve.t_values ** alpha
        assert semi_inf == pytest.approx(float(ratio.max()), abs=1e-14)

    def test_q_monotonicity_up_to_quadrature_constant(self):
        # the q = infinity seminorm is bounded by the q = 1 quadrature value
        # times the discrete quadrature constant 2 (npoints - 1) / log-length
        f = synth_function("weierstrass", 0.5, resolution=513)
        alpha, p, npts = 0.5, np.inf, 41  # besov_seminorm's grid has 41 points
        semi_inf = besov_seminorm(f, BesovParams(alpha=alpha, p=p, q=np.inf))
        semi_one = besov_seminorm(f, BesovParams(alpha=alpha, p=p, q=1.0))
        log_len = np.log(1.0 / f.step())
        assert semi_inf <= semi_one * 2 * (npts - 1) / log_len + 1e-12


class TestExponentEstimation:
    def test_identity_slope_one(self):
        f = grid_1d(lambda x: x, g=1025)
        est = estimate_smoothness_exponent(f, 1, np.inf)
        assert not est.saturated
        assert abs(est.exponent - 1.0) <= 0.02

    def test_constant_saturates(self):
        f = grid_1d(lambda x: np.full_like(x, 0.3), g=64)
        est = estimate_smoothness_exponent(f, 1, 2.0)
        assert est.saturated and est.exponent is None

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_weierstrass_recovery(self, alpha):
        f = synth_function("weierstrass", alpha)
        est = estimate_smoothness_exponent(f, 1, np.inf)
        assert not est.saturated
        assert abs(est.exponent - alpha) <= 0.1

    def test_smooth_series_clips_at_order(self):
        f = synth_function("weierstrass", 2.0)
        est = estimate_smoothness_exponent(f, 1, np.inf)
        assert not est.saturated
        assert est.exponent >= 0.9  # slope clipped into [0, 1]
        assert est.exponent <= 1.0


class TestSynthFunctions:
    def test_seeded_determinism(self):
        for kind in ("weierstrass", "spline_series", "piecewise_spiky"):
            a = synth_function(kind, 0.5, seed=9, resolution=257)
            b = synth_function(kind, 0.5, seed=9, resolution=257)
            np.testing.assert_array_equal(a.values, b.values)

    def test_unit_range(self):
        for kind in ("weierstrass", "spline_series", "piecewise_spiky"):
            f = synth_function(kind, 0.5, seed=1, resolution=257)
            assert f.values.min() == pytest.approx(0.0)
            assert f.values.max() == pytest.approx(1.0)

    def test_2d_tensorization(self):
        f = synth_function("weierstrass", 0.5, d=2, resolution=65)
        assert f.values.shape == (65, 65)

    @staticmethod
    def spline_series_reference(alpha, d, seed, g):
        """Every hat added over the whole grid, one hat at a time."""
        ax = np.linspace(0.0, 1.0, g)
        rng = np.random.default_rng(seed)
        levels, decay = max(2, int(np.log2(g - 1)) - 2), alpha + 0.5 - 1.0 / 2.0  # p = 2
        axis_vals = []
        for _ in range(d):
            v = np.zeros(g)
            for j in range(levels):
                centers = (np.arange(2 ** j) + 0.5) / 2 ** j
                coef = rng.standard_normal(len(centers)) * 2.0 ** (-j * decay)
                for c, ck in zip(centers, coef):
                    v += ck * np.maximum(0.0, 1.0 - np.abs((ax - c) * 2 ** j * 2))
            axis_vals.append(v)
        vals = axis_vals[0] if d == 1 else axis_vals[0][:, None] + axis_vals[1][None, :]
        return (vals - vals.min()) / (vals.max() - vals.min())

    @pytest.mark.parametrize("d, resolutions", [(1, (5, 64, 257, 1000, 4097)), (2, (9, 33, 100))])
    def test_spline_series_matches_the_full_grid_sum_bit_for_bit(self, d, resolutions):
        for seed in range(4):
            for alpha in (0.3, 0.5, 1.5):
                for g in resolutions:
                    got = synth_function("spline_series", alpha, d=d, seed=seed, resolution=g)
                    ref = self.spline_series_reference(alpha, d, seed, g)
                    assert got.values.tobytes() == ref.tobytes(), (seed, alpha, g)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            synth_function("nope", 0.5)
        with pytest.raises(ValueError):
            synth_function("weierstrass", 3.0)

    @pytest.mark.parametrize("resolution", [0, 1, 3.5, float("nan"), True])
    def test_rejects_a_resolution_that_is_not_none_or_an_integer_of_at_least_two(self, resolution):
        with pytest.raises(ValueError, match=f"integer >= 2, got {resolution!r}"):
            synth_function("spline_series", 0.5, resolution=resolution)


class TestImmutability:
    def test_arrays_and_fields_are_read_only(self):
        f = grid_1d(lambda x: x ** 2)
        with pytest.raises(ValueError):
            f.values[3] = 1.0
        with pytest.raises(ValueError):
            f.axes[0][3] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.values = np.zeros(101)

    def test_mutating_the_source_arrays_changes_nothing(self):
        xs = np.linspace(0.0, 1.0, 101)
        vals = np.abs(xs - 0.3) ** 0.5
        f = FunctionOnGrid((xs,), vals)
        expected = modulus_of_smoothness(FunctionOnGrid((xs.copy(),), vals.copy()), 1, 2.0,
                                         log_grid(f))
        vals[::2] = 7.0
        xs *= 0.5
        got = modulus_of_smoothness(f, 1, 2.0, log_grid(f))
        np.testing.assert_array_equal(got.t_values, expected.t_values)
        np.testing.assert_array_equal(got.omega_values, expected.omega_values)

    def test_loaded_grids_round_trip_read_only(self, tmp_path):
        f = synth_function("piecewise_spiky", 0.5, d=2, seed=1, resolution=17)
        path = tmp_path / "f.csv"
        f.save_csv(path)
        back = FunctionOnGrid.load_csv(path)
        np.testing.assert_array_equal(back.values, f.values)
        for a, b in zip(back.axes, f.axes):
            np.testing.assert_array_equal(a, b)
        assert not back.values.flags.writeable
        assert not any(ax.flags.writeable for ax in back.axes)

    def test_equality_and_hash_are_by_identity(self):
        xs = np.linspace(0.0, 1.0, 5)
        f, g = FunctionOnGrid((xs,), xs), FunctionOnGrid((xs,), xs)
        assert f == f and f != g  # no ValueError from comparing the arrays
        assert len({f, g, f}) == 2 and hash(f) == hash(f)


class TestGridIO:
    def test_csv_roundtrip(self, tmp_path):
        # %.17g round-trips every float64, so the CSV is bit-exact
        path = tmp_path / "f.csv"
        for f in (synth_function("weierstrass", 0.5, resolution=65),
                  synth_function("spline_series", 0.7, seed=2, resolution=65),
                  synth_function("weierstrass", 0.5, d=2, resolution=33)):
            f.save_csv(path)
            back = FunctionOnGrid.load_csv(path)
            np.testing.assert_array_equal(back.values, f.values)
            assert len(back.axes) == f.ndim
            for a, b in zip(back.axes, f.axes):
                np.testing.assert_array_equal(a, b)

    def test_rows_in_any_order_load_the_saved_grid(self, tmp_path):
        # x1-major rows must not load as the transpose of the saved grid
        f = random_grid((5, 5), seed=4)
        path = tmp_path / "f.csv"
        f.save_csv(path)
        header, *rows = path.read_text().splitlines()
        for order in (np.arange(25).reshape(5, 5).T.ravel(),
                      np.random.default_rng(0).permutation(25)):
            path.write_text("\n".join([header] + [rows[i] for i in order]) + "\n")
            np.testing.assert_array_equal(FunctionOnGrid.load_csv(path).values, f.values)

    @pytest.mark.parametrize("damage", ["empty", "header_only", "foreign_header", "node_missing"])
    def test_csv_rejects_a_file_that_is_no_grid(self, tmp_path, damage):
        # ValueError with no warning first: numpy's no-data warning fails this suite
        path = tmp_path / "f.csv"
        random_grid((4, 4)).save_csv(path)
        header, *rows = path.read_text().splitlines()
        lines = {"empty": [], "header_only": [header], "foreign_header": ["a,b,c"] + rows,
                 "node_missing": [header] + rows[1:]}[damage]
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError):
            FunctionOnGrid.load_csv(path)

    @pytest.mark.parametrize("shape", [(6,), (4, 5)])
    def test_damaged_csv_raises_value_error_or_loads_the_grid(self, tmp_path, shape):
        f = random_grid(shape, seed=5)
        path = tmp_path / "f.csv"
        f.save_csv(path)
        text = path.read_text()
        header, *rows = [line.split(",") for line in text.splitlines()]

        def join(table):
            return "\n".join(",".join(row) for row in table) + "\n"

        # (record, truncated): rows permuted, a column dropped or renamed, or the
        # file truncated at any byte
        damaged = st.one_of(
            st.permutations(rows).map(lambda p: (join([header] + p), False)),
            st.integers(0, len(header) - 1).map(
                lambda j: (join([row[:j] + row[j + 1:] for row in [header] + rows]), False)),
            st.builds(lambda j, name: (join([header[:j] + [name] + header[j + 1:]] + rows), False),
                      st.integers(0, len(header) - 1), st.sampled_from(["x0", "x1", "x2", "v", ""])),
            st.integers(0, len(text) - 1).map(lambda k: (text[:k], True)))

        @given(damaged)
        def check(case):
            record, truncated = case
            path.write_text(record)
            try:
                back = FunctionOnGrid.load_csv(path)
            except ValueError:
                return
            for a, b in zip(back.axes, f.axes, strict=True):
                np.testing.assert_array_equal(a, b)
            # a cut inside the last value leaves a shorter number at one node
            assert np.sum(back.values != f.values) <= int(truncated)

        check()


class TestDynamicClosure:
    def test_zero_function_recovers_reward_smoothness(self):
        # gamma = 0: the Bellman image of anything IS the mean reward
        mdp = fqlab.make_rough_reward_mdp(alpha=0.5, gamma=0.0)
        oracle = fqlab.build_oracle(mdp, resolution=2049)
        zero = fqlab.ReluNetwork.zeros(2, fqlab.ArchitectureSpec(
            height=2, width=4, sparsity=100, weight_bound=5.0))
        report = fqlab.diagnose_dynamic_closure(
            mdp, oracle, [zero], [fqlab.UniformPolicy(mdp.n_actions)],
            BesovParams(alpha=0.5, p=np.inf, q=np.inf))
        assert len(report.entries) == 1
        est = report.entries[0].estimate
        assert not est.saturated
        assert abs(est.exponent - 0.5) <= 0.1

    def test_rejects_an_mdp_other_than_the_oracles(self):
        mdp = fqlab.make_rough_reward_mdp(alpha=0.5, gamma=0.0)
        oracle = fqlab.build_oracle(mdp, resolution=101)
        zero = fqlab.ReluNetwork.zeros(2, fqlab.ArchitectureSpec(
            height=2, width=4, sparsity=100, weight_bound=5.0))
        twin = fqlab.make_rough_reward_mdp(alpha=0.5, gamma=0.0)  # equal, but not the same
        with pytest.raises(ValueError, match="different MDP"):
            fqlab.diagnose_dynamic_closure(twin, oracle, [zero], [None],
                                           BesovParams(alpha=0.5))

    def test_network_callable_and_table_give_identical_entries(self):
        mdp = fqlab.make_rough_reward_mdp(alpha=0.5, gamma=0.5)
        oracle = fqlab.build_oracle(mdp, resolution=129)
        zero = fqlab.ReluNetwork.zeros(2, fqlab.ArchitectureSpec(
            height=2, width=4, sparsity=100, weight_bound=5.0))
        table = np.zeros((oracle.n_nodes, len(oracle.action_grid)))
        report = fqlab.diagnose_dynamic_closure(
            mdp, oracle, [zero, lambda x: np.zeros(len(x)), table],
            [fqlab.UniformPolicy(mdp.n_actions), None], BesovParams(alpha=0.5))
        by_policy = [[e for e in report.entries if e.policy_index == pi] for pi in (0, 1)]
        for entries in by_policy:
            assert [e.net_index for e in entries] == [0, 1, 2]
            first = entries[0]
            for e in entries[1:]:
                assert e.seminorm == first.seminorm
                assert e.estimate.exponent == first.estimate.exponent
                assert e.estimate.saturated == first.estimate.saturated
                assert e.estimate.curve.omega_values.tobytes() == \
                    first.estimate.curve.omega_values.tobytes()

    def test_gaussian_kernel_regularizes(self):
        mdp = fqlab.make_gaussian_mdp(gamma=0.9)
        oracle = fqlab.build_oracle(mdp, resolution=401)
        rng = np.random.default_rng(0)
        spec = fqlab.ArchitectureSpec(height=2, width=8, sparsity=10**4, weight_bound=3.0)
        nets = []
        for _ in range(2):
            net = fqlab.ReluNetwork.random(2, spec, rng)
            net.weights[-1] = rng.standard_normal(net.weights[-1].shape) * 0.5
            net._project_inplace()
            nets.append(net)
        report = fqlab.diagnose_dynamic_closure(
            mdp, oracle, nets, [fqlab.UniformPolicy(mdp.n_actions)],
            BesovParams(alpha=1.0, p=np.inf, q=np.inf))
        # kernel smoothing yields Lipschitz images: slope ~1 up to estimator bias
        assert report.min_exponent is not None and report.min_exponent >= 0.9
        assert np.isfinite(report.max_seminorm)


XS = np.linspace(0.0, 1.0, 9)


@pytest.mark.parametrize("make, message", [
    (lambda: FunctionOnGrid((XS,), np.zeros(8)), "value shape must match"),
    (lambda: FunctionOnGrid((XS,), np.where(XS > 0.5, np.nan, 0.0)), "must be finite"),
    (lambda: FunctionOnGrid((XS[:3],), np.zeros(3)), "at least 4 nodes"),
    (lambda: FunctionOnGrid((XS ** 2,), np.zeros(9)), "uniformly spaced"),
    (lambda: translation_difference(FunctionOnGrid((XS,), XS), 1, 0), "order must be >= 1"),
    (lambda: translation_difference(FunctionOnGrid((XS,), XS), 0, 1), "step must be"),
    (lambda: synth_function("weierstrass", 0.5, d=3), r"d in \{1, 2\}"),
    (lambda: modulus_of_smoothness(FunctionOnGrid((XS,), XS), 1, np.inf, [0.5 / 8]),
     "below the grid step"),
], ids=["shape", "non_finite", "three_nodes", "uneven_axis", "order_0", "step_0", "d_3",
        "t_below_step"])
def test_a_documented_bad_input_raises(make, message):
    with pytest.raises(ValueError, match=message):
        make()
