import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, minimize_scalar
from scipy.stats import genpareto

from poretail.gpd import (
    _BRACKET_TOL,
    _bracket_end,
    _minimise,
    _profile,
    FLAG_MLE_DOMAIN,
    FLAG_MOM_DOMAIN,
    FLAG_NO_VALID_DOMAIN,
    FitError,
    GpdParams,
    TailFit,
    XI_SWITCH,
    fit_mle,
    fit_mom,
    gpd_cdf,
    gpd_nll,
    gpd_quantile,
    mle_covariance,
    mom_covariance,
    qq_points,
    select_estimator,
)


def simulate(shape, n, seed, scale=1.0, threshold=0.0):
    rng = np.random.default_rng(seed)
    return genpareto.rvs(c=shape, loc=threshold, scale=scale, size=n, random_state=rng)


class TestCdf:
    def test_at_threshold(self):
        assert gpd_cdf(GpdParams(10.0, 2.0, 0.3), 10.0) == 0.0

    def test_direct_value(self):
        assert gpd_cdf(GpdParams(0.0, 1.0, 0.5), 1.0) == pytest.approx(1 - 1.5**-2, rel=1e-12)

    def test_exponential_limit(self):
        assert gpd_cdf(GpdParams(0.0, 1.0, 0.0), 1.0) == pytest.approx(1 - np.exp(-1), rel=1e-12)

    def test_below_threshold_is_zero(self):
        assert gpd_cdf(GpdParams(10.0, 2.0, 0.3), 5.0) == 0.0

    def test_beyond_negative_shape_support_is_one(self):
        params = GpdParams(0.0, 1.0, -0.5)
        assert params.upper_support_um == 2.0
        assert gpd_cdf(params, 3.0) == 1.0

    def test_matches_scipy(self):
        for shape in (-0.4, -0.1, 0.0, 0.2, 0.7):
            params = GpdParams(5.0, 2.3, shape)
            top = params.upper_support_um if shape < 0 else 5.0 + 40.0
            d = np.linspace(5.0, top, 101)
            ref = genpareto.cdf(d, c=shape, loc=5.0, scale=2.3)
            assert np.max(np.abs(np.asarray(gpd_cdf(params, d)) - ref)) < 1e-12

    def test_nondecreasing(self):
        params = GpdParams(0.0, 2.0, -0.3)
        d = np.linspace(-1.0, 8.0, 500)
        f = np.asarray(gpd_cdf(params, d))
        assert np.all(np.diff(f) >= 0)
        assert f.min() == 0.0 and f.max() == 1.0

    def test_switch_continuity(self):
        # values straddling the switch agree with the exponential limit
        for sign in (+1.0, -1.0):
            near = GpdParams(0.0, 1.0, sign * XI_SWITCH)
            limit = GpdParams(0.0, 1.0, 0.0)
            d = np.linspace(0.0, 10.0, 200)
            gap = np.abs(np.asarray(gpd_cdf(near, d)) - np.asarray(gpd_cdf(limit, d)))
            assert gap.max() < 1e-8


class TestQuantile:
    def test_q_zero_is_threshold(self):
        assert gpd_quantile(GpdParams(7.0, 1.0, 0.4), 0.0) == 7.0

    def test_direct_value(self):
        assert gpd_quantile(GpdParams(0.0, 1.0, 1.0), 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_unbounded_refused(self):
        with pytest.raises(ValueError, match="unbounded"):
            gpd_quantile(GpdParams(0.0, 1.0, 0.1), 1.0)

    def test_negative_shape_q1_is_bound(self):
        params = GpdParams(0.0, 1.0, -0.25)
        assert gpd_quantile(params, 1.0) == pytest.approx(params.upper_support_um, rel=1e-12)

    def test_round_trip_100_random_points(self):
        # interior of the support, up to the 0.999 quantile
        rng = np.random.default_rng(20240101)
        for shape in (-0.4, -1e-12, 0.3, 1.2):
            params = GpdParams(3.0, 2.0, shape)
            top = float(gpd_quantile(params, 0.999))
            d = rng.uniform(3.0 + 1e-6, top, 100)
            back = gpd_quantile(params, np.asarray(gpd_cdf(params, d)))
            assert np.max(np.abs(back - d) / d) < 1e-10

    def test_matches_scipy(self):
        q = np.linspace(0.0, 0.999, 100)
        for shape in (-0.3, 0.25):
            params = GpdParams(1.0, 0.7, shape)
            ref = genpareto.ppf(q, c=shape, loc=1.0, scale=0.7)
            assert np.allclose(np.asarray(gpd_quantile(params, q)), ref, rtol=1e-10)


class TestCovariances:
    def test_mle_reference_point(self):
        cov = mle_covariance(1.0, 0.0, 100)
        assert np.allclose(cov, [[0.02, 0.01], [0.01, 0.01]], atol=1e-15)

    def test_equal_at_shape_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            scale = rng.uniform(0.1, 100.0)
            n = int(rng.integers(30, 10000))
            a = mle_covariance(scale, 0.0, n)
            b = mom_covariance(scale, 0.0, n)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_mle_domain_enforced(self):
        with pytest.raises(ValueError):
            mle_covariance(1.0, -0.6, 100)

    def test_mom_domain_enforced(self):
        with pytest.raises(ValueError):
            mom_covariance(1.0, 0.3, 100)

    def test_fit_covariance_symmetric_psd(self):
        fit = fit_mle(simulate(0.2, 2000, 1), 0.0)
        cov = fit.covariance
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > 0)


@pytest.mark.parametrize("key, value", [("lambda_above_se", -0.5),
                                        ("lambda_above_per_mm3", np.nan),
                                        ("lambda_below_per_mm3", np.inf)])
def test_tail_fit_refuses_a_rate_outside_its_domain(key, value):
    with pytest.raises(ValueError, match=f"^{key} = {value} is not a finite nonnegative rate$"):
        TailFit(GpdParams(0.0, 1.0, 0.1), None, "MLE", 100, **{key: value})
    # se = 0 is what fit_tail writes for a zero count
    TailFit(GpdParams(0.0, 1.0, 0.1), None, "MLE", 100, **{key: 0.0})


@pytest.mark.parametrize("changes, message", [
    ({"n_exceed": 0}, "n_exceed = 0 is not a positive count"),
    ({"lambda_above_per_mm3": 0.0, "lambda_above_se": 0.5},
     "lambda_above_se = 0.5 is positive while lambda_above_per_mm3 is 0"),
    ({"empirical_below_um": np.array([0.5, np.inf])}, "empirical_below_um must be sorted"),
    ({"empirical_below_um": np.array([0.0, 0.5])}, "empirical_below_um must be sorted"),
    ({"empirical_below_um": np.array([0.5, 1.5])}, "empirical_below_um must be sorted"),
    ({"empirical_below_um": np.array([0.7, 0.5])}, "empirical_below_um must be sorted"),
    ({"covariance": np.array([[1.0, 0.0], [0.0, np.nan]])}, r"covariance = .* is not finite"),
    ({"params": GpdParams(0.0, 1.0, 0.1), "empirical_below_um": np.empty(0)},
     "threshold_um = 0.0 is not a positive diameter"),
    ({"params": GpdParams(-5.0, 1.0, 0.1), "empirical_below_um": np.empty(0)},
     "threshold_um = -5.0 is not a positive diameter"),
])
def test_tail_fit_refuses_numbers_outside_their_domain(changes, message):
    fields = {"params": GpdParams(1.0, 1.0, 0.1), "covariance": None, "estimator": "MLE",
              "n_exceed": 100, "empirical_below_um": np.array([0.5, 0.5, 1.0])}
    TailFit(**fields)
    with pytest.raises(ValueError, match=message):
        TailFit(**{**fields, **changes})


@pytest.mark.parametrize("values, message", [
    ((np.nan, 1.0, 0.1), "threshold_um = nan is not finite"),
    ((0.0, 1.0, np.inf), "shape = inf is not finite"),
    ((0.0, np.inf, 0.1), "scale_um = inf is not finite and positive"),
    ((0.0, 0.0, 0.1), "scale_um = 0.0 is not finite and positive"),
])
def test_gpd_params_refuse_non_finite_values(values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GpdParams(*values)


class TestMle:
    def test_recovers_parameters_within_3se(self):
        x = simulate(0.3, 5000, 42, scale=1.0, threshold=10.0)
        fit = fit_mle(x, 10.0)
        se_scale = np.sqrt(2.0 * (1 + 0.3) / 5000)
        se_shape = (1 + 0.3) / np.sqrt(5000)
        assert abs(fit.params.scale_um - 1.0) < 3 * se_scale
        assert abs(fit.params.shape - 0.3) < 3 * se_shape
        assert fit.estimator == "MLE"
        assert fit.flags == ()

    def test_zero_variance_rejected(self):
        with pytest.raises(FitError, match="variance"):
            fit_mle(np.full(100, 3.0), 0.0)

    def test_too_few_exceedances(self):
        with pytest.raises(FitError, match="at least"):
            fit_mle(np.arange(10.0), 0.0)

    def test_below_domain_flagged_without_covariance(self):
        x = simulate(-0.7, 3000, 7)
        fit = fit_mle(x, 0.0)
        assert fit.params.shape <= -0.5
        assert FLAG_MLE_DOMAIN in fit.flags
        assert fit.covariance is None

    def test_local_optimality(self):
        x = simulate(0.1, 1000, 3)
        fit = fit_mle(x, 0.0)
        best = gpd_nll(fit.params.scale_um, fit.params.shape, x)
        rng = np.random.default_rng(99)
        factors = 1.0 + 0.05 * (2.0 * rng.random((1000, 2)) - 1.0)
        for fs, fx in factors:
            perturbed = gpd_nll(fit.params.scale_um * fs, fit.params.shape * fx, x)
            assert best <= perturbed + 1e-9

    @pytest.mark.parametrize("shape", [-0.7, -0.3, 0.0, 0.1, 0.35, 0.9])
    def test_no_worse_than_scipy_fit(self, shape):
        # scipy's generic optimizer shares no code with the profile search
        x = simulate(shape, 2000, 17, scale=2.0)
        fit = fit_mle(x, 0.0)
        c, _, scale = genpareto.fit(x, floc=0.0)
        assert gpd_nll(fit.params.scale_um, fit.params.shape, x) <= gpd_nll(scale, c, x) + 1e-6

    def test_exceedance_at_threshold(self):
        x = np.concatenate([[5.0], simulate(0.2, 300, 29, threshold=5.0)])
        fit = fit_mle(x, 5.0)
        assert fit.params.shape == pytest.approx(fit_mle(x[1:], 5.0).params.shape, abs=0.05)
        assert np.isfinite(gpd_nll(fit.params.scale_um, fit.params.shape, x - 5.0))

    def test_uniform_tail_fits_the_shape_minus_one_edge(self):
        # for uniform excesses the likelihood rises towards shape -1, where
        # it peaks at scale = largest excess
        x = np.random.default_rng(31).uniform(0.0, 2.0, 200)
        fit = fit_mle(x, 0.0)
        assert fit.params.shape == -1.0
        assert fit.params.scale_um == pytest.approx(x.max(), rel=1e-12)
        assert FLAG_MLE_DOMAIN in fit.flags and fit.covariance is None

    def test_non_finite_exceedance_refused(self):
        x = simulate(0.1, 100, 37)
        x[5] = np.inf
        with pytest.raises(FitError, match="finite"):
            fit_mle(x, 0.0)

    def test_no_array_left_in_reference_cycles(self):
        # a solver that keeps its function in a reference cycle would hold the
        # excesses there, to pile up between collections during a scan
        x = simulate(0.1, 1000, 41)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            fit_mle(x, 0.0)
            gc.collect()
            held = [r for o in gc.garbage for r in gc.get_referents(o) if isinstance(r, np.ndarray)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert held == []

    def test_likelihood_evaluations_bounded(self, monkeypatch):
        # each step of the bracket-end searches and of the minimiser is one
        # profile pass; fits made 21-34 of them at n = 30 to 200k, shapes -0.4 to 1
        import poretail.gpd as gpd_mod

        calls = []
        original = gpd_mod._profile
        monkeypatch.setattr(gpd_mod, "_profile", lambda *a: calls.append(1) or original(*a))
        for n in (100, 10_000, 200_000):
            calls.clear()
            fit_mle(simulate(0.1, n, n), 0.0)
            assert len(calls) <= 40, n


def scipy_profile_search(ratio):
    """The profile likelihood's bounded minimum on the bracket where the
    profile shape lies in (-1, 20), found with scipy's solvers."""

    def bracket_end(shape_bound, w_far):
        gap = lambda w: _profile(w, ratio)[1] - shape_bound
        if gap(w_far) * gap(0.0) > 0.0:
            return w_far
        return brentq(gap, 0.0, w_far)

    bounds = (bracket_end(-1.0, float(np.log(np.finfo(float).eps))), bracket_end(20.0, 700.0))
    return minimize_scalar(lambda w: gpd_nll(*_profile(w, ratio), ratio), bounds=bounds,
                           method="bounded", options={"xatol": 1e-10})


@given(
    shape=st.floats(min_value=-0.6, max_value=1.2),
    n=st.integers(min_value=30, max_value=5000),
    rounded=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fit_matches_scipy_profile_search(shape, n, rounded, seed):
    # Over four seeded sets of 1,500 draws, the fit's NLL exceeded scipy's
    # bounded minimum by at most 8.3e-15 (1 + |NLL|), and scale and shape
    # differed by at most 2.0e-7 and 1.7e-7 max(1, |shape|).
    x = simulate(shape, n, seed, scale=2.0, threshold=10.0)
    if rounded:
        x = np.round(x, 2)
    y = x - 10.0
    y_max = float(y.max())
    ratio = y / y_max
    best = scipy_profile_search(ratio)
    scale, shape = _profile(best.x, ratio)
    edge = (float(np.nextafter(1.0, 2.0)), -1.0)
    if gpd_nll(*edge, ratio) < best.fun:
        scale, shape = edge
    fit = fit_mle(x, 10.0)
    nll = gpd_nll(fit.params.scale_um / y_max, fit.params.shape, ratio)
    assert nll <= best.fun + 2e-14 * (1.0 + abs(nll))
    assert fit.params.scale_um == pytest.approx(scale * y_max, rel=1e-6)
    assert fit.params.shape == pytest.approx(shape, rel=1e-6, abs=1e-6)


def _counted(f):
    calls = []
    return (lambda w: calls.append(w) or f(w)), calls


LOG_EPS = float(np.log(np.finfo(float).eps))


class TestSearch:
    @staticmethod
    def stop_width(x):
        return 4.0 * (np.sqrt(np.finfo(float).eps) * abs(x) + 1e-10 / 3.0)

    def test_minimise_finds_a_parabolas_vertex(self):
        # the vertex stays in the final bracket, at most 4 (sqrt(eps) |x| + 1e-10/3) wide
        for vertex in (0.0, *np.linspace(-30.0, 50.0, 41)):
            x, fx = _minimise(lambda w: (w - vertex) ** 2, -50.0, 60.0)
            assert abs(x - vertex) <= self.stop_width(x)
            assert fx == (x - vertex) ** 2

    @pytest.mark.parametrize("kink", [0.0, 1.3, -29.7, 49.9, 59.99])
    def test_minimise_finds_a_kink(self, kink):
        # no parabola fits |w - kink| at its minimum, so the search ends on
        # golden-section steps, and still in as many as golden section needs
        f, calls = _counted(lambda w: abs(w - kink))
        x, fx = _minimise(f, -50.0, 60.0)
        assert abs(x - kink) <= self.stop_width(x)
        assert fx == abs(x - kink)
        assert len(calls) <= 60

    def test_minimise_nan_objective(self):
        with pytest.raises(FitError, match="NaN"):
            _minimise(lambda w: np.nan, 0.0, 1.0)

    def test_bracket_end_without_sign_change_is_w_far(self):
        assert _bracket_end(lambda w: w + 1.0, 5.0) == 5.0
        assert _bracket_end(lambda w: w - 1.0, -5.0) == -5.0

    @pytest.mark.parametrize("root, w_far", [(0.3, 1.0), (17.2, 700.0), (-0.3, -1.0),
                                             (-20.1, float(np.log(np.finfo(float).eps)))])
    def test_bracket_end_on_zeros_side_of_the_root(self, root, w_far):
        for gap in (lambda w: w - root, lambda w: root - w):
            end = _bracket_end(gap, w_far)
            assert 0.0 <= (root - end) * np.sign(root) <= _BRACKET_TOL
            assert gap(end) * gap(0.0) > 0.0

    @pytest.mark.parametrize("gap, root, w_far", [
        # steep: the secant point sits at the near end until the far value shrinks
        (lambda w: np.expm1(w - 17.2), 17.2, 700.0),
        (lambda w: 1e6 * (17.2 - w), 17.2, 700.0),
        # nearly flat: slope 1/n, as the profile shape has near theta = -1
        (lambda w: (w + 20.1) / 30.0, -20.1, LOG_EPS),
        (lambda w: (w + 20.1) / 200_000.0 + 1e-7 * (w + 20.1) ** 3, -20.1, LOG_EPS),
    ], ids=["exponential", "steep-line", "flat-n30", "flat-n200k-curved"])
    def test_bracket_end_within_tolerance_of_steep_and_flat_roots(self, gap, root, w_far):
        f, calls = _counted(gap)
        end = _bracket_end(f, w_far)
        assert 0.0 <= (root - end) * np.sign(root) <= _BRACKET_TOL
        assert gap(end) * gap(0.0) > 0.0
        # bisection from 0 to w_far takes 17 steps at most, and the
        # safeguard halves the bracket at least every other step
        assert len(calls) <= 2 + 2 * 17


class TestMom:
    def test_exponential_data(self):
        x = simulate(0.0, 20000, 11, scale=2.0)
        fit = fit_mom(x, 0.0)
        assert abs(fit.params.shape) < 0.03
        assert fit.params.scale_um == pytest.approx(np.mean(x), rel=0.05)

    def test_negative_shape_regime(self):
        # shape -0.6 sits outside the MLE domain but inside MOM's
        x = simulate(-0.6, 5000, 13)
        fit = fit_mom(x, 0.0)
        cov = mom_covariance(1.0, -0.6, 5000)
        assert abs(fit.params.scale_um - 1.0) < 3 * np.sqrt(cov[0, 0])
        assert abs(fit.params.shape + 0.6) < 3 * np.sqrt(cov[1, 1])
        assert fit.covariance is not None

    def test_heavy_shape_flagged_without_covariance(self):
        x = simulate(0.6, 5000, 17)
        fit = fit_mom(x, 0.0)
        assert fit.params.shape >= 0.25
        assert FLAG_MOM_DOMAIN in fit.flags
        assert fit.covariance is None

    def test_zero_variance_rejected(self):
        with pytest.raises(FitError):
            fit_mom(np.full(50, 1.0), 0.0)


class TestSelectEstimator:
    def test_mle_selected_inside_domain(self):
        fit = select_estimator(simulate(0.3, 3000, 21), 0.0)
        assert fit.estimator == "MLE"
        assert fit.covariance is not None

    def test_mom_selected_when_mle_domain_fails(self):
        fit = select_estimator(simulate(-0.7, 3000, 23), 0.0)
        assert fit.estimator == "MOM"
        assert fit.params.shape < 0.25
        assert fit.covariance is not None

    def test_no_valid_domain_flagged_not_errored(self, monkeypatch):
        # force the branch: MLE shape below -0.5 and MOM shape above 0.25
        import poretail.gpd as gpd_mod

        params_mle = TailFit(GpdParams(0.0, 1.0, -0.6), None, "MLE", 100,
                             flags=(FLAG_MLE_DOMAIN,))
        params_mom = TailFit(GpdParams(0.0, 1.0, 0.4), None, "MOM", 100,
                             flags=(FLAG_MOM_DOMAIN,))
        monkeypatch.setattr(gpd_mod, "fit_mle", lambda *a, **k: params_mle)
        monkeypatch.setattr(gpd_mod, "fit_mom", lambda *a, **k: params_mom)
        fit = gpd_mod.select_estimator(np.arange(100.0) + 0.5, 0.0)
        assert fit.estimator == "MLE"
        assert FLAG_NO_VALID_DOMAIN in fit.flags

    def test_both_fail_raises(self):
        with pytest.raises(FitError):
            select_estimator(np.full(100, 2.0), 0.0)


class TestCoverage:
    # 95% marginal intervals from the asymptotic covariances should cover
    # the truth in at least 90% of 500 exact-data replications at n = 5000

    def test_mle_marginal_interval_coverage(self):
        hits = 0
        reps = 500
        for seed in range(reps):
            x = simulate(0.1, 5000, 1000 + seed)
            fit = fit_mle(x, 0.0)
            cov = fit.covariance
            ok_scale = abs(fit.params.scale_um - 1.0) < 1.96 * np.sqrt(cov[0, 0])
            ok_shape = abs(fit.params.shape - 0.1) < 1.96 * np.sqrt(cov[1, 1])
            hits += ok_scale and ok_shape
        assert hits / reps >= 0.90

    def test_mom_marginal_interval_coverage(self):
        hits = 0
        reps = 500
        for seed in range(reps):
            x = simulate(-0.2, 5000, 3000 + seed)
            fit = fit_mom(x, 0.0)
            cov = fit.covariance
            ok_scale = abs(fit.params.scale_um - 1.0) < 1.96 * np.sqrt(cov[0, 0])
            ok_shape = abs(fit.params.shape + 0.2) < 1.96 * np.sqrt(cov[1, 1])
            hits += ok_scale and ok_shape
        assert hits / reps >= 0.90


class TestQq:
    def test_exact_quantile_data_on_diagonal(self):
        params = GpdParams(10.0, 2.0, 0.2)
        n = 50
        positions = (np.arange(1, n + 1) - 0.5) / n
        x = np.asarray(gpd_quantile(params, positions))
        fit = TailFit(params, None, "MLE", n)
        pairs = qq_points(fit, x)
        assert np.max(np.abs(pairs[:, 0] - pairs[:, 1])) < 1e-9

    def test_simulated_sample_correlates(self):
        x = simulate(0.2, 30, 31, scale=2.0, threshold=5.0)
        fit = select_estimator(x, 5.0)
        pairs = qq_points(fit, x)
        assert np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1] > 0.95

    def test_single_point_at_median_position(self):
        params = GpdParams(0.0, 1.0, 0.0)
        fit = TailFit(params, None, "MLE", 1)
        pairs = qq_points(fit, [0.9])
        assert pairs.shape == (1, 2)
        assert pairs[0, 0] == pytest.approx(gpd_quantile(params, 0.5), rel=1e-12)


@given(
    shape=st.floats(min_value=-0.9, max_value=2.0),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    q=st.floats(min_value=0.0, max_value=0.999),
)
@settings(max_examples=200, deadline=None)
def test_quantile_cdf_identity_property(shape, scale, q):
    params = GpdParams(1.0, scale, shape)
    d = gpd_quantile(params, q)
    assert gpd_cdf(params, d) == pytest.approx(q, abs=1e-9)
