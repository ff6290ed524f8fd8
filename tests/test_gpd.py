import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, minimize_scalar
from scipy.stats import genpareto

from poretail.gpd import (
    _brentq,
    _minimize_bounded,
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
        # scipy's brentq keeps its function in a reference cycle; excesses
        # held there would pile up between collections during a scan
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
        import poretail.gpd as gpd_mod

        calls = []
        original = gpd_mod.gpd_nll
        monkeypatch.setattr(gpd_mod, "gpd_nll", lambda *a: calls.append(1) or original(*a))
        for n in (100, 10_000, 200_000):
            calls.clear()
            fit_mle(simulate(0.1, n, n), 0.0)
            assert len(calls) <= 50, n


def scipy_profile_search(ratio):
    """fit_mle's bracket ends and bounded minimum, found with scipy's solvers."""

    def bracket_end(shape_bound, w_far):
        gap = lambda w: _profile(w, ratio)[1] - shape_bound
        if gap(w_far) * gap(0.0) > 0.0:
            return w_far
        return brentq(gap, 0.0, w_far)

    bounds = (bracket_end(-1.0, float(np.log(np.finfo(float).eps))), bracket_end(20.0, 700.0))
    best = minimize_scalar(lambda w: gpd_nll(*_profile(w, ratio), ratio), bounds=bounds,
                           method="bounded", options={"xatol": 1e-10})
    return bounds, best


@given(
    shape=st.floats(min_value=-0.6, max_value=1.2),
    n=st.integers(min_value=30, max_value=5000),
    rounded=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_ported_solvers_match_scipy_bit_for_bit(shape, n, rounded, seed):
    x = simulate(shape, n, seed, scale=2.0, threshold=10.0)
    if rounded:
        x = np.round(x, 2)
    y = x - 10.0
    ratio = y / y.max()
    bounds, best = scipy_profile_search(ratio)
    for shape_bound, w_far, end in ((-1.0, float(np.log(np.finfo(float).eps)), bounds[0]),
                                    (20.0, 700.0, bounds[1])):
        if end != w_far:
            gap = lambda w: _profile(w, ratio)[1] - shape_bound
            assert _brentq(gap, 0.0, w_far) == end
    nll = lambda w: gpd_nll(*_profile(w, ratio), ratio)
    assert _minimize_bounded(nll, *bounds) == (best.x, best.fun)
    # fit_mle's own steps after the search, on scipy's minimum
    scale, shape = _profile(best.x, ratio)
    edge = (float(np.nextafter(1.0, 2.0)), -1.0)
    if gpd_nll(*edge, ratio) < best.fun:
        scale, shape = edge
    fit = fit_mle(x, 10.0)
    assert (fit.params.scale_um, fit.params.shape) == (scale * float(y.max()), shape)


class TestSolvers:
    # Toy functions that drive the ported solvers to the failures scipy
    # reports, which a fit would otherwise raise as a traceback or ignore.
    def test_root_search_out_of_iterations(self):
        # a step has no slope to interpolate: bisection from 2e300 to 2e-12
        # takes about 1000 steps
        step = lambda x: -1.0 if x < 0.1 else 1.0
        with pytest.raises(RuntimeError, match="converge"):
            brentq(step, -1e300, 1e300)
        with pytest.raises(FitError, match="did not converge in 100 iterations"):
            _brentq(step, -1e300, 1e300)

    def test_root_search_nan(self):
        with pytest.raises(FitError, match="NaN"):
            _brentq(lambda x: np.nan if x > 0.5 else -1.0, 0.0, 1.0)

    def test_root_search_same_sign(self):
        with pytest.raises(FitError, match="same sign"):
            _brentq(lambda x: x + 1.0, 0.0, 1.0)

    def test_root_search_matches_scipy_where_its_step_divides_by_zero(self):
        # the extrapolation's denominator underflows to 0; C then takes an
        # infinite step, which bisects
        f = lambda x: 1e-160 * (x**3 - 0.1)
        assert _brentq(f, 0.0, 1.0) == brentq(f, 0.0, 1.0)

    def test_bounded_search_out_of_evaluations(self):
        with np.errstate(over="ignore", invalid="ignore"):
            best = minimize_scalar(abs, bounds=(-1e300, 1e300), method="bounded",
                                   options={"xatol": 1e-10})
        assert best.status == 1
        with pytest.raises(FitError, match="did not converge in 500 evaluations"):
            _minimize_bounded(abs, -1e300, 1e300)

    def test_bounded_search_nan(self):
        best = minimize_scalar(lambda x: np.nan, bounds=(0.0, 1.0), method="bounded",
                               options={"xatol": 1e-10})
        assert best.status == 2
        with pytest.raises(FitError, match="NaN"):
            _minimize_bounded(lambda x: np.nan, 0.0, 1.0)


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
