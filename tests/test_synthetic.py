import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import genpareto, kstest

from poretail import geometry
from poretail.equivalence import FunctionCdf, ks_statistic
from poretail.extremes import McConfig, VolumeOfInterest, fit_tail, sample_largest
from poretail.geometry import REQUIRED_COLUMNS
from poretail.gpd import GpdParams, UsageError, mle_covariance
from poretail.synthetic import (
    MAX_EXPECTED_PORES,
    BulkModel,
    GroundTruth,
    _gpd_draws_plain,
    brute_force_fit_largest,
    brute_force_largest,
    generate_specimen,
)

from conftest import synthetic_fit


def make_truth(shape=0.2, lam_above=2.0, lam_below=20.0, volume=100.0,
               threshold=20.0, scale=3.0):
    return GroundTruth(
        tail=GpdParams(threshold, scale, shape),
        lambda_above_per_mm3=lam_above,
        lambda_below_per_mm3=lam_below,
        specimen_volume_mm3=volume,
        bulk=BulkModel(log_mean=np.log(8.0), log_sigma=0.6),
    )


def truth_marginal_cdf(truth, volume):
    """Closed-form largest-pore CDF marginalized over both Poisson counts."""
    tail, bulk = truth.tail, truth.bulk
    cap = ndtr((np.log(tail.threshold_um) - bulk.log_mean) / bulk.log_sigma)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        f_tail = genpareto.cdf(x, c=tail.shape, loc=tail.threshold_um, scale=tail.scale_um)
        with np.errstate(divide="ignore"):
            f_bulk = np.where(
                x >= tail.threshold_um,
                1.0,
                ndtr((np.log(np.maximum(x, 1e-300)) - bulk.log_mean) / bulk.log_sigma) / cap,
            )
        out = np.exp(-truth.lambda_above_per_mm3 * volume * (1.0 - f_tail))
        out = out * np.exp(-truth.lambda_below_per_mm3 * volume * (1.0 - f_bulk))
        return np.where(x < 0.0, 0.0, out)

    return cdf


class TestGenerateSpecimen:
    def test_deterministic_for_fixed_seed(self):
        truth = make_truth()
        one = generate_specimen(truth, 42)
        two = generate_specimen(truth, 42)
        assert len(one) == len(two)
        assert np.array_equal(one.diameters_um, two.diameters_um)

    def test_zero_tail_rate_gives_no_tail_pores(self):
        truth = make_truth(lam_above=0.0)
        ds = generate_specimen(truth, 7)
        assert np.all(ds.diameters_um < truth.tail.threshold_um)

    def test_poisson_count_statistics(self):
        truth = make_truth(lam_above=2.0, lam_below=0.1, volume=100.0)
        counts = []
        for seed in range(500):
            ds = generate_specimen(truth, seed)
            counts.append(
                int(np.count_nonzero(ds.diameters_um > truth.tail.threshold_um))
            )
        mean = np.mean(counts)
        # mean of 500 Poisson(200) draws: se = sqrt(200/500)
        assert abs(mean - 200.0) < 3.0 * np.sqrt(200.0 / 500.0)
        assert np.var(counts) == pytest.approx(200.0, rel=0.25)

    def test_geometry_columns_sphere_consistent(self):
        ds = generate_specimen(make_truth(), 3)
        assert np.allclose(ds.sphericities, 1.0, rtol=1e-9, atol=0)
        assert np.all(ds.aspect_ratios == 1.0)
        assert ds.quality_flags == ()

    def test_bulk_below_threshold(self):
        truth = make_truth(lam_above=0.5, lam_below=50.0)
        ds = generate_specimen(truth, 9)
        bulk = ds.diameters_um[ds.diameters_um <= truth.tail.threshold_um]
        assert bulk.size > 0
        assert np.all(bulk > 0)


    def test_draws_reach_the_dataset_without_parsing(self, monkeypatch):
        # the measured columns are handed over as values, never formatted and parsed
        def no_parse(column, cells):
            raise AssertionError(f"parsed {column}")

        monkeypatch.setattr(geometry, "_parse", no_parse)
        ds = generate_specimen(make_truth(), 3)
        assert len(ds) > 0
        assert all(ds.cells[c].dtype == float for c in REQUIRED_COLUMNS[1:])

    def test_expected_count_above_the_bound_is_refused_by_name(self, monkeypatch):
        # refused before any draw: a count far below numpy's Poisson limit used
        # to be drawn and then exhaust memory. The truth itself is accepted, as
        # an oracle that draws per volume of interest may use it.
        class Drew(Exception):
            pass

        def no_draws(seed):
            raise Drew

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        at_bound = make_truth(lam_above=0.25 * MAX_EXPECTED_PORES / 100.0,
                              lam_below=0.75 * MAX_EXPECTED_PORES / 100.0)
        with pytest.raises(Drew):
            generate_specimen(at_bound, 1)
        above = make_truth(lam_above=0.25 * MAX_EXPECTED_PORES / 100.0,
                           lam_below=0.75 * MAX_EXPECTED_PORES / 100.0 * 1.0000134)
        with pytest.raises(UsageError, match=(
                r"^\(lambda_above_per_mm3 \+ lambda_below_per_mm3\) \* specimen_volume_mm3 = "
                r"1\.00001e\+07 expected pores is above 1e\+07")):
            generate_specimen(above, 1)


class TestBruteForceTruth:
    def test_matches_closed_marginal(self):
        truth = make_truth(shape=0.2, lam_above=2.0, lam_below=20.0)
        volume = 10.0  # tail count ~20 per replication
        ecdf = brute_force_largest(truth, volume, 100_000, seed=31)
        closed = truth_marginal_cdf(truth, volume)
        grid = np.linspace(0.1, 80.0, 2000)
        assert ks_statistic(ecdf, FunctionCdf(closed, grid)) < 0.01

    def test_bounded_shape_concentrates_at_support_bound(self):
        truth = make_truth(shape=-0.5, lam_above=50.0, lam_below=0.0)
        bound = truth.tail.upper_support_um if hasattr(truth.tail, "upper_support_um") else None
        bound = truth.tail.threshold_um - truth.tail.scale_um / truth.tail.shape
        ecdf = brute_force_largest(truth, 100.0, 2000, seed=5)  # ~5000 pores each
        maxima = ecdf._sorted
        assert maxima.max() <= bound + 1e-9
        assert np.mean(maxima > bound - 0.3) > 0.99

    def test_zero_rates_all_empty(self):
        truth = make_truth(lam_above=0.0, lam_below=0.0)
        ecdf = brute_force_largest(truth, 50.0, 1000, seed=2)
        assert np.all(ecdf._sorted == 0.0)


class TestBruteForceFit:
    def test_plain_gpd_draws_match_scipy(self):
        rng = np.random.default_rng(11)
        for shape in (-0.4, 0.0, 0.3):
            draws = _gpd_draws_plain(
                rng, 10.0, np.full(20000, 2.0), np.full(20000, float(shape))
            )
            ref = genpareto.cdf(draws, c=shape, loc=10.0, scale=2.0)
            assert kstest(ref, "uniform").pvalue > 0.001

    def test_mode_none_refused(self):
        with pytest.raises(ValueError, match="poisson_only|all"):
            brute_force_fit_largest(synthetic_fit(), 10.0, 100, 1, uncertainty_mode="none")

    def test_requires_covariance_for_all(self):
        from poretail.extremes import CovarianceUnavailableError

        with pytest.raises(CovarianceUnavailableError):
            brute_force_fit_largest(
                synthetic_fit(with_covariance=False), 10.0, 100, 1, uncertainty_mode="all"
            )

    def test_poisson_only_matches_closed_marginal(self):
        # pinned parameters, rate se forced to zero: the only randomness is
        # the Poisson count, so the marginal is exp(-lam V (1 - F^1))-style
        from dataclasses import replace

        fit = replace(synthetic_fit(lam_above=2.0), lambda_above_se=0.0)
        volume = 10.0
        ecdf = brute_force_fit_largest(fit, volume, 80_000, seed=3,
                                       uncertainty_mode="poisson_only")
        grid = np.linspace(fit.params.threshold_um + 1e-9, 80.0, 1500)
        f_tail = genpareto.cdf(grid, c=fit.params.shape, loc=fit.params.threshold_um,
                               scale=fit.params.scale_um)
        closed = np.exp(-2.0 * volume * (1.0 - f_tail))
        ecdf_vals = ecdf.cdf(grid)
        assert np.max(np.abs(ecdf_vals - closed)) < 0.01


class TestRoundTrips:
    def test_estimator_recovery_from_generated_specimens(self):
        truth = make_truth(shape=0.2, lam_above=50.0, lam_below=5.0, volume=100.0)
        hits = 0
        reps = 50
        for seed in range(reps):
            ds = generate_specimen(truth, 1000 + seed)
            fit = fit_tail(ds, truth.tail.threshold_um)
            cov = mle_covariance(truth.tail.scale_um, truth.tail.shape, fit.n_exceed)
            ok_scale = abs(fit.params.scale_um - 3.0) < 3.0 * np.sqrt(cov[0, 0])
            ok_shape = abs(fit.params.shape - 0.2) < 3.0 * np.sqrt(cov[1, 1])
            hits += ok_scale and ok_shape
        assert hits / reps >= 0.90

    def test_pipeline_round_trip(self):
        # fit a generated specimen, push it through the Monte Carlo engine,
        # and compare with direct simulation of the ground truth
        truth = make_truth(shape=0.1, lam_above=20.0, lam_below=10.0, volume=2000.0)
        ds = generate_specimen(truth, 77)
        fit = fit_tail(ds, truth.tail.threshold_um)
        volume = 5.0
        cfg = McConfig(seed=9, n_count_samples=200, n_param_samples=30,
                       n_p_samples=5000, uncertainty_mode="all")
        dist = sample_largest(fit, VolumeOfInterest(volume), cfg)
        oracle = brute_force_largest(truth, volume, 100_000, seed=13)
        assert ks_statistic(dist, oracle) < 0.03
