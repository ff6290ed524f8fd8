import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from poretail import extremes
from poretail.equivalence import ks_statistic
from poretail.extremes import (
    CovarianceUnavailableError,
    LargestPoreDistribution,
    McConfig,
    VolumeOfInterest,
    estimate_rates,
    fit_tail,
    largest_cdf_closed,
    largest_quantile_closed,
    sample_largest,
    volume_sweep,
)
from poretail.geometry import SpecimenDataset, sphere_surface_area
from poretail.gpd import GpdParams
from poretail.synthetic import brute_force_fit_largest

from conftest import differing_fields, synthetic_fit


class TestClosedForms:
    def test_n_one_reduces_to_tail_cdf(self):
        from poretail.gpd import gpd_cdf

        params = GpdParams(0.0, 1.0, 0.5)
        assert largest_cdf_closed(params, 1, 1.0) == pytest.approx(gpd_cdf(params, 1.0))

    def test_power_arithmetic(self):
        params = GpdParams(0.0, 1.0, 0.5)
        assert largest_cdf_closed(params, 2, 1.0) == pytest.approx((1 - 1.5**-2) ** 2, rel=1e-12)
        assert largest_cdf_closed(params, 2, 1.0) == pytest.approx(0.3087, abs=1e-4)

    def test_monotone_in_count(self):
        params = GpdParams(10.0, 2.0, 0.2)
        d = np.linspace(10.5, 40.0, 50)
        for n in (1, 2, 5, 50):
            upper = np.asarray(largest_cdf_closed(params, n, d))
            lower = np.asarray(largest_cdf_closed(params, n + 1, d))
            assert np.all(lower <= upper + 1e-15)

    def test_monotone_in_diameter(self):
        params = GpdParams(10.0, 2.0, -0.3)
        d = np.linspace(10.0 + 1e-9, params.upper_support_um + 2.0, 300)
        f = np.asarray(largest_cdf_closed(params, 7, d))
        assert np.all(np.diff(f) >= -1e-15)
        assert f[-1] == pytest.approx(1.0)

    def test_quantile_matches_single_pore(self):
        from poretail.gpd import gpd_quantile

        params = GpdParams(0.0, 1.0, 1.0)
        assert largest_quantile_closed(params, 1, 0.5) == pytest.approx(
            gpd_quantile(params, 0.5), rel=1e-12
        )

    def test_round_trip_random_pairs(self):
        rng = np.random.default_rng(77)
        params = GpdParams(5.0, 2.0, 0.3)
        p = rng.random(100)
        n = rng.integers(1, 300, 100).astype(float)
        d = np.asarray(largest_quantile_closed(params, n, p))
        back = np.asarray(largest_cdf_closed(params, n, d))
        assert np.max(np.abs(back - p)) < 1e-10

    def test_p_zero_is_threshold(self):
        params = GpdParams(7.0, 2.0, -0.2)
        assert largest_quantile_closed(params, 10, 0.0) == pytest.approx(7.0)

    def test_p_one_unbounded_for_nonnegative_shape(self):
        with pytest.raises(ValueError, match="unbounded"):
            largest_quantile_closed(GpdParams(0.0, 1.0, 0.1), 5, 1.0)

    def test_zero_count_is_fallback_not_here(self):
        with pytest.raises(ValueError, match="fallback"):
            largest_cdf_closed(GpdParams(0.0, 1.0, 0.1), 0, 1.0)

    def test_doubling_volume_shifts_median_like_doubled_count(self):
        params = GpdParams(10.0, 2.0, 0.2)
        one = largest_quantile_closed(params, 40.0, 0.5)
        two = largest_quantile_closed(params, 80.0, 0.5)
        assert two == pytest.approx(
            largest_quantile_closed(params, 40.0, np.sqrt(0.5)), rel=1e-12
        )
        assert two > one


def make_dataset(diameters, volume=100.0):
    d = np.asarray(diameters, dtype=float)
    v = np.pi / 6.0 * d**3

    def text(values):
        return [repr(x) for x in values.tolist()]

    return SpecimenDataset(
        specimen_id="S", geometry_label="", scan_velocity_mm_s=0.0,
        scanned_volume_mm3=volume,
        cells={
            "pore_id": [f"p{i}" for i in range(d.size)],
            "volume_um3": text(v),
            "surface_area_um2": text(sphere_surface_area(v)),
            "min_feret_um": text(d),
            "max_feret_um": text(d),
        },
    )


class TestRates:
    def test_direct_arithmetic(self):
        rng = np.random.default_rng(0)
        d = np.concatenate([rng.uniform(30, 60, 200), rng.uniform(1, 20, 300)])
        rates = estimate_rates(make_dataset(d, volume=100.0), 25.0)
        assert rates.above.rate_per_mm3 == pytest.approx(2.0)
        assert rates.above.se**2 == pytest.approx(0.02)
        assert rates.below.rate_per_mm3 == pytest.approx(3.0)

    def test_conservation_exact(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(1, 50, 137)
        ds = make_dataset(d, volume=7.3)
        rates = estimate_rates(ds, 20.0)
        assert rates.above.rate_per_mm3 + rates.below.rate_per_mm3 == pytest.approx(
            137 / 7.3, rel=1e-15
        )
        assert rates.above.count + rates.below.count == 137

    def test_zero_above_flagged(self):
        rates = estimate_rates(make_dataset([1.0, 2.0]), 10.0)
        assert rates.above.rate_per_mm3 == 0.0
        assert rates.flags


def test_volume_unit_does_not_change_predictions():
    # restating every volume in a unit 1000 times smaller rescales each rate
    # and its standard error alike: rate x volume and the predictions stay
    k = 1000.0
    rng = np.random.default_rng(4)
    d = np.concatenate([20.0 + rng.exponential(3.0, 400), rng.uniform(2.0, 20.0, 1600)])
    base = fit_tail(make_dataset(d, volume=200.0), 20.0)
    scaled = fit_tail(make_dataset(d, volume=200.0 * k), 20.0)
    for key in ("lambda_above_per_mm3", "lambda_above_se", "lambda_below_per_mm3", "lambda_below_se"):
        assert getattr(scaled, key) * 200.0 * k == pytest.approx(getattr(base, key) * 200.0, rel=1e-9)
    for mode in ("poisson_only", "all"):
        cfg = McConfig(seed=1, uncertainty_mode=mode)
        pairs = list(zip(volume_sweep(base, [2.0, 100.0], cfg),
                         volume_sweep(scaled, [2.0 * k, 100.0 * k], cfg)))
        pairs.append((sample_largest(base, VolumeOfInterest(50.0), cfg),
                      sample_largest(scaled, VolumeOfInterest(50.0 * k), cfg)))
        for one, other in pairs:
            for key in ("mean_um", "p2_5_um", "p50_um", "p97_5_um"):
                assert getattr(other, key) == pytest.approx(getattr(one, key), rel=1e-9)


class TestFitTail:
    def test_attaches_rates_and_empirical(self):
        rng = np.random.default_rng(3)
        from scipy.stats import genpareto

        tail = genpareto.rvs(c=0.1, loc=20.0, scale=3.0, size=500, random_state=rng)
        bulk = rng.uniform(2.0, 20.0, 1500)
        ds = make_dataset(np.concatenate([tail, bulk]), volume=250.0)
        fit = fit_tail(ds, 20.0)
        assert fit.lambda_above_per_mm3 == pytest.approx(500 / 250.0)
        assert fit.empirical_below_um.size == 1500
        assert np.all(np.diff(fit.empirical_below_um) >= 0)
        assert fit.fit_id.startswith("S@")


class TestSampleLargest:
    def test_mode_none_matches_closed_form(self, basic_fit):
        voi = VolumeOfInterest(50.0)  # pinned count = 50
        cfg = McConfig(seed=7, n_count_samples=1, n_param_samples=1,
                       n_p_samples=200_000, uncertainty_mode="none")
        dist = sample_largest(basic_fit, voi, cfg)
        closed = np.asarray(
            largest_cdf_closed(basic_fit.params, 50.0, dist.bin_edges_um)
        )
        assert np.max(np.abs(dist.cdf_at_edges - closed)) < 0.01

    def test_masses_total_one(self, basic_fit):
        cfg = McConfig(seed=9, n_count_samples=50, n_param_samples=20,
                       n_p_samples=100, uncertainty_mode="all")
        dist = sample_largest(basic_fit, VolumeOfInterest(2.0), cfg)
        total = dist.no_pore_mass + dist.pdf_mass.sum() + dist.overflow_mass
        assert total == pytest.approx(1.0, abs=1e-6)
        assert dist.cdf_at_edges[-1] + dist.overflow_mass == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.diff(dist.cdf_at_edges) >= 0)

    def test_bit_identical_across_worker_counts(self, basic_fit):
        cfg = McConfig(seed=11, n_count_samples=60, n_param_samples=30,
                       n_p_samples=200, uncertainty_mode="all")
        voi = VolumeOfInterest(0.5)  # low count: exercises the fallback path
        results = [sample_largest(basic_fit, voi, cfg, workers=w) for w in (1, 2, 5)]
        ref = results[0]
        for other in results[1:]:
            assert np.array_equal(ref.pdf_mass, other.pdf_mass)
            assert np.array_equal(ref.cdf_at_edges, other.cdf_at_edges)
            assert ref.mean_um == other.mean_um
            assert ref.no_pore_mass == other.no_pore_mass
            assert ref.overflow_mass == other.overflow_mass

    def test_independent_of_block_size(self, basic_fit, monkeypatch):
        cfg = McConfig(seed=11, n_param_samples=300, uncertainty_mode="all")
        voi = VolumeOfInterest(0.5)  # P(N = 0) about 0.6: fallback and tail
        ref = sample_largest(basic_fit, voi, cfg)
        monkeypatch.setattr(extremes, "_CHUNK_ELEMENTS", 7)
        small = sample_largest(basic_fit, voi, cfg)
        assert ref.bin_edges_um.tobytes() == small.bin_edges_um.tobytes()
        assert ref.cdf_at_edges.tobytes() == small.cdf_at_edges.tobytes()
        assert ref.pdf_mass.tobytes() == small.pdf_mass.tobytes()
        assert ref.mean_um == small.mean_um
        assert ref.no_pore_mass == small.no_pore_mass
        assert ref.overflow_mass == small.overflow_mass

    def test_stores_the_engine_edge_cdf(self, basic_fit, monkeypatch):
        # the CDF is kept as computed; rebuilding it from its differences
        # rounds wherever it more than doubles between edges
        computed = []
        original = extremes._LargestCdf.__call__

        def spy(self, d):
            out = original(self, d)
            computed.append((np.atleast_1d(d), out))
            return out

        monkeypatch.setattr(extremes._LargestCdf, "__call__", spy)
        cfg = McConfig(seed=3, uncertainty_mode="none")
        dist = sample_largest(basic_fit, VolumeOfInterest(100.0), cfg)
        at_edges = next(out for d, out in computed if np.array_equal(d, dist.bin_edges_um))
        expected = np.clip(at_edges, 0.0, 1.0)
        expected[0] = dist.no_pore_mass
        expected = np.maximum.accumulate(expected)
        assert dist.cdf_at_edges.tobytes() == expected.tobytes()

    def test_deterministic_given_seed(self, basic_fit):
        cfg = McConfig(seed=13, n_count_samples=40, n_param_samples=10,
                       n_p_samples=100, uncertainty_mode="poisson_only")
        one = sample_largest(basic_fit, VolumeOfInterest(10.0), cfg)
        two = sample_largest(basic_fit, VolumeOfInterest(10.0), cfg)
        assert np.array_equal(one.pdf_mass, two.pdf_mass)
        assert one.mean_um == two.mean_um

    def test_fallback_only_matches_poisson_compound_closed_form(self):
        # rate above threshold is zero, so every draw goes through the
        # sub-threshold fallback; marginalizing the Poisson count gives
        # CDF(x) = exp(-lam*V*(1 - F_emp(x)))
        fit = synthetic_fit(lam_above=0.0, lam_below=3.0, n_below=400, emp_seed=5)
        fit = replace(fit, lambda_above_se=0.0)
        volume = 2.0
        cfg = McConfig(seed=23, n_count_samples=100, n_param_samples=5,
                       n_p_samples=20_000, uncertainty_mode="poisson_only")
        dist = sample_largest(fit, VolumeOfInterest(volume), cfg)
        emp = fit.empirical_below_um
        grid = dist.bin_edges_um
        f_emp = np.searchsorted(emp, grid, side="right") / emp.size
        closed = np.exp(-3.0 * volume * (1.0 - f_emp))
        assert np.max(np.abs(dist.cdf_at_edges - closed)) < 0.01

    def test_mode_none_zero_rate_uses_pinned_fallback(self):
        # no tail pores expected: the pinned count of sub-threshold pores
        # lam_below*V gives CDF(x) = F_emp(x) ** (lam_below*V)
        fit = synthetic_fit(lam_above=0.0, lam_below=3.0, n_below=400, emp_seed=5)
        volume = 2.0
        cfg = McConfig(seed=23, uncertainty_mode="none")
        dist = sample_largest(fit, VolumeOfInterest(volume), cfg)
        emp = fit.empirical_below_um
        grid = dist.bin_edges_um
        f_emp = np.searchsorted(emp, grid[1:], side="right") / emp.size
        assert grid[0] == emp[0]
        assert np.max(np.abs(dist.cdf_at_edges[1:] - f_emp ** (3.0 * volume))) < 1e-12
        assert dist.no_pore_mass == 0.0

    def test_huge_volume_keeps_rate_uncertainty_finite(self, basic_fit, recwarn):
        # a relative rate error of 3% barely moves the quantiles, however
        # large a*se grows in the clamped-Gaussian Laplace transform
        voi = VolumeOfInterest(1e12)
        poisson = sample_largest(basic_fit, voi, McConfig(seed=1, uncertainty_mode="poisson_only"))
        pinned = sample_largest(basic_fit, voi, McConfig(seed=1, uncertainty_mode="none"))
        assert poisson.p50_um == pytest.approx(pinned.p50_um, rel=0.01)
        assert poisson.p97_5_um == pytest.approx(pinned.p97_5_um, rel=0.01)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_degenerate_point_mass_at_no_pores(self):
        fit = synthetic_fit(lam_above=0.0, lam_below=0.0, n_below=0)
        fit = replace(fit, lambda_above_se=0.0, lambda_below_se=0.0)
        cfg = McConfig(seed=3, n_count_samples=10, n_param_samples=5,
                       n_p_samples=10, uncertainty_mode="poisson_only")
        with pytest.warns(UserWarning):
            dist = sample_largest(fit, VolumeOfInterest(1.0), cfg)
        assert dist.no_pore_mass == 1.0
        assert dist.mean_um == 0.0
        assert dist.quantile(0.99) == 0.0

    def test_covariance_required_for_full_uncertainty(self):
        fit = synthetic_fit(with_covariance=False)
        cfg = McConfig(seed=5, n_count_samples=10, n_param_samples=10,
                       n_p_samples=10, uncertainty_mode="all")
        with pytest.raises(CovarianceUnavailableError):
            sample_largest(fit, VolumeOfInterest(10.0), cfg)

    def test_missing_rates_rejected(self):
        fit = synthetic_fit()
        fit = replace(fit, lambda_above_per_mm3=None)
        cfg = McConfig(seed=5, uncertainty_mode="none")
        with pytest.raises(ValueError, match="rate"):
            sample_largest(fit, VolumeOfInterest(10.0), cfg)

    def test_stochastic_dominance_in_volume(self, basic_fit):
        cfg = McConfig(seed=17, n_count_samples=1, n_param_samples=1,
                       n_p_samples=50_000, uncertainty_mode="none")
        small = sample_largest(basic_fit, VolumeOfInterest(20.0), cfg)
        large = sample_largest(basic_fit, VolumeOfInterest(80.0), cfg)
        grid = np.linspace(21.0, 60.0, 200)
        assert np.all(np.asarray(large.cdf(grid)) <= np.asarray(small.cdf(grid)) + 0.01)

    def test_provenance_echo(self, basic_fit):
        cfg = McConfig(seed=19, n_count_samples=4, n_param_samples=4,
                       n_p_samples=4, uncertainty_mode="poisson_only")
        dist = sample_largest(basic_fit, VolumeOfInterest(5.0), cfg)
        assert dist.provenance["seed"] == 19
        assert dist.provenance["volume_mm3"] == 5.0
        assert dist.provenance["fit_id"] == basic_fit.fit_id
        assert dist.n_samples_total == 1


def fine_rule_cdf(fit, volume, d, nodes=96):
    """Mode-"all" largest-pore CDF at diameters d above the threshold, from a
    nodes x nodes Gauss-Hermite rule over (scale, shape) written here: scipy's
    nodes, mapped through the covariance's symmetric square root, truncated
    to positive scales; nodes lighter than 1e-18 of the heaviest are left
    out. For each node, the clamped-Gaussian Poisson count
    gives Phi(-lam/s) + exp(-a lam + (a s)^2 / 2) Phi(lam/s - a s), a = V S(d).
    """
    from scipy.special import log_ndtr, roots_hermitenorm

    z, w = roots_hermitenorm(nodes)
    values, vectors = np.linalg.eigh(fit.covariance)
    root = vectors @ np.diag(np.sqrt(values)) @ vectors.T
    grid = np.stack(np.meshgrid(z, z, indexing="ij"), axis=-1).reshape(-1, 2)
    scale, shape = (np.array([fit.params.scale_um, fit.params.shape]) + grid @ root).T
    weight = np.outer(w, w).ravel()
    keep = (scale > 0.0) & (weight > 1e-18 * weight.max())
    scale, shape, weight = scale[keep, None], shape[keep, None], weight[keep] / weight[keep].sum()
    lam, s = fit.lambda_above_per_mm3, fit.lambda_above_se

    def cdf(d):
        y = (d - fit.params.threshold_um) / scale
        with np.errstate(divide="ignore", invalid="ignore"):
            log_s = np.where(1.0 + shape * y > 0.0, -np.log1p(shape * y) / shape, -np.inf)
        a = volume * np.exp(log_s)
        inner = -a * lam + 0.5 * (a * s) ** 2 + log_ndtr(lam / s - a * s)
        return weight @ np.exp(np.logaddexp(log_ndtr(-lam / s), inner))

    d = np.asarray(d, dtype=float)
    return np.concatenate([cdf(part) for part in np.array_split(d, -(-d.size // 64))])


class TestParameterRule:
    def test_negative_shape_large_volume_matches_fine_rule(self):
        # 1000 Monte Carlo draws were 0.019 from the fine rule here
        fit = synthetic_fit(shape=-0.25, n_exceed=300)
        dist = sample_largest(fit, VolumeOfInterest(1e4), McConfig(seed=1, uncertainty_mode="all"))
        above = dist.bin_edges_um >= fit.params.threshold_um
        edges = dist.bin_edges_um[above]
        gap = np.max(np.abs(dist.cdf_at_edges[above] - fine_rule_cdf(fit, 1e4, edges)))
        assert gap <= max(dist.cdf_precision, 1e-4)
        assert extremes.FLAG_RULE_UNCONVERGED not in dist.flags

    def test_precision_bounds_error_on_readme_like_fit(self):
        fit = synthetic_fit(lam_above=10.0, n_exceed=2000)
        dist = sample_largest(fit, VolumeOfInterest(100.0), McConfig(seed=1, uncertainty_mode="all"))
        above = dist.bin_edges_um >= fit.params.threshold_um
        edges = dist.bin_edges_um[above]
        gap = np.max(np.abs(dist.cdf_at_edges[above] - fine_rule_cdf(fit, 100.0, edges)))
        assert 0.0 < dist.cdf_precision <= 1e-4
        assert gap <= dist.cdf_precision
        assert dist.n_samples_total == dist.nodes_per_axis**2

    def test_heavy_tail_flags_the_node_cap(self):
        fit = synthetic_fit(shape=0.9, n_exceed=30)
        dist = sample_largest(fit, VolumeOfInterest(100.0), McConfig(seed=1, uncertainty_mode="all"))
        assert extremes.FLAG_RULE_UNCONVERGED in dist.flags
        assert dist.nodes_per_axis == 64
        assert dist.cdf_precision > 1e-4
        # nodes with a non-positive scale are dropped
        assert dist.n_samples_total < 64**2

    @pytest.mark.parametrize("mode", ["none", "poisson_only"])
    def test_pinned_parameters_are_one_exact_node(self, basic_fit, mode):
        dist = sample_largest(basic_fit, VolumeOfInterest(5.0), McConfig(seed=1, uncertainty_mode=mode))
        assert (dist.n_samples_total, dist.nodes_per_axis, dist.cdf_precision) == (1, 1, 0.0)

    def test_seed_and_sample_counts_do_not_matter(self, basic_fit):
        voi = VolumeOfInterest(3.0)
        one = sample_largest(basic_fit, voi, McConfig(seed=1, uncertainty_mode="all"))
        two = sample_largest(basic_fit, voi, McConfig(seed=2, n_count_samples=5, n_param_samples=7,
                                                      n_p_samples=9, uncertainty_mode="all"))
        assert one.cdf_at_edges.tobytes() == two.cdf_at_edges.tobytes()
        assert one.bin_edges_um.tobytes() == two.bin_edges_um.tobytes()
        assert one.summary() == two.summary()


# 99.9% Dvoretzky-Kiefer-Wolfowitz band of the brute-force oracle
ORACLE_REPLICATIONS = 200_000
DKW_BAND = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * ORACLE_REPLICATIONS))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    scale=st.floats(1.0, 5.0),
    shape=st.floats(-0.3, 0.5),
    n_exceed=st.integers(5, 2000),
    lam_above=st.floats(0.2, 5.0),
    lam_v=st.floats(0.05, 20.0),
)
@example(scale=3.0, shape=0.3, n_exceed=50, lam_above=1.0, lam_v=0.2)  # P(N = 0) > 0.8
@example(scale=2.0, shape=-0.3, n_exceed=5, lam_above=0.5, lam_v=0.5)  # clamped rate
def test_poisson_only_cdf_inside_brute_force_band(scale, shape, n_exceed, lam_above, lam_v):
    fit = synthetic_fit(scale=scale, shape=shape, n_exceed=n_exceed, lam_above=lam_above,
                        lam_below=20.0, n_below=300, emp_seed=3)
    volume = lam_v / lam_above
    cfg = McConfig(seed=1, uncertainty_mode="poisson_only")
    dist = sample_largest(fit, VolumeOfInterest(volume), cfg)
    oracle = brute_force_fit_largest(fit, volume, ORACLE_REPLICATIONS, seed=7,
                                     uncertainty_mode="poisson_only")
    edges = dist.bin_edges_um
    # the lowest edge carries the CDF's left limit (its own mass is in bin 0)
    gap = max(
        float(np.max(np.abs(dist.cdf_at_edges[1:] - oracle.cdf(edges[1:])))),
        abs(dist.cdf_at_edges[0] - float(oracle.cdf_left(edges[0]))),
    )
    assert gap <= DKW_BAND


class TestDistributionObject:
    def test_quantile_cdf_consistency(self, basic_fit):
        cfg = McConfig(seed=29, n_count_samples=1, n_param_samples=1,
                       n_p_samples=50_000, uncertainty_mode="none")
        dist = sample_largest(basic_fit, VolumeOfInterest(30.0), cfg)
        for t in (0.1, 0.5, 0.9, 0.975):
            x = dist.quantile(t)
            assert dist.cdf(x) == pytest.approx(t, abs=1e-9)

    def test_sample_respects_distribution(self, basic_fit):
        cfg = McConfig(seed=31, n_count_samples=1, n_param_samples=1,
                       n_p_samples=100_000, uncertainty_mode="none")
        dist = sample_largest(basic_fit, VolumeOfInterest(30.0), cfg)
        rng = np.random.default_rng(0)
        draws = dist.sample(20_000, rng)
        from poretail.equivalence import EmpiricalCdf

        assert ks_statistic(dist, EmpiricalCdf(draws)) < 0.015

    def test_from_masses_validates(self):
        with pytest.raises(ValueError, match="must"):
            LargestPoreDistribution.from_masses(
                [0.0, 1.0, 2.0], [0.5, 0.4], no_pore_mass=0.5
            )

    def test_summaries_derive_from_the_cdf(self):
        edges, cdf = np.array([1.0, 2.0, 4.0]), np.array([0.25, 0.5, 0.75])
        dist = LargestPoreDistribution(edges, cdf)
        assert dist.no_pore_mass == 0.25 and dist.overflow_mass == 0.25
        assert dist.pdf_mass.tolist() == [0.25, 0.25]
        assert dist.mean_um == 0.25 * 1.5 + 0.25 * 3.0 + 0.25 * 4.0
        assert (dist.p2_5_um, dist.p50_um, dist.p97_5_um) == (0.0, 2.0, 4.0)
        for name in ("bin_edges_um", "cdf_at_edges", "pdf_mass"):
            assert not getattr(dist, name).flags.writeable
        # the caller's arrays stay writable and apart from the distribution's
        edges[0], cdf[0] = -1.0, 0.0
        assert dist.bin_edges_um[0] == 1.0 and dist.cdf_at_edges[0] == 0.25

    def test_overflow_fractions_map_to_the_top_edge_exactly(self):
        # 0.2 + 1.0 * (0.9 - 0.2) rounds to 0.9000000000000001
        dist = LargestPoreDistribution(np.array([0.0, 0.2, 0.9]), np.array([0.0, 0.5, 0.9]))
        assert dist.quantile(0.95) == dist.quantile(1.0) == 0.9
        draws = dist.sample(200, np.random.default_rng(0))
        assert draws.max() == 0.9

    def test_quantile_matches_a_per_fraction_reference(self, basic_fit):
        def reference(dist, t):
            cdf, edges = dist.cdf_at_edges, dist.bin_edges_um
            if t <= cdf[0]:
                return 0.0
            if t > cdf[-1]:
                return float(edges[-1])
            j = int(np.searchsorted(cdf, t, side="left"))
            denom = cdf[j] - cdf[j - 1]
            frac = (t - cdf[j - 1]) / denom if denom > 0 else 1.0
            return float(edges[j - 1] + frac * (edges[j] - edges[j - 1]))

        # no sub-threshold pores: a no-pore mass of P(N = 0), about 0.6, and
        # 1e-5 of the mass beyond the top edge
        cfg = McConfig(seed=1, histogram_bins=64, uncertainty_mode="poisson_only")
        with pytest.warns(UserWarning, match=extremes.FLAG_EMPTY_FALLBACK):
            dist = sample_largest(replace(basic_fit, empirical_below_um=np.empty(0)),
                                  VolumeOfInterest(0.5), cfg)
        t = np.concatenate([[0.0, dist.no_pore_mass, 1.0 - 1e-6, 1.0], dist.cdf_at_edges,
                            np.random.default_rng(2).random(500)])
        assert dist.quantile(t).tolist() == [reference(dist, x) for x in t]
        with pytest.raises(ValueError, match="t must lie"):
            dist.quantile(np.array([0.5, 1.5]))

    def test_masses_summing_to_one_leave_no_overflow(self):
        for masses in ([0.1] * 10, [1.0 / 400] * 400, [0.7, 0.2, 0.1]):
            dist = LargestPoreDistribution.from_masses(np.arange(len(masses) + 1.0), masses)
            assert dist.overflow_mass == 0.0
            assert dist.cdf_at_edges[-1] == 1.0

    def test_invariant_validation_rejects_bad_cdf(self):
        with pytest.raises(ValueError):
            LargestPoreDistribution(
                bin_edges_um=np.array([0.0, 1.0]),
                cdf_at_edges=np.array([0.5, 0.2]),
                n_samples_total=10,
            )


class TestVolumeSweep:
    def test_single_volume_matches_sample_largest(self, basic_fit):
        cfg = McConfig(seed=37, n_count_samples=50, n_param_samples=10,
                       n_p_samples=50, uncertainty_mode="poisson_only")
        points = volume_sweep(basic_fit, [25.0], cfg)
        direct = sample_largest(basic_fit, VolumeOfInterest(25.0), cfg)
        assert points[0].mean_um == direct.mean_um
        assert points[0].p97_5_um == direct.p97_5_um

    @pytest.mark.parametrize("mode", ["none", "poisson_only", "all"])
    def test_returns_the_sample_largest_distributions(self, basic_fit, mode):
        cfg = McConfig(seed=5, histogram_bins=128, uncertainty_mode=mode)
        volumes = [0.2, 3.0, 50.0]
        for volume, dist in zip(volumes, volume_sweep(basic_fit, volumes, cfg), strict=True):
            direct = sample_largest(basic_fit, VolumeOfInterest(volume), cfg)
            assert differing_fields(dist, direct) == []

    def test_points_carry_precision_nodes_and_flags(self):
        # the heavy-tail probe: each volume's rule hits the node cap, as in predict
        fit = synthetic_fit(shape=0.9, n_exceed=30)
        cfg = McConfig(seed=1, histogram_bins=64, uncertainty_mode="all")
        points = volume_sweep(fit, [10.0, 100.0], cfg)
        for volume, point in zip([10.0, 100.0], points):
            direct = sample_largest(fit, VolumeOfInterest(volume), cfg)
            assert point.cdf_precision == direct.cdf_precision > 1e-4
            assert point.nodes_per_axis == direct.nodes_per_axis == 64
            assert point.flags == direct.flags
            assert extremes.FLAG_RULE_UNCONVERGED in point.flags

    def test_negative_shape_bounded_by_support(self):
        fit = synthetic_fit(shape=-0.3)
        cfg = McConfig(seed=41, n_count_samples=100, n_param_samples=1,
                       n_p_samples=500, uncertainty_mode="poisson_only")
        points = volume_sweep(fit, [5.0, 10.0, 20.0, 40.0], cfg)
        bound = fit.params.upper_support_um
        for point in points:
            assert point.p97_5_um <= bound + 1e-9

    def test_requires_ascending_positive_nonempty(self, basic_fit):
        cfg = McConfig(seed=1, n_count_samples=2, n_param_samples=2,
                       n_p_samples=2, uncertainty_mode="none")
        with pytest.raises(ValueError):
            volume_sweep(basic_fit, [], cfg)
        with pytest.raises(ValueError):
            volume_sweep(basic_fit, [10.0, 5.0], cfg)
        with pytest.raises(ValueError):
            volume_sweep(basic_fit, [-1.0], cfg)


def test_volume_of_interest_validation():
    with pytest.raises(ValueError):
        VolumeOfInterest(0.0)
    with pytest.raises(ValueError):
        VolumeOfInterest(-5.0)


@pytest.mark.parametrize("volume", [float("inf"), float("nan")])
def test_volume_of_interest_must_be_finite(basic_fit, volume):
    with pytest.raises(ValueError, match="volume_mm3 must be finite and positive"):
        VolumeOfInterest(volume)
    with pytest.raises(ValueError, match="volume_mm3 must be finite and positive"):
        volume_sweep(basic_fit, [10.0, volume], McConfig(seed=1))


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(seed=1, n_count_samples=0)
    with pytest.raises(ValueError):
        McConfig(seed=1, histogram_bins=4)
    with pytest.raises(ValueError):
        McConfig(seed=1, uncertainty_mode="sometimes")
