"""Cross-check of the benchmark's closed-form reference against brute force.

``poretail.brute_force_fit_largest`` simulates every volume pore by pore
(1e6 replications), so its empirical CDF lies within the
Dvoretzky-Kiefer-Wolfowitz band sqrt(ln(2/alpha) / 2n) of the true law with
probability 1 - alpha. The reference must sit inside that band in both
sampled modes, at a volume dominated by the zero-count fallback and at one
dominated by the tail.

Run with: PYTHONPATH=src python -m pytest bench/test_reference.py
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import poretail as pt
import reference
from poretail.reports import write_fit_report

REPLICATIONS = 1_000_000
ALPHA = 0.05
DKW_BAND = math.sqrt(math.log(2.0 / ALPHA) / (2.0 * REPLICATIONS))

TRUTH = pt.GroundTruth(
    tail=pt.GpdParams(threshold_um=20.0, scale_um=3.0, shape=0.1),
    lambda_above_per_mm3=10.0,
    lambda_below_per_mm3=40.0,
    specimen_volume_mm3=50.0,
    bulk=pt.BulkModel(log_mean=2.0, log_sigma=0.5),
)


@pytest.fixture(scope="module")
def tail_fit():
    dataset = pt.generate_specimen(TRUTH, seed=5, specimen_id="REF")
    return pt.fit_tail(dataset, 20.0)


@pytest.mark.parametrize("mode", ["poisson_only", "all"])
@pytest.mark.parametrize("expected_tail_count", [0.3, 30.0])
def test_reference_within_dkw_band_of_brute_force(tail_fit, mode, expected_tail_count):
    fit = reference.Fit.from_tail_fit(tail_fit)
    volume = expected_tail_count / fit.lam
    oracle = pt.brute_force_fit_largest(
        tail_fit, volume, REPLICATIONS, seed=2024, uncertainty_mode=mode
    )
    grid = np.unique(np.quantile(oracle.knots(), np.linspace(0.0, 1.0, 4001)))
    gap = np.abs(reference.largest_cdf(fit, volume, mode, grid) - oracle.cdf(grid)).max()
    p_zero = reference.zero_count_probability(fit, volume, mode)
    print(f"\n{mode} lamV={expected_tail_count:g} P(N=0)={p_zero:.3f} sup gap {gap:.5f} band {DKW_BAND:.5f}")
    assert gap <= DKW_BAND


@pytest.mark.parametrize("shape", [0.1, 0.35])
@pytest.mark.parametrize("expected_tail_count", [0.3, 1000.0])
def test_gauss_hermite_rule_has_converged(shape, expected_tail_count):
    # The benchmark's tails (the README truth and the heavy one, shape 0.35)
    # at about 300 exceedances, the wider of its two parameter spreads.
    truth = pt.GroundTruth(
        tail=pt.GpdParams(threshold_um=20.0, scale_um=3.0, shape=shape),
        lambda_above_per_mm3=1.5,
        lambda_below_per_mm3=10.0,
        specimen_volume_mm3=200.0,
        bulk=pt.BulkModel(log_mean=2.0, log_sigma=0.5),
    )
    fit = reference.Fit.from_tail_fit(pt.fit_tail(pt.generate_specimen(truth, seed=5, specimen_id="GH"), 20.0))
    volume = expected_tail_count / fit.lam
    d = fit.threshold + fit.scale * np.geomspace(1e-3, 1e3, 400)
    coarse = reference.largest_cdf(fit, volume, "all", d)
    fine = reference.largest_cdf(fit, volume, "all", d, nodes=200)
    np.testing.assert_allclose(coarse, fine, rtol=0, atol=1e-9)


@pytest.mark.parametrize("lam, se", [(10.0, 0.5), (2.0, 1.5), (0.3, 0.5)])
def test_clamped_rate_marginalisation_matches_quadrature(lam, se):
    # Brute force at affordable volumes barely feels the rate's uncertainty,
    # so its closed form is checked on its own: E exp(-a max(X, 0)).
    for a in (0.0, 0.1, 1.0, 10.0, 100.0):
        tail, _ = quad(lambda x: np.exp(-a * x) * norm.pdf(x, lam, se), 0.0, lam + 40.0 * se, points=[lam])
        expected = norm.cdf(-lam / se) + tail
        got = np.exp(reference._log_laplace_clamped(np.float64(a), lam, se))
        assert got == pytest.approx(expected, rel=1e-7, abs=1e-12)


def test_mode_none_is_the_pinned_power_of_the_tail_cdf(tail_fit):
    fit = reference.Fit.from_tail_fit(tail_fit)
    d = np.linspace(fit.threshold, fit.threshold + 20.0 * fit.scale, 257)
    count = fit.lam * 2.0
    expected = np.asarray(pt.largest_cdf_closed(tail_fit.params, count, d))
    np.testing.assert_allclose(reference.largest_cdf(fit, 2.0, "none", d), expected, rtol=0, atol=1e-12)


def test_fit_report_round_trip(tail_fit, tmp_path):
    path = tmp_path / "fit.txt"
    write_fit_report(tail_fit, path)
    parsed = reference.Fit.from_report(path)
    direct = reference.Fit.from_tail_fit(tail_fit)
    for name in ("threshold", "scale", "shape", "lam", "lam_se", "lam_below", "n_exceed"):
        assert getattr(parsed, name) == getattr(direct, name)
    np.testing.assert_array_equal(parsed.cov, direct.cov)
    np.testing.assert_array_equal(parsed.emp_below, direct.emp_below)
