"""Acceptance suite: one test per criterion, each printing a PASS line.

Every stochastic check runs with a frozen seed and configuration chosen
during calibration so that the margin to the stated tolerance is
comfortable; the tolerances themselves are asserted exactly as stated.
Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import resource
import time

import numpy as np
import pytest
from scipy.stats import genpareto, kstest

import poretail as pt
from poretail.gpd import mle_covariance, mom_covariance
from poretail.threshold import mean_excess_curve, stability_scan

from conftest import synthetic_fit


def report(number: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {number} ({name}): PASS - {detail}")


def test_criterion_01_estimator_recovery():
    t0 = time.perf_counter()
    worst = 1.0
    for shape in (-0.3, 0.0, 0.3):
        hits = 0
        for rep in range(200):
            rng = np.random.default_rng(100_000 + rep)
            x = genpareto.rvs(c=shape, loc=10.0, scale=1.0, size=5000,
                              random_state=rng)
            fit = pt.select_estimator(x, 10.0)
            if fit.estimator == "MLE":
                cov = mle_covariance(1.0, shape, 5000)
            else:
                cov = mom_covariance(1.0, shape, 5000)
            hits += (
                abs(fit.params.scale_um - 1.0) < 3.0 * np.sqrt(cov[0, 0])
                and abs(fit.params.shape - shape) < 3.0 * np.sqrt(cov[1, 1])
            )
        rate = hits / 200.0
        worst = min(worst, rate)
        assert rate >= 0.95, f"shape {shape}: only {hits}/200 inside 3 SE"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.0f}s exceeds 2 min"
    report(1, "estimator recovery",
           f"worst hit rate {worst:.1%} over 200 reps per shape, {elapsed:.0f}s")


def test_criterion_02_covariance_consistency_at_shape_zero():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        scale = float(rng.uniform(0.1, 100.0))
        n = int(rng.integers(30, 100_000))
        gap = np.max(np.abs(mle_covariance(scale, 0.0, n) - mom_covariance(scale, 0.0, n)))
        worst = max(worst, float(gap))
        assert gap <= 1e-12
    report(2, "covariance consistency", f"max |MLE - MOM| at shape 0 = {worst:.2e}")


def test_criterion_03_closed_form_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(5):
        shape = float(rng.uniform(-0.4, 0.6))
        scale = float(rng.uniform(1.0, 5.0))
        mu = float(rng.uniform(10.0, 30.0))
        count = float(rng.uniform(3.0, 80.0))
        fit = synthetic_fit(threshold=mu, scale=scale, shape=shape, n_exceed=1000,
                            lam_above=count / 50.0, lam_below=10.0, emp_seed=k + 1)
        cfg = pt.McConfig(seed=300 + k, n_count_samples=1, n_param_samples=1,
                          n_p_samples=1_000_000, uncertainty_mode="none")
        dist = pt.sample_largest(fit, pt.VolumeOfInterest(50.0), cfg)
        closed = np.asarray(pt.largest_cdf_closed(fit.params, count, dist.bin_edges_um))
        ks = float(np.max(np.abs(dist.cdf_at_edges - closed)))
        worst = max(worst, ks)
        assert ks <= 0.01, f"set {k} (shape {shape:.2f}): KS {ks:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.0f}s exceeds 1 min"
    report(3, "closed-form oracle",
           f"worst KS {worst:.4f} over 5 parameter sets at 1e6 draws, {elapsed:.0f}s")


def test_criterion_04_full_uncertainty_oracle():
    t0 = time.perf_counter()
    volume = 2.0
    worst = 0.0
    for shape in (-0.25, 0.05, 0.35):
        fit = synthetic_fit(threshold=20.0, scale=3.0, shape=shape,
                            n_exceed=300_000, lam_above=100.0, lam_below=50.0,
                            n_below=500, emp_seed=1)
        oracle = pt.brute_force_fit_largest(fit, volume, 1_000_000, seed=999,
                                            uncertainty_mode="all")
        cfg = pt.McConfig(seed=1, n_count_samples=500, n_param_samples=50,
                          n_p_samples=40_000, uncertainty_mode="all")
        dist = pt.sample_largest(fit, pt.VolumeOfInterest(volume), cfg)
        ks = pt.ks_statistic(dist, oracle)
        worst = max(worst, ks)
        assert ks <= 0.01, f"shape {shape}: KS {ks:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5 min"
    report(4, "full-UQ oracle",
           f"worst KS {worst:.4f} vs 1e6-draw brute force over 3 fits, {elapsed:.0f}s")


def test_criterion_05_mean_excess_linearity():
    rng = np.random.default_rng(2)
    x = genpareto.rvs(c=0.5, loc=0.0, scale=1.0, size=10_000, random_state=rng)
    grid = np.unique(np.quantile(x, np.arange(0.01, 0.8501, 0.01)))
    scan = mean_excess_curve(x, grid)
    mus = np.array([c.threshold_um for c in scan.candidates])
    mes = np.array([c.mean_excess_um for c in scan.candidates])
    slope = float(np.polyfit(mus, mes, 1)[0])
    assert abs(slope - 1.0) < 0.10, f"slope {slope:.3f} not within 10% of 1.0"
    report(5, "mean-excess linearity", f"least-squares slope {slope:.3f} vs 1.0")


def test_criterion_06_modified_scale_stability():
    hits = tried = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = genpareto.rvs(c=0.2, loc=15.0, scale=2.0, size=8000, random_state=rng)
        candidates = np.quantile(x, np.arange(0.001, 0.35, 0.03))
        scan = stability_scan(x, candidates)
        passing = [c for c in scan.candidates if c.passes]
        if len(passing) < 2:
            continue
        tried += 1
        first, last = passing[0], passing[-1]
        pooled = float(np.hypot(first.sigma_star_se, last.sigma_star_se))
        hits += abs(first.sigma_star_um - last.sigma_star_um) < 2.0 * pooled
    assert tried >= 90, f"only {tried}/100 replications produced two passing thresholds"
    assert hits / tried >= 0.90, f"agreement rate {hits}/{tried}"
    report(6, "modified-scale stability",
           f"{hits}/{tried} replications agree within 2 pooled SE")


def test_criterion_07_q_value_uniformity():
    fit = synthetic_fit(threshold=20.0, scale=3.0, shape=0.1, n_exceed=500,
                        lam_above=1.0, lam_below=40.0, emp_seed=2)
    cfg = pt.McConfig(seed=77, n_count_samples=300, n_param_samples=50,
                      n_p_samples=1000, uncertainty_mode="all")
    dist = pt.sample_largest(fit, pt.VolumeOfInterest(100.0), cfg)
    draws = dist.sample(500, np.random.default_rng(5))
    q_values = np.asarray(dist.cdf(draws))
    result = kstest(q_values, "uniform")
    assert result.pvalue > 0.01, f"uniformity rejected: p = {result.pvalue:.4f}"
    report(7, "q-value uniformity",
           f"KS-vs-uniform p-value {result.pvalue:.3f} on 500 self-sampled observations")


def test_criterion_08_uncertainty_trend_across_volumes():
    fit = synthetic_fit(threshold=30.0, scale=5.0, shape=0.02, n_exceed=400,
                        lam_above=0.8, lam_below=30.0, n_below=2000, emp_seed=4)
    volumes = [25.0, 50.0, 100.0, 250.0, 500.0]
    rows = pt.mode_comparison_table(fit, volumes, pt.McConfig(seed=1))
    ks_poisson = [row[1] for row in rows]
    ks_all = [row[2] for row in rows]
    assert all(a <= b + 1e-12 for a, b in zip(ks_all, ks_all[1:])), (
        f"KS(traditional vs all) not nondecreasing: {ks_all}"
    )
    assert ks_poisson[-1] < ks_poisson[0], (
        f"KS(traditional vs poisson) did not drop: {ks_poisson[0]:.4f} -> {ks_poisson[-1]:.4f}"
    )
    report(8, "uncertainty trend across volumes",
           f"KS_all {['%.3f' % v for v in ks_all]}, "
           f"KS_poisson {ks_poisson[0]:.3f} -> {ks_poisson[-1]:.3f}")


def test_criterion_09_volume_sweep_plateau():
    fit = synthetic_fit(threshold=20.0, scale=3.0, shape=-0.45, n_exceed=2000,
                        lam_above=1.0, lam_below=20.0, n_below=800, emp_seed=6,
                        with_covariance=False)
    bound = fit.params.upper_support_um
    cfg = pt.McConfig(seed=3, n_count_samples=500, n_param_samples=1,
                      n_p_samples=2000, uncertainty_mode="poisson_only")
    volumes = [25.0, 50.0, 100.0, 200.0, 400.0]
    points = pt.volume_sweep(fit, volumes, cfg)
    bin_tol = (bound - fit.params.threshold_um) / cfg.histogram_bins
    for a, b in zip(points, points[1:]):
        assert b.p97_5_um >= a.p97_5_um - bin_tol, "97.5th percentile decreased"
    for point in points:
        assert point.p97_5_um <= bound + 1e-9, "percentile exceeds support bound"
    change = abs(points[-1].mean_um - points[-2].mean_um) / points[-2].mean_um
    assert change < 0.01, f"mean changed {change:.2%} between the two largest volumes"
    report(9, "volume-sweep plateau",
           f"mean change {change:.3%} between {volumes[-2]:g} and {volumes[-1]:g} mm3; "
           f"97.5th percentile bounded by {bound:.2f} um")


def test_criterion_10_performance_and_determinism(monkeypatch):
    # the engine evaluates the diameters in blocks of at most _CHUNK_ELEMENTS
    # node-diameter pairs; the result must not depend on the block size,
    # from one diameter per block to blocks 16 times the default
    fit = synthetic_fit(threshold=20.0, scale=3.0, shape=0.1, n_exceed=100_000,
                        lam_above=100.0, lam_below=50.0, n_below=500, emp_seed=1)
    voi = pt.VolumeOfInterest(2.0)
    cfg = pt.McConfig(uncertainty_mode="all")
    sizes = (pt.extremes._CHUNK_ELEMENTS, 1, 100_003, 1 << 20)

    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    runs = {}
    timings = {}
    for size in sizes:
        monkeypatch.setattr(pt.extremes, "_CHUNK_ELEMENTS", size)
        t0 = time.perf_counter()
        runs[size] = pt.sample_largest(fit, voi, cfg)
        timings[size] = time.perf_counter() - t0
        assert timings[size] < 300.0, f"blocks of {size} took {timings[size]:.0f}s"
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    ref = runs[sizes[0]]
    assert ref.nodes_per_axis > 1
    for size in sizes[1:]:
        other = runs[size]
        assert ref.pdf_mass.tobytes() == other.pdf_mass.tobytes()
        assert ref.cdf_at_edges.tobytes() == other.cdf_at_edges.tobytes()
        assert ref.bin_edges_um.tobytes() == other.bin_edges_um.tobytes()
        assert ref.summary() == other.summary()

    # bounded blocks: no run materializes all nodes x diameters at once;
    # allow generous slack for allocator noise
    rss_delta_mb = (rss_after - rss_before) / 1024.0
    assert rss_delta_mb < 500.0, f"peak RSS grew {rss_delta_mb:.0f} MB"
    report(10, "performance and determinism",
           f"{ref.n_samples_total} (scale, shape) nodes in "
           + "/".join(f"{timings[size]:.2f}s" for size in sizes)
           + f" (blocks of {'/'.join(map(str, sizes))} pairs), byte-identical, "
           f"RSS delta {rss_delta_mb:.0f} MB")
