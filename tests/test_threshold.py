import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import genpareto

from poretail.extremes import fit_tail
from poretail.gpd import FitError, GpdParams, TailFit, mle_covariance, select_estimator
from poretail.threshold import (
    SCAN_COLUMNS,
    CandidateDiagnostics,
    ThresholdScan,
    ThresholdSelectionError,
    default_candidate_grid,
    mean_excess_curve,
    modified_scale,
    modified_scale_se,
    select_threshold,
    stability_scan,
)

from conftest import make_dataset


def gpd_sample(shape, n, seed, scale=1.0, threshold=0.0):
    rng = np.random.default_rng(seed)
    return genpareto.rvs(c=shape, loc=threshold, scale=scale, size=n, random_state=rng)


class TestMeanExcess:
    def test_hand_arithmetic(self):
        scan = mean_excess_curve(np.array([1.0, 2.0, 3.0]), [0.5])
        assert scan.candidates[0].mean_excess_um == pytest.approx(1.5)
        assert scan.candidates[0].n_exceed == 3

    def test_exponential_data_flat_at_scale(self):
        # shape 0 tail: mean excess equals the scale at every threshold
        x = gpd_sample(0.0, 20_000, 8)
        scan = mean_excess_curve(x, np.quantile(x, [0.2, 0.5, 0.8]))
        for cand in scan.candidates:
            excess = x[x > cand.threshold_um] - cand.threshold_um
            tol = 3.0 * np.std(excess) / np.sqrt(cand.n_exceed)
            assert abs(cand.mean_excess_um - 1.0) < tol

    def test_slope_matches_shape_over_one_minus_shape(self):
        x = gpd_sample(0.5, 10_000, 2)
        grid = np.unique(np.quantile(x, np.arange(0.01, 0.8501, 0.01)))
        scan = mean_excess_curve(x, grid)
        mus = np.array([c.threshold_um for c in scan.candidates])
        mes = np.array([c.mean_excess_um for c in scan.candidates])
        slope = np.polyfit(mus, mes, 1)[0]
        assert abs(slope - 1.0) < 0.1

    def test_candidate_above_max_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="excluded"):
            scan = mean_excess_curve(np.array([1.0, 2.0, 3.0]), [0.5, 10.0])
        assert len(scan.candidates) == 1

    def test_repeated_candidates_listed_once(self):
        scan = mean_excess_curve(np.array([1.0, 2.0, 3.0]), [0.5, 1.5, 0.5, 1.5, 0.5])
        assert [c.threshold_um for c in scan.candidates] == [0.5, 1.5]
        assert [c.mean_excess_um for c in scan.candidates] == [1.5, 1.0]


class TestOneWarningPerScan:
    # the candidates left with too few exceedances are a run at the top of
    # the grid; they used to be warned about one by one
    def only_warning(self, scan, *args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = scan(*args, **kwargs)
        assert [w.category for w in caught] == [UserWarning]
        return result, str(caught[0].message)

    def test_stability_scan(self):
        x = gpd_sample(0.1, 3000, 13)
        grid = np.quantile(x, [0.3, 0.5, 0.7, 0.995, 0.998, 0.999])
        scan, message = self.only_warning(stability_scan, x, grid)
        assert message == (f"candidate {grid[3]} and up (3 candidate(s)) retain fewer "
                           "than 30 exceedances; excluded")
        assert [c.threshold_um for c in scan.candidates] == list(grid[:3])

    def test_mean_excess_curve(self):
        scan, message = self.only_warning(
            mean_excess_curve, np.arange(1.0, 11.0), [10.5, 0.5, 9.5, 8.5, 9.75]
        )
        assert message == ("candidate 9.5 and up (3 candidate(s)) retain fewer than 2 "
                           "exceedances; excluded")
        assert [c.threshold_um for c in scan.candidates] == [0.5, 8.5]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    levels=st.lists(st.integers(1, 25), min_size=1, max_size=80),
    picks=st.lists(st.integers(1, 27), min_size=1, max_size=6),
    order=st.randoms(use_true_random=False),
)
def test_prefix_split_matches_the_masks(levels, picks, order):
    # diameters with ties, as a dataset (largest first) and as a shuffled
    # array; the candidates repeat and may tie with a diameter
    dataset = make_dataset(np.array(levels) * 1.5)
    d = dataset.diameters_um
    shuffled = d.copy()
    order.shuffle(shuffled)
    candidates = [1.5 * p for p in picks + picks]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for data, x in ((dataset, d), (shuffled, shuffled)):
            for scan in (mean_excess_curve(data, candidates),
                         stability_scan(data, candidates, min_tail_count=2)):
                assert [c.threshold_um for c in scan.candidates] == [
                    mu for mu in sorted(set(candidates)) if np.sum(d > mu) >= 2
                ]
                for c in scan.candidates:
                    tail = x[x > c.threshold_um]
                    mean = float(np.mean(tail - c.threshold_um))
                    assert c.n_exceed == tail.size
                    # the array is sorted before the scan, so its sum may
                    # differ from the mask's in the last bits
                    assert c.mean_excess_um == (mean if x is d else pytest.approx(mean))
    for mu in sorted(set(candidates)):
        try:
            fit = fit_tail(dataset, mu, min_tail_count=2)
        except FitError:
            continue
        assert fit.exceedances_um.tobytes() == d[d > mu].tobytes()
        assert fit.empirical_below_um.tobytes() == np.sort(d[d <= mu]).tobytes()


def test_empty_dataset_has_no_candidate_grid():
    with pytest.raises(FitError, match="^dataset has no pores; nothing to fit$"):
        default_candidate_grid(np.empty(0))


@pytest.mark.parametrize("scan", [mean_excess_curve, stability_scan, default_candidate_grid])
def test_nonfinite_array_diameter_refused(scan):
    # the masks used to skip a NaN; sorted, it would lead every tail
    args = () if scan is default_candidate_grid else ([1.0],)
    with pytest.raises(ValueError, match="diameters must be finite"):
        scan(np.array([3.0, np.nan, 2.0]), *args)


class TestModifiedScale:
    def test_hand_arithmetic(self):
        assert modified_scale(2.0, 0.25, 4.0) == pytest.approx(1.0)

    def test_se_from_covariance(self):
        fit = TailFit(GpdParams(4.0, 2.0, 0.1), mle_covariance(2.0, 0.1, 400),
                      "MLE", 400)
        se = modified_scale_se(fit)
        cov = fit.covariance
        expected = np.sqrt(cov[0, 0] + 16.0 * cov[1, 1] - 8.0 * cov[0, 1])
        assert se == pytest.approx(expected)

    def test_constant_across_thresholds_for_exact_tail(self):
        # fitted sigma* at two passing thresholds should agree within two
        # pooled standard errors
        x = gpd_sample(0.2, 8000, 3, scale=2.0, threshold=15.0)
        candidates = np.quantile(x, np.arange(0.001, 0.40, 0.02))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scan = stability_scan(x, candidates)
        passing = [c for c in scan.candidates if c.passes]
        assert len(passing) >= 2
        a, b = passing[0], passing[-1]
        pooled = np.hypot(a.sigma_star_se, b.sigma_star_se)
        assert abs(a.sigma_star_um - b.sigma_star_um) < 2.0 * pooled


class TestStabilityScan:
    def test_exact_gpd_first_candidate_passes(self):
        x = gpd_sample(0.2, 8000, 0, scale=2.0, threshold=15.0)
        candidates = np.quantile(x, np.arange(0.001, 0.90, 0.01))
        scan = stability_scan(x, candidates)
        assert scan.candidates[0].passes

    def test_low_count_candidates_dropped_with_warning(self):
        x = gpd_sample(0.0, 200, 5)
        with pytest.warns(UserWarning, match="excluded"):
            scan = stability_scan(x, np.quantile(x, [0.1, 0.99]), min_tail_count=30)
        assert len(scan.candidates) == 1

    def test_exceedance_counts_nonincreasing(self):
        x = gpd_sample(0.3, 5000, 9)
        scan = stability_scan(x, default_candidate_grid(x))
        counts = [c.n_exceed for c in scan.candidates]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_mixture_passes_only_past_crossover(self):
        # sharply peaked bulk below 20um, exact tail above; the stability
        # policy should not accept any candidate inside the bulk
        rng = np.random.default_rng(0)
        log_med, log_sig, crossover = np.log(17.0), 0.10, 20.0
        cap = ndtr((np.log(crossover) - log_med) / log_sig)
        bulk = np.exp(log_med + log_sig * ndtri(rng.random(6000) * cap))
        tail = genpareto.rvs(c=0.1, loc=crossover, scale=3.0, size=6000,
                             random_state=rng)
        data = np.concatenate([bulk, tail])
        scan = stability_scan(data, default_candidate_grid(data))
        passing = [c.threshold_um for c in scan.candidates if c.passes]
        assert passing, "no candidate passed at all"
        assert min(passing) > crossover - 0.5
        selected = select_threshold(scan)
        assert abs(selected - crossover) < 0.5

    def test_deterministic(self):
        x = gpd_sample(0.1, 3000, 13)
        grid = default_candidate_grid(x)
        one = stability_scan(x, grid)
        two = stability_scan(x, grid)
        for a, b in zip(one.candidates, two.candidates):
            assert a.threshold_um == b.threshold_um
            assert (a.stability_score == b.stability_score) or (
                np.isnan(a.stability_score) and np.isnan(b.stability_score)
            )
            assert a.passes == b.passes

    def test_candidate_without_usable_forward_is_unscored(self):
        # the last candidate has nothing ahead of it to compare with; it used
        # to score 0.0 and pass, so a lone candidate was always selected
        x = gpd_sample(0.1, 3000, 13)
        scan = stability_scan(x, np.quantile(x, [0.3, 0.5, 0.7]))
        assert all(np.isfinite(c.stability_score) for c in scan.candidates[:-1])
        last = scan.candidates[-1]
        assert np.isfinite(last.xi_hat) and np.isnan(last.stability_score) and not last.passes
        lone = stability_scan(x, [np.quantile(x, 0.5)])
        with pytest.raises(ThresholdSelectionError, match="no candidate threshold passed"):
            select_threshold(lone)

    def test_failed_fit_leaves_nan_estimates_and_no_score(self):
        # the top candidate keeps a tail of identical diameters, which no fit
        # accepts; with a window of 1 the candidate below it has no fitted
        # candidate to compare with, and the one below that has
        x = np.concatenate([gpd_sample(0.1, 3000, 13), np.full(40, 1000.0)])
        top = 500.0
        with pytest.raises(FitError, match="non-zero variance"):
            select_estimator(x[x > top], top)
        scan = stability_scan(x, [*np.quantile(x[:3000], [0.3, 0.5]), top], window=1)
        lowest, middle, failed = scan.candidates
        assert np.isnan([failed.sigma_hat_um, failed.xi_hat, failed.stability_score]).all()
        assert not failed.passes
        assert np.isfinite(middle.xi_hat) and np.isnan(middle.stability_score)
        assert not middle.passes
        assert np.isfinite(lowest.stability_score)

    def test_repeated_candidates_scanned_once(self):
        x = gpd_sample(0.1, 3000, 13)
        grid = np.quantile(x, [0.3, 0.5, 0.7])
        rows = lambda scan: [repr(astuple(c)) for c in scan.candidates]
        assert rows(stability_scan(x, np.repeat(grid, 3)[::-1])) == rows(stability_scan(x, grid))

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_refused(self, window):
        x = gpd_sample(0.1, 3000, 13)
        with pytest.raises(ValueError, match=rf"stability window = {window} must be at least 1"):
            stability_scan(x, np.quantile(x, [0.3, 0.5]), window=window)


class TestSelectThreshold:
    def scan_with_passes(self, passes):
        candidates = [
            CandidateDiagnostics(threshold_um=float(i), n_exceed=100,
                                 stability_score=0.1 if p else 5.0, passes=p)
            for i, p in enumerate(passes)
        ]
        return ThresholdScan(candidates=candidates)

    def test_first_passing_returned(self):
        scan = self.scan_with_passes([False, False, True, True])
        assert select_threshold(scan) == 2.0

    def test_no_pass_raises_with_near_misses(self):
        scan = self.scan_with_passes([False, False, False])
        with pytest.raises(ThresholdSelectionError, match="near-miss"):
            select_threshold(scan)

    def test_exact_gpd_selects_within_one_step(self):
        x = gpd_sample(0.2, 8000, 1, scale=2.0, threshold=15.0)
        candidates = np.quantile(x, np.arange(0.001, 0.90, 0.01))
        scan = stability_scan(x, candidates)
        selected = select_threshold(scan)
        assert selected <= candidates[1]


def test_default_grid_spans_50_to_99_percent():
    x = np.linspace(1.0, 100.0, 1000)
    grid = default_candidate_grid(x)
    assert grid[0] == pytest.approx(np.quantile(x, 0.50))
    assert grid[-1] == pytest.approx(np.quantile(x, 0.99))
    assert np.all(np.diff(grid) > 0)


def test_scan_columns_are_candidate_fields():
    # the scan table's columns are read off each candidate by name
    assert len(SCAN_COLUMNS) == 8
    assert set(SCAN_COLUMNS) <= {f.name for f in fields(CandidateDiagnostics)}
