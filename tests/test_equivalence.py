import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from poretail.equivalence import (
    EmpiricalCdf,
    build_report,
    ks_statistic,
    mode_comparison_table,
    p_value,
    plate_center_from_extents,
    plate_distances,
    q_value,
)
from poretail.extremes import LargestPoreDistribution, McConfig

from conftest import FunctionCdf


def uniform_dist(lo=0.0, hi=1.0, bins=400, **kwargs):
    return LargestPoreDistribution(
        np.linspace(lo, hi, bins + 1), np.linspace(0.0, 1.0, bins + 1), **kwargs
    )


class TestQValue:
    def test_median_maps_to_half(self):
        dist = uniform_dist(10.0, 20.0)
        assert q_value(dist, dist.quantile(0.5)) == pytest.approx(0.5, abs=1 / 400)

    def test_below_all_mass(self):
        dist = uniform_dist(10.0, 20.0)
        assert q_value(dist, 5.0) == 0.0
        assert q_value(dist, 0.0) == 0.0

    def test_monotone_in_observed(self):
        dist = uniform_dist(0.0, 50.0)
        obs = np.linspace(0.0, 60.0, 100)
        values = [q_value(dist, x) for x in obs]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_above_range_reports_floor_with_warning(self):
        # 0.01 of the mass lies beyond the top edge
        dist = LargestPoreDistribution(np.linspace(0.0, 1.0, 101), np.linspace(0.0, 0.99, 101))
        with pytest.warns(UserWarning, match="above histogram range"):
            value = q_value(dist, 2.0)
        assert value == pytest.approx(0.99)

    def test_no_pore_atom_included(self):
        # a no-pore mass of 0.25, the rest spread evenly over 16 bins
        dist = LargestPoreDistribution(np.linspace(1.0, 2.0, 17), np.linspace(0.25, 1.0, 17))
        assert q_value(dist, 0.0) == pytest.approx(0.25)
        assert q_value(dist, 0.5) == pytest.approx(0.25)

    def test_self_sampled_observations_are_uniform(self):
        dist = uniform_dist(5.0, 9.0, bins=512)
        rng = np.random.default_rng(123)
        draws = dist.sample(500, rng)
        qs = np.array([q_value(dist, x) for x in draws])
        assert kstest(qs, "uniform").pvalue > 0.01


@pytest.mark.parametrize("score", [q_value, p_value])
@pytest.mark.parametrize("observed", [np.nan, np.inf, -np.inf, -1.0])
def test_non_finite_or_negative_observation_refused(score, observed):
    with pytest.raises(ValueError, match="finite, non-negative"):
        score(uniform_dist(10.0, 20.0), observed)


class TestPValue:
    def test_observation_at_mean_gives_one(self):
        dist = uniform_dist(3.0, 13.0)
        assert p_value(dist, dist.mean_um) == 1.0

    def test_far_observation_gives_zero(self):
        dist = uniform_dist(3.0, 13.0)
        assert p_value(dist, 1e6) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_two_atom_hand_case(self):
        # masses 1/2 at 1 and 3; both atoms sit exactly one unit from the mean
        edges = np.array([0.5, 1.5, 2.5, 3.5])
        dist = LargestPoreDistribution(edges, np.array([0.0, 0.5, 0.5, 1.0]))
        assert dist.mean_um == pytest.approx(2.0)
        assert p_value(dist, 3.0) == pytest.approx(1.0)
        assert p_value(dist, 1.0) == pytest.approx(1.0)
        assert p_value(dist, 2.0 + 1.5) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_point_mass(self):
        edges = np.array([4.0, 6.0])
        dist = LargestPoreDistribution(edges, np.array([0.0, 1.0]))
        atom = dist.mean_um
        assert p_value(dist, atom) == 1.0
        assert p_value(dist, atom + 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_sided_symmetry(self):
        dist = uniform_dist(0.0, 10.0, bins=1000)
        left = p_value(dist, dist.mean_um - 2.0)
        right = p_value(dist, dist.mean_um + 2.0)
        assert left == pytest.approx(right, abs=2e-3)


class TestKsStatistic:
    def test_identical_cdfs(self):
        a = EmpiricalCdf([1.0, 2.0, 3.0])
        assert ks_statistic(a, a) == 0.0

    def test_disjoint_supports(self):
        assert ks_statistic(EmpiricalCdf([1.0, 2.0]), EmpiricalCdf([10.0, 11.0])) == 1.0

    def test_offset_uniform_steps(self):
        a = EmpiricalCdf([1.0, 2.0, 3.0, 4.0])
        b = EmpiricalCdf([3.0, 4.0, 5.0, 6.0])
        assert ks_statistic(a, b) == pytest.approx(0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = EmpiricalCdf(rng.normal(0, 1, 50))
        b = EmpiricalCdf(rng.normal(0.5, 1.2, 60))
        assert ks_statistic(a, b) == ks_statistic(b, a)

    def test_against_scipy_two_sample(self):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, 200)
        y = rng.normal(0.3, 1.0, 150)
        mine = ks_statistic(EmpiricalCdf(x), EmpiricalCdf(y))
        assert mine == pytest.approx(ks_2samp(x, y).statistic, abs=1e-12)

    def test_function_cdf_wrapper(self):
        grid = np.linspace(0.0, 1.0, 200)
        a = FunctionCdf(lambda x: np.clip(x, 0, 1), grid)
        b = FunctionCdf(lambda x: np.clip(x, 0, 1) ** 2, grid)
        # sup |x - x^2| = 1/4 at x = 1/2
        assert ks_statistic(a, b) == pytest.approx(0.25, abs=1e-4)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30),
           st.lists(st.floats(-50, 50), min_size=1, max_size=30),
           st.lists(st.floats(-50, 50), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_sup_metric_triangle_inequality(self, xs, ys, zs):
        a, b, c = EmpiricalCdf(xs), EmpiricalCdf(ys), EmpiricalCdf(zs)
        assert ks_statistic(a, c) <= ks_statistic(a, b) + ks_statistic(b, c) + 1e-12


class TestLocationScatter:
    def test_three_four_five(self):
        cartesian, radial = plate_distances((0.0, 0.0), (3.0, 4.0), (0.0, 0.0))
        assert cartesian == pytest.approx(5.0)
        assert radial == pytest.approx(5.0)

    def test_co_located(self):
        cartesian, radial = plate_distances((2.0, 2.0), (2.0, 2.0), (0.0, 0.0))
        assert cartesian == 0.0 and radial == 0.0

    def test_rotational_symmetry(self):
        cartesian, radial = plate_distances((5.0, 0.0), (0.0, 5.0), (0.0, 0.0))
        assert radial == pytest.approx(0.0, abs=1e-12)
        assert cartesian > 0.0

    def test_plate_center_from_extents(self):
        assert plate_center_from_extents(0.0, 0.0, 250.0, 250.0) == (125.0, 125.0)


class TestBuildReport:
    def test_report_fields(self):
        dist = uniform_dist(10.0, 20.0, provenance={"fit_id": "C@20", "volume_mm3": 200.0})
        report = build_report(dist, 15.0, part_specimen_id="P1",
                              coupon_position_mm=(0.0, 0.0),
                              part_position_mm=(3.0, 4.0))
        assert report.coupon_fit_id == "C@20"
        assert report.volume_mm3 == 200.0
        assert report.q_value == pytest.approx(0.5, abs=0.01)
        assert report.cartesian_distance_mm == pytest.approx(5.0)

    def test_distances_omitted_without_positions(self):
        dist = uniform_dist(10.0, 20.0)
        report = build_report(dist, 15.0)
        assert report.cartesian_distance_mm is None
        assert report.radial_distance_mm is None


def test_mode_comparison_overrides_the_config_mode(basic_fit):
    # the one plan runs in all three modes, whatever mode it names itself
    rows = [
        mode_comparison_table(basic_fit, [10.0], McConfig(seed=1, uncertainty_mode=mode))
        for mode in ("none", "poisson_only", "all")
    ]
    assert rows[0] == rows[1] == rows[2]
    assert rows[0][0][1] > 0.0 and rows[0][0][2] > 0.0


def test_mode_comparison_rows(basic_fit):
    rows = mode_comparison_table(basic_fit, [25.0, 100.0], McConfig(seed=2))
    assert len(rows) == 2
    for volume, ks_poisson, ks_all in rows:
        assert 0.0 <= ks_poisson <= 1.0
        assert 0.0 <= ks_all <= 1.0
        # parameter uncertainty only widens the gap from the pinned CDF
        assert ks_all >= ks_poisson - 0.05
