"""Agreement between an observed largest pore and an estimated distribution.

The q-value is the estimated CDF at the observation; the p-value is the
probability of drawing a largest pore at least as far from the
distribution's mean as the observation (two-sided, computed on the
histogram masses). The KS statistic here is the sup metric between two
CDFs on the merged grid of their knots, with step semantics at atoms.
Build-plate location effects are summarized as distance-versus-similarity
scatter rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .extremes import LargestPoreDistribution, McConfig, VolumeOfInterest, sample_largest
from .gpd import TailFit

FLAG_ABOVE_RANGE = "observation above histogram range; CDF floor reported"


class EmpiricalCdf:
    """Step CDF of a sample, with left limits for atom-aware comparison."""

    def __init__(self, samples) -> None:
        self._sorted = np.sort(np.asarray(samples, dtype=float).ravel())
        if self._sorted.size == 0:
            raise ValueError("empirical CDF needs at least one sample")

    def knots(self) -> np.ndarray:
        return np.unique(self._sorted)

    def cdf(self, x) -> np.ndarray:
        return np.searchsorted(self._sorted, np.asarray(x, dtype=float), side="right") / self._sorted.size

    def cdf_left(self, x) -> np.ndarray:
        return np.searchsorted(self._sorted, np.asarray(x, dtype=float), side="left") / self._sorted.size


class FunctionCdf:
    """Continuous CDF given as a callable, evaluated on a declared grid."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], grid) -> None:
        self._fn = fn
        self._grid = np.asarray(grid, dtype=float)

    def knots(self) -> np.ndarray:
        return self._grid

    def cdf(self, x) -> np.ndarray:
        return np.asarray(self._fn(np.asarray(x, dtype=float)), dtype=float)

    cdf_left = cdf


def ks_statistic(cdf_a, cdf_b) -> float:
    """Sup distance between two CDFs over the merged grid of their knots.

    Both one-sided limits are compared at every knot so that atoms are
    handled with step-CDF semantics.
    """
    grid = np.union1d(np.asarray(cdf_a.knots(), dtype=float), np.asarray(cdf_b.knots(), dtype=float))
    d_right = np.abs(np.asarray(cdf_a.cdf(grid)) - np.asarray(cdf_b.cdf(grid)))
    d_left = np.abs(np.asarray(cdf_a.cdf_left(grid)) - np.asarray(cdf_b.cdf_left(grid)))
    return float(max(d_right.max(), d_left.max()))


def _check_observation(observed_um: float) -> None:
    if not (math.isfinite(observed_um) and observed_um >= 0.0):
        raise ValueError(
            f"observed largest pore must be a finite, non-negative diameter "
            f"(um), got {observed_um}"
        )


def q_value(dist: LargestPoreDistribution, observed_um: float) -> float:
    """Estimated CDF at the observed largest pore (interpolated between edges).

    A non-finite or negative observation is refused with a ValueError.
    """
    _check_observation(observed_um)
    if observed_um > dist.bin_edges_um[-1] and dist.overflow_mass > 0:
        warnings.warn(FLAG_ABOVE_RANGE, stacklevel=2)
    return float(dist.cdf(observed_um))


def p_value(dist: LargestPoreDistribution, observed_um: float) -> float:
    """Probability of a draw at least as far from the mean as the observation.

    Histogram masses are treated as atoms at their bin midpoints, the
    no-pore mass as an atom at 0 and the overflow mass as an atom at the
    top edge, so hand-countable discrete cases are exact. A non-finite or
    negative observation is refused with a ValueError.
    """
    _check_observation(observed_um)
    if not math.isfinite(dist.mean_um):
        raise ValueError("p-value needs a finite distribution mean")
    distance = abs(observed_um - dist.mean_um)
    if distance == 0.0:
        return 1.0
    locations = np.concatenate([[0.0], dist.midpoints_um, [dist.bin_edges_um[-1]]])
    masses = np.concatenate([[dist.no_pore_mass], dist.pdf_mass, [dist.overflow_mass]])
    far = np.abs(locations - dist.mean_um) >= distance
    return float(min(masses[far].sum(), 1.0))


@dataclass(frozen=True)
class EquivalenceReport:
    """p/q agreement between one observation and one estimated distribution."""

    coupon_fit_id: str
    part_specimen_id: str
    observed_um: float
    q_value: float
    p_value: float
    volume_mm3: float
    cartesian_distance_mm: float | None = None
    radial_distance_mm: float | None = None


def build_report(
    dist: LargestPoreDistribution,
    observed_um: float,
    *,
    part_specimen_id: str = "",
    coupon_position_mm: tuple[float, float] | None = None,
    part_position_mm: tuple[float, float] | None = None,
    plate_center_mm: tuple[float, float] | None = None,
) -> EquivalenceReport:
    """Score one observation against a distribution, with optional distances."""
    cartesian = radial = None
    if coupon_position_mm is not None and part_position_mm is not None:
        cartesian, radial = plate_distances(
            coupon_position_mm, part_position_mm, plate_center_mm or (0.0, 0.0)
        )
    return EquivalenceReport(
        coupon_fit_id=str(dist.provenance.get("fit_id", "")),
        part_specimen_id=part_specimen_id,
        observed_um=float(observed_um),
        q_value=q_value(dist, observed_um),
        p_value=p_value(dist, observed_um),
        volume_mm3=float(dist.provenance.get("volume_mm3", np.nan)),
        cartesian_distance_mm=cartesian,
        radial_distance_mm=radial,
    )


def plate_center_from_extents(
    x_min_mm: float, y_min_mm: float, x_max_mm: float, y_max_mm: float
) -> tuple[float, float]:
    """Geometric center of the declared build-plate extents."""
    return (0.5 * (x_min_mm + x_max_mm), 0.5 * (y_min_mm + y_max_mm))


def plate_distances(
    position_a_mm: tuple[float, float],
    position_b_mm: tuple[float, float],
    plate_center_mm: tuple[float, float] = (0.0, 0.0),
) -> tuple[float, float]:
    """Cartesian separation and difference of radii from the plate center."""
    ax, ay = position_a_mm
    bx, by = position_b_mm
    cx, cy = plate_center_mm
    cartesian = math.hypot(bx - ax, by - ay)
    radial = abs(math.hypot(bx - cx, by - cy) - math.hypot(ax - cx, ay - cy))
    return cartesian, radial


SCATTER_COLUMNS = (
    "pair_id",
    "cartesian_distance_mm",
    "radial_distance_mm",
    "p_value",
    "q_value",
)


def location_scatter(
    reports: Sequence[EquivalenceReport],
    positions_mm: Mapping[str, tuple[float, float]],
    plate_center_mm: tuple[float, float] = (0.0, 0.0),
) -> list[tuple]:
    """Distance-versus-similarity rows for build-plate location analysis.

    Looks up coupon and part positions by id; pairs with a missing position
    are skipped with a warning. Rows match SCATTER_COLUMNS.
    """
    rows = []
    for report in reports:
        coupon = positions_mm.get(report.coupon_fit_id)
        part = positions_mm.get(report.part_specimen_id)
        if coupon is None or part is None:
            warnings.warn(
                f"missing plate position for pair "
                f"{report.coupon_fit_id}:{report.part_specimen_id}; row skipped",
                stacklevel=2,
            )
            continue
        cartesian, radial = plate_distances(coupon, part, plate_center_mm)
        rows.append(
            (
                f"{report.coupon_fit_id}:{report.part_specimen_id}",
                cartesian,
                radial,
                report.p_value,
                report.q_value,
            )
        )
    return rows


KS_MATRIX_COLUMNS = ("volume_mm3", "ks_poisson_vs_none", "ks_all_vs_none")


def mode_comparison_table(
    fit: TailFit,
    volumes_mm3: Sequence[float],
    configs: Mapping[str, McConfig],
) -> list[tuple[float, float, float]]:
    """KS distances from the no-uncertainty CDF per volume and mode.

    `configs` supplies one sampling plan per mode ("none", "poisson_only",
    "all"); rows match KS_MATRIX_COLUMNS.
    """
    for mode in ("none", "poisson_only", "all"):
        if mode not in configs:
            raise ValueError(f"missing config for mode {mode!r}")
        if configs[mode].uncertainty_mode != mode:
            raise ValueError(f"config for {mode!r} has mismatched uncertainty_mode")
    rows = []
    for volume in volumes_mm3:
        voi = VolumeOfInterest(volume)
        base = sample_largest(fit, voi, configs["none"])
        poisson = sample_largest(fit, voi, configs["poisson_only"])
        full = sample_largest(fit, voi, configs["all"])
        rows.append(
            (
                float(volume),
                ks_statistic(base, poisson),
                ks_statistic(base, full),
            )
        )
    return rows
