"""Synthetic specimens from known ground truth, and brute-force oracles.

Generation follows the same generative picture the estimators assume:
pore counts on each side of the threshold are Poisson in the specimen
volume, tail sizes follow the Generalized Pareto tail, and sub-threshold
sizes follow a bulk family truncated at the threshold. The brute-force
functions estimate largest-pore distributions by directly simulating many
volumes and recording each maximum; they deliberately avoid the closed
forms of the largest-pore engine so they can serve as independent
references (tail draws come from scipy or from a plain power-form
quantile, every count and tail size is drawn rather than integrated, and
the output is an empirical CDF rather than a histogram). The fit-driven
oracle also draws each volume's exceedance rate, from the Gamma law with
the fitted rate's mean and standard error that the engine integrates
over in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equivalence import EmpiricalCdf
from .extremes import CovarianceUnavailableError
from .geometry import SpecimenDataset, _pow, sphere_surface_area
from .gpd import GpdParams, TailFit, UsageError

_CHUNK_PORE_DRAWS = 4_000_000
# numpy's largest Poisson mean: it refuses to draw from any above it.
_POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)
# The most pores a drawn specimen may expect. generate_specimen holds about 110 B
# per pore (its measured columns are float arrays) and peaks at about 190 B while
# drawing; simulate writes about 110 bytes per pore a block of rows at a time, so
# the draw sets its peak too, about 0.19 kB per pore traced by tracemalloc (0.21 kB
# of resident memory): this many take about 2 GB to draw and write, and 1.1 GB on
# disk.
MAX_EXPECTED_PORES = 1e7


@dataclass(frozen=True)
class BulkModel:
    """Lognormal body for sub-threshold sizes, truncated above at the threshold."""

    log_mean: float
    log_sigma: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.log_mean):
            raise UsageError(f"log_mean = {self.log_mean} is not finite")
        if not 0.0 < self.log_sigma < np.inf:
            raise UsageError(f"log_sigma = {self.log_sigma} is not finite and positive")


@dataclass(frozen=True)
class GroundTruth:
    """Fully known generative model of one specimen population."""

    tail: GpdParams
    lambda_above_per_mm3: float
    lambda_below_per_mm3: float
    specimen_volume_mm3: float
    bulk: BulkModel

    def __post_init__(self) -> None:
        for name in ("lambda_above_per_mm3", "lambda_below_per_mm3"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise UsageError(f"{name} = {getattr(self, name)} is not finite and nonnegative")
        if not 0.0 < self.specimen_volume_mm3 < np.inf:
            raise UsageError(
                f"specimen_volume_mm3 = {self.specimen_volume_mm3} is not finite and positive"
            )
        for name in ("lambda_above_per_mm3", "lambda_below_per_mm3"):
            count = getattr(self, name) * self.specimen_volume_mm3
            if count > _POISSON_MEAN_MAX:
                raise UsageError(
                    f"{name} * specimen_volume_mm3 = {count:g} expected pores is above "
                    f"{_POISSON_MEAN_MAX:.4g}, the largest Poisson mean numpy draws from"
                )
        if not self.tail.threshold_um > 0:
            raise UsageError("tail threshold must be positive for physical sizes")


def _sample_bulk(
    rng: np.random.Generator, bulk: BulkModel, threshold_um: float, size: int
) -> np.ndarray:
    """Lognormal draws conditioned to lie below the threshold (inverse CDF)."""
    # imported here so that `import poretail` does not load scipy.special
    from scipy.special import ndtr, ndtri

    cap = float(ndtr((np.log(threshold_um) - bulk.log_mean) / bulk.log_sigma))
    u = np.clip(rng.random(size) * cap, 1e-300, None)
    return np.exp(bulk.log_mean + bulk.log_sigma * ndtri(u))


def generate_specimen(
    truth: GroundTruth,
    seed: int,
    *,
    specimen_id: str | None = None,
) -> SpecimenDataset:
    """Draw one specimen from ground truth.

    Tail and bulk counts are Poisson in the specimen volume; tail sizes are
    scipy Generalized Pareto draws. The measured columns describe spheres
    (aspect ratio and sphericity of exactly 1) and are handed to the
    dataset as float values, never formatted and parsed; a dump writes them
    in shortest round-trip float text, so it re-ingests to the same values.
    A drawn diameter whose sphere has no finite positive volume is refused,
    naming the truth field (tail or bulk) that drew it, and so are a
    negative seed and a truth that expects more than MAX_EXPECTED_PORES
    pores, before any draw.
    """
    if seed < 0:
        raise UsageError(f"seed = {seed} is not a non-negative integer")
    count = (truth.lambda_above_per_mm3 + truth.lambda_below_per_mm3) * truth.specimen_volume_mm3
    if count > MAX_EXPECTED_PORES:
        raise UsageError(
            f"(lambda_above_per_mm3 + lambda_below_per_mm3) * specimen_volume_mm3 = "
            f"{count:g} expected pores is above {MAX_EXPECTED_PORES:g}, the most a "
            "simulated specimen holds"
        )
    # imported here so that `import poretail` does not load scipy.stats
    from scipy.stats import genpareto

    rng = np.random.default_rng(seed)
    volume = truth.specimen_volume_mm3
    n_tail = int(rng.poisson(truth.lambda_above_per_mm3 * volume))
    n_bulk = int(rng.poisson(truth.lambda_below_per_mm3 * volume))
    tail_sizes = genpareto.rvs(
        c=truth.tail.shape,
        loc=truth.tail.threshold_um,
        scale=truth.tail.scale_um,
        size=n_tail,
        random_state=rng,
    )
    bulk_sizes = _sample_bulk(rng, truth.bulk, truth.tail.threshold_um, n_bulk)

    tail_sizes = np.atleast_1d(tail_sizes)
    for name, sizes in (("tail", tail_sizes), ("bulk", bulk_sizes)):
        with np.errstate(over="ignore", under="ignore"):
            six_volumes = np.pi * sizes**3  # the derived columns are computed from these
        bad = sizes[~((six_volumes > 0.0) & (six_volumes < np.inf))]
        if bad.size:
            raise UsageError(
                f"{name} drew a diameter of {bad[0]} um, whose sphere's volume is not "
                "finite and positive"
            )
    diameters = np.concatenate([tail_sizes, bulk_sizes])
    volumes = np.pi / 6.0 * _pow(diameters, 3.0)
    ids = [f"t{i:06d}" for i in range(tail_sizes.size)]
    ids += [f"b{i:06d}" for i in range(bulk_sizes.size)]
    return SpecimenDataset(
        specimen_id=specimen_id or f"synthetic-{seed}",
        scanned_volume_mm3=volume,
        cells={
            "pore_id": ids,
            "volume_um3": volumes,
            "surface_area_um2": sphere_surface_area(volumes),
            "min_feret_um": diameters,
            "max_feret_um": diameters,
        },
    )


def _segment_maxima(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Maximum of consecutive segments of `values` with positive lengths."""
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.maximum.reduceat(values, starts)


def brute_force_largest(
    truth: GroundTruth,
    voi_mm3: float,
    n_replications: int,
    seed: int,
) -> EmpiricalCdf:
    """Empirical largest-pore CDF by direct simulation of many volumes.

    Each replication draws its Poisson tail count and every tail size
    (scipy draws) and records the maximum; replications with no tail pores
    fall back to the bulk, and 0 is recorded when no pores at all occur.
    """
    from scipy.stats import genpareto

    rng = np.random.default_rng(seed)
    maxima = np.zeros(n_replications)
    tail_counts = rng.poisson(truth.lambda_above_per_mm3 * voi_mm3, n_replications)

    chunk = max(1, _CHUNK_PORE_DRAWS // max(1, int(tail_counts.mean()) + 1))
    for start in range(0, n_replications, chunk):
        stop = min(start + chunk, n_replications)
        counts = tail_counts[start:stop]
        pos = counts > 0
        if np.any(pos):
            draws = genpareto.rvs(
                c=truth.tail.shape,
                loc=truth.tail.threshold_um,
                scale=truth.tail.scale_um,
                size=int(counts[pos].sum()),
                random_state=rng,
            )
            maxima[start:stop][pos] = _segment_maxima(np.atleast_1d(draws), counts[pos])
        n_zero = int(np.count_nonzero(~pos))
        if n_zero:
            bulk_counts = rng.poisson(truth.lambda_below_per_mm3 * voi_mm3, n_zero)
            bulk_pos = bulk_counts > 0
            if np.any(bulk_pos):
                bulk_draws = _sample_bulk(
                    rng, truth.bulk, truth.tail.threshold_um, int(bulk_counts[bulk_pos].sum())
                )
                zero_slots = np.flatnonzero(~pos)[bulk_pos]
                maxima[start:stop][zero_slots] = _segment_maxima(
                    bulk_draws, bulk_counts[bulk_pos]
                )
    return EmpiricalCdf(maxima)


def _gpd_draws_plain(
    rng: np.random.Generator,
    threshold_um: float,
    scale: np.ndarray,
    shape: np.ndarray,
) -> np.ndarray:
    """Per-pore tail draws via the plain power-form quantile."""
    u = rng.random(scale.size)
    out = np.empty(scale.size)
    small = np.abs(shape) < 1e-9
    if np.any(~small):
        s, x = scale[~small], shape[~small]
        out[~small] = threshold_um + s * ((1.0 - u[~small]) ** (-x) - 1.0) / x
    if np.any(small):
        out[small] = threshold_um - scale[small] * np.log(1.0 - u[small])
    return out


def brute_force_fit_largest(
    fit: TailFit,
    voi_mm3: float,
    n_replications: int,
    seed: int,
    *,
    uncertainty_mode: str = "all",
) -> EmpiricalCdf:
    """Full-uncertainty brute-force oracle driven by a fitted tail.

    Per replication: draw the rate from the Gamma law of its estimate's
    mean and standard error (numpy's Gamma sampler), the tail count from
    Poisson, a fresh (scale, shape) pair from the fit covariance (mode
    "all"), then every tail size, and record the maximum. Zero-count
    replications resample the sub-threshold empirical values. Mode "none"
    has no simulable randomness in the count and is refused (use the
    closed form instead).
    """
    if uncertainty_mode not in ("poisson_only", "all"):
        raise ValueError("brute-force oracle supports poisson_only and all modes")
    if fit.lambda_above_per_mm3 is None or fit.lambda_below_per_mm3 is None:
        raise ValueError("fit lacks rate estimates; build it with fit_tail()")
    if uncertainty_mode == "all" and fit.covariance is None:
        raise CovarianceUnavailableError("fit covariance unavailable")

    rng = np.random.default_rng(seed)
    lam, se = fit.lambda_above_per_mm3, fit.lambda_above_se or 0.0
    if se > 0.0:
        rates = rng.gamma((lam / se) ** 2, se * se / lam, n_replications)
    else:
        rates = np.full(n_replications, lam)
    tail_counts = rng.poisson(rates * voi_mm3)

    if uncertainty_mode == "all":
        mean = np.array([fit.params.scale_um, fit.params.shape])
        draws = rng.multivariate_normal(mean, fit.covariance, n_replications)
        for _ in range(100):
            bad = draws[:, 0] <= 0
            if not np.any(bad):
                break
            draws[bad] = rng.multivariate_normal(mean, fit.covariance, int(bad.sum()))
        scales, shapes = draws[:, 0], draws[:, 1]
    else:
        scales = np.full(n_replications, fit.params.scale_um)
        shapes = np.full(n_replications, fit.params.shape)

    emp = fit.empirical_below_um
    emp = np.asarray(emp, dtype=float) if emp is not None else np.empty(0)
    lam_below_v = fit.lambda_below_per_mm3 * voi_mm3

    maxima = np.zeros(n_replications)
    chunk = max(1, _CHUNK_PORE_DRAWS // max(1, int(tail_counts.mean()) + 1))
    for start in range(0, n_replications, chunk):
        stop = min(start + chunk, n_replications)
        counts = tail_counts[start:stop]
        pos = counts > 0
        if np.any(pos):
            per_pore_scale = np.repeat(scales[start:stop][pos], counts[pos])
            per_pore_shape = np.repeat(shapes[start:stop][pos], counts[pos])
            draws = _gpd_draws_plain(
                rng, fit.params.threshold_um, per_pore_scale, per_pore_shape
            )
            maxima[start:stop][pos] = _segment_maxima(draws, counts[pos])
        n_zero = int(np.count_nonzero(~pos))
        if n_zero and emp.size:
            below_counts = rng.poisson(lam_below_v, n_zero)
            below_pos = below_counts > 0
            if np.any(below_pos):
                idx = rng.integers(0, emp.size, int(below_counts[below_pos].sum()))
                zero_slots = np.flatnonzero(~pos)[below_pos]
                maxima[start:stop][zero_slots] = _segment_maxima(
                    emp[idx], below_counts[below_pos]
                )
    return EmpiricalCdf(maxima)
