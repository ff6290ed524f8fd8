"""Largest-pore estimation in a volume of interest.

Closed-form largest-pore CDF for a known exceedance count, the
Poisson exceedance-rate model, and LargestPoreLaw, the distribution of
the largest equivalent diameter with count and parameter uncertainty.
The exceedance rate is Gamma with the estimate's mean and standard
error, so the count is negative binomial; the count and the
uniform-probability axis have closed forms, so the law's CDF is exact at
any diameter up to the integral over (scale, shape), taken with a tensor
Gauss-Hermite rule on the fit's bivariate normal whose nodes double until
two rules agree there; their difference is reported as the precision.
sample_largest is the law tabulated on histogram edges. Each diameter's
sum over the nodes is one reduction, so no result depends on the size
of its block.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .geometry import SpecimenDataset
from .gpd import (
    GpdParams,
    MIN_TAIL_COUNT,
    TailFit,
    UsageError,
    _log_survival,
    gpd_cdf,
    select_estimator,
)

UNCERTAINTY_MODES = ("none", "poisson_only", "all")

# Gauss-Hermite nodes per (scale, shape) axis: the top edge is found with
# the first rule, which doubles at the edges until the largest difference
# between successive rules is at most _RULE_TOLERANCE, or the cap is reached.
_START_NODES = 8
_MAX_NODES = 64
_RULE_TOLERANCE = 1e-4
# Besides the edges, the rules are compared at excesses log-spaced over
# twelve decades below the top edge's, so that a CDF that rises inside the
# first bin (a heavy tail under linear edges) is compared too.
_PROBE_FRACTIONS = np.geomspace(1e-12, 1.0, 128)

# Probability mass the histogram leaves beyond its top edge; an empty-record
# no-pore atom lighter than this is not flagged either.
_UNRESOLVED_MASS = 1e-5
# Bisection narrows the top edge to 2**-40 of its bracket, far inside a bin.
_BISECTION_STEPS = 40
# Fractions of the reported percentiles p2.5, p50 and p97.5.
_PERCENTILES = np.array([0.025, 0.5, 0.975])
# Fields of summary(), in the order the prediction summary file lists them.
_SUMMARY_FIELDS = (
    "mean_um", "p2_5_um", "p50_um", "p97_5_um", "no_pore_mass", "overflow_mass",
    "n_samples_total", "nodes_per_axis", "cdf_precision",
)
# Elements per block of diameters x (scale, shape) nodes: bounds the engine's
# temporaries at about 512 kB each.
_CHUNK_ELEMENTS = 1 << 16
# What LargestPoreLaw.cdf returns.
LargestPoreCdf = namedtuple("LargestPoreCdf", "values precision nodes_per_axis n_nodes")

FLAG_EMPTY_FALLBACK = "zero exceedance count possible with empty sub-threshold record"
FLAG_DEGENERATE_RANGE = "degenerate histogram range: CDF at its target at the lowest edge or nowhere"
FLAG_RULE_UNCONVERGED = (
    f"(scale, shape) rule unconverged: {_MAX_NODES} and {_MAX_NODES // 2} nodes per axis "
    f"differ by more than {_RULE_TOLERANCE:g}"
)


class CovarianceUnavailableError(RuntimeError):
    """Full uncertainty propagation requested but the fit has no covariance."""


def _check_volume(volume_mm3: float) -> None:
    if not 0 < volume_mm3 < np.inf:
        raise UsageError(f"volume_mm3 must be finite and positive, got {volume_mm3}")


def _check_mode(mode: str) -> None:
    if mode not in UNCERTAINTY_MODES:
        raise UsageError(f"uncertainty_mode must be one of {UNCERTAINTY_MODES}, got {mode!r}")


@dataclass(frozen=True)
class VolumeOfInterest:
    """Volume (mm^3, finite and positive) the largest-pore distribution is
    estimated for."""

    volume_mm3: float

    def __post_init__(self) -> None:
        _check_volume(self.volume_mm3)


@dataclass(frozen=True)
class McConfig:
    """Plan of the largest-pore engine.

    uncertainty_mode selects what is propagated: "none" pins the count at
    rate*volume and the parameters at their point estimates,
    "poisson_only" integrates over the count but pins the parameters, and
    "all" integrates over both, (scale, shape) with an adaptive
    Gauss-Hermite rule. The count and probability axes are integrated
    exactly and the rule chooses its own size, so the result depends on
    histogram_bins and uncertainty_mode only: seed, n_count_samples,
    n_param_samples and n_p_samples are accepted and ignored.
    """

    seed: int | None = None
    n_count_samples: int = 1000
    n_param_samples: int = 1000
    n_p_samples: int = 1000
    histogram_bins: int = 2048
    uncertainty_mode: str = "all"

    def __post_init__(self) -> None:
        if self.histogram_bins < 16:
            raise UsageError("histogram_bins must be >= 16")
        _check_mode(self.uncertainty_mode)


def fit_tail(
    dataset: SpecimenDataset,
    threshold_um: float,
    *,
    min_tail_count: int = MIN_TAIL_COUNT,
    fit_id: str | None = None,
) -> TailFit:
    """Fit the tail of a specimen at a threshold with fit_exceedances. The
    diameters are largest first, so the exceedances are a prefix and the
    rest, reversed, is the sorted sub-threshold sample."""
    d = dataset.diameters_um
    k = d.size - np.searchsorted(d[::-1], threshold_um, side="right")
    return fit_exceedances(
        d[:k],
        d[k:][::-1],
        threshold_um,
        dataset.scanned_volume_mm3,
        min_tail_count=min_tail_count,
        fit_id=fit_id or f"{dataset.specimen_id}@{threshold_um:g}um",
    )


def fit_exceedances(
    exceedances_um: np.ndarray,
    below_um: np.ndarray,
    threshold_um: float,
    scanned_volume_mm3: float,
    *,
    min_tail_count: int = MIN_TAIL_COUNT,
    fit_id: str = "",
) -> TailFit:
    """Fit the tail to the exceedances of a threshold and attach them, the
    sorted sub-threshold sample below_um, the scanned volume and the
    Poisson rates: each side's pore count over the volume, with standard
    error sqrt(count) / volume. A threshold or volume outside its domain,
    or an exceedance not above the threshold, is refused by name before the
    fit."""
    if not 0.0 < threshold_um < np.inf:
        raise UsageError(f"threshold_um = {threshold_um} is not a positive diameter")
    if not 0.0 < scanned_volume_mm3 < np.inf:
        raise UsageError(f"scanned_volume_mm3 = {scanned_volume_mm3} is not finite and positive")
    if not np.all(np.asarray(exceedances_um) > threshold_um):
        raise UsageError("exceedances_um must lie above threshold_um")
    fit = select_estimator(exceedances_um, threshold_um, min_tail_count=min_tail_count)
    n_above, n_below = fit.n_exceed, np.size(below_um)
    return replace(
        fit,
        fit_id=fit_id,
        lambda_above_per_mm3=n_above / scanned_volume_mm3,
        lambda_above_se=float(np.sqrt(n_above)) / scanned_volume_mm3,
        lambda_below_per_mm3=n_below / scanned_volume_mm3,
        lambda_below_se=float(np.sqrt(n_below)) / scanned_volume_mm3,
        empirical_below_um=below_um,
        exceedances_um=exceedances_um,
        scanned_volume_mm3=scanned_volume_mm3,
    )


def largest_cdf_closed(params: GpdParams, n_pores, d) -> np.ndarray | float:
    """Probability that the largest of n_pores tail pores is at most d."""
    n_arr = np.asarray(n_pores, dtype=float)
    if np.any(n_arr <= 0):
        raise ValueError("n_pores must be positive (zero-count case is the fallback)")
    base = np.asarray(gpd_cdf(params, d), dtype=float)
    out = base**n_arr
    if np.ndim(d) == 0 and np.ndim(n_pores) == 0:
        return float(out)
    return out


@dataclass(frozen=True, eq=False)
class LargestPoreDistribution:
    """Histogram approximation of the largest-pore distribution.

    Given by the CDF at the bin edges: its value at the lowest edge is the
    point mass at "no pores" (diameter 0), and 1 minus its value at the top
    edge the residual mass beyond that edge. The bin masses, mean and
    percentiles are derived from it on construction. The mean is that of
    the histogram: bin masses at their midpoints, the overflow mass at the
    top edge and "no pores" at 0, so it stays finite when the tail's own
    mean does not exist (shape >= 1). n_samples_total is the number of
    (scale, shape) nodes the engine integrated over, nodes_per_axis the
    size of its rule, and cdf_precision the largest difference between the
    CDFs of that rule and the one with half the nodes per axis, at the
    edges and at log-spaced diameters below the top edge (0 when the
    parameters are pinned).
    """

    bin_edges_um: np.ndarray
    cdf_at_edges: np.ndarray
    n_samples_total: int = 0
    provenance: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    cdf_precision: float = 0.0
    nodes_per_axis: int = 1
    pdf_mass: np.ndarray = field(init=False)
    no_pore_mass: float = field(init=False)
    overflow_mass: float = field(init=False)
    mean_um: float = field(init=False)
    p2_5_um: float = field(init=False)
    p50_um: float = field(init=False)
    p97_5_um: float = field(init=False)

    def __post_init__(self) -> None:
        # copies, so that marking them read-only leaves the caller's arrays alone
        edges = np.array(self.bin_edges_um, dtype=float)
        cdf = np.array(self.cdf_at_edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
            raise ValueError("bin edges must be strictly increasing")
        if not np.all(np.isfinite(edges)):
            raise ValueError("bin edges must be finite")
        if cdf.shape != edges.shape:
            raise ValueError("cdf size inconsistent with edges")
        pdf = np.diff(cdf)
        if not (np.all(pdf >= 0.0) and cdf[0] >= 0.0 and cdf[-1] <= 1.0):
            raise ValueError("cdf must be nondecreasing within [0, 1]")
        overflow = 1.0 - float(cdf[-1])
        for name, value in (("bin_edges_um", edges), ("pdf_mass", pdf), ("cdf_at_edges", cdf)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "no_pore_mass", float(cdf[0]))
        object.__setattr__(self, "overflow_mass", overflow)
        object.__setattr__(self, "mean_um", float(pdf @ self.midpoints_um + overflow * edges[-1]))
        for name, value in zip(("p2_5_um", "p50_um", "p97_5_um"), self.quantile(_PERCENTILES)):
            object.__setattr__(self, name, float(value))

    @property
    def midpoints_um(self) -> np.ndarray:
        return 0.5 * (self.bin_edges_um[:-1] + self.bin_edges_um[1:])

    def knots(self) -> np.ndarray:
        return np.unique(np.concatenate([[0.0], self.bin_edges_um]))

    def _interp(self, x, at_zero) -> np.ndarray | float:
        x_arr = np.asarray(x, dtype=float)
        out = np.interp(x_arr, self.bin_edges_um, self.cdf_at_edges)
        out = np.where(at_zero(x_arr, 0.0), 0.0, out)
        return float(out) if np.ndim(x) == 0 else out

    def cdf(self, x) -> np.ndarray | float:
        """CDF with the no-pore atom at 0 and linear interpolation in bins.

        Beyond the top edge the overflow location is unknown, so the CDF
        plateaus at 1 - overflow_mass there.
        """
        return self._interp(x, np.less)

    def cdf_left(self, x) -> np.ndarray | float:
        """Left limit of the CDF (differs from cdf only at the atom at 0)."""
        return self._interp(x, np.less_equal)

    def quantile(self, t) -> np.ndarray | float:
        """Inverse CDF, linear in bins; fractions inside the no-pore atom map
        to 0 and those in the overflow mass to the top edge."""
        t_arr = np.asarray(t, dtype=float)
        if not np.all((t_arr >= 0.0) & (t_arr <= 1.0)):
            raise ValueError("t must lie in [0, 1]")
        cdf, edges = self.cdf_at_edges, self.bin_edges_um
        j = np.clip(np.searchsorted(cdf, t_arr, side="left"), 1, edges.size - 1)
        denom = cdf[j] - cdf[j - 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(denom > 0, (t_arr - cdf[j - 1]) / denom, 1.0)
        out = edges[j - 1] + frac * (edges[j] - edges[j - 1])
        out = np.where(t_arr > cdf[-1], edges[-1], out)
        out = np.where(t_arr <= self.no_pore_mass, 0.0, out)
        return float(out) if np.ndim(t) == 0 else out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF draws; overflow mass collapses to the top edge."""
        return self.quantile(rng.random(n))

    def summary(self) -> dict:
        """Summary statistics and rule size, in the prediction summary's order."""
        return {name: getattr(self, name) for name in _SUMMARY_FIELDS}


def _laplace_rate(a, lam: float, se: float) -> np.ndarray:
    """E[exp(-a R)] for a Gamma rate R with mean lam and standard error se,
    a >= 0 and lam > 0 (or lam = se = 0).

    R has shape k = (lam / se)^2 and scale se^2 / lam, so a Poisson(R V)
    count is negative binomial and E[exp(-a R)] = (1 + a se^2 / lam)^-k
    (Gelman et al., Bayesian Data Analysis, 3rd ed., section 2.6). fit_tail's
    rates give k = the exceedance count. At se = 0 the rate is pinned at lam.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if se <= 0.0:
        return np.exp(-a * lam)
    return np.exp(-(lam / se) ** 2 * np.log1p(a * (se * se / lam)))


class LargestPoreLaw:
    """P(largest pore in the volume <= d), exact over count and probability.

    Above the threshold u, with S the tail survival function and R the
    Gamma rate, P(max <= d | scale, shape) = E exp(-R V S(d)), in closed
    form by _laplace_rate (no tail pore, N = 0, included), averaged over the
    (scale, shape) nodes: the point estimate, or in mode "all" an n x n
    Gauss-Hermite rule. Below u only volumes without tail pores contribute,
    their largest pore being the largest of a Poisson(lam_b V) resample of
    the sub-threshold record: P(N = 0) exp(-lam_b V (1 - F_emp(d))).
    Mode "none" pins the count at lam V instead, giving F(d) ** (lam V), or,
    when lam V = 0, the pinned sub-threshold fallback F_emp(d) ** (lam_b V).
    An empty sub-threshold record counts as F_emp = 1 (no pore at all).
    Rates, record, P(N = 0) and start rule are computed once; construction
    refuses a fit without rates and a mode or volume outside its domain.
    """

    def __init__(self, fit: TailFit, volume_mm3: float, mode: str = "all") -> None:
        if fit.lambda_above_per_mm3 is None or fit.lambda_below_per_mm3 is None:
            raise ValueError("fit lacks rate estimates; build it with fit_tail()")
        _check_mode(mode)
        _check_volume(volume_mm3)
        self.fit, self.volume_mm3, self.mode = fit, volume_mm3, mode
        self.threshold = fit.params.threshold_um
        self.lam = fit.lambda_above_per_mm3
        self.lam_se = fit.lambda_above_se or 0.0
        self.lam_below_volume = fit.lambda_below_per_mm3 * volume_mm3
        emp = fit.empirical_below_um
        self.emp = np.asarray(emp, dtype=float) if emp is not None else np.empty(0)
        self.pinned_fallback = mode == "none" and self.lam * volume_mm3 == 0.0
        self.p_zero = 0.0
        if mode != "none":
            self.p_zero = float(_laplace_rate(volume_mm3, self.lam, self.lam_se)[0])
        self._start = self._rule(_START_NODES)

    def cdf(self, d) -> LargestPoreCdf:
        """(values, precision, nodes_per_axis, n_nodes): the CDF at d. In mode
        "all" the rule doubles from 8 nodes per axis until two successive
        rules differ by at most 1e-4 at every d (their difference is the
        precision), or the finer one has 64; n_nodes counts its kept nodes.
        The other modes pin the parameters (1 node, precision 0)."""
        rule, n, values, precision = self._start, 1, self._evaluate(self._start, d), 0.0
        if self.mode == "all":
            n = _START_NODES
            while n < _MAX_NODES:
                n *= 2
                rule = self._rule(n)
                fine = self._evaluate(rule, d)
                precision, values = float(np.max(np.abs(fine - values))), fine
                if precision <= _RULE_TOLERANCE:
                    break
        values = float(values[0]) if np.ndim(d) == 0 else values
        return LargestPoreCdf(values, precision, n, rule[0].size)

    def _top_edge(self, lo: float) -> float | None:
        """Diameter where the start rule's CDF reaches 1 - _UNRESOLVED_MASS,
        by bisection from [lo, threshold + scale], the bracket doubling its
        distance from lo. None when the CDF already reaches the target at
        lo, or no finite diameter does."""
        target = 1.0 - _UNRESOLVED_MASS
        if self._evaluate(self._start, lo)[0] >= target:
            return None
        below, above = lo, self.threshold + self.fit.params.scale_um
        while self._evaluate(self._start, above)[0] < target:
            below, above = above, lo + 2.0 * (above - lo)
            if not np.isfinite(above):
                return None
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (below + above)
            if self._evaluate(self._start, mid)[0] < target:
                below = mid
            else:
                above = mid
        return above

    def _rule(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(scale, shape, weight) nodes: the point estimate, or in mode "all" the
        n x n Gauss-Hermite rule on the fit's bivariate normal (through the
        Cholesky factor of its covariance), less the nodes of non-positive
        scale, the kept weights renormalised to sum to 1."""
        mean = np.array([self.fit.params.scale_um, self.fit.params.shape])
        if self.mode != "all":
            return mean[:1], mean[1:], np.ones(1)
        from numpy.polynomial.hermite_e import hermegauss

        if self.fit.covariance is None:
            raise CovarianceUnavailableError(
                "fit covariance unavailable (estimate outside asymptotic-normality "
                "domain); full uncertainty propagation refuses to run"
            )
        z, w = hermegauss(n)
        grid = np.stack(np.meshgrid(z, z, indexing="ij"), axis=-1).reshape(-1, 2)
        nodes = mean + grid @ np.linalg.cholesky(self.fit.covariance).T
        keep = nodes[:, 0] > 0.0
        weights = np.outer(w, w).ravel()[keep]
        return nodes[keep, 0].copy(), nodes[keep, 1].copy(), weights / weights.sum()

    def _evaluate(self, rule, d) -> np.ndarray:
        d = np.atleast_1d(np.asarray(d, dtype=float))
        if self.pinned_fallback:
            return self._emp_cdf(d) ** self.lam_below_volume
        out = np.empty(d.shape)
        below = d < self.threshold
        f_emp = self._emp_cdf(d[below])
        out[below] = self.p_zero * np.exp(-self.lam_below_volume * (1.0 - f_emp))
        out[~below] = self._mean_over_params(rule, d[~below])
        return out

    def _emp_cdf(self, d: np.ndarray) -> np.ndarray:
        if self.emp.size == 0:
            return np.ones(d.shape)
        return np.searchsorted(self.emp, d, side="right") / self.emp.size

    def _given_params(self, log_s: np.ndarray) -> np.ndarray:
        if self.mode == "none":
            with np.errstate(divide="ignore"):
                return np.exp(self.lam * self.volume_mm3 * np.log1p(-np.exp(log_s)))
        return _laplace_rate(self.volume_mm3 * np.exp(log_s), self.lam, self.lam_se)

    def _mean_over_params(self, rule, d: np.ndarray) -> np.ndarray:
        sigma, xi, weights = rule
        step = max(1, _CHUNK_ELEMENTS // sigma.size)
        total = np.empty(d.size)
        for start in range(0, d.size, step):
            block = slice(start, start + step)
            log_s = _log_survival(self.threshold, sigma, xi, d[block, None])
            total[block] = np.add.reduce(weights * self._given_params(log_s), axis=1)
        return total


def sample_largest(
    fit: TailFit,
    voi: VolumeOfInterest,
    config: McConfig,
    *,
    workers: int = 1,
) -> LargestPoreDistribution:
    """LargestPoreLaw tabulated on histogram edges: linear from the threshold
    (or the smallest sub-threshold pore, where a volume without tail pores
    can hold one) to where the law's start rule reaches 1 - 1e-5. In mode
    "all" the law also refines its rule at the probe diameters; its
    precision is cdf_precision, and a rule unconverged at the cap is flagged.

    The result is deterministic and its provenance names the fit, the
    volume, the mode and the bin count. `workers`, the seed and the sample
    counts of `config` are accepted and ignored.
    """
    mode = config.uncertainty_mode
    law = LargestPoreLaw(fit, voi.volume_mm3, mode)
    flags: list[str] = []

    lo = law.threshold
    if law.emp.size and (mode != "none" or law.pinned_fallback):
        lo = min(lo, float(law.emp[0]))
    hi = law._top_edge(lo)
    if hi is None:
        hi = lo + max(abs(lo), 1.0)
        flags.append(FLAG_DEGENERATE_RANGE)
    edges = np.linspace(lo, hi, config.histogram_bins + 1)

    probes = law.threshold + (edges[-1] - law.threshold) * _PROBE_FRACTIONS
    cdf = law.cdf(np.concatenate([[0.0], edges, probes if mode == "all" else []]))
    if not cdf.precision <= _RULE_TOLERANCE:
        flags.append(FLAG_RULE_UNCONVERGED)

    # diameters are positive, so the CDF at 0 is the no-pore atom; the
    # lowest edge's own mass goes to the first bin
    no_pore_mass = float(cdf.values[0])
    at_edges = np.clip(cdf.values[1 : edges.size + 1], 0.0, 1.0)
    at_edges[0] = no_pore_mass
    at_edges = np.maximum.accumulate(at_edges)
    if law.emp.size == 0 and no_pore_mass >= _UNRESOLVED_MASS:
        flags.append(FLAG_EMPTY_FALLBACK)
        warnings.warn(FLAG_EMPTY_FALLBACK, stacklevel=2)

    return LargestPoreDistribution(
        edges, at_edges,
        n_samples_total=cdf.n_nodes,
        provenance={
            "fit_id": fit.fit_id,
            "volume_mm3": voi.volume_mm3,
            "uncertainty_mode": mode,
            "histogram_bins": config.histogram_bins,
        },
        flags=tuple(flags),
        cdf_precision=cdf.precision,
        nodes_per_axis=cdf.nodes_per_axis,
    )


def volume_sweep(
    fit: TailFit, volumes_mm3: Sequence[float], config: McConfig
) -> list[LargestPoreDistribution]:
    """Largest-pore distributions over an ascending ladder of volumes.

    Every volume starts from the same (scale, shape) nodes and refines
    them on its own, so each distribution is the one sample_largest
    returns at that volume.
    """
    vois = [VolumeOfInterest(volume) for volume in volumes_mm3]
    if not vois:
        raise UsageError("volume list must not be empty")
    if any(b.volume_mm3 <= a.volume_mm3 for a, b in zip(vois, vois[1:])):
        raise UsageError("volumes must be strictly ascending")
    return [sample_largest(fit, voi, config) for voi in vois]
