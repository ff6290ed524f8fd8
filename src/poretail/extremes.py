"""Largest-pore estimation in a volume of interest.

Closed-form largest-pore CDF/quantiles for a known exceedance count, the
Poisson exceedance-rate model, and the engine that propagates count and
parameter uncertainty into the distribution of the largest equivalent
diameter. The Poisson count (with its clamped-Gaussian rate) and the
uniform-probability axis have closed forms, so the engine evaluates the
largest-pore CDF exactly at the histogram edges and integrates it over
(scale, shape) with a tensor Gauss-Hermite rule on the fit's bivariate
normal, doubling the nodes until two rules agree; their difference is
reported as the CDF's precision. The nodes are processed in blocks of
bounded size, and the result does not depend on the block size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .geometry import SpecimenDataset
from .gpd import (
    GpdParams,
    MIN_TAIL_COUNT,
    TailFit,
    _log_survival,
    _quantile_from_tail_prob,
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
# Elements per block of (scale, shape) nodes x diameters: bounds the engine's
# temporaries at about 512 kB each.
_CHUNK_ELEMENTS = 1 << 16

FLAG_EMPTY_FALLBACK = "zero exceedance count possible with empty sub-threshold record"
FLAG_NO_EXCEEDANCES = "no pores above threshold"
FLAG_DEGENERATE_RANGE = "degenerate histogram range: CDF at its target at the lowest edge or nowhere"
FLAG_RULE_UNCONVERGED = (
    f"(scale, shape) rule unconverged: {_MAX_NODES} and {_MAX_NODES // 2} nodes per axis "
    f"differ by more than {_RULE_TOLERANCE:g}"
)


class CovarianceUnavailableError(RuntimeError):
    """Full uncertainty propagation requested but the fit has no covariance."""


@dataclass(frozen=True)
class VolumeOfInterest:
    """Volume (mm^3, finite and positive) the largest-pore distribution is
    estimated for."""

    volume_mm3: float

    def __post_init__(self) -> None:
        if not 0 < self.volume_mm3 < np.inf:
            raise ValueError(f"volume_mm3 must be finite and positive, got {self.volume_mm3}")


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
    n_param_samples and n_p_samples are accepted, validated and echoed in
    the provenance, but ignored; total_samples is their nominal product.
    """

    seed: int
    n_count_samples: int = 1000
    n_param_samples: int = 1000
    n_p_samples: int = 1000
    histogram_bins: int = 2048
    uncertainty_mode: str = "all"

    def __post_init__(self) -> None:
        for name in ("n_count_samples", "n_param_samples", "n_p_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.histogram_bins < 16:
            raise ValueError("histogram_bins must be >= 16")
        if self.uncertainty_mode not in UNCERTAINTY_MODES:
            raise ValueError(
                f"uncertainty_mode must be one of {UNCERTAINTY_MODES}, "
                f"got {self.uncertainty_mode!r}"
            )

    @property
    def total_samples(self) -> int:
        return self.n_count_samples * self.n_param_samples * self.n_p_samples


@dataclass(frozen=True)
class RateEstimate:
    rate_per_mm3: float
    se: float
    count: int


@dataclass(frozen=True)
class RateEstimates:
    above: RateEstimate
    below: RateEstimate
    flags: tuple[str, ...] = ()


def estimate_rates(dataset: SpecimenDataset, threshold_um: float) -> RateEstimates:
    """Poisson rate estimates on each side of the threshold.

    The rate is the pore count divided by the scanned volume, and its
    Poisson standard error is sqrt(count)/volume (zero by convention when
    no pores were observed, which is flagged because uncertainty
    propagation then degenerates to the sub-threshold fallback only).
    """
    d = dataset.diameters_um
    volume = dataset.scanned_volume_mm3
    n_above = int(np.count_nonzero(d > threshold_um))
    n_below = int(d.size - n_above)

    def one(count: int) -> RateEstimate:
        return RateEstimate(
            rate_per_mm3=count / volume, se=float(np.sqrt(count)) / volume, count=count
        )

    flags: tuple[str, ...] = ()
    if n_above == 0:
        flags = (FLAG_NO_EXCEEDANCES,)
    return RateEstimates(above=one(n_above), below=one(n_below), flags=flags)


def fit_tail(
    dataset: SpecimenDataset,
    threshold_um: float,
    *,
    min_tail_count: int = MIN_TAIL_COUNT,
    fit_id: str | None = None,
) -> TailFit:
    """Fit the tail of a specimen and attach rates and the sub-threshold sample."""
    d = dataset.diameters_um
    exceed = d[d > threshold_um]
    below = np.sort(d[d <= threshold_um])
    fit = select_estimator(exceed, threshold_um, min_tail_count=min_tail_count)
    rates = estimate_rates(dataset, threshold_um)
    return replace(
        fit,
        fit_id=fit_id or f"{dataset.specimen_id}@{threshold_um:g}um",
        flags=fit.flags + rates.flags,
        lambda_above_per_mm3=rates.above.rate_per_mm3,
        lambda_above_se=rates.above.se,
        lambda_below_per_mm3=rates.below.rate_per_mm3,
        lambda_below_se=rates.below.se,
        empirical_below_um=below,
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


def largest_quantile_closed(params: GpdParams, n_pores, p) -> np.ndarray | float:
    """Inverse of the largest-pore CDF for a known count of tail pores.

    Evaluates the tail quantile at p**(1/n); for negative shape, p = 1 maps
    to the support bound, while for shape >= 0 it is unbounded and refused.
    """
    n_arr = np.asarray(n_pores, dtype=float)
    p_arr = np.asarray(p, dtype=float)
    if np.any(n_arr <= 0):
        raise ValueError("n_pores must be positive (zero-count case is the fallback)")
    if np.any(p_arr < 0) or np.any(p_arr > 1):
        raise ValueError("p must lie in [0, 1]")
    if params.shape >= 0 and np.any(p_arr == 1.0):
        raise ValueError("quantile at p = 1 is unbounded for shape >= 0")
    with np.errstate(divide="ignore"):
        one_minus_q = -np.expm1(np.log(p_arr) / n_arr)
    out = _quantile_from_tail_prob(
        params.threshold_um, params.scale_um, params.shape, one_minus_q
    )
    if np.ndim(p) == 0 and np.ndim(n_pores) == 0:
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

    @classmethod
    def from_masses(
        cls, bin_edges_um, pdf_mass, *, no_pore_mass: float = 0.0, **kwargs
    ) -> "LargestPoreDistribution":
        """Build a distribution from the no-pore mass and the bin masses; the
        mass they leave lies beyond the top edge, none if they sum to 1
        within rounding (1e-12)."""
        pdf = np.asarray(pdf_mass, dtype=float)
        cdf = np.concatenate([[no_pore_mass], no_pore_mass + np.cumsum(pdf)])
        if abs(cdf[-1] - 1.0) <= 1e-12:
            cdf = np.minimum(cdf, 1.0)
            cdf[-1] = 1.0
        return cls(bin_edges_um, cdf, **kwargs)

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


def _param_rule(fit: TailFit, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scale, shape, weight) nodes of an n x n Gauss-Hermite rule on the
    fit's bivariate normal, mapped through the Cholesky factor of its
    covariance. Nodes with a non-positive scale are dropped and the kept
    weights renormalised to sum to 1.
    """
    from numpy.polynomial.hermite_e import hermegauss

    if fit.covariance is None:
        raise CovarianceUnavailableError(
            "fit covariance unavailable (estimate outside asymptotic-normality "
            "domain); full uncertainty propagation refuses to run"
        )
    z, w = hermegauss(n)
    grid = np.stack(np.meshgrid(z, z, indexing="ij"), axis=-1).reshape(-1, 2)
    mean = np.array([fit.params.scale_um, fit.params.shape])
    nodes = mean + grid @ np.linalg.cholesky(fit.covariance).T
    keep = nodes[:, 0] > 0.0
    weights = np.outer(w, w).ravel()[keep]
    return nodes[keep, 0].copy(), nodes[keep, 1].copy(), weights / weights.sum()


def _log_laplace_rate(a, lam: float, se: float) -> np.ndarray:
    """log E[exp(-a R)] for the rate R = max(Normal(lam, se^2), 0), a >= 0.

    Splitting at R = 0: P(R = 0) = Phi(-lam/se), and completing the square
    over R > 0 gives exp(-a lam + (a se)^2 / 2) Phi(x) with x = lam/se - a se.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if se <= 0.0:
        return -a * lam
    # imported here so that `import poretail` does not load scipy.special
    from scipy.special import erfcx, log_ndtr

    t = lam / se
    x = t - a * se
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        positive = -a * lam + 0.5 * (a * se) ** 2 + log_ndtr(x)
        # For x < 0 those terms cancel: use exp(x^2 / 2) Phi(x) = erfcx(-x/sqrt 2) / 2
        far = x < 0.0
        positive[far] = np.log(0.5 * erfcx(-x[far] / np.sqrt(2.0))) - 0.5 * t * t
    return np.logaddexp(log_ndtr(-t), positive)


class _LargestCdf:
    """P(largest pore in the volume <= d), exact over count and probability.

    Above the threshold u, with S the tail survival function and R the
    clamped-Gaussian rate, P(max <= d | scale, shape) = E exp(-R V S(d)) in
    closed form (no tail pore, N = 0, included), and the CDF is its
    weighted mean over the (scale, shape) nodes: the point estimate, or in
    mode "all" the n x n rule of _param_rule, n = nodes_per_axis. Below u
    only volumes without tail pores contribute, their largest pore being
    the largest of a Poisson(lam_b V) resample of the sub-threshold record:
    P(N = 0) exp(-lam_b V (1 - F_emp(d))).
    Mode "none" pins the count at lam V instead, giving F(d) ** (lam V), or,
    when lam V = 0, the pinned sub-threshold fallback F_emp(d) ** (lam_b V).
    An empty sub-threshold record counts as F_emp = 1 (no pore at all).
    """

    def __init__(self, fit: TailFit, volume: float, mode: str, nodes_per_axis: int) -> None:
        self.fit = fit
        self.threshold = fit.params.threshold_um
        self.nodes_per_axis = nodes_per_axis
        if mode == "all":
            self.sigma, self.xi, self.weights = _param_rule(fit, nodes_per_axis)
        else:
            self.sigma = np.array([fit.params.scale_um])
            self.xi = np.array([fit.params.shape])
            self.weights = np.ones(1)
        self.volume = volume
        self.mode = mode
        self.lam = fit.lambda_above_per_mm3
        self.lam_se = fit.lambda_above_se or 0.0
        self.lam_below_volume = fit.lambda_below_per_mm3 * volume
        emp = fit.empirical_below_um
        self.emp = np.asarray(emp, dtype=float) if emp is not None else np.empty(0)
        self.pinned_fallback = mode == "none" and self.lam * volume == 0.0
        if mode == "none":
            self.p_zero = 0.0
        else:
            self.p_zero = float(np.exp(_log_laplace_rate(volume, self.lam, self.lam_se))[0])

    def __call__(self, d) -> np.ndarray:
        d = np.atleast_1d(np.asarray(d, dtype=float))
        if self.pinned_fallback:
            return self._emp_cdf(d) ** self.lam_below_volume
        out = np.empty(d.shape)
        below = d < self.threshold
        out[below] = self.p_zero * np.exp(
            -self.lam_below_volume * (1.0 - self._emp_cdf(d[below]))
        )
        out[~below] = self._mean_over_params(d[~below])
        return out

    def _emp_cdf(self, d: np.ndarray) -> np.ndarray:
        if self.emp.size == 0:
            return np.ones(d.shape)
        return np.searchsorted(self.emp, d, side="right") / self.emp.size

    def _given_params(self, log_s: np.ndarray) -> np.ndarray:
        if self.mode == "none":
            with np.errstate(divide="ignore"):
                return np.exp(self.lam * self.volume * np.log1p(-np.exp(log_s)))
        return np.exp(_log_laplace_rate(self.volume * np.exp(log_s), self.lam, self.lam_se))

    def _mean_over_params(self, d: np.ndarray) -> np.ndarray:
        rows = max(1, _CHUNK_ELEMENTS // max(d.size, 1))
        total = np.zeros(d.size)
        for start in range(0, self.sigma.size, rows):
            block = slice(start, start + rows)
            log_s = _log_survival(
                self.threshold, self.sigma[block, None], self.xi[block, None], d
            )
            # row by row, so that the sum does not depend on the block size
            for w, row in zip(self.weights[block], self._given_params(log_s)):
                total += w * row
        return total


def _top_edge(cdf: _LargestCdf, lo: float, start: float) -> float | None:
    """Diameter where the CDF reaches 1 - _UNRESOLVED_MASS, by bisection.

    The bracket grows from [lo, start] by doubling its distance from lo.
    None when the CDF already reaches the target at lo, or no finite
    diameter does.
    """
    target = 1.0 - _UNRESOLVED_MASS
    if cdf(lo)[0] >= target:
        return None
    below, above = lo, start
    while cdf(above)[0] < target:
        below, above = above, lo + 2.0 * (above - lo)
        if not np.isfinite(above):
            return None
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (below + above)
        if cdf(mid)[0] < target:
            below = mid
        else:
            above = mid
    return above


def _refine(cdf: _LargestCdf, edges: np.ndarray) -> tuple[_LargestCdf, np.ndarray, float]:
    """Double the rule's nodes per axis until the CDFs of two successive
    rules differ by at most _RULE_TOLERANCE at the edges and the probe
    excesses, or the finer rule has _MAX_NODES per axis. Returns the finer
    rule, its CDF at the edges and that largest difference."""
    at = np.concatenate([edges, cdf.threshold + (edges[-1] - cdf.threshold) * _PROBE_FRACTIONS])
    coarse = cdf(at)
    while True:
        cdf = _LargestCdf(cdf.fit, cdf.volume, cdf.mode, 2 * cdf.nodes_per_axis)
        fine = cdf(at)
        gap = float(np.max(np.abs(fine - coarse)))
        if gap <= _RULE_TOLERANCE or cdf.nodes_per_axis >= _MAX_NODES:
            return cdf, fine[: edges.size], gap
        coarse = fine


def sample_largest(
    fit: TailFit,
    voi: VolumeOfInterest,
    config: McConfig,
    *,
    workers: int = 1,
) -> LargestPoreDistribution:
    """Largest-pore distribution for a volume of interest.

    Exceedance counts are Poisson with the rate drawn from its Gaussian
    estimate (clamped at zero); (scale, shape) follow the estimator's
    asymptotic bivariate normal. Volumes without tail pores fall back to
    the sub-threshold empirical distribution, and volumes without any pore
    make up the "no pores" mass at diameter 0. The count and probability
    axes are integrated exactly at the histogram edges (see _LargestCdf).
    In mode "all", (scale, shape) is integrated with a tensor Gauss-Hermite
    rule: the top edge, where the CDF reaches 1 - 1e-5, is found with 8
    nodes per axis, and at the edges the nodes double while two successive
    rules differ by more than 1e-4, up to 64 per axis. The finer rule's CDF
    is reported, their difference as cdf_precision, and a rule still
    unconverged at the cap is flagged.

    The result is deterministic. `workers`, the seed and the sample counts
    of `config` are accepted and ignored.
    """
    if fit.lambda_above_per_mm3 is None or fit.lambda_below_per_mm3 is None:
        raise ValueError("fit lacks rate estimates; build it with fit_tail()")
    mode = config.uncertainty_mode
    volume = voi.volume_mm3
    cdf = _LargestCdf(fit, volume, mode, _START_NODES if mode == "all" else 1)
    flags: list[str] = []

    lo = fit.params.threshold_um
    if cdf.emp.size and (mode != "none" or cdf.pinned_fallback):
        lo = min(lo, float(cdf.emp[0]))
    hi = _top_edge(cdf, lo, fit.params.threshold_um + fit.params.scale_um)
    if hi is None:
        hi = lo + max(abs(lo), 1.0)
        flags.append(FLAG_DEGENERATE_RANGE)
    edges = np.linspace(lo, hi, config.histogram_bins + 1)

    if mode == "all":
        cdf, at_edges, precision = _refine(cdf, edges)
        if not precision <= _RULE_TOLERANCE:
            flags.append(FLAG_RULE_UNCONVERGED)
    else:
        at_edges, precision = cdf(edges), 0.0

    # diameters are positive, so the CDF at 0 is the no-pore atom; the
    # lowest edge's own mass goes to the first bin
    no_pore_mass = float(cdf(0.0)[0])
    at_edges = np.clip(at_edges, 0.0, 1.0)
    at_edges[0] = no_pore_mass
    at_edges = np.maximum.accumulate(at_edges)
    if cdf.emp.size == 0 and no_pore_mass >= _UNRESOLVED_MASS:
        flags.append(FLAG_EMPTY_FALLBACK)
        warnings.warn(FLAG_EMPTY_FALLBACK, stacklevel=2)

    return LargestPoreDistribution(
        edges,
        at_edges,
        n_samples_total=cdf.sigma.size,
        provenance={
            "fit_id": fit.fit_id,
            "volume_mm3": volume,
            "uncertainty_mode": mode,
            "n_count_samples": config.n_count_samples,
            "n_param_samples": config.n_param_samples,
            "n_p_samples": config.n_p_samples,
            "histogram_bins": config.histogram_bins,
            "seed": config.seed,
        },
        flags=tuple(flags),
        cdf_precision=precision,
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
        raise ValueError("volume list must not be empty")
    if any(b.volume_mm3 <= a.volume_mm3 for a, b in zip(vois, vois[1:])):
        raise ValueError("volumes must be strictly ascending")
    return [sample_largest(fit, voi, config) for voi in vois]
