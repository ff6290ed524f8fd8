"""Threshold selection diagnostics: mean excess and parameter stability.

The mean excess of an exact Generalized Pareto tail is linear in the
threshold with slope shape/(1-shape); the modified scale
(scale - shape * threshold) is constant across valid thresholds. Both are
scanned over a candidate grid, and the automated policy picks the smallest
candidate whose forward-window parameter changes stay inside a tolerance
measured in standard errors. A manual threshold skips the policy and is
fitted as given.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
import numpy as np

from .geometry import SpecimenDataset
from .gpd import MIN_TAIL_COUNT, FitError, TailFit, UsageError, select_estimator

DEFAULT_STABILITY_TOLERANCE = 0.5
DEFAULT_STABILITY_WINDOW = 3

SCAN_COLUMNS = (
    "threshold_um",
    "n_exceed",
    "mean_excess_um",
    "sigma_hat_um",
    "xi_hat",
    "sigma_star_um",
    "stability_score",
    "passes",
)


class ThresholdSelectionError(RuntimeError):
    """No candidate threshold satisfied the stability policy."""


def modified_scale(scale_um: float, shape: float, threshold_um: float) -> float:
    """Threshold-compensated scale; constant in the threshold for an exact tail."""
    return scale_um - shape * threshold_um


def modified_scale_se(fit: TailFit) -> float | None:
    """Delta-method standard error of the modified scale at the fit threshold."""
    if fit.covariance is None:
        return None
    mu = fit.params.threshold_um
    cov = fit.covariance
    var = cov[0, 0] + mu * mu * cov[1, 1] - 2.0 * mu * cov[0, 1]
    return float(np.sqrt(max(var, 0.0)))


@dataclass
class CandidateDiagnostics:
    """Per-candidate scan results; NaN marks quantities that could not be computed."""

    threshold_um: float
    n_exceed: int
    mean_excess_um: float = np.nan
    sigma_hat_um: float = np.nan
    xi_hat: float = np.nan
    sigma_star_um: float = np.nan
    sigma_star_se: float = np.nan
    xi_se: float = np.nan
    stability_score: float = np.nan
    passes: bool = False


@dataclass
class ThresholdScan:
    """Diagnostics over an ascending candidate grid."""

    candidates: list[CandidateDiagnostics]


def _tails(data, candidates=(), floor: int = 1):
    """Split the diameters at every candidate: every tail is a prefix.

    Returns the diameters largest first (a dataset's as they are, an array
    sorted once), the distinct candidates ascending, and each one's
    exceedance count k, so that its exceedances are d[:k]. A diameter that
    is not finite, or a candidate that is not a positive finite diameter,
    is refused. The candidates
    keeping fewer than `floor` exceedances are a run at the top of the
    grid; they are dropped with one warning.
    """
    if isinstance(data, SpecimenDataset):
        d = data.diameters_um
    else:
        d = np.sort(np.asarray(data, dtype=float).ravel())[::-1]
        if not np.isfinite(d).all():
            raise UsageError("diameters must be finite: a NaN would sort into every tail")
    mus = np.unique(np.asarray(candidates, dtype=float))
    bad = mus[~((mus > 0.0) & (mus < np.inf))]
    if bad.size:
        raise UsageError(f"candidate threshold {bad[0]} is not a positive finite diameter")
    counts = d.size - np.searchsorted(d[::-1], mus, side="right")
    kept = int(np.count_nonzero(counts >= floor))
    if kept < mus.size:
        warnings.warn(
            f"candidate {mus[kept]} and up ({mus.size - kept} candidate(s)) retain fewer "
            f"than {floor} exceedances; excluded",
            stacklevel=3,
        )
    return d, mus[:kept], counts[:kept]


def default_candidate_grid(data) -> np.ndarray:
    """Empirical quantiles of the diameters from 50% to 99% in 1% steps."""
    d = _tails(data)[0]
    if d.size == 0:
        raise FitError("dataset has no pores; nothing to fit")
    qs = np.arange(0.50, 0.9901, 0.01)
    return np.unique(np.quantile(d, qs))


def mean_excess_curve(data, candidates) -> ThresholdScan:
    """Empirical mean excess over the distinct candidates.

    Candidates retaining fewer than two exceedances (including any above
    the largest pore) are excluded with one warning.
    """
    d, mus, counts = _tails(data, candidates, 2)
    return ThresholdScan(candidates=[
        CandidateDiagnostics(float(mu), int(k), float(np.mean(d[:k] - mu)))
        for mu, k in zip(mus, counts)
    ])


def stability_scan(
    data,
    candidates,
    *,
    min_tail_count: int = MIN_TAIL_COUNT,
    tolerance: float = DEFAULT_STABILITY_TOLERANCE,
    window: int = DEFAULT_STABILITY_WINDOW,
) -> ThresholdScan:
    """Fit the tail at every candidate and score forward-window stability.

    Repeated candidates are scanned once. The score at a candidate is the
    largest change of the shape estimate and of the modified scale over the
    fitted candidates among the next `window` (at least 1), measured in
    that candidate's standard errors; a candidate passes when the score is
    at most `tolerance` (finite and nonnegative). The candidates with fewer
    than `min_tail_count` (at least 1) exceedances are excluded with one
    warning, and one with no fitted candidate in its window is left
    unscored and does not pass. A candidate whose fit fails is kept with
    NaN estimates.
    """
    if window < 1:
        raise UsageError(f"stability window = {window} must be at least 1 candidate")
    if min_tail_count < 1:
        raise UsageError(f"min_tail_count = {min_tail_count} must be at least 1 exceedance")
    if not 0.0 <= tolerance < np.inf:
        raise UsageError(f"stability_tolerance = {tolerance} must be finite and nonnegative")
    d, mus, counts = _tails(data, candidates, min_tail_count)
    scan = ThresholdScan(candidates=[])
    for mu, k in zip(mus, counts):
        exceed = d[:k]
        entry = CandidateDiagnostics(threshold_um=float(mu), n_exceed=int(k))
        entry.mean_excess_um = float(np.mean(exceed - mu))
        try:
            fit = select_estimator(exceed, mu, min_tail_count=min_tail_count)
        except FitError:
            scan.candidates.append(entry)
            continue
        entry.sigma_hat_um = fit.params.scale_um
        entry.xi_hat = fit.params.shape
        entry.sigma_star_um = modified_scale(fit.params.scale_um, fit.params.shape, mu)
        if fit.covariance is not None:
            # The modified-scale change is normalized by its own delta-method
            # standard error; the raw scale's error underestimates the noise
            # floor away from the origin (it misses the threshold-amplified
            # shape component).
            entry.sigma_star_se = modified_scale_se(fit) or np.nan
            entry.xi_se = float(np.sqrt(fit.covariance[1, 1]))
        scan.candidates.append(entry)

    for k, entry in enumerate(scan.candidates):
        if not np.isfinite(entry.sigma_star_se) or not np.isfinite(entry.xi_se):
            continue
        forward = [c for c in scan.candidates[k + 1 : k + 1 + window] if np.isfinite(c.xi_hat)]
        if not forward:
            continue
        score = 0.0
        for other in forward:
            score = max(
                score,
                abs(other.xi_hat - entry.xi_hat) / entry.xi_se,
                abs(other.sigma_star_um - entry.sigma_star_um) / entry.sigma_star_se,
            )
        entry.stability_score = score
        entry.passes = score <= tolerance
    return scan


def select_threshold(scan: ThresholdScan) -> float:
    """The smallest passing candidate of a completed scan."""
    for entry in scan.candidates:
        if entry.passes:
            return entry.threshold_um
    scored = [c for c in scan.candidates if np.isfinite(c.stability_score)]
    scored.sort(key=lambda c: c.stability_score)
    near_misses = ", ".join(
        f"{c.threshold_um:.6g} (score {c.stability_score:.3g}, n {c.n_exceed})"
        for c in scored[:3]
    )
    raise ThresholdSelectionError(
        "no candidate threshold passed the stability policy"
        + (f"; best near-misses: {near_misses}" if near_misses else "")
    )
