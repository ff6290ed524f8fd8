"""Closed-form reference for the largest-pore distribution.

This is the benchmark's own oracle for the engine's accuracy. It shares no
code with ``poretail``: it reads a fitted tail (from a fit report or from
the fields of a ``TailFit``) and evaluates the law the engine samples from.

* The exceedance rate is Gaussian, clamped at zero, with mean ``lam`` and
  standard error ``s``; the tail count is Poisson in ``rate * V``. For a
  diameter ``d`` above the threshold, ``P(max <= d) = E exp(-a R)`` with
  ``a = V S(d)`` and ``S`` the tail survival function. Marginalising the
  clamped rate gives ``Phi(-lam/s) + exp(-a lam + a^2 s^2 / 2)
  Phi(lam/s - a s)``, evaluated in log space with ``log_ndtr``.
* Below the threshold only volumes without tail pores contribute; their
  largest pore is the largest of a Poisson(``lam_below V``) resample of the
  sub-threshold record: ``P(N = 0) exp(-lam_below V (1 - F_emp(d)))``.
* Mode ``none`` pins the count at ``lam V``: ``F(d) ** (lam V)``.
* Mode ``all`` integrates (scale, shape) over the fit's bivariate normal
  truncated to positive scales, with a tensor Gauss-Hermite rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr, roots_hermitenorm

MODES = ("none", "poisson_only", "all")

# Gauss-Hermite nodes per axis. The integrand is smooth in the standardised
# parameters: 48 nodes agree with 200 to 1e-9 (test_reference.py).
GH_NODES = 48
# Product nodes lighter than this are dropped (far out in the tails).
WEIGHT_FLOOR = 1e-14
# Parameter nodes evaluated at once; bounds memory at about
# NODE_CHUNK * len(d) * 8 bytes per temporary.
NODE_CHUNK = 256


@dataclass(frozen=True)
class Fit:
    """The fitted-tail quantities the largest-pore law depends on, and the
    exceedance count they were fitted from."""

    threshold: float
    scale: float
    shape: float
    cov: np.ndarray | None
    lam: float
    lam_se: float
    lam_below: float
    emp_below: np.ndarray
    n_exceed: int

    @classmethod
    def from_tail_fit(cls, fit) -> "Fit":
        emp = fit.empirical_below_um
        return cls(
            threshold=fit.params.threshold_um,
            scale=fit.params.scale_um,
            shape=fit.params.shape,
            cov=None if fit.covariance is None else np.asarray(fit.covariance, dtype=float),
            lam=fit.lambda_above_per_mm3,
            lam_se=fit.lambda_above_se or 0.0,
            lam_below=fit.lambda_below_per_mm3,
            emp_below=np.empty(0) if emp is None else np.asarray(emp, dtype=float),
            n_exceed=fit.n_exceed,
        )

    @classmethod
    def from_report(cls, path: str | Path) -> "Fit":
        """Parse a ``poretail-fit/1`` report."""
        values = read_keyvalues(path)
        if values.get("format") != "poretail-fit/1":
            raise ValueError(f"{path}: not a poretail-fit/1 report")
        cov = None
        if values.get("covariance_available") == "true":
            css, csx, cxx = (float(values[k]) for k in ("cov_sigma_sigma", "cov_sigma_xi", "cov_xi_xi"))
            cov = np.array([[css, csx], [csx, cxx]])
        emp = values.get("empirical_below_um", "")
        return cls(
            threshold=float(values["threshold_um"]),
            scale=float(values["sigma_um"]),
            shape=float(values["xi"]),
            cov=cov,
            lam=float(values["lambda_above_per_mm3"]),
            lam_se=float(values["lambda_above_se"]),
            lam_below=float(values["lambda_below_per_mm3"]),
            emp_below=np.array([float(v) for v in emp.split(",")]) if emp else np.empty(0),
            n_exceed=int(values["n_exceed"]),
        )


def read_keyvalues(path: str | Path) -> dict[str, str]:
    """The ``key = value`` lines of a report (fit report or prediction summary)."""
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}: malformed line {line[:60]!r}")
            values[key.strip()] = value.strip()
    return values


def _log_survival(d: np.ndarray, threshold: float, scale, shape) -> np.ndarray:
    """log(1 - F(d)) of the tail for d >= threshold; -inf beyond the support."""
    y = (d - threshold) / scale
    z = shape * y
    small = np.abs(shape) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(small, -y, -np.log1p(z) / np.where(small, 1.0, shape))
    return np.where(1.0 + z > 0.0, out, -np.inf)


def _log_laplace_clamped(a: np.ndarray, lam: float, se: float) -> np.ndarray:
    """log E[exp(-a R)] for R = max(Normal(lam, se^2), 0) and a >= 0."""
    if se <= 0.0:
        return -a * lam
    t = lam / se
    with np.errstate(invalid="ignore", over="ignore"):
        inner = -a * lam + 0.5 * (a * se) ** 2 + log_ndtr(t - a * se)
    return np.logaddexp(log_ndtr(-t), inner)


def _param_nodes(fit: Fit, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scale, shape, weight) nodes of the bivariate normal truncated to scale > 0."""
    x, w = roots_hermitenorm(n)
    w = w / w.sum()
    zz = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    ww = np.outer(w, w).ravel()
    keep = ww > WEIGHT_FLOOR
    theta = np.array([fit.scale, fit.shape]) + zz[keep] @ np.linalg.cholesky(fit.cov).T
    positive = theta[:, 0] > 0.0
    p_positive = float(ndtr(fit.scale / np.sqrt(fit.cov[0, 0])))
    return theta[positive, 0], theta[positive, 1], ww[keep][positive] / p_positive


def zero_count_probability(fit: Fit, volume_mm3: float, mode: str) -> float:
    """P(N = 0): the share of volumes that hold no tail pore."""
    if mode == "none":
        return 0.0
    return float(np.exp(_log_laplace_clamped(np.float64(volume_mm3), fit.lam, fit.lam_se)))


def largest_cdf(fit: Fit, volume_mm3: float, mode: str, d, *, nodes: int = GH_NODES) -> np.ndarray:
    """Reference P(largest pore in the volume <= d) at diameters d."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    d = np.atleast_1d(np.asarray(d, dtype=float))
    volume = float(volume_mm3)
    above = d >= fit.threshold
    out = np.zeros(d.size)

    if mode == "none":
        if not fit.lam * volume > 0.0:
            raise ValueError("mode none needs a positive expected tail count")
        log_s = _log_survival(d[above], fit.threshold, fit.scale, fit.shape)
        with np.errstate(divide="ignore"):
            out[above] = np.exp(fit.lam * volume * np.log1p(-np.exp(log_s)))
        return out

    below = (~above) & (d >= 0.0)
    p_zero = zero_count_probability(fit, volume, mode)
    if fit.emp_below.size:
        f_emp = np.searchsorted(fit.emp_below, d[below], side="right") / fit.emp_below.size
        out[below] = p_zero * np.exp(-fit.lam_below * volume * (1.0 - f_emp))
    else:
        out[below] = p_zero

    d_up = d[above]
    if mode == "poisson_only":
        a = volume * np.exp(_log_survival(d_up, fit.threshold, fit.scale, fit.shape))
        out[above] = np.exp(_log_laplace_clamped(a, fit.lam, fit.lam_se))
        return out

    if fit.cov is None:
        raise ValueError("mode all needs the fit covariance")
    scale, shape, weight = _param_nodes(fit, nodes)
    acc = np.zeros(d_up.size)
    for start in range(0, scale.size, NODE_CHUNK):
        stop = start + NODE_CHUNK
        log_s = _log_survival(d_up[None, :], fit.threshold, scale[start:stop, None], shape[start:stop, None])
        acc += weight[start:stop] @ np.exp(_log_laplace_clamped(volume * np.exp(log_s), fit.lam, fit.lam_se))
    out[above] = np.minimum(acc, 1.0)
    return out


def largest_quantile(fit: Fit, volume_mm3: float, mode: str, t: float) -> float:
    """Reference t-quantile of the largest pore, by root finding on the CDF."""

    def cdf(x: float) -> float:
        return float(largest_cdf(fit, volume_mm3, mode, x)[0])

    if cdf(fit.threshold) >= t:
        at = largest_cdf(fit, volume_mm3, mode, fit.emp_below)
        return float(fit.emp_below[np.searchsorted(at, t, side="left")])
    hi = fit.threshold + fit.scale
    while cdf(hi) < t:
        hi = fit.threshold + 2.0 * (hi - fit.threshold)
    return float(brentq(lambda x: cdf(x) - t, fit.threshold, hi, xtol=1e-10, rtol=1e-12))
