"""Generalized Pareto upper-tail model.

Distribution evaluation, maximum-likelihood and method-of-moments parameter
estimation with their asymptotic covariance matrices, and the
estimator-domain selection policy. The asymptotic normality domains are
shape > -0.5 for MLE and shape < 0.25 for MOM; each covariance formula is
attached only inside its domain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np
from scipy.optimize import minimize

# Below this |shape| the exponential-limit formulas are used; continuity
# across the switch is enforced by tests.
XI_SWITCH = 1e-9

MIN_TAIL_COUNT = 30
MLE_SHAPE_FLOOR = -0.5
MOM_SHAPE_CEIL = 0.25

FLAG_MLE_DOMAIN = "outside MLE asymptotic-normality domain"
FLAG_MOM_DOMAIN = "outside MOM asymptotic-normality domain"
FLAG_NO_VALID_DOMAIN = "no estimator in valid domain"
FLAG_COV_POLE = "covariance prefactor pole"


class FitError(RuntimeError):
    """Tail fit could not be produced from the given exceedances."""


@dataclass(frozen=True)
class GpdParams:
    """Threshold (um), scale (um) and shape of a Generalized Pareto tail."""

    threshold_um: float
    scale_um: float
    shape: float

    def __post_init__(self) -> None:
        if not self.scale_um > 0:
            raise ValueError(f"scale must be positive, got {self.scale_um}")

    @property
    def upper_support_um(self) -> float:
        """Upper end of the support: finite only for negative shape."""
        if self.shape < 0:
            return self.threshold_um - self.scale_um / self.shape
        return np.inf


def _log_survival(threshold_um, scale_um, shape, d) -> np.ndarray:
    """log(1 - F(d)) of the tail, broadcasting over d, scale and shape.

    Values at or below the threshold map to 0 and values at or beyond the
    upper support bound (negative shape) map to -inf.
    """
    y = np.maximum((np.asarray(d, dtype=float) - threshold_um) / scale_um, 0.0)
    shape = np.asarray(shape, dtype=float)
    small = np.abs(shape) < XI_SWITCH
    z = np.maximum(shape * y, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(small, -y, -np.log1p(z) / np.where(small, 1.0, shape))


def gpd_cdf(params: GpdParams, d) -> np.ndarray | float:
    """CDF of the tail at diameter(s) d.

    Values below the threshold map to 0 and values beyond the upper support
    bound (negative shape) map to 1 by convention.
    """
    # 0 - expm1 rather than -expm1: no negative zero at and below the threshold
    out = 0.0 - np.expm1(
        _log_survival(params.threshold_um, params.scale_um, params.shape, d)
    )
    if np.ndim(d) == 0:
        return float(out)
    return out


def _quantile_from_tail_prob(threshold_um, scale_um, shape, one_minus_q) -> np.ndarray:
    """Quantile expressed through the exceedance probability 1 - q.

    Working from 1 - q directly avoids cancellation when q is very close
    to 1 (deep-tail evaluation). Scale and shape broadcast against 1 - q.
    """
    shape = np.asarray(shape, dtype=float)
    small = np.abs(shape) < XI_SWITCH
    with np.errstate(divide="ignore", invalid="ignore"):
        log_omq = np.log(np.asarray(one_minus_q, dtype=float))
        power = scale_um * np.expm1(-shape * log_omq) / np.where(small, 1.0, shape)
        return threshold_um + np.where(small, -scale_um * log_omq, power)


def gpd_quantile(params: GpdParams, q) -> np.ndarray | float:
    """Inverse CDF at probability q in [0, 1).

    q = 1 is allowed only for negative shape, where it returns the support
    bound; otherwise the quantile is unbounded and a ValueError is raised.
    """
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr < 0.0) or np.any(q_arr > 1.0):
        raise ValueError("q must lie in [0, 1]")
    if params.shape >= 0 and np.any(q_arr == 1.0):
        raise ValueError("quantile at q = 1 is unbounded for shape >= 0")
    out = _quantile_from_tail_prob(
        params.threshold_um, params.scale_um, params.shape, 1.0 - q_arr
    )
    if np.ndim(q) == 0:
        return float(out)
    return out


def mle_covariance(scale_um: float, shape: float, n_exceed: int) -> np.ndarray:
    """Asymptotic covariance of the MLE (scale, shape) estimates."""
    if not shape > MLE_SHAPE_FLOOR:
        raise ValueError(
            f"MLE covariance requires shape > {MLE_SHAPE_FLOOR}, got {shape}"
        )
    pref = (1.0 + shape) / n_exceed
    return pref * np.array(
        [
            [2.0 * scale_um**2, scale_um],
            [scale_um, 1.0 + shape],
        ]
    )


def mom_covariance(scale_um: float, shape: float, n_exceed: int) -> np.ndarray:
    """Asymptotic covariance of the MOM (scale, shape) estimates."""
    if not shape < MOM_SHAPE_CEIL:
        raise ValueError(
            f"MOM covariance requires shape < {MOM_SHAPE_CEIL}, got {shape}"
        )
    for pole in (1.0 / 3.0, 0.25, 0.5):
        if abs(shape - pole) < 1e-12:
            raise ValueError(f"MOM covariance prefactor pole at shape = {pole}")
    pref = (1.0 - shape) ** 2 / (n_exceed * (1.0 - 3.0 * shape) * (1.0 - 4.0 * shape))
    c_ss = 2.0 * scale_um**2 * (1.0 - 6.0 * shape + 12.0 * shape**2) / (1.0 - 2.0 * shape)
    c_sx = scale_um * (1.0 - 4.0 * shape + 12.0 * shape**2)
    c_xx = (1.0 - 2.0 * shape) * (1.0 - shape + 6.0 * shape**2)
    return pref * np.array([[c_ss, c_sx], [c_sx, c_xx]])


@dataclass(frozen=True, eq=False)
class TailFit:
    """A fitted tail: parameters, covariance, provenance and rates.

    covariance is the 2x2 matrix over (scale, shape), or None when the
    estimate sits outside the estimator's asymptotic-normality domain (in
    which case downstream uncertainty propagation refuses to run).
    The rate fields and the sub-threshold empirical sample are attached by
    the dataset-level driver; plain estimator calls leave them None.
    """

    params: GpdParams
    covariance: np.ndarray | None
    estimator: str
    n_exceed: int
    flags: tuple[str, ...] = ()
    fit_id: str = ""
    lambda_above_per_mm3: float | None = None
    lambda_above_se: float | None = None
    lambda_below_per_mm3: float | None = None
    lambda_below_se: float | None = None
    empirical_below_um: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.covariance is not None:
            cov = np.asarray(self.covariance, dtype=float)
            if cov.shape != (2, 2):
                raise ValueError("covariance must be 2x2")
            if not np.allclose(cov, cov.T):
                raise ValueError("covariance must be symmetric")
            if np.any(np.linalg.eigvalsh(cov) < -1e-12 * max(1.0, cov.max())):
                raise ValueError("covariance must be positive semi-definite")
            object.__setattr__(self, "covariance", cov)

    @property
    def scale_se(self) -> float | None:
        if self.covariance is None:
            return None
        return float(np.sqrt(self.covariance[0, 0]))

    @property
    def shape_se(self) -> float | None:
        if self.covariance is None:
            return None
        return float(np.sqrt(self.covariance[1, 1]))


def _prepare_excess(exceedances, threshold_um: float, min_tail_count: int) -> np.ndarray:
    x = np.asarray(exceedances, dtype=float)
    if x.ndim != 1:
        x = x.ravel()
    if x.size < min_tail_count:
        raise FitError(
            f"need at least {min_tail_count} exceedances, got {x.size}"
        )
    if np.any(x < threshold_um):
        raise FitError("exceedances must lie at or above the threshold")
    y = x - threshold_um
    if np.var(y) == 0.0:
        raise FitError("zero variance in exceedances; tail is degenerate")
    return y


def gpd_nll(scale_um: float, shape: float, excess: np.ndarray) -> float:
    """Negative log-likelihood of excesses over the threshold."""
    if scale_um <= 0:
        return np.inf
    n = excess.size
    if abs(shape) < XI_SWITCH:
        return n * np.log(scale_um) + float(excess.sum()) / scale_um
    z = shape * excess / scale_um
    if np.min(z) <= -1.0:
        return np.inf
    return n * np.log(scale_um) + (1.0 + 1.0 / shape) * float(np.log1p(z).sum())


def _mom_point(y: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(y))
    var = float(np.var(y, ddof=1))
    ratio = mean * mean / var
    shape = 0.5 * (1.0 - ratio)
    scale = 0.5 * mean * (1.0 + ratio)
    return scale, shape


def fit_mle(
    exceedances,
    threshold_um: float,
    *,
    min_tail_count: int = MIN_TAIL_COUNT,
) -> TailFit:
    """Maximum-likelihood fit of the tail above the threshold.

    The likelihood is maximized over (log scale, shape) with a
    derivative-free local search started from the MOM estimate and from
    (log mean, 0); support violations act as a rejection barrier. The
    asymptotic covariance is attached only when the fitted shape exceeds
    -0.5; otherwise the fit is flagged and covariance is None.
    """
    y = _prepare_excess(exceedances, threshold_um, min_tail_count)
    mean = float(np.mean(y))

    def objective(theta: np.ndarray) -> float:
        log_scale, shape = theta
        if not (-1.0 < shape < 20.0) or not (-700.0 < log_scale < 700.0):
            return np.inf
        return gpd_nll(np.exp(log_scale), shape, y)

    mom_scale, mom_shape = _mom_point(y)
    starts = [
        np.array([np.log(mom_scale), float(np.clip(mom_shape, -0.9, 10.0))]),
        np.array([np.log(mean), 0.0]),
    ]
    best = None
    diagnostics = []
    for start in starts:
        if not np.isfinite(objective(start)):
            start = np.array([np.log(mean), 0.0])
        result = minimize(objective, start, method="Nelder-Mead",
                          options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        diagnostics.append(f"start={start.tolist()} -> {result.message}")
        if np.isfinite(result.fun) and (best is None or result.fun < best.fun):
            best = result
    if best is None or not np.isfinite(best.fun):
        raise FitError("MLE optimizer did not converge: " + "; ".join(diagnostics))

    scale = float(np.exp(best.x[0]))
    shape = float(best.x[1])
    flags: tuple[str, ...] = ()
    covariance = None
    if shape > MLE_SHAPE_FLOOR:
        covariance = mle_covariance(scale, shape, y.size)
    else:
        flags = (FLAG_MLE_DOMAIN,)
    return TailFit(
        params=GpdParams(threshold_um, scale, shape),
        covariance=covariance,
        estimator="MLE",
        n_exceed=int(y.size),
        flags=flags,
    )


def fit_mom(
    exceedances,
    threshold_um: float,
    *,
    min_tail_count: int = MIN_TAIL_COUNT,
) -> TailFit:
    """Method-of-moments fit matching the tail's first two moments.

    Matching mean = scale/(1-shape) and variance =
    scale^2/((1-shape)^2 (1-2 shape)) against the sample moments gives
    shape = (1 - mean^2/var)/2 and scale = mean (1 + mean^2/var)/2 in
    closed form. Covariance is attached only when shape < 0.25.
    """
    y = _prepare_excess(exceedances, threshold_um, min_tail_count)
    scale, shape = _mom_point(y)
    if not scale > 0:
        raise FitError(f"MOM produced non-positive scale {scale}")
    flags: tuple[str, ...] = ()
    covariance = None
    if shape < MOM_SHAPE_CEIL:
        try:
            covariance = mom_covariance(scale, shape, y.size)
        except ValueError:
            flags = (FLAG_COV_POLE,)
    else:
        flags = (FLAG_MOM_DOMAIN,)
    return TailFit(
        params=GpdParams(threshold_um, scale, shape),
        covariance=covariance,
        estimator="MOM",
        n_exceed=int(y.size),
        flags=flags,
    )


def select_estimator(
    exceedances,
    threshold_um: float,
    *,
    min_tail_count: int = MIN_TAIL_COUNT,
) -> TailFit:
    """MLE-first estimator selection restricted to valid domains.

    Returns the MLE fit when its shape estimate is inside the MLE domain;
    otherwise returns the MOM fit when that lies inside the MOM domain;
    otherwise returns the MLE fit flagged as having no valid estimator.
    """
    mle_error = None
    try:
        mle = fit_mle(exceedances, threshold_um, min_tail_count=min_tail_count)
    except FitError as exc:
        mle = None
        mle_error = exc
    if mle is not None and mle.params.shape > MLE_SHAPE_FLOOR:
        return mle

    try:
        mom = fit_mom(exceedances, threshold_um, min_tail_count=min_tail_count)
    except FitError as exc:
        if mle is None:
            raise FitError(f"both estimators failed: MLE ({mle_error}); MOM ({exc})")
        mom = None
    if mom is not None and mom.params.shape < MOM_SHAPE_CEIL:
        return mom
    if mle is None:
        assert mom is not None
        return replace(mom, flags=mom.flags + (FLAG_NO_VALID_DOMAIN,))
    return replace(mle, flags=mle.flags + (FLAG_NO_VALID_DOMAIN,))


def qq_points(fit: TailFit, exceedances) -> np.ndarray:
    """Theoretical-versus-sample quantile pairs for fit assessment.

    The i-th sample order statistic is paired with the fitted quantile at
    plotting position (i - 0.5)/n. Returns an (n, 2) array with columns
    (theoretical, sample).
    """
    x = np.sort(np.asarray(exceedances, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("need at least one exceedance")
    positions = (np.arange(1, n + 1) - 0.5) / n
    theoretical = gpd_quantile(fit.params, positions)
    return np.column_stack([np.atleast_1d(theoretical), x])
