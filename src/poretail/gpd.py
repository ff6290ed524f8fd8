"""Generalized Pareto upper-tail model.

Distribution evaluation, maximum-likelihood and method-of-moments parameter
estimation with their asymptotic covariance matrices, and the
estimator-domain selection policy. The asymptotic normality domains are
shape > -0.5 for MLE and shape < 0.25 for MOM; each covariance formula is
attached only inside its domain.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
import math

import numpy as np

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
    # NaN and inf give a NaN variance
    if not np.var(y) > 0.0:
        raise FitError("exceedances need a finite, non-zero variance; tail is degenerate")
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


def _profile(w: float, ratio: np.ndarray) -> tuple[float, float]:
    """Likelihood-maximizing (scale, shape) at theta = shape/scale = expm1(w)
    for excesses scaled to a largest value of 1 (Grimshaw 1993)."""
    t = float(np.expm1(w))
    if t == 0.0:
        return float(np.mean(ratio)), 0.0
    shape = float(np.mean(np.log1p(t * ratio)))
    return shape / t, shape


# _brentq and _minimize_bounded are ports of two solvers of scipy 1.17.1
# (BSD-3-Clause, "Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy
# Developers"): the C loop of scipy's brentq (Zeros/brentq.c) and the loop
# of _minimize_scalar_bounded, which minimize_scalar(method="bounded") runs.
# Each keeps scipy's order of operations, so a fit is bit-identical to one
# made with scipy's solvers, and fitting loads no scipy subpackage. Failures
# that scipy returns as a status or raises as a RuntimeError raise FitError.
_BRENTQ_XTOL = 2e-12
_BRENTQ_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENTQ_MAXITER = 100
_BOUNDED_XATOL = 1e-10
_BOUNDED_MAXFUN = 500


def _checked(f, x: float) -> float:
    fx = f(x)
    if math.isnan(fx):
        raise FitError(f"the function value at x = {x!r} is NaN")
    return fx


def _brentq(f, xa: float, xb: float) -> float:
    """Root of f between xa and xb, where f changes sign (Brent 1973), as
    scipy's brentq finds it with xtol 2e-12 and rtol 4 eps."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = _checked(f, xpre)
    fcur = _checked(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise FitError(f"root search: f({xa!r}) and f({xb!r}) have the same sign")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENTQ_XTOL + _BRENTQ_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # C divides by zero to an infinite or NaN step, which bisects
            with contextlib.suppress(ZeroDivisionError):
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            # good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = _checked(f, xcur)
    raise FitError(f"root search did not converge in {_BRENTQ_MAXITER} iterations")


def _minimize_bounded(func, lower: float, upper: float) -> tuple[float, float]:
    """(x, func(x)) at a minimum of func on [lower, upper] by Brent's (1973)
    golden-section and parabolic search, as scipy's minimize_scalar(method=
    "bounded") finds it with xatol 1e-10 and at most 500 evaluations."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lower, upper
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + _BOUNDED_XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # is the parabola acceptable?
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * (1.0 if xm >= xf else -1.0)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + _BOUNDED_XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _BOUNDED_MAXFUN:
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        raise FitError("bounded search met a NaN objective")
    if num >= _BOUNDED_MAXFUN:
        raise FitError(f"bounded search did not converge in {_BOUNDED_MAXFUN} evaluations")
    return xf, fx


def fit_mle(
    exceedances,
    threshold_um: float,
    *,
    min_tail_count: int = MIN_TAIL_COUNT,
) -> TailFit:
    """Maximum-likelihood fit of the tail above the threshold.

    The likelihood is maximized as a profile over theta = shape/scale
    (Grimshaw 1993): for fixed theta the shape MLE is mean log1p(theta y),
    scale = shape/theta, and theta = 0 is the exponential limit. Brent's
    (1973) root finder brackets theta where that shape lies in (-1, 20),
    and his bounded minimiser searches the bracket (both ported from scipy,
    above); if the likelihood rises towards shape -1, the fit is the uniform
    limit (scale = max y, shape = -1). Covariance is attached only when the
    fitted shape exceeds -0.5; otherwise the fit is flagged and covariance
    is None.
    """
    y = _prepare_excess(exceedances, threshold_um, min_tail_count)
    # The search runs on the excesses scaled to a largest value of 1, in
    # w = log1p(theta), so that theta * ratio stays above -1 after rounding.
    y_max = float(y.max())
    ratio = y / y_max

    def bracket_end(shape_bound: float, w_far: float) -> float:
        # The profile shape rises with w from 0 at w = 0; w_far closes the
        # bracket when the bound lies beyond it.
        gap = lambda w: _profile(w, ratio)[1] - shape_bound
        if gap(w_far) * gap(0.0) > 0.0:
            return w_far
        return _brentq(gap, 0.0, w_far)

    # w = log(eps) keeps theta above -1 and w = 700 keeps it finite
    bounds = (bracket_end(-1.0, float(np.log(np.finfo(float).eps))), bracket_end(20.0, 700.0))
    # gpd_nll is looked up at each call, so a wrapper that counts its calls sees them all
    best_w, best_nll = _minimize_bounded(lambda w: gpd_nll(*_profile(w, ratio), ratio), *bounds)
    scale, shape = _profile(best_w, ratio)
    # at shape = -1 the tail is uniform, most likely just above the largest excess
    edge = (float(np.nextafter(1.0, 2.0)), -1.0)
    if gpd_nll(*edge, ratio) < best_nll:
        scale, shape = edge
    scale *= y_max
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
    mean = float(np.mean(y))
    ratio = mean * mean / float(np.var(y, ddof=1))
    shape = 0.5 * (1.0 - ratio)
    scale = 0.5 * mean * (1.0 + ratio)
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
    mle = fit_mle(exceedances, threshold_um, min_tail_count=min_tail_count)
    if mle.params.shape > MLE_SHAPE_FLOOR:
        return mle
    try:
        mom = fit_mom(exceedances, threshold_um, min_tail_count=min_tail_count)
    except FitError:
        mom = None
    if mom is not None and mom.params.shape < MOM_SHAPE_CEIL:
        return mom
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
