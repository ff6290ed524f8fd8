"""Generalized Pareto upper-tail model.

Distribution evaluation, maximum-likelihood and method-of-moments parameter
estimation with their asymptotic covariance matrices, and the
estimator-domain selection policy. The asymptotic normality domains are
shape > -0.5 for MLE and shape < 0.25 for MOM; each covariance formula is
attached only inside its domain.
"""

from __future__ import annotations

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


class UsageError(ValueError):
    """An argument outside its domain: the caller's mistake, refused by name."""


@dataclass(frozen=True)
class GpdParams:
    """Threshold (um), scale (um) and shape of a Generalized Pareto tail:
    finite, with a positive scale."""

    threshold_um: float
    scale_um: float
    shape: float

    def __post_init__(self) -> None:
        for key in ("threshold_um", "shape"):
            if not math.isfinite(getattr(self, key)):
                raise UsageError(f"{key} = {getattr(self, key)} is not finite")
        if not 0.0 < self.scale_um < math.inf:
            raise UsageError(f"scale_um = {self.scale_um} is not finite and positive")

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


def gpd_quantile(params: GpdParams, q) -> np.ndarray | float:
    """Inverse CDF at probability q in [0, 1).

    q = 1 is allowed only for negative shape, where it returns the support
    bound; otherwise the quantile is unbounded and a ValueError is raised.
    It is computed from log(1 - q) through expm1, which keeps precision as
    q nears 1 (deep-tail evaluation).
    """
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr < 0.0) or np.any(q_arr > 1.0):
        raise ValueError("q must lie in [0, 1]")
    if params.shape >= 0 and np.any(q_arr == 1.0):
        raise ValueError("quantile at q = 1 is unbounded for shape >= 0")
    scale, shape = params.scale_um, params.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        log_omq = np.log(1.0 - q_arr)
        if abs(shape) < XI_SWITCH:
            out = params.threshold_um - scale * log_omq
        else:
            out = params.threshold_um + scale * np.expm1(-shape * log_omq) / shape
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
    if abs(shape - 0.25) < 1e-12:  # the prefactor's only pole below MOM_SHAPE_CEIL
        raise ValueError("MOM covariance prefactor pole at shape = 0.25")
    pref = (1.0 - shape) ** 2 / (n_exceed * (1.0 - 3.0 * shape) * (1.0 - 4.0 * shape))
    c_ss = 2.0 * scale_um**2 * (1.0 - 6.0 * shape + 12.0 * shape**2) / (1.0 - 2.0 * shape)
    c_sx = scale_um * (1.0 - 4.0 * shape + 12.0 * shape**2)
    c_xx = (1.0 - 2.0 * shape) * (1.0 - shape + 6.0 * shape**2)
    return pref * np.array([[c_ss, c_sx], [c_sx, c_xx]])


# the TailFit rate fields, which fit_tail fills and a prediction needs
RATE_KEYS = ("lambda_above_per_mm3", "lambda_above_se", "lambda_below_per_mm3", "lambda_below_se")


@dataclass(frozen=True, eq=False)
class TailFit:
    """A fitted tail: parameters, covariance, provenance, rates and data.

    covariance is the 2x2 matrix over (scale, shape), or None when the
    estimate sits outside the estimator's asymptotic-normality domain (in
    which case downstream uncertainty propagation refuses to run).
    The rates, the sub-threshold empirical sample, the exceedances (in the
    order they were fitted) and the scanned volume are attached by
    extremes.fit_exceedances; plain estimator calls leave them None. A
    rate that is set must be finite and nonnegative, and a zero rate above
    the threshold must have a zero standard error (the rate is Gamma with
    that mean and standard error). n_exceed is at least 1. The
    sub-threshold sample is finite, positive, sorted and at most the
    threshold, so a fit that carries it has a positive threshold.
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
    exceedances_um: np.ndarray | None = None
    scanned_volume_mm3: float | None = None

    def __post_init__(self) -> None:
        for key in RATE_KEYS:
            value = getattr(self, key)
            if value is not None and not 0.0 <= value < np.inf:
                raise ValueError(f"{key} = {value} is not a finite nonnegative rate")
        if self.lambda_above_per_mm3 == 0.0 and (self.lambda_above_se or 0.0) > 0.0:
            raise ValueError(
                f"lambda_above_se = {self.lambda_above_se} is positive while "
                "lambda_above_per_mm3 is 0"
            )
        if not self.n_exceed >= 1:
            raise ValueError(f"n_exceed = {self.n_exceed} is not a positive count")
        emp = self.empirical_below_um
        if emp is not None:
            emp = np.asarray(emp, dtype=float)
            threshold = self.params.threshold_um
            if not threshold > 0.0:
                raise ValueError(f"threshold_um = {threshold} is not a positive diameter")
            if not (np.all((emp > 0.0) & (emp <= threshold)) and np.all(np.diff(emp) >= 0.0)):
                raise ValueError(
                    "empirical_below_um must be sorted and lie in (0, threshold_um]"
                )
        if self.covariance is not None:
            cov = np.asarray(self.covariance, dtype=float)
            if cov.shape != (2, 2):
                raise ValueError("covariance must be 2x2")
            if not np.all(np.isfinite(cov)):
                raise ValueError(f"covariance = {cov.tolist()} is not finite")
            if not np.allclose(cov, cov.T):
                raise ValueError("covariance must be symmetric")
            if np.any(np.linalg.eigvalsh(cov) < -1e-12 * max(1.0, cov.max())):
                raise ValueError(f"covariance = {cov.tolist()} is not positive semi-definite")
            object.__setattr__(self, "covariance", cov)


def _prepare_excess(exceedances, threshold_um: float, min_tail_count: int) -> np.ndarray:
    x = np.asarray(exceedances, dtype=float).ravel()
    if x.size < min_tail_count:
        raise FitError(
            f"need at least {min_tail_count} exceedances, got {x.size}"
        )
    if np.any(x < threshold_um):
        raise FitError("exceedances must lie at or above the threshold")
    y = x - threshold_um
    if not (np.all(np.isfinite(y)) and np.var(y) > 0.0):
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


def _profile_nll(w: float, ratio: np.ndarray) -> float:
    """Negative log-likelihood at _profile(w, ratio): there
    sum log1p(theta y) = n shape, so it is n (log scale + shape + 1)."""
    scale, shape = _profile(w, ratio)
    return ratio.size * (math.log(scale) + shape + 1.0)


# the bracket ends lie within _BRACKET_TOL of where the profile shape
# crosses its bound; the minimiser stops as scipy's bounded search
# (xatol 1e-10) does
_BRACKET_TOL = 1e-2
_SQRT_EPS = math.sqrt(float(np.finfo(float).eps))
_XATOL = 1e-10
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# Builds of numpy that round the profile differently may end the search a
# few stopping widths apart; a fitted number reads back within a thousand.
REFIT_RTOL, REFIT_ATOL = 1e3 * _SQRT_EPS, 1e3 * _XATOL


def _bracket_end(gap, w_far: float) -> float:
    """End of the search bracket from w = 0 towards w_far: w_far if gap has
    one sign there and at 0, else a point within _BRACKET_TOL of gap's root
    on 0's side of it, found by regula falsi with the Illinois halving: the
    value at an end kept twice running is halved. The midpoint stands in
    for a secant point outside the bracket, and for any point once two
    steps have not halved the bracket, so the search takes at most about
    twice bisection's steps; no point lies within half the tolerance of an
    end, so that both ends close in."""
    near, far, g_near, g_far = 0.0, w_far, gap(0.0), gap(w_far)
    sign0 = math.copysign(1.0, g_near)
    if g_far * sign0 > 0.0:
        return w_far
    kept, widths = "", [math.inf, math.inf, abs(far - near)]
    while widths[-1] > _BRACKET_TOL:
        t = g_near / (g_near - g_far)
        if not 0.0 <= t <= 1.0 or widths[-1] > 0.5 * widths[-3]:
            t = 0.5
        margin = 0.5 * _BRACKET_TOL / abs(far - near)
        w = near + min(max(t, margin), 1.0 - margin) * (far - near)
        g = gap(w)
        if g * sign0 > 0.0:
            near, g_near = w, g
            g_far *= 0.5 if kept == "far" else 1.0
            kept = "far"
        else:
            far, g_far = w, g
            g_near *= 0.5 if kept == "near" else 1.0
            kept = "near"
        widths.append(abs(far - near))
    return near


def _minimise(f, a: float, b: float) -> tuple[float, float]:
    """(x, f(x)) at a minimum of a unimodal f on [a, b] by Brent's method
    (1973, ch. 5): the vertex of the parabola through the three best points
    when it lies in the bracket and the step is under half the one before
    last, else a golden-section step into the larger side; no step is
    shorter than tol = sqrt(eps) |x| + 1e-10 / 3. It ends when both bracket
    ends lie within 2 tol of x, so the bracket is at most 4 tol wide."""
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    step = last = 0.0
    while True:
        mid, tol = 0.5 * (a + b), _SQRT_EPS * abs(x) + _XATOL / 3.0
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            break
        golden = True
        if abs(last) > tol:
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            before_last, last = last, step
            if abs(p) < abs(0.5 * q * before_last) and q * (a - x) < p < q * (b - x):
                step, golden = p / q, False
                if x + step - a < 2.0 * tol or b - x - step < 2.0 * tol:
                    step = math.copysign(tol, mid - x)
        if golden:
            last = (a if x >= mid else b) - x
            step = _GOLDEN * last
        u = x + math.copysign(max(abs(step), tol), step)
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    if math.isnan(fx):
        raise FitError("the likelihood search met a NaN objective")
    return x, fx


def fit_mle(
    exceedances,
    threshold_um: float,
    *,
    min_tail_count: int = MIN_TAIL_COUNT,
) -> TailFit:
    """Maximum-likelihood fit of the tail above the threshold.

    The likelihood is maximized as a profile over theta = shape/scale
    (Grimshaw 1993): for fixed theta the shape MLE is mean log1p(theta y),
    scale = shape/theta, and theta = 0 is the exponential limit. Regula
    falsi (Illinois) brackets theta where that shape lies in (-1, 20), and
    Brent's bounded minimiser finds the least of the profile's closed-form
    negative log-likelihood on the bracket, to scipy's bounded-search
    tolerance; if the likelihood rises towards shape -1, the fit is the
    uniform limit (scale = max y, shape = -1). Covariance is attached only
    when the fitted shape exceeds -0.5; otherwise the fit is flagged and
    covariance is None.
    """
    y = _prepare_excess(exceedances, threshold_um, min_tail_count)
    # The search runs on the excesses scaled to a largest value of 1, in
    # w = log1p(theta), so that theta * ratio stays above -1 after rounding.
    y_max = float(y.max())
    ratio = y / y_max

    # The profile shape rises with w from 0 at w = 0. The bracket ends where
    # it reaches -1 and 20, or at w = log(eps), which keeps theta above -1,
    # and w = 700, which keeps it finite.
    lo = _bracket_end(lambda w: _profile(w, ratio)[1] + 1.0, float(np.log(np.finfo(float).eps)))
    hi = _bracket_end(lambda w: _profile(w, ratio)[1] - 20.0, 700.0)
    best_w, best_nll = _minimise(lambda w: _profile_nll(w, ratio), lo, hi)
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
    mom = fit_mom(exceedances, threshold_um, min_tail_count=min_tail_count)
    if mom.params.shape < MOM_SHAPE_CEIL:
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
