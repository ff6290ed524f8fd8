import dataclasses

import numpy as np
import pytest

from poretail.extremes import fit_tail
from poretail.geometry import SpecimenDataset, sphere_surface_area
from poretail.gpd import GpdParams, TailFit, gpd_quantile, mle_covariance


def synthetic_fit(
    threshold=20.0,
    scale=3.0,
    shape=0.1,
    n_exceed=1000,
    lam_above=1.0,
    lam_below=50.0,
    n_below=500,
    emp_seed=1,
    with_covariance=True,
    fit_id="synthetic-fit",
):
    """Hand-built tail fit with injected asymptotic covariance and rates."""
    rng = np.random.default_rng(emp_seed)
    emp = np.sort(rng.uniform(threshold * 0.2, threshold, n_below)) if n_below else np.empty(0)
    return TailFit(
        params=GpdParams(threshold, scale, shape),
        covariance=mle_covariance(scale, shape, n_exceed) if with_covariance else None,
        estimator="MLE",
        n_exceed=n_exceed,
        fit_id=fit_id,
        lambda_above_per_mm3=lam_above,
        lambda_above_se=lam_above / float(np.sqrt(n_exceed)),
        lambda_below_per_mm3=lam_below,
        lambda_below_se=lam_below / float(np.sqrt(max(n_below, 1))),
        empirical_below_um=emp,
    )


class FunctionCdf:
    """Continuous CDF given as a callable, evaluated on a declared grid; a
    second operand for equivalence.ks_statistic."""

    def __init__(self, fn, grid) -> None:
        self._fn = fn
        self._grid = np.asarray(grid, dtype=float)

    def knots(self) -> np.ndarray:
        return self._grid

    def cdf(self, x) -> np.ndarray:
        return np.asarray(self._fn(np.asarray(x, dtype=float)), dtype=float)

    cdf_left = cdf


def make_dataset(diameters, volume=100.0):
    """A specimen of spheres with these equivalent diameters (um)."""
    d = np.asarray(diameters, dtype=float)
    v = np.pi / 6.0 * d**3
    return SpecimenDataset(
        specimen_id="S", scanned_volume_mm3=volume,
        cells={
            "pore_id": [f"p{i}" for i in range(d.size)],
            "volume_um3": v,
            "surface_area_um2": sphere_surface_area(v),
            "min_feret_um": d,
            "max_feret_um": d,
        },
    )


def data_fit(threshold=20.0, scale=3.0, shape=0.1, n_exceed=200, n_below=500, volume=100.0,
             seed=1, fit_id=None):
    """fit_tail's fit of a specimen whose n_exceed tail pores lie at the
    plotting-position quantiles (i - 0.5)/n of the GPD above the threshold,
    and whose n_below other pores are uniform on (0.2, 1) x threshold."""
    tail = gpd_quantile(GpdParams(threshold, scale, shape), (np.arange(n_exceed) + 0.5) / n_exceed)
    below = np.random.default_rng(seed).uniform(0.2 * threshold, threshold, n_below)
    dataset = make_dataset(np.concatenate([tail, below]), volume)
    return fit_tail(dataset, threshold, fit_id=fit_id)


def differing_fields(one, other, skip=()):
    """Names of the dataclass fields on which two objects differ; arrays
    compare by their bytes."""
    out = []
    for f in dataclasses.fields(one):
        a, b = getattr(one, f.name), getattr(other, f.name)
        same = a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b
        if f.name not in skip and not same:
            out.append(f.name)
    return out


@pytest.fixture
def basic_fit():
    return synthetic_fit()
