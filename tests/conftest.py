import dataclasses

import numpy as np
import pytest

from poretail.gpd import GpdParams, TailFit, mle_covariance


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
