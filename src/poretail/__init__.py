"""poretail: peaks-over-threshold statistics for AM porosity data.

Fits Generalized Pareto upper tails to pore-size populations, propagates
count uncertainty (exactly) and parameter uncertainty (by an adaptive
Gauss-Hermite rule) into the distribution of the largest pore in a volume
of interest, and quantifies porosity equivalence between specimens.
"""

__version__ = "0.3.0"

from .geometry import (
    IngestError,
    GeometryError,
    SpecimenDataset,
    aspect_ratio,
    dump_specimen,
    equiv_diameter,
    ingest_specimen,
    sphericity,
)
from .gpd import (
    FitError,
    GpdParams,
    TailFit,
    fit_mle,
    fit_mom,
    gpd_cdf,
    gpd_quantile,
    mle_covariance,
    mom_covariance,
    qq_points,
    select_estimator,
)
from .threshold import (
    ThresholdScan,
    ThresholdSelectionError,
    default_candidate_grid,
    mean_excess_curve,
    modified_scale,
    select_threshold,
    stability_scan,
    theoretical_mean_excess,
)
from .extremes import (
    CovarianceUnavailableError,
    LargestPoreDistribution,
    McConfig,
    VolumeOfInterest,
    estimate_rates,
    fit_tail,
    largest_cdf_closed,
    sample_largest,
    volume_sweep,
)
from .equivalence import (
    EmpiricalCdf,
    EquivalenceReport,
    build_report,
    ks_statistic,
    location_scatter,
    mode_comparison_table,
    p_value,
    plate_center_from_extents,
    q_value,
)
from .synthetic import (
    BulkModel,
    GroundTruth,
    brute_force_fit_largest,
    brute_force_largest,
    generate_specimen,
)
