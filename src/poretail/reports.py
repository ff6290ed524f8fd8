"""Line-oriented report and table formats used by the CLI.

Reports are flat "key = value" text; tables are comma-separated with a
header row, optionally preceded by "# key=value" provenance comments.
Floats are written with shortest round-trip formatting so that re-running
a command with the same inputs (and, for simulate, seed) reproduces files
byte-identically.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import IO, Iterable, Mapping

import numpy as np

from . import __version__
from .extremes import _SUMMARY_FIELDS, LargestPoreDistribution, fit_exceedances
from .geometry import IngestError, _parse, _read_text, _table_columns, _write_blocks
from .gpd import RATE_KEYS, REFIT_ATOL, REFIT_RTOL, FitError, TailFit, UsageError

FIT_FORMAT = "poretail-fit/1"
PREDICTION_FORMAT = "poretail-prediction/1"
_CDF_COLUMNS = ("edge_um", "cdf")


class ReportParseError(ValueError):
    """A report file is malformed or of an unexpected format."""


def fmt(value) -> str:
    # floats, the bulk of every table, are tested first
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def config_sha256(options: Mapping[str, object]) -> str:
    """Hash of the effective run configuration, for provenance stamping."""
    lines = "".join(f"{key}={fmt(options[key])}\n" for key in sorted(options))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def provenance_lines(provenance: Mapping[str, object] | None) -> list[str]:
    if not provenance:
        return []
    return [f"# {key}={fmt(value)}" for key, value in provenance.items()]


def _cells(values: Iterable) -> np.ndarray:
    """A table column for the writer: floats (Python or numpy) as a float
    array, written as fmt writes them; any other column as its cell text,
    fmt of each value and None empty."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return values.astype(float, copy=False)
    values = list(values)
    if all(issubclass(kind, (float, np.floating)) for kind in set(map(type, values))):
        return np.array(values, dtype=float)
    return np.array(["" if value is None else fmt(value) for value in values], dtype=object)


def write_table(
    dest: str | Path | IO[str],
    columns: Mapping[str, Iterable],
    provenance: Mapping[str, object] | None = None,
) -> None:
    """Comma-separated table of `columns` (name -> values), with a header
    row and optional provenance comments.

    Text cells holding a comma, a quote or a line break are written in
    csv's minimal quoting, as in the specimen dump, and rows are written a
    block at a time. Columns of unequal length are refused with ValueError
    before anything is written.
    """
    _write_blocks(
        dest,
        {name: _cells(values) for name, values in columns.items()},
        "".join(line + "\n" for line in provenance_lines(provenance)),
    )


def _keyvalue_text(items: Iterable[tuple[str, object]]) -> str:
    """Lines "key = value"; refuses, by key, a value that would not read back
    as written: one holding a line break or starting or ending with whitespace."""
    lines = []
    for key, value in items:
        text = fmt(value)
        if "\n" in text or "\r" in text or text != text.strip():
            raise UsageError(
                f"{key} = {text!r}: a report value may not hold a line break "
                "or start or end with whitespace"
            )
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


def _read_keyvalues(path: str | Path) -> dict[str, str]:
    """The "key = value" lines of a report, read as a pore table's text is
    (see _read_text); refuses a line that is neither one nor a comment, and
    a repeated key, by line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = _read_text(handle)
    except IngestError as exc:
        raise ReportParseError(f"{path}: {exc}") from None
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ReportParseError(f"{path}: line {line_no} is not 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ReportParseError(
                f"{path}: line {line_no}: {key} is repeated (first on line {first_line[key]})"
            )
        values[key], first_line[key] = value.strip(), line_no
    return values


def _float_list(text: str) -> np.ndarray:
    return np.fromiter(map(float, text.split(",")), float) if text else np.empty(0)


# the keys a fit report is refitted from, in the order fit_exceedances takes them
_FIT_DATA = {
    "exceedances_um": _float_list,
    "empirical_below_um": _float_list,
    "threshold_um": float,
    "scanned_volume_mm3": float,
}


def _refitted_items(fit: TailFit) -> list[tuple[str, object]]:
    """The fit report's items that read_fit_report refits from its data."""
    cov = () if fit.covariance is None else fit.covariance[[0, 0, 1], [0, 1, 1]]
    return [
        ("estimator", fit.estimator),
        ("sigma_um", fit.params.scale_um),
        ("xi", fit.params.shape),
        ("n_exceed", fit.n_exceed),
        ("covariance_available", fit.covariance is not None),
        *zip(("cov_sigma_sigma", "cov_sigma_xi", "cov_xi_xi"), cov),
        *((key, getattr(fit, key)) for key in RATE_KEYS),
        ("flags", "|".join(fit.flags)),
    ]


def write_fit_report(
    fit: TailFit,
    dest: str | Path,
    provenance: Mapping[str, object] | None = None,
) -> None:
    """Serialize a fitted tail with the data read_fit_report refits it from:
    the threshold, the scanned volume, the exceedances in the order they
    were fitted and the sub-threshold sample.

    As in write_prediction, each key is written once, in the place it first
    takes, with the last value given for it."""
    if fit.exceedances_um is None or fit.scanned_volume_mm3 is None:
        raise ValueError("fit lacks the data it was fitted from; build it with fit_tail()")
    items = {
        "format": FIT_FORMAT,
        "toolkit_version": __version__,
        **(provenance or {}),
        "fit_id": fit.fit_id,
        "threshold_um": fit.params.threshold_um,
        **dict(_refitted_items(fit)),
        "scanned_volume_mm3": fit.scanned_volume_mm3,
        **{key: ",".join(map(repr, getattr(fit, key).tolist()))
           for key in ("exceedances_um", "empirical_below_um")},
    }
    text = _keyvalue_text(items.items())
    with open(dest, "w", encoding="utf-8") as handle:
        handle.write(text)


def _reads_as(text: str, value) -> bool:
    """Whether a report's text reads as a refitted value: a float within
    REFIT_RTOL and REFIT_ATOL of it, anything else exactly as written."""
    if not isinstance(value, float):
        return text == fmt(value)
    try:
        return math.isclose(float(text), value, rel_tol=REFIT_RTOL, abs_tol=REFIT_ATOL)
    except ValueError:
        return False


def read_fit_report(path: str | Path) -> TailFit:
    """Refit a tail from the data its report carries.

    The exceedances, sub-threshold sample, threshold and scanned volume are
    fitted as fit_tail fits them, without an exceedance-count floor. Every
    other number of the report must read as its refitted value, and the
    refit is returned. Each refusal names its key.
    """
    values = _read_keyvalues(path)
    if values.get("format") != FIT_FORMAT:
        raise ReportParseError(f"{path}: not a {FIT_FORMAT} report")
    if "exceedances_um" not in values:
        raise ReportParseError(
            f"{path}: exceedances_um is missing, as in reports written before poretail 0.4.3: "
            "run `poretail fit` again to regenerate the report"
        )
    data = []
    for key, parse in _FIT_DATA.items():
        if key not in values:
            raise ReportParseError(f"{path}: {key} is missing")
        try:
            data.append(parse(values[key]))
        except ValueError as exc:
            raise ReportParseError(f"{path}: {key}: {exc}") from None
    try:
        fit = fit_exceedances(*data, min_tail_count=1, fit_id=values.get("fit_id", ""))
    except FitError as exc:
        raise ReportParseError(f"{path}: exceedances_um: {exc}") from exc
    except ValueError as exc:  # each refusal starts with the key it names
        raise ReportParseError(f"{path}: {exc}") from exc
    for key, refitted in _refitted_items(fit):
        if key not in values:
            raise ReportParseError(f"{path}: {key} is missing")
        if not _reads_as(values[key], refitted):
            raise ReportParseError(
                f"{path}: {key} = {values[key]} is not {fmt(refitted)}, its value refitted "
                "from the report's data"
            )
    return fit


def prediction_paths(prefix: str | Path) -> tuple[Path, Path]:
    prefix = Path(prefix)
    return (
        prefix.with_name(prefix.name + "_cdf.csv"),
        prefix.with_name(prefix.name + "_summary.txt"),
    )


def write_prediction(
    dist: LargestPoreDistribution,
    prefix: str | Path,
    provenance: Mapping[str, object] | None = None,
) -> tuple[Path, Path]:
    """Write a distribution as a CDF table plus a line-oriented summary.

    The summary writes each key once, in the place it first takes among the
    format and version, `provenance`, the distribution's own provenance and
    its summary, with the last value given for it.
    """
    cdf_path, summary_path = prediction_paths(prefix)
    stamp = dict(provenance or {})
    summary = _keyvalue_text({
        "format": PREDICTION_FORMAT,
        "toolkit_version": __version__,
        **stamp,
        **dist.provenance,
        **dist.summary(),
        "dist_flags": "|".join(dist.flags),
    }.items())
    write_table(
        cdf_path,
        dict(zip(_CDF_COLUMNS, (dist.bin_edges_um, dist.cdf_at_edges))),
        provenance=stamp,
    )
    with open(summary_path, "w", encoding="utf-8") as handle:
        handle.write(summary)
    return cdf_path, summary_path


def _read_cdf_table(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Edges and CDF values of a prediction's CDF table."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            columns = _table_columns(handle, _CDF_COLUMNS)
        missing = [c for c in _CDF_COLUMNS if c not in columns]
        if missing:
            raise IngestError(f"missing column(s): {', '.join(missing)}")
        edges, cdf = (_parse(c, columns[c]) for c in _CDF_COLUMNS)
    except IngestError as exc:
        raise ReportParseError(f"{path}: {exc}") from None
    if edges.size < 2:
        raise ReportParseError(f"{path}: no CDF rows")
    return edges, cdf


# summary keys that are not provenance, and the provenance that is not text
_NOT_PROVENANCE = frozenset(("format", "toolkit_version", "dist_flags", *_SUMMARY_FIELDS))
_TYPED_PROVENANCE = {"volume_mm3": float, "histogram_bins": int}


def read_prediction(prefix: str | Path) -> LargestPoreDistribution:
    """Rebuild a distribution from its CDF table.

    The summary supplies the provenance (every key but the format, the
    version, the flags and the summary statistics), the flags and the rule
    size. Each summary statistic it holds must read as the one derived from
    the table (as write_prediction writes it).
    """
    cdf_path, summary_path = prediction_paths(prefix)
    summary = _read_keyvalues(summary_path)
    if summary.get("format") != PREDICTION_FORMAT:
        raise ReportParseError(f"{summary_path}: not a {PREDICTION_FORMAT} summary")
    edges, cdf = _read_cdf_table(cdf_path)
    provenance = {key: value for key, value in summary.items() if key not in _NOT_PROVENANCE}
    try:
        for key, kind in _TYPED_PROVENANCE.items():
            if key in provenance:
                provenance[key] = kind(provenance[key])
        n_samples_total = int(summary.get("n_samples_total", 0))
        cdf_precision = float(summary.get("cdf_precision", 0.0))
        nodes_per_axis = int(summary.get("nodes_per_axis", 1))
    except ValueError as exc:
        raise ReportParseError(f"{summary_path}: {exc}") from exc
    try:
        dist = LargestPoreDistribution(
            edges,
            cdf,
            n_samples_total=n_samples_total,
            provenance=provenance,
            flags=tuple(f for f in summary.get("dist_flags", "").split("|") if f),
            cdf_precision=cdf_precision,
            nodes_per_axis=nodes_per_axis,
        )
    except ValueError as exc:
        raise ReportParseError(f"{cdf_path}: {exc}") from exc
    for key, derived in dist.summary().items():
        if key in summary and summary[key] != fmt(derived):
            raise ReportParseError(
                f"{summary_path}: {key} = {summary[key]} is not {fmt(derived)}, "
                f"the value derived from {cdf_path.name}"
            )
    return dist
