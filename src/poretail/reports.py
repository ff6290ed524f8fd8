"""Line-oriented report and table formats used by the CLI.

Reports are flat "key = value" text; tables are comma-separated with a
header row, optionally preceded by "# key=value" provenance comments.
Floats are written with shortest round-trip formatting so that re-running
a command with the same inputs and seed reproduces files byte-identically.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .extremes import _SUMMARY_FIELDS, LargestPoreDistribution
from .geometry import _quote_cell
from .gpd import GpdParams, TailFit

FIT_FORMAT = "poretail-fit/1"
PREDICTION_FORMAT = "poretail-prediction/1"


class ReportParseError(ValueError):
    """A report file is malformed or of an unexpected format."""


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def config_sha256(options: Mapping[str, object]) -> str:
    """Hash of the effective run configuration, for provenance stamping."""
    lines = "".join(f"{key}={fmt(options[key])}\n" for key in sorted(options))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def provenance_lines(provenance: Mapping[str, object] | None) -> list[str]:
    if not provenance:
        return []
    return [f"# {key}={fmt(value)}" for key, value in provenance.items()]


def _table_cell(value) -> str:
    """fmt for a table cell, floats (the bulk of every table) tested first.

    Text is quoted where csv needs it; numbers never need it and are not scanned.
    """
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, str):
        return _quote_cell(value)
    return "" if value is None else fmt(value)


def write_table(
    dest: str | Path | IO[str],
    columns: Sequence[str],
    rows: Iterable[Sequence],
    provenance: Mapping[str, object] | None = None,
) -> None:
    """Comma-separated table with header row and optional provenance comments.

    Text cells holding a comma, a quote or a line break are written in
    csv's minimal quoting, as in the specimen dump.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as handle:
            write_table(handle, columns, rows, provenance)
            return
    for line in provenance_lines(provenance):
        dest.write(line + "\n")
    dest.write(",".join(columns) + "\n")
    for row in rows:
        dest.write(",".join(map(_table_cell, row)) + "\n")


def _write_keyvalues(handle: IO[str], items: Iterable[tuple[str, object]]) -> None:
    for key, value in items:
        handle.write(f"{key} = {fmt(value)}\n")


def _read_keyvalues(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ReportParseError(f"{path}: line {line_no} is not 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def write_fit_report(
    fit: TailFit,
    dest: str | Path,
    provenance: Mapping[str, object] | None = None,
) -> None:
    """Serialize a fitted tail, including the sub-threshold empirical sample."""
    items: list[tuple[str, object]] = [("format", FIT_FORMAT), ("toolkit_version", __version__)]
    items += list((provenance or {}).items())
    items += [
        ("fit_id", fit.fit_id),
        ("threshold_um", fit.params.threshold_um),
        ("estimator", fit.estimator),
        ("sigma_um", fit.params.scale_um),
        ("xi", fit.params.shape),
        ("n_exceed", fit.n_exceed),
        ("covariance_available", fit.covariance is not None),
    ]
    if fit.covariance is not None:
        items += [
            ("cov_sigma_sigma", float(fit.covariance[0, 0])),
            ("cov_sigma_xi", float(fit.covariance[0, 1])),
            ("cov_xi_xi", float(fit.covariance[1, 1])),
        ]
    if fit.lambda_above_per_mm3 is not None:
        items += [
            ("lambda_above_per_mm3", fit.lambda_above_per_mm3),
            ("lambda_above_se", fit.lambda_above_se or 0.0),
            ("lambda_below_per_mm3", fit.lambda_below_per_mm3),
            ("lambda_below_se", fit.lambda_below_se or 0.0),
        ]
    items.append(("flags", "|".join(fit.flags)))
    emp = fit.empirical_below_um
    if emp is not None:
        items.append(("empirical_below_um", ",".join(map(repr, emp.tolist()))))
    with open(dest, "w", encoding="utf-8") as handle:
        _write_keyvalues(handle, items)


def read_fit_report(path: str | Path) -> TailFit:
    values = _read_keyvalues(path)
    if values.get("format") != FIT_FORMAT:
        raise ReportParseError(f"{path}: not a {FIT_FORMAT} report")
    try:
        params = GpdParams(
            threshold_um=float(values["threshold_um"]),
            scale_um=float(values["sigma_um"]),
            shape=float(values["xi"]),
        )
        covariance = None
        if values.get("covariance_available") == "true":
            css = float(values["cov_sigma_sigma"])
            csx = float(values["cov_sigma_xi"])
            cxx = float(values["cov_xi_xi"])
            covariance = np.array([[css, csx], [csx, cxx]])
        empirical = None
        if "empirical_below_um" in values:
            text = values["empirical_below_um"]
            empirical = (
                np.fromiter(map(float, text.split(",")), float) if text else np.empty(0)
            )
        flags = tuple(f for f in values.get("flags", "").split("|") if f)

        def opt_float(key: str) -> float | None:
            return float(values[key]) if key in values else None

        return TailFit(
            params=params,
            covariance=covariance,
            estimator=values.get("estimator", ""),
            n_exceed=int(values["n_exceed"]),
            flags=flags,
            fit_id=values.get("fit_id", ""),
            lambda_above_per_mm3=opt_float("lambda_above_per_mm3"),
            lambda_above_se=opt_float("lambda_above_se"),
            lambda_below_per_mm3=opt_float("lambda_below_per_mm3"),
            lambda_below_se=opt_float("lambda_below_se"),
            empirical_below_um=empirical,
        )
    except (KeyError, ValueError) as exc:
        raise ReportParseError(f"{path}: {exc}") from exc


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
    write_table(
        cdf_path,
        ("edge_um", "cdf"),
        zip(dist.bin_edges_um, dist.cdf_at_edges),
        provenance=stamp,
    )
    items = {
        "format": PREDICTION_FORMAT,
        "toolkit_version": __version__,
        **stamp,
        **dist.provenance,
        **dist.summary(),
        "dist_flags": "|".join(dist.flags),
    }
    with open(summary_path, "w", encoding="utf-8") as handle:
        _write_keyvalues(handle, items.items())
    return cdf_path, summary_path


def _read_cdf_table(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Edges and CDF values of a prediction's CDF table; its header is row 1."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in map(str.strip, handle) if line and not line.startswith("#")]
    if lines and lines[0].split(",")[:2] != ["edge_um", "cdf"]:
        raise ReportParseError(f"{path}: unexpected columns {lines[0].split(',')}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            rows.append((float(cells[0]), float(cells[1])))
        except (IndexError, ValueError):
            raise ReportParseError(
                f"{path}: row {number}: expected 'edge_um,cdf', got {line!r}"
            ) from None
    if len(rows) < 2:
        raise ReportParseError(f"{path}: no CDF rows")
    edges, cdf = map(np.array, zip(*rows))
    return edges, cdf


# summary keys that are not provenance, and the provenance that is not text
_NOT_PROVENANCE = frozenset(("format", "toolkit_version", "dist_flags", *_SUMMARY_FIELDS))
_TYPED_PROVENANCE = {
    "volume_mm3": float,
    "seed": int,
    "histogram_bins": int,
    "n_count_samples": int,
    "n_param_samples": int,
    "n_p_samples": int,
}


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
