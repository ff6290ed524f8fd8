"""Batch command-line surface: geom, fit, predict, compare, sweep, simulate.

Commands compose via files only. simulate, predict and sweep require a
seed, and their outputs embed it, a hash of the effective configuration
and the toolkit version, so re-running with the embedded values
reproduces the output byte-identically. predict and sweep are
deterministic: their values do not depend on the seed, which they echo.

Exit codes: 0 success, 1 usage, 2 data error, 3 statistical precondition
failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .equivalence import build_report, plate_center_from_extents
from .extremes import (
    CovarianceUnavailableError,
    McConfig,
    VolumeOfInterest,
    fit_tail,
    sample_largest,
    volume_sweep,
)
from .geometry import IngestError, dump_specimen, ingest_specimen
from .gpd import FitError, GpdParams, qq_points
from .reports import (
    ReportParseError,
    config_sha256,
    prediction_paths,
    read_fit_report,
    read_prediction,
    write_fit_report,
    write_prediction,
    write_table,
)
from .synthetic import BulkModel, GroundTruth, generate_specimen
from .threshold import (
    SCAN_COLUMNS,
    ThresholdSelectionError,
    default_candidate_grid,
    select_threshold,
    stability_scan,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_STAT = 3


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on usage problems, not argparse's 2
        raise CliUsageError(message)


def _load_config(path: str | None) -> configparser.ConfigParser:
    config = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if path:
        target = Path(path)
        if not target.is_file():
            raise CliUsageError(f"config file not found: {path}")
        try:
            config.read(target, encoding="utf-8")
        except configparser.Error as exc:
            raise IngestError(f"malformed config {path}: {exc}") from exc
    return config


def _option(args_value, config, section: str, key: str, cast, default=None):
    """Effective option value: CLI flag, then config file, then default."""
    if args_value is not None:
        return args_value
    if config.has_option(section, key):
        try:
            return cast(config.get(section, key))
        except ValueError as exc:
            raise IngestError(f"config [{section}] {key}: {exc}") from exc
    return default


def _require(value, name: str):
    if value is None:
        raise CliUsageError(f"missing required option: {name}")
    return value


def _input_path(path: str | Path) -> Path:
    target = Path(path)
    if not target.is_file():
        raise CliUsageError(f"input path not resolvable: {path}")
    return target


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise CliUsageError(f"could not parse float list {text!r}: {exc}") from exc


def _parse_xy(text: str) -> tuple[float, float]:
    values = _parse_floats(text)
    if len(values) != 2:
        raise CliUsageError(f"expected 'x,y', got {text!r}")
    return (values[0], values[1])


def _ingest_from_args(args, config) -> "SpecimenDataset":
    specimen_id = _require(
        _option(args.specimen_id, config, "specimen", "specimen_id", str), "--specimen-id"
    )
    scanned_volume = _require(
        _option(args.scanned_volume, config, "specimen", "scanned_volume_mm3", float),
        "--scanned-volume",
    )
    build_x = _option(args.build_x, config, "specimen", "build_x_mm", float)
    build_y = _option(args.build_y, config, "specimen", "build_y_mm", float)
    build = (build_x, build_y) if build_x is not None and build_y is not None else None
    return ingest_specimen(
        _input_path(args.input),
        specimen_id=specimen_id,
        geometry_label=_option(args.geometry_label, config, "specimen", "geometry_label", str, ""),
        scan_velocity_mm_s=_option(
            args.scan_velocity, config, "specimen", "scan_velocity_mm_s", float, 0.0
        ),
        scanned_volume_mm3=scanned_volume,
        build_location_mm=build,
    )


def _mc_config(args, config) -> McConfig:
    seed = _option(args.seed, config, "mc", "seed", int)
    if seed is None:
        raise CliUsageError("a seed is mandatory for predict and sweep (--seed), which echo it")
    return McConfig(
        seed=int(seed),
        n_count_samples=_option(args.count_samples, config, "mc", "count_samples", int, 1000),
        n_param_samples=_option(args.param_samples, config, "mc", "param_samples", int, 1000),
        n_p_samples=_option(args.p_samples, config, "mc", "p_samples", int, 1000),
        histogram_bins=_option(args.bins, config, "mc", "bins", int, 2048),
        uncertainty_mode=_option(args.mode, config, "mc", "mode", str, "all"),
    )


def _stamp(seed: int, options: dict) -> dict:
    return {
        "seed": seed,
        "config_sha256": config_sha256(options),
        "toolkit_version": __version__,
    }


def cmd_geom(args) -> int:
    config = _load_config(args.config)
    dataset = _ingest_from_args(args, config)
    dump_specimen(dataset, args.output)
    print(f"geom: {len(dataset)} pore(s) -> {args.output}")
    return EXIT_OK


def cmd_fit(args) -> int:
    config = _load_config(args.config)
    dataset = _ingest_from_args(args, config)
    mode = _option(args.threshold_mode, config, "threshold", "mode", str, "auto")
    manual = _option(args.threshold, config, "threshold", "value", float)
    min_tail = int(_option(args.min_tail_count, config, "threshold", "min_tail_count", int, 30))
    tolerance = float(
        _option(args.stability_tolerance, config, "threshold", "stability_tolerance", float, 0.5)
    )
    window = int(_option(args.stability_window, config, "threshold", "stability_window", int, 3))
    if mode not in ("auto", "manual"):
        raise CliUsageError(f"--threshold-mode must be auto or manual, got {mode!r}")
    if mode == "manual" and manual is None:
        raise CliUsageError("--threshold is required with --threshold-mode manual")

    candidates_text = _option(args.candidates, config, "threshold", "candidates", str)
    if candidates_text:
        candidates = np.array(_parse_floats(candidates_text))
    else:
        if len(dataset) == 0:
            raise FitError("dataset has no pores; nothing to fit")
        candidates = default_candidate_grid(dataset)

    scan = stability_scan(
        dataset, candidates, min_tail_count=min_tail, tolerance=tolerance, window=window
    )
    threshold = select_threshold(scan, mode=mode, manual_value=manual)
    fit = fit_tail(dataset, threshold, min_tail_count=min_tail)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = args.tag or dataset.specimen_id
    options = {
        "command": "fit",
        "input": str(args.input),
        "specimen_id": dataset.specimen_id,
        "threshold_mode": mode,
        "threshold": threshold,
        "min_tail_count": min_tail,
        "stability_tolerance": tolerance,
        "stability_window": window,
    }
    provenance = {
        "config_sha256": config_sha256(options),
        "toolkit_version": __version__,
        "threshold_mode": mode,
    }
    fit_path = out_dir / f"{tag}_fit.txt"
    write_fit_report(fit, fit_path, provenance={"config_sha256": provenance["config_sha256"]})
    write_table(out_dir / f"{tag}_scan.csv", SCAN_COLUMNS, scan.table_rows(), provenance)
    exceed = dataset.diameters_um[dataset.diameters_um > threshold]
    write_table(
        out_dir / f"{tag}_qq.csv",
        ("theoretical_um", "sample_um"),
        qq_points(fit, exceed).tolist(),
        provenance,
    )
    se_sigma = f"{fit.scale_se:.6g}" if fit.scale_se is not None else "n/a"
    se_xi = f"{fit.shape_se:.6g}" if fit.shape_se is not None else "n/a"
    print(
        f"fit: {fit.fit_id} threshold={threshold:g}um estimator={fit.estimator} "
        f"sigma={fit.params.scale_um:.6g}(se {se_sigma}) "
        f"xi={fit.params.shape:.6g}(se {se_xi}) n_exceed={fit.n_exceed} "
        f"lambda_above={fit.lambda_above_per_mm3:.6g}/mm3 -> {fit_path}"
    )
    if fit.flags:
        print("fit flags: " + "; ".join(fit.flags))
    return EXIT_OK


def cmd_predict(args) -> int:
    config = _load_config(args.config)
    fit = read_fit_report(_input_path(args.fit))
    volume = _require(_option(args.volume, config, "mc", "volume_mm3", float), "--volume")
    if volume <= 0:
        raise CliUsageError(f"--volume must be positive, got {volume}")
    mc = _mc_config(args, config)
    dist = sample_largest(fit, VolumeOfInterest(volume), mc)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = args.tag or (fit.fit_id.replace("@", "_") or "prediction")
    options = {
        "command": "predict",
        "fit": str(args.fit),
        "volume_mm3": volume,
        "mode": mc.uncertainty_mode,
        "count_samples": mc.n_count_samples,
        "param_samples": mc.n_param_samples,
        "p_samples": mc.n_p_samples,
        "bins": mc.histogram_bins,
        "seed": mc.seed,
    }
    cdf_path, summary_path = write_prediction(
        dist, out_dir / tag, provenance=_stamp(mc.seed, options)
    )
    print(
        f"predict: volume={volume:g}mm3 mode={mc.uncertainty_mode} mean={dist.mean_um:.6g}um "
        f"p2.5={dist.p2_5_um:.6g} p50={dist.p50_um:.6g} "
        f"p97.5={dist.p97_5_um:.6g} no_pore_mass={dist.no_pore_mass:.3g} "
        f"-> {cdf_path}, {summary_path}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _load_config(args.config)
    for path in prediction_paths(args.prediction):
        _input_path(path)
    dist = read_prediction(args.prediction)
    coupon_pos = _parse_xy(args.coupon_position) if args.coupon_position else None
    part_pos = _parse_xy(args.part_position) if args.part_position else None
    center = None
    extents_text = _option(args.plate_extents, config, "plate", "extents", str)
    if extents_text:
        extents = _parse_floats(extents_text)
        if len(extents) != 4:
            raise CliUsageError("--plate-extents expects 'x_min,y_min,x_max,y_max'")
        center = plate_center_from_extents(*extents)
    if (coupon_pos is None) != (part_pos is None) or (
        coupon_pos is None and args.part_id and extents_text
    ):
        print("compare: position(s) missing; distances omitted", file=sys.stderr)

    rows = []
    for observed in args.observed:
        report = build_report(
            dist,
            observed,
            part_specimen_id=args.part_id or "",
            coupon_position_mm=coupon_pos,
            part_position_mm=part_pos,
            plate_center_mm=center,
        )
        rows.append(
            (
                report.coupon_fit_id,
                report.part_specimen_id,
                report.observed_um,
                report.q_value,
                report.p_value,
                report.volume_mm3,
                report.cartesian_distance_mm,
                report.radial_distance_mm,
            )
        )
        print(
            f"compare: observed={observed:g}um q={report.q_value:.6g} "
            f"p={report.p_value:.6g}"
        )
    write_table(
        args.output,
        (
            "coupon_fit_id",
            "part_specimen_id",
            "observed_um",
            "q_value",
            "p_value",
            "volume_mm3",
            "cartesian_distance_mm",
            "radial_distance_mm",
        ),
        rows,
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    fit = read_fit_report(_input_path(args.fit))
    volumes = _parse_floats(
        _require(_option(args.volumes, config, "mc", "volumes_mm3", str), "--volumes")
    )
    if not volumes:
        raise CliUsageError("--volumes must list at least one volume")
    mc = _mc_config(args, config)
    dists = volume_sweep(fit, volumes, mc)
    options = {
        "command": "sweep",
        "fit": str(args.fit),
        "volumes_mm3": ",".join(repr(v) for v in volumes),
        "mode": mc.uncertainty_mode,
        "count_samples": mc.n_count_samples,
        "param_samples": mc.n_param_samples,
        "p_samples": mc.n_p_samples,
        "bins": mc.histogram_bins,
        "seed": mc.seed,
    }
    write_table(
        args.output,
        ("volume_mm3", "mean_um", "p2_5_um", "p50_um", "p97_5_um", "no_pore_mass"),
        [
            (v, d.mean_um, d.p2_5_um, d.p50_um, d.p97_5_um, d.no_pore_mass)
            for v, d in zip(volumes, dists)
        ],
        provenance=_stamp(mc.seed, options),
    )
    print(f"sweep: {len(dists)} volume(s) -> {args.output}")
    for v, d in zip(volumes, dists):
        if d.flags:
            print(f"sweep flags at {v:g} mm3: " + "; ".join(d.flags))
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config(args.config)

    def truth_option(flag, key, cast=float, default=None):
        return _option(flag, config, "truth", key, cast, default)

    truth = GroundTruth(
        tail=GpdParams(
            threshold_um=_require(truth_option(args.threshold, "threshold_um"), "--threshold"),
            scale_um=_require(truth_option(args.sigma, "sigma_um"), "--sigma"),
            shape=_require(truth_option(args.xi, "xi"), "--xi"),
        ),
        lambda_above_per_mm3=_require(
            truth_option(args.lambda_above, "lambda_above_per_mm3"), "--lambda-above"
        ),
        lambda_below_per_mm3=_require(
            truth_option(args.lambda_below, "lambda_below_per_mm3"), "--lambda-below"
        ),
        specimen_volume_mm3=_require(truth_option(args.volume, "volume_mm3"), "--volume"),
        bulk=BulkModel(
            log_mean=truth_option(args.bulk_log_mean, "bulk_log_mean", float, 2.0),
            log_sigma=truth_option(args.bulk_log_sigma, "bulk_log_sigma", float, 0.5),
        ),
    )
    seed = _option(args.seed, config, "truth", "seed", int)
    if seed is None:
        raise CliUsageError("a seed is mandatory for stochastic commands (--seed)")
    dataset = generate_specimen(
        truth, int(seed), specimen_id=args.specimen_id or f"synthetic-{seed}"
    )
    options = {
        "command": "simulate",
        "threshold_um": truth.tail.threshold_um,
        "sigma_um": truth.tail.scale_um,
        "xi": truth.tail.shape,
        "lambda_above_per_mm3": truth.lambda_above_per_mm3,
        "lambda_below_per_mm3": truth.lambda_below_per_mm3,
        "volume_mm3": truth.specimen_volume_mm3,
        "bulk_log_mean": truth.bulk.log_mean,
        "bulk_log_sigma": truth.bulk.log_sigma,
        "seed": int(seed),
    }
    with open(args.output, "w", encoding="utf-8", newline="") as handle:
        for key, value in _stamp(int(seed), options).items():
            handle.write(f"# {key}={value}\n")
        dump_specimen(dataset, handle)
    print(
        f"simulate: {len(dataset)} pore(s) in {truth.specimen_volume_mm3:g}mm3 "
        f"-> {args.output}"
    )
    return EXIT_OK


def _add_mc_flags(parser) -> None:
    parser.add_argument("--seed", type=int,
                        help="mandatory and echoed; the result does not depend on it")
    parser.add_argument("--mode", choices=("none", "poisson_only", "all"))
    parser.add_argument("--count-samples", type=int, dest="count_samples",
                        help="accepted and ignored: the count axis is exact")
    parser.add_argument("--param-samples", type=int, dest="param_samples",
                        help="accepted and ignored: (scale, shape) uses an adaptive rule")
    parser.add_argument("--p-samples", type=int, dest="p_samples",
                        help="accepted and ignored: the probability axis is exact")
    parser.add_argument("--bins", type=int)
    parser.add_argument("--workers", type=int, help="accepted and ignored")


def build_parser() -> _Parser:
    parser = _Parser(prog="poretail", description=__doc__)
    parser.add_argument("--version", action="version", version=f"poretail {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_metadata(sub) -> None:
        sub.add_argument("--config", help="INI config file; flags override its keys")
        sub.add_argument("--specimen-id", dest="specimen_id")
        sub.add_argument("--geometry-label", dest="geometry_label")
        sub.add_argument("--scan-velocity", type=float, dest="scan_velocity")
        sub.add_argument("--scanned-volume", type=float, dest="scanned_volume")
        sub.add_argument("--build-x", type=float, dest="build_x")
        sub.add_argument("--build-y", type=float, dest="build_y")

    geom = commands.add_parser("geom", help="ingest a pore table and dump derived metrics")
    add_metadata(geom)
    geom.add_argument("--input", required=True)
    geom.add_argument("--output", required=True)
    geom.set_defaults(func=cmd_geom)

    fit = commands.add_parser("fit", help="select a threshold and fit the tail")
    add_metadata(fit)
    fit.add_argument("--input", required=True)
    fit.add_argument("--out-dir", required=True, dest="out_dir")
    fit.add_argument("--tag")
    fit.add_argument("--threshold-mode", choices=("auto", "manual"), dest="threshold_mode")
    fit.add_argument("--threshold", type=float)
    fit.add_argument("--min-tail-count", type=int, dest="min_tail_count")
    fit.add_argument("--stability-tolerance", type=float, dest="stability_tolerance")
    fit.add_argument("--stability-window", type=int, dest="stability_window")
    fit.add_argument("--candidates", help="comma-separated threshold grid (um)")
    fit.set_defaults(func=cmd_fit)

    predict = commands.add_parser("predict", help="largest-pore distribution for a volume")
    predict.add_argument("--config")
    predict.add_argument("--fit", required=True)
    predict.add_argument("--volume", type=float)
    predict.add_argument("--out-dir", required=True, dest="out_dir")
    predict.add_argument("--tag")
    _add_mc_flags(predict)
    predict.set_defaults(func=cmd_predict)

    compare = commands.add_parser("compare", help="score observations against a prediction")
    compare.add_argument("--config")
    compare.add_argument("--prediction", required=True, help="prediction file prefix")
    compare.add_argument(
        "--observed", type=float, action="append", required=True, help="observed largest (um)"
    )
    compare.add_argument("--part-id", dest="part_id")
    compare.add_argument("--coupon-position", dest="coupon_position", help="'x,y' in mm")
    compare.add_argument("--part-position", dest="part_position", help="'x,y' in mm")
    compare.add_argument(
        "--plate-extents", dest="plate_extents", help="'x_min,y_min,x_max,y_max' in mm"
    )
    compare.add_argument("--output", required=True)
    compare.set_defaults(func=cmd_compare)

    sweep = commands.add_parser("sweep", help="largest-pore summaries over volumes")
    sweep.add_argument("--config")
    sweep.add_argument("--fit", required=True)
    sweep.add_argument("--volumes", help="comma-separated volumes (mm3), ascending")
    sweep.add_argument("--output", required=True)
    _add_mc_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    simulate = commands.add_parser("simulate", help="generate a synthetic specimen table")
    simulate.add_argument("--config")
    simulate.add_argument("--specimen-id", dest="specimen_id")
    simulate.add_argument("--threshold", type=float)
    simulate.add_argument("--sigma", type=float)
    simulate.add_argument("--xi", type=float)
    simulate.add_argument("--lambda-above", type=float, dest="lambda_above")
    simulate.add_argument("--lambda-below", type=float, dest="lambda_below")
    simulate.add_argument("--volume", type=float)
    simulate.add_argument("--bulk-log-mean", type=float, dest="bulk_log_mean")
    simulate.add_argument("--bulk-log-sigma", type=float, dest="bulk_log_sigma")
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--output", required=True)
    simulate.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliUsageError as exc:
        print(f"poretail: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IngestError, ReportParseError) as exc:
        print(f"poretail: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FitError, ThresholdSelectionError, CovarianceUnavailableError) as exc:
        print(f"poretail: statistical precondition failed: {exc}", file=sys.stderr)
        return EXIT_STAT
    except ValueError as exc:
        print(f"poretail: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
