"""Batch command-line surface: geom, fit, predict, compare, sweep, simulate.

Commands compose via files only. The outputs of fit, predict, sweep and
simulate embed a hash of the effective configuration and the toolkit
version; simulate requires a seed and embeds it too, so re-running with
the embedded values reproduces the output byte-identically. predict and
sweep are deterministic: they accept a seed and ignore it.

Each option is declared once, in the table of its INI section below: its
flag, its config key, its type and its default.

Exit codes: 0 success, 1 usage (an unwritable output path too), 2 data
error, 3 statistical precondition failure; any other error surfaces.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .equivalence import EquivalenceReport, build_report, plate_center_from_extents
from .extremes import (
    UNCERTAINTY_MODES,
    CovarianceUnavailableError,
    McConfig,
    VolumeOfInterest,
    fit_tail,
    sample_largest,
    volume_sweep,
)
from .geometry import IngestError, _read_text, dump_specimen, ingest_specimen
from .gpd import MIN_TAIL_COUNT, FitError, GpdParams, UsageError, qq_points
from .reports import (
    ReportParseError,
    config_sha256,
    prediction_paths,
    provenance_lines,
    read_fit_report,
    read_prediction,
    write_fit_report,
    write_prediction,
    write_table,
)
from .synthetic import BulkModel, GroundTruth, generate_specimen
from .threshold import (
    DEFAULT_STABILITY_TOLERANCE,
    DEFAULT_STABILITY_WINDOW,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on usage problems, not argparse's 2
        raise UsageError(message)


REQUIRED = object()  # the default of an option the command cannot run without


@dataclass(frozen=True)
class Option:
    """One option: its flag, its key in its INI section, its type and default."""

    flag: str
    key: str
    kind: Callable = float
    default: object = None
    choices: tuple[str, ...] | None = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


def _floats(count: int | None = None) -> Callable[[str], tuple[float, ...]]:
    """Parser of a comma-separated list of at least one number; of exactly `count` if given."""

    def parse(text: str) -> tuple[float, ...]:
        try:
            values = tuple(float(part) for part in text.split(",") if part.strip() != "")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"could not parse {text!r}: {exc}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(
                f"expected {count} comma-separated numbers, got {text!r}"
            )
        return values

    return parse


# One table per INI section. An option takes its flag, else its key in the
# --config file, else its default, and every option a command resolves goes
# into the config_sha256 of its outputs.
SPECIMEN = (
    Option("--specimen-id", "specimen_id", str, REQUIRED),
    Option("--scanned-volume", "scanned_volume_mm3", float, REQUIRED),
)
THRESHOLD = (
    Option("--threshold-mode", "mode", str, "auto", choices=("auto", "manual")),
    Option("--threshold", "value", help="the threshold (um) of manual mode"),
    Option("--min-tail-count", "min_tail_count", int, MIN_TAIL_COUNT),
    Option("--stability-tolerance", "stability_tolerance", float, DEFAULT_STABILITY_TOLERANCE),
    Option("--stability-window", "stability_window", int, DEFAULT_STABILITY_WINDOW),
    Option("--candidates", "candidates", _floats(), help="comma-separated threshold grid (um)"),
)
MC = (
    Option("--seed", "seed", int, help="accepted and ignored: the result is deterministic"),
    Option("--mode", "mode", str, McConfig.uncertainty_mode, choices=UNCERTAINTY_MODES),
    Option("--count-samples", "count_samples", int, McConfig.n_count_samples,
           help="accepted and ignored: the count axis is exact"),
    Option("--param-samples", "param_samples", int, McConfig.n_param_samples,
           help="accepted and ignored: (scale, shape) uses an adaptive rule"),
    Option("--p-samples", "p_samples", int, McConfig.n_p_samples,
           help="accepted and ignored: the probability axis is exact"),
    Option("--bins", "bins", int, McConfig.histogram_bins),
    Option("--workers", "workers", int, help="accepted and ignored"),
)
VOLUME = Option("--volume", "volume_mm3", float, REQUIRED)  # [mc], predict
VOLUMES = Option("--volumes", "volumes_mm3", _floats(), REQUIRED,  # [mc], sweep
                 help="comma-separated volumes (mm3), ascending")
PLATE = (
    Option("--plate-extents", "extents", _floats(4), help="'x_min,y_min,x_max,y_max' in mm"),
)
TRUTH = (
    Option("--threshold", "threshold_um", float, REQUIRED),
    Option("--sigma", "sigma_um", float, REQUIRED),
    Option("--xi", "xi", float, REQUIRED),
    Option("--lambda-above", "lambda_above_per_mm3", float, REQUIRED),
    Option("--lambda-below", "lambda_below_per_mm3", float, REQUIRED),
    Option("--volume", "volume_mm3", float, REQUIRED),
    Option("--bulk-log-mean", "bulk_log_mean", float, 2.0),
    Option("--bulk-log-sigma", "bulk_log_sigma", float, 0.5),
    Option("--seed", "seed", int, REQUIRED),
)

# the INI sections each command reads, with the options it takes from them
COMMAND_OPTIONS = {
    "geom": {"specimen": SPECIMEN},
    "fit": {"specimen": SPECIMEN, "threshold": THRESHOLD},
    "predict": {"mc": (VOLUME, *MC)},
    "compare": {"plate": PLATE},
    "sweep": {"mc": (VOLUMES, *MC)},
    "simulate": {"truth": TRUTH},
}
# every key some command reads, so that one config file serves them all
CONFIG_KEYS = frozenset(
    (section, option.key)
    for sections in COMMAND_OPTIONS.values()
    for section, options in sections.items()
    for option in options
)


def _config_error(exc: configparser.Error) -> str:
    """The line and fault of a configparser error, whose own text spans lines."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: {exc.line.strip()!r} comes before any [section]"
    if isinstance(exc, configparser.ParsingError):
        return f"line {exc.errors[0][0]}: neither a [section] header nor a key = value"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: [{exc.section}] {exc.option} is repeated"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: section [{exc.section}] is repeated"
    return " ".join(str(exc).split())


def _load_config(path: str | None) -> configparser.ConfigParser:
    config = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if path:
        target = Path(path)
        if not target.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            with open(target, "r", encoding="utf-8") as handle:
                config.read_string(_read_text(handle), source=path)
        except configparser.Error as exc:
            raise IngestError(f"malformed config {path}, {_config_error(exc)}") from exc
        except IngestError as exc:
            raise IngestError(f"config {path}: {exc}") from None
    if config.defaults():  # its keys would apply to every section
        raise IngestError(f"config {path}: no command reads section [{config.default_section}]")
    for section in config.sections():
        if not any(known == section for known, _ in CONFIG_KEYS):
            raise IngestError(f"config {path}: no command reads section [{section}]")
        for key in config[section]:
            if (section, key) not in CONFIG_KEYS:
                raise IngestError(f"config {path}: no command reads [{section}] {key}")
    return config


def _config_value(config, section: str, option: Option):
    try:
        value = option.kind(config.get(section, option.key))
    except (ValueError, argparse.ArgumentTypeError, configparser.Error) as exc:
        raise IngestError(f"config [{section}] {option.key}: {exc}") from exc
    if option.choices and value not in option.choices:
        raise IngestError(
            f"config [{section}] {option.key}: {value!r} is not one of {', '.join(option.choices)}"
        )
    return value


def _resolve(args) -> dict:
    """Set each option of the command from its flag, the config file or its
    default, and return the resolved values by config key."""
    config = _load_config(args.config)
    resolved = {}
    for section, options in COMMAND_OPTIONS[args.command].items():
        for option in options:
            value = getattr(args, option.dest)
            if value is None and config.has_option(section, option.key):
                value = _config_value(config, section, option)
            if value is None:
                if option.default is REQUIRED:
                    raise UsageError(
                        f"missing required option: {option.flag} (or [{section}] {option.key})"
                    )
                value = option.default
            setattr(args, option.dest, value)
            resolved[option.key] = value
    return resolved


def _input_path(path: str | Path) -> Path:
    target = Path(path)
    if not target.is_file():
        raise UsageError(f"input path not resolvable: {path}")
    return target


def _stamp(args, **inputs) -> dict:
    """Provenance of every output: the toolkit version and a hash of the
    command, its input paths and every option it resolved."""
    options = {"command": args.command, **inputs, **args.resolved}
    return {"config_sha256": config_sha256(options), "toolkit_version": __version__}


def _ingest(args) -> "SpecimenDataset":
    return ingest_specimen(
        _input_path(args.input),
        specimen_id=args.specimen_id,
        scanned_volume_mm3=args.scanned_volume,
    )


def _mc_config(args) -> McConfig:
    return McConfig(histogram_bins=args.bins, uncertainty_mode=args.mode)


def cmd_geom(args) -> int:
    dataset = _ingest(args)
    dump_specimen(dataset, args.output)
    print(f"geom: {len(dataset)} pore(s) -> {args.output}")
    if dataset.quality_flags:
        print("geom flags: " + "; ".join(dataset.quality_flags))
    return EXIT_OK


def cmd_fit(args) -> int:
    if (args.threshold_mode == "manual") != (args.threshold is not None):
        need = "is required with" if args.threshold is None else "is only read with"
        raise UsageError(
            f"--threshold ([threshold] value) {need} --threshold-mode manual ([threshold] mode)"
        )
    dataset = _ingest(args)

    if args.candidates:
        candidates = np.array(args.candidates)
    else:
        candidates = default_candidate_grid(dataset)

    scan = stability_scan(
        dataset,
        candidates,
        min_tail_count=args.min_tail_count,
        tolerance=args.stability_tolerance,
        window=args.stability_window,
    )
    threshold = args.threshold if args.threshold_mode == "manual" else select_threshold(scan)
    fit = fit_tail(dataset, threshold, min_tail_count=args.min_tail_count)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = args.tag or dataset.specimen_id
    provenance = {**_stamp(args, input=str(args.input)), "threshold_mode": args.threshold_mode}
    fit_path = out_dir / f"{tag}_fit.txt"
    write_fit_report(fit, fit_path, provenance={"config_sha256": provenance["config_sha256"]})
    write_table(
        out_dir / f"{tag}_scan.csv",
        {name: [getattr(c, name) for c in scan.candidates] for name in SCAN_COLUMNS},
        provenance,
    )
    theoretical, sample = qq_points(fit, fit.exceedances_um).T.tolist()
    write_table(
        out_dir / f"{tag}_qq.csv", {"theoretical_um": theoretical, "sample_um": sample}, provenance
    )
    se_sigma, se_xi = ("n/a", "n/a") if fit.covariance is None else (
        f"{se:.6g}" for se in np.sqrt(np.diag(fit.covariance))
    )
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
    fit = read_fit_report(_input_path(args.fit))
    dist = sample_largest(fit, VolumeOfInterest(args.volume), _mc_config(args))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = args.tag or (fit.fit_id.replace("@", "_") or "prediction")
    cdf_path, summary_path = write_prediction(
        dist, out_dir / tag, provenance=_stamp(args, fit=str(args.fit))
    )
    print(
        f"predict: volume={args.volume:g}mm3 mode={args.mode} mean={dist.mean_um:.6g}um "
        f"p2.5={dist.p2_5_um:.6g} p50={dist.p50_um:.6g} "
        f"p97.5={dist.p97_5_um:.6g} no_pore_mass={dist.no_pore_mass:.3g} "
        f"-> {cdf_path}, {summary_path}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    for path in prediction_paths(args.prediction):
        _input_path(path)
    dist = read_prediction(args.prediction)
    coupon_pos, part_pos = args.coupon_position, args.part_position
    center = plate_center_from_extents(*args.plate_extents) if args.plate_extents else None
    if (coupon_pos is None) != (part_pos is None) or (
        coupon_pos is None and args.part_id and args.plate_extents
    ):
        print("compare: position(s) missing; distances omitted", file=sys.stderr)

    reports = []
    for observed in args.observed:
        report = build_report(
            dist,
            observed,
            part_specimen_id=args.part_id or "",
            coupon_position_mm=coupon_pos,
            part_position_mm=part_pos,
            plate_center_mm=center,
        )
        reports.append(report)
        print(
            f"compare: observed={observed:g}um q={report.q_value:.6g} "
            f"p={report.p_value:.6g}"
        )
    names = [f.name for f in fields(EquivalenceReport)]
    write_table(args.output, {name: [getattr(r, name) for r in reports] for name in names})
    return EXIT_OK


def cmd_sweep(args) -> int:
    fit = read_fit_report(_input_path(args.fit))
    dists = volume_sweep(fit, args.volumes, _mc_config(args))
    summary = ("mean_um", "p2_5_um", "p50_um", "p97_5_um", "no_pore_mass")
    write_table(
        args.output,
        {"volume_mm3": args.volumes, **{k: [getattr(d, k) for d in dists] for k in summary}},
        provenance=_stamp(args, fit=str(args.fit)),
    )
    print(f"sweep: {len(dists)} volume(s) -> {args.output}")
    for v, d in zip(args.volumes, dists):
        if d.flags:
            print(f"sweep flags at {v:g} mm3: " + "; ".join(d.flags))
    return EXIT_OK


def cmd_simulate(args) -> int:
    truth = GroundTruth(
        tail=GpdParams(threshold_um=args.threshold, scale_um=args.sigma, shape=args.xi),
        lambda_above_per_mm3=args.lambda_above,
        lambda_below_per_mm3=args.lambda_below,
        specimen_volume_mm3=args.volume,
        bulk=BulkModel(log_mean=args.bulk_log_mean, log_sigma=args.bulk_log_sigma),
    )
    dataset = generate_specimen(
        truth, args.seed, specimen_id=args.specimen_id or f"synthetic-{args.seed}"
    )
    with open(args.output, "w", encoding="utf-8", newline="") as handle:
        provenance = {"seed": args.seed, **_stamp(args)}
        handle.writelines(line + "\n" for line in provenance_lines(provenance))
        dump_specimen(dataset, handle)
    print(
        f"simulate: {len(dataset)} pore(s) in {truth.specimen_volume_mm3:g}mm3 "
        f"-> {args.output}"
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="poretail", description=__doc__)
    parser.add_argument("--version", action="version", version=f"poretail {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_command(name, func, help_text) -> _Parser:
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        sub.add_argument("--config", help="INI config file; flags override its keys")
        for section, options in COMMAND_OPTIONS[name].items():
            for option in options:
                where = f"[{section}] {option.key}"
                sub.add_argument(
                    option.flag,
                    dest=option.dest,
                    type=option.kind,
                    choices=option.choices,
                    help=f"{option.help}; {where}" if option.help else where,
                )
        return sub

    geom = add_command("geom", cmd_geom, "ingest a pore table and dump derived metrics")
    geom.add_argument("--input", required=True)
    geom.add_argument("--output", required=True)

    fit = add_command("fit", cmd_fit, "select a threshold and fit the tail")
    fit.add_argument("--input", required=True)
    fit.add_argument("--out-dir", required=True)
    fit.add_argument("--tag")

    predict = add_command("predict", cmd_predict, "largest-pore distribution for a volume")
    predict.add_argument("--fit", required=True)
    predict.add_argument("--out-dir", required=True)
    predict.add_argument("--tag")

    compare = add_command("compare", cmd_compare, "score observations against a prediction")
    compare.add_argument("--prediction", required=True, help="prediction file prefix")
    compare.add_argument(
        "--observed", type=float, action="append", required=True, help="observed largest (um)"
    )
    compare.add_argument("--part-id")
    compare.add_argument("--coupon-position", type=_floats(2), help="'x,y' in mm")
    compare.add_argument("--part-position", type=_floats(2), help="'x,y' in mm")
    compare.add_argument("--output", required=True)

    sweep = add_command("sweep", cmd_sweep, "largest-pore summaries over volumes")
    sweep.add_argument("--fit", required=True)
    sweep.add_argument("--output", required=True)

    simulate = add_command("simulate", cmd_simulate, "generate a synthetic specimen table")
    simulate.add_argument("--specimen-id")
    simulate.add_argument("--output", required=True)

    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    # the library's own notices are UserWarnings; any other category (a
    # numpy RuntimeWarning, say) points at a fault and keeps its name
    kind = "" if category is UserWarning else f"{category.__name__}: "
    return f"poretail: warning: {kind}{message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    # a warning reads like the other messages, without the library's path;
    # only its printing changes, so a caller's capture of warnings still works
    library_format, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        args = parser.parse_args(argv)
        args.resolved = _resolve(args)
        return args.func(args)
    except UsageError as exc:
        print(f"poretail: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IngestError, ReportParseError) as exc:
        print(f"poretail: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FitError, ThresholdSelectionError, CovarianceUnavailableError) as exc:
        print(f"poretail: statistical precondition failed: {exc}", file=sys.stderr)
        return EXIT_STAT
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"poretail: usage error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        warnings.formatwarning = library_format


if __name__ == "__main__":
    sys.exit(main())
