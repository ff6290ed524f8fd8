import configparser
import csv
import errno
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import poretail
import poretail.cli
from poretail.cli import main
from poretail.reports import (
    ReportParseError,
    read_fit_report,
    read_prediction,
    write_fit_report,
    write_prediction,
)

from conftest import data_fit, differing_fields, synthetic_fit

# the numeric keys of a fit report: those it is refitted from, then those refitted
FIT_DATA_KEYS = ("threshold_um", "scanned_volume_mm3", "exceedances_um", "empirical_below_um")
REFITTED_KEYS = (
    "sigma_um", "xi", "n_exceed", "cov_sigma_sigma", "cov_sigma_xi", "cov_xi_xi",
    *poretail.gpd.RATE_KEYS,
)
FIT_NUMBER_KEYS = (*FIT_DATA_KEYS, *REFITTED_KEYS)
# a fit report written by `fit` from a small README-like specimen, by
#   poretail simulate --threshold 20 --sigma 3 --xi 0.1 --lambda-above 10 \
#       --lambda-below 40 --volume 5 --seed 1 --output small.csv
#   poretail fit --input small.csv --specimen-id SMALL --scanned-volume 5 \
#       --threshold-mode manual --threshold 20 --candidates 20 --out-dir . --tag small
FIT_FIXTURE = Path(__file__).parent / "data" / "small_fit.txt"
TRUTH_FLAGS = [
    "--threshold", "20", "--sigma", "3", "--xi", "0.1",
    "--lambda-above", "10", "--lambda-below", "40", "--volume", "200",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated specimen pushed through the whole command chain."""
    root = tmp_path_factory.mktemp("cli")
    pores = root / "pores.csv"
    assert main(["simulate", *TRUTH_FLAGS, "--seed", "5", "--output", str(pores)]) == 0

    out = root / "run"
    code = main([
        "fit", "--input", str(pores), "--specimen-id", "SYN", "--scanned-volume", "200",
        "--threshold-mode", "manual", "--threshold", "20",
        "--out-dir", str(out), "--tag", "syn",
    ])
    assert code == 0
    code = main([
        "predict", "--fit", str(out / "syn_fit.txt"), "--volume", "100",
        "--seed", "11", "--mode", "all", "--count-samples", "200",
        "--param-samples", "20", "--p-samples", "200", "--bins", "256",
        "--out-dir", str(out), "--tag", "pred",
    ])
    assert code == 0
    return root


class TestSimulateAndGeom:
    def test_simulate_emits_provenance_and_reingests(self, workspace, tmp_path, capsys):
        text = (workspace / "pores.csv").read_text()
        assert text.startswith("# seed=5\n")
        assert "# config_sha256=" in text
        out = tmp_path / "dump.csv"
        code = main([
            "geom", "--input", str(workspace / "pores.csv"),
            "--specimen-id", "X", "--scanned-volume", "200",
            "--output", str(out),
        ])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.endswith("equiv_diameter_um,aspect_ratio,sphericity")
        # simulate writes the canonical dump, so geom reproduces its table
        assert out.read_text() == "".join(
            line for line in text.splitlines(keepends=True) if not line.startswith("#")
        )
        # simulated pores are spheres, so geom flags nothing
        assert "geom flags" not in capsys.readouterr().out

    def test_geom_prints_quality_flags(self, tmp_path, capsys):
        table = tmp_path / "one.csv"
        # a sphere of this volume has a surface area of about 48,000 um^2
        table.write_text("pore_id,volume_um3,surface_area_um2,min_feret_um,max_feret_um\n"
                         "p1,1000000,20000,100,150\n")
        assert main(["geom", "--input", str(table), "--specimen-id", "S",
                     "--scanned-volume", "1", "--output", str(tmp_path / "g.csv")]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "geom flags: sphericity above 1 (surface area below spherical minimum)"
        )

    @pytest.mark.parametrize("flag, value", [
        ("--geometry-label", "4PB"), ("--scan-velocity", "1300"),
        ("--build-x", "12.5"), ("--build-y", "-40.0"),
    ])
    def test_removed_specimen_flag_is_usage_error(self, workspace, tmp_path, capsys,
                                                  flag, value):
        code = main(["geom", "--input", str(workspace / "pores.csv"), "--specimen-id", "X",
                     "--scanned-volume", "200", flag, value,
                     "--output", str(tmp_path / "g.csv")])
        assert code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["simulate", *TRUTH_FLAGS, "--seed", "9",
                         "--output", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value, field, domain", [
        ("--lambda-above", "nan", "lambda_above_per_mm3", "finite and nonnegative"),
        ("--lambda-above", "inf", "lambda_above_per_mm3", "finite and nonnegative"),
        ("--lambda-below", "-1", "lambda_below_per_mm3", "finite and nonnegative"),
        ("--volume", "inf", "specimen_volume_mm3", "finite and positive"),
        ("--bulk-log-mean", "nan", "log_mean", "finite"),
        ("--bulk-log-sigma", "inf", "log_sigma", "finite and positive"),
    ])
    def test_truth_outside_domain_is_refused_by_name(self, tmp_path, capsys, flag, value,
                                                     field, domain):
        # these used to fail inside numpy's Poisson draw or the volume check,
        # with a message that named no option
        out = tmp_path / "pores.csv"
        code = main(["simulate", *TRUTH_FLAGS, flag, value, "--seed", "1",
                     "--output", str(out)])
        assert code == 1
        assert (f"usage error: {field} = {float(value)} is not {domain}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, refusal", [
        ("--lambda-above", "1e300", "lambda_above_per_mm3 * specimen_volume_mm3 = 2e+302 "
         "expected pores is above 9.223e+18, the largest Poisson mean numpy draws from"),
        ("--bulk-log-sigma", "100", "bulk drew a diameter of "),
        ("--xi", "40", "tail drew a diameter of "),
    ], ids=["count", "bulk", "tail"])
    def test_truth_whose_draws_cannot_be_held_is_refused_by_name(self, tmp_path, capsys, flag,
                                                                 value, refusal):
        # these used to end in numpy's "lam value too large", a refusal naming
        # the volume of a bulk pore that underflowed to 0, and math.pow's
        # OverflowError on a tail pore's volume
        out = tmp_path / "pores.csv"
        code = main(["simulate", *TRUTH_FLAGS, flag, value, "--seed", "5",
                     "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"poretail: usage error: {refusal}")
        assert not out.exists()

    def test_negative_seed_is_refused_by_name(self, tmp_path, capsys):
        # numpy's default_rng refuses it with a traceback
        out = tmp_path / "pores.csv"
        assert main(["simulate", *TRUTH_FLAGS, "--seed", "-1", "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "poretail: usage error: seed = -1 is not a non-negative integer\n")
        assert not out.exists()

    def test_geom_missing_column_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("pore_id,volume_um3\np1,5.0\n")
        code = main(["geom", "--input", str(bad), "--specimen-id", "X",
                     "--scanned-volume", "10", "--output", str(tmp_path / "o.csv")])
        assert code == 2

    def test_geom_empty_file_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main(["geom", "--input", str(empty), "--specimen-id", "X",
                     "--scanned-volume", "10", "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "no rows" in capsys.readouterr().err

    def test_geom_infinite_cell_is_data_error(self, tmp_path, capsys):
        table = tmp_path / "inf.csv"
        table.write_text(
            "pore_id,volume_um3,surface_area_um2,min_feret_um,max_feret_um\n"
            "p1,15.625,30.0,2.5,5.0\np2,inf,30.0,2.5,5.0\n"
        )
        code = main(["geom", "--input", str(table), "--specimen-id", "X",
                     "--scanned-volume", "10", "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "row 3, column volume_um3" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_geom_repeated_column_is_data_error(self, tmp_path, capsys):
        table = tmp_path / "twice.csv"
        table.write_text(
            "pore_id,volume_um3,surface_area_um2,min_feret_um,max_feret_um,volume_um3\n"
            "p1,15.625,30.0,2.5,5.0,1000\n"
        )
        code = main(["geom", "--input", str(table), "--specimen-id", "X",
                     "--scanned-volume", "10", "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "column volume_um3 appears more than once" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("volume", ["inf", "0", "nan"])
    def test_geom_bad_scanned_volume_is_data_error(self, workspace, tmp_path, capsys, volume):
        code = main(["geom", "--input", str(workspace / "pores.csv"), "--specimen-id", "X",
                     "--scanned-volume", volume, "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "scanned_volume_mm3" in capsys.readouterr().err

    def test_geom_accepts_byte_order_mark(self, workspace, tmp_path, capsys):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        plain = workspace / "pores.csv"
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        dumps = []
        for table in (plain, marked):
            out = tmp_path / f"{table.stem}_geom.csv"
            code = main(["geom", "--input", str(table), "--specimen-id", "X",
                         "--scanned-volume", "200", "--output", str(out)])
            assert code == 0, capsys.readouterr().err
            dumps.append(out.read_bytes())
        assert dumps[0] == dumps[1]

    def test_geom_undecodable_bytes_is_data_error(self, tmp_path, capsys):
        table = tmp_path / "utf16.csv"
        table.write_bytes("pore_id,volume_um3\n".encode("utf-16"))
        code = main(["geom", "--input", str(table), "--specimen-id", "X",
                     "--scanned-volume", "10", "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "data error: byte 0: not UTF-8 text" in capsys.readouterr().err

    def test_geom_overlong_quoted_cell_is_data_error(self, tmp_path, capsys):
        table = tmp_path / "long.csv"
        table.write_text(
            "pore_id,volume_um3,surface_area_um2,min_feret_um,max_feret_um\n"
            f'"{"p" * 140_000}",15.625,30.0,2.5,5.0\n'
        )
        code = main(["geom", "--input", str(table), "--specimen-id", "X",
                     "--scanned-volume", "10", "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "data error: row 2: field larger than field limit" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_unresolvable_path_is_usage_error(self, tmp_path):
        code = main(["geom", "--input", str(tmp_path / "nope.csv"),
                     "--specimen-id", "X", "--scanned-volume", "10",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 1


class TestFit:
    def test_outputs_exist_with_expected_columns(self, workspace):
        out = workspace / "run"
        fit = read_fit_report(out / "syn_fit.txt")
        assert fit.params.threshold_um == 20.0
        assert fit.n_exceed >= 30
        assert fit.lambda_above_per_mm3 == pytest.approx(fit.n_exceed / 200.0)
        scan_lines = (out / "syn_scan.csv").read_text().splitlines()
        header = next(l for l in scan_lines if not l.startswith("#"))
        assert header.split(",")[:3] == ["threshold_um", "n_exceed", "mean_excess_um"]
        qq_lines = (out / "syn_qq.csv").read_text().splitlines()
        qq_header = next(l for l in qq_lines if not l.startswith("#"))
        assert qq_header == "theoretical_um,sample_um"

    def test_auto_threshold_mode(self, workspace, tmp_path):
        out = tmp_path / "auto"
        code = main([
            "fit", "--input", str(workspace / "pores.csv"), "--specimen-id", "SYN",
            "--scanned-volume", "200", "--out-dir", str(out), "--tag", "a",
            "--stability-tolerance", "2.0",
        ])
        assert code == 0
        fit = read_fit_report(out / "a_fit.txt")
        assert fit.n_exceed >= 30

    def test_tiny_dataset_is_statistical_error(self, tmp_path):
        table = tmp_path / "tiny.csv"
        rows = ["pore_id,volume_um3,surface_area_um2,min_feret_um,max_feret_um"]
        rows += [f"p{i},{15.625 * (i + 1)},30.0,2.5,5.0" for i in range(10)]
        table.write_text("\n".join(rows) + "\n")
        code = main(["fit", "--input", str(table), "--specimen-id", "T",
                     "--scanned-volume", "10", "--out-dir", str(tmp_path / "o"),
                     "--threshold-mode", "manual", "--threshold", "3.0"])
        assert code == 3

    def test_table_without_pores_is_statistical_error(self, tmp_path, capsys):
        table = tmp_path / "empty.csv"
        table.write_text("pore_id,volume_um3,surface_area_um2,min_feret_um,max_feret_um\n")
        code = main(["fit", "--input", str(table), "--specimen-id", "E",
                     "--scanned-volume", "10", "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (
            "poretail: statistical precondition failed: dataset has no pores; nothing to fit\n"
        )

    def test_config_hash_covers_every_resolved_option(self, workspace, tmp_path):
        def config_hash(tag, *flags):
            assert main(["fit", "--input", str(workspace / "pores.csv"), "--specimen-id", "S",
                         "--threshold-mode", "manual", "--threshold", "20",
                         *flags, "--out-dir", str(tmp_path), "--tag", tag]) == 0
            lines = (tmp_path / f"{tag}_fit.txt").read_text().splitlines()
            return next(l for l in lines if l.startswith("config_sha256 = "))

        base = ["--scanned-volume", "200", "--candidates", "20"]
        assert config_hash("a", *base) == config_hash("b", *base)
        hashes = {
            config_hash("a", *base),
            config_hash("v", "--scanned-volume", "400", "--candidates", "20"),
            config_hash("c", "--scanned-volume", "200", "--candidates", "20,21"),
            config_hash("t", *base, "--stability-tolerance", "1.0"),
        }
        assert len(hashes) == 4

    def test_manual_mode_requires_value(self, workspace, tmp_path):
        code = main(["fit", "--input", str(workspace / "pores.csv"),
                     "--specimen-id", "S", "--scanned-volume", "200",
                     "--threshold-mode", "manual", "--out-dir", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("flags, config", [
        (["--threshold", "20"], ""),
        (["--threshold-mode", "auto", "--threshold", "20"], ""),
        ([], "[threshold]\nvalue = 20\n"),
    ])
    def test_threshold_in_auto_mode_is_usage_error(self, workspace, tmp_path, capsys,
                                                    flags, config):
        cfg = tmp_path / "t.ini"
        cfg.write_text(config)
        code = main(["fit", "--config", str(cfg), "--input", str(workspace / "pores.csv"),
                     "--specimen-id", "S", "--scanned-volume", "200", *flags,
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert ("--threshold ([threshold] value) is only read with "
                "--threshold-mode manual ([threshold] mode)") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threshold", ["-5", "0"])
    def test_nonpositive_threshold_is_refused_by_name(self, workspace, tmp_path, capsys,
                                                      threshold):
        # the sub-threshold sample lies in (0, threshold]; a threshold of -5
        # used to fit, and predict then put tail mass on (-5, 0]
        code = main(["fit", "--input", str(workspace / "pores.csv"), "--specimen-id", "S",
                     "--scanned-volume", "200", "--threshold-mode", "manual",
                     "--threshold", threshold, "--candidates", "20",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"threshold_um = {float(threshold)} is not a positive diameter" in err
        assert not list((tmp_path / "o").glob("*_fit.txt"))

    def test_stability_window_below_one_is_usage_error(self, workspace, tmp_path, capsys):
        # a window of 0 compared nothing, so every usable candidate passed
        code = main(["fit", "--input", str(workspace / "pores.csv"), "--specimen-id", "S",
                     "--scanned-volume", "200", "--stability-window", "0",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "usage error: stability window = 0 must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value, flags", [
        ("0", []),
        ("-5", []),
        ("0", ["--threshold-mode", "manual", "--threshold", "1000", "--candidates", "20"]),
    ], ids=["0", "-5", "0-manual-above-every-pore"])
    def test_min_tail_count_below_one_is_usage_error(self, workspace, tmp_path, capsys,
                                                      value, flags):
        # 0 and -5 used to exclude no candidate for its count and be hashed as
        # given; above every pore the fit then failed on a degenerate tail
        code = main(["fit", "--input", str(workspace / "pores.csv"), "--specimen-id", "S",
                     "--scanned-volume", "200", "--min-tail-count", value, *flags,
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert (f"usage error: min_tail_count = {value} must be at least 1 exceedance"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_stability_tolerance_outside_domain_is_usage_error(self, workspace, tmp_path,
                                                                capsys, value):
        # nan and -1 used to fail every candidate, as if the data were at fault
        code = main(["fit", "--input", str(workspace / "pores.csv"), "--specimen-id", "S",
                     "--scanned-volume", "200", "--stability-tolerance", value,
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert (f"usage error: stability_tolerance = {float(value)} must be finite and "
                "nonnegative" in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("specimen_id", ["S\nX", " S "], ids=["line-break", "padded"])
    def test_id_a_report_cannot_hold_is_usage_error(self, workspace, tmp_path, capsys,
                                                    specimen_id):
        # the fit id used to be written as given, and read back split over two
        # lines (which predict refused) or stripped (so that it was not the fit's)
        code = main(["fit", "--input", str(workspace / "pores.csv"),
                     "--specimen-id", specimen_id, "--scanned-volume", "200",
                     "--threshold-mode", "manual", "--threshold", "20", "--candidates", "20",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert (f"usage error: fit_id = {specimen_id + '@20um'!r}: a report value may not "
                "hold a line break or start or end with whitespace" in capsys.readouterr().err)
        assert not list((tmp_path / "o").glob("*_fit.txt"))

    @pytest.mark.parametrize("flags, config, code", [
        (["--candidates", ""], "", 1),
        (["--candidates", " , "], "", 1),
        ([], "[threshold]\ncandidates =\n", 2),
    ], ids=["flag", "flag-commas", "config"])
    def test_empty_candidate_list_is_refused(self, workspace, tmp_path, capsys,
                                             flags, config, code):
        # it used to scan the default grid under another config hash
        cfg = tmp_path / "t.ini"
        cfg.write_text(config)
        assert main(["fit", "--config", str(cfg), "--input", str(workspace / "pores.csv"),
                     "--specimen-id", "S", "--scanned-volume", "200", *flags,
                     "--out-dir", str(tmp_path / "o")]) == code
        assert "expected comma-separated numbers, got" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_repeated_candidates_are_scanned_once(self, workspace, tmp_path, capsys):
        # 5 um used to be compared with itself, pass and be selected; alone,
        # it has nothing to be compared with
        code = main(["fit", "--input", str(workspace / "pores.csv"), "--specimen-id", "S",
                     "--scanned-volume", "200", "--candidates", "5,5,5,5",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "no candidate threshold passed" in capsys.readouterr().err

    @pytest.mark.parametrize("candidate", ["nan", "inf", "0", "-5"])
    def test_candidate_not_a_positive_diameter_is_usage_error(self, workspace, tmp_path,
                                                               capsys, candidate):
        # nan used to be warned about and skipped, and -5 was fitted and scored
        # though fit_tail refuses it as a threshold
        code = main(["fit", "--input", str(workspace / "pores.csv"), "--specimen-id", "S",
                     "--scanned-volume", "200", f"--candidates={candidate},20,25",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert (f"usage error: candidate threshold {float(candidate)} is not a positive "
                "finite diameter" in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()


class TestPredict:
    def test_byte_identical_rerun(self, workspace, tmp_path):
        out = workspace / "run"
        args = ["predict", "--fit", str(out / "syn_fit.txt"), "--volume", "100",
                "--seed", "11", "--mode", "all", "--count-samples", "200",
                "--param-samples", "20", "--p-samples", "200", "--bins", "256"]
        for tag, dest in (("r1", tmp_path / "one"), ("r1", tmp_path / "two")):
            assert main(args + ["--out-dir", str(dest), "--tag", tag]) == 0
        for name in ("r1_cdf.csv", "r1_summary.txt"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_prediction_matches_workspace_run(self, workspace):
        dist = read_prediction(workspace / "run" / "pred")
        assert (dist.nodes_per_axis, dist.n_samples_total) == (16, 256)
        assert dist.cdf_precision <= 1e-4
        assert dist.cdf_at_edges[-1] + dist.overflow_mass == pytest.approx(1.0, abs=1e-6)

    def test_mode_none_matches_closed_form(self, workspace, tmp_path):
        import poretail as pt

        out = workspace / "run"
        code = main(["predict", "--fit", str(out / "syn_fit.txt"), "--volume", "100",
                     "--seed", "3", "--mode", "none", "--count-samples", "1",
                     "--param-samples", "1", "--p-samples", "200000",
                     "--out-dir", str(tmp_path), "--tag", "none"])
        assert code == 0
        fit = read_fit_report(out / "syn_fit.txt")
        dist = read_prediction(tmp_path / "none")
        count = fit.lambda_above_per_mm3 * 100.0
        closed = np.asarray(
            pt.largest_cdf_closed(fit.params, count, dist.bin_edges_um)
        )
        assert np.max(np.abs(dist.cdf_at_edges - closed)) < 0.01

    def test_seed_and_param_samples_leave_values_unchanged(self, workspace, tmp_path):
        fit = str(workspace / "run" / "syn_fit.txt")

        def values(path):
            # everything but the config hash, which covers every option given
            return [line for line in path.read_text().splitlines()
                    if not line.lstrip("# ").startswith("config_sha256")]

        for seed, samples in (("1", "20"), ("2", "999")):
            common = ["--fit", fit, "--seed", seed, "--mode", "all", "--param-samples", samples]
            assert main(["predict", *common, "--volume", "100",
                         "--out-dir", str(tmp_path / seed), "--tag", "p"]) == 0
            assert main(["sweep", *common, "--volumes", "25,100",
                         "--output", str(tmp_path / seed / "sweep.csv")]) == 0
        for name in ("p_cdf.csv", "p_summary.txt", "sweep.csv"):
            assert values(tmp_path / "1" / name) == values(tmp_path / "2" / name)

    def test_seed_optional_and_ignored(self, workspace, tmp_path, capsys):
        # predict and sweep need no seed, and neither they nor the ignored
        # sample counts are written out; simulate still requires its seed
        fit = str(workspace / "run" / "syn_fit.txt")
        ignored = ["--seed", "11", "--count-samples", "464", "--param-samples", "464",
                   "--p-samples", "464", "--bins", "2048", "--workers", "1"]
        for name, flags in (("bare", []), ("plan", ignored)):
            out = tmp_path / name
            assert main(["predict", "--fit", fit, "--volume", "100", *flags,
                         "--out-dir", str(out), "--tag", "p"]) == 0
            assert main(["sweep", "--fit", fit, "--volumes", "25,100", *flags,
                         "--output", str(out / "sweep.csv")]) == 0
        echoed = ("seed", "n_count_samples", "n_param_samples", "n_p_samples")
        for name in ("p_cdf.csv", "p_summary.txt", "sweep.csv"):
            bare, plan = ((tmp_path / run / name).read_text().splitlines()
                          for run in ("bare", "plan"))
            assert not [line for line in bare + plan if line.lstrip("# ").startswith(echoed)]
            assert [l for l in bare if "config_sha256" not in l] == [
                l for l in plan if "config_sha256" not in l]
        capsys.readouterr()
        assert main(["simulate", *TRUTH_FLAGS, "--output", str(tmp_path / "s.csv")]) == 1
        assert "missing required option: --seed (or [truth] seed)" in capsys.readouterr().err

    def test_ignored_count_samples_leave_outputs_unchanged(self, workspace, tmp_path):
        # --count-samples 0 used to be refused, although no count is read;
        # only the hash of the resolved options tells the runs apart
        fit = str(workspace / "run" / "syn_fit.txt")
        for name, flags in (("bare", []), ("zero", ["--count-samples", "0"])):
            assert main(["predict", "--fit", fit, "--volume", "100", *flags,
                         "--out-dir", str(tmp_path / name), "--tag", "p"]) == 0
        for name in ("p_cdf.csv", "p_summary.txt"):
            bare, zero = ((tmp_path / run / name).read_text().splitlines()
                          for run in ("bare", "zero"))
            hashed = [i for i, line in enumerate(bare) if "config_sha256" in line]
            assert len(hashed) == 1 and bare[hashed[0]] != zero[hashed[0]]
            del bare[hashed[0]], zero[hashed[0]]
            assert bare == zero

    def test_nonpositive_volume_is_usage_error(self, workspace, tmp_path):
        code = main(["predict", "--fit", str(workspace / "run" / "syn_fit.txt"),
                     "--volume", "-3", "--seed", "1", "--out-dir", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("volume", ["inf", "nan"])
    def test_nonfinite_volume_is_refused_by_name(self, workspace, tmp_path, capsys, volume):
        code = main(["predict", "--fit", str(workspace / "run" / "syn_fit.txt"),
                     "--volume", volume, "--seed", "1", "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"usage error: volume_mm3 must be finite and positive, got {volume}" in err
        assert "Warning" not in err

    def test_summary_writes_each_key_once(self, workspace):
        lines = (workspace / "run" / "pred_summary.txt").read_text().splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert len(keys) == len(set(keys)), keys
        assert {"toolkit_version", "config_sha256", "histogram_bins"} <= set(keys)
        assert not {"seed", "n_count_samples", "n_param_samples", "n_p_samples"} & set(keys)

    def test_covariance_refusal_is_statistical_error(self, workspace, tmp_path, monkeypatch,
                                                      capsys):
        # no fit made from data has been found without a covariance, so
        # predict is handed the engine tests' fit without one
        monkeypatch.setattr(poretail.cli, "read_fit_report",
                            lambda path: synthetic_fit(with_covariance=False))
        code = main(["predict", "--fit", str(workspace / "run" / "syn_fit.txt"),
                     "--volume", "10", "--mode", "all", "--out-dir", str(tmp_path)])
        assert code == 3
        assert "statistical precondition failed: fit covariance unavailable" in (
            capsys.readouterr().err)
        assert not list(tmp_path.glob("*_cdf.csv"))

    @pytest.mark.parametrize("value, code", [("-0.5", 2), ("nan", 2), ("0.0", 2)])
    def test_rate_outside_its_domain_is_refused_by_key(self, tmp_path, capsys, value, code):
        # a negative se used to run as a pinned rate, and nan to fail inside the
        # engine; a rate is now refitted from the counts, so 0 is refused too
        path = tmp_path / "fit.txt"
        write_fit_report(data_fit(), path)
        path.write_text(re.sub(r"^lambda_above_se = .*$", f"lambda_above_se = {value}",
                               path.read_text(), flags=re.M))
        assert main(["predict", "--fit", str(path), "--volume", "10", "--seed", "1",
                     "--mode", "all", "--out-dir", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert "Warning" not in err
        assert f"data error: {path}: lambda_above_se = {value} is not 0.1414" in err

    @pytest.mark.parametrize("key, edit, named", [
        ("n_exceed", lambda v: "-5", "n_exceed = -5 is not 200"),
        ("empirical_below_um", lambda v: "nan," + v.split(",", 1)[1],
         "empirical_below_um must be sorted"),
        ("empirical_below_um", lambda v: ",".join([*v.split(",")[1::-1], *v.split(",")[2:]]),
         "empirical_below_um must be sorted"),
        ("threshold_um", lambda v: "nan", "threshold_um = nan is not a positive diameter"),
        ("xi", lambda v: "nan", "xi = nan is not "),
        ("cov_xi_xi", lambda v: "inf", "cov_xi_xi = inf is not "),
        ("sigma_um", lambda v: "-1", "sigma_um = -1 is not "),
        ("xi", lambda v: "inf", "xi = inf is not "),
        ("cov_sigma_xi", lambda v: "-5", "cov_sigma_xi = -5 is not "),
        ("n_exceed", lambda v: "nan", "n_exceed = nan is not 200"),
        ("sigma_um", lambda v: "abc", "sigma_um = abc is not "),
        ("empirical_below_um", lambda v: v.replace(",", ",abc,", 1),
         "empirical_below_um: could not convert string to float: 'abc'"),
        ("sigma_um", lambda v: repr(float(v) * (1.0 + 1e-4)), "sigma_um = "),
        ("flags", lambda v: "outside MLE asymptotic-normality domain", "flags = outside"),
        ("estimator", lambda v: "MOM", "estimator = MOM is not MLE"),
        ("exceedances_um", lambda v: "", "exceedances_um: need at least 1 exceedances, got 0"),
        ("exceedances_um", lambda v: v.rsplit(",", 1)[0] + ",20.0",
         "exceedances_um must lie above threshold_um"),
        ("exceedances_um", lambda v: v.rsplit(",", 1)[0] + ",5.0",
         "exceedances_um must lie above threshold_um"),
        ("exceedances_um", lambda v: f"{2.0 * float(v.split(',')[0])!r},{v.split(',', 1)[1]}",
         "sigma_um = "),
        ("empirical_below_um", lambda v: v.split(",", 1)[1],
         "lambda_below_per_mm3 = 5.0 is not 4.99"),
        ("scanned_volume_mm3", lambda v: "0",
         "scanned_volume_mm3 = 0.0 is not finite and positive"),
    ], ids=["n_exceed-negative", "empirical-nan", "empirical-unsorted", "threshold-nan",
            "xi-nan", "cov-inf", "sigma-negative", "xi-inf", "cov-not-psd", "n_exceed-nan",
            "sigma-text", "empirical-text", "sigma-beyond-tolerance", "flags-text",
            "estimator-text", "exceedances-empty", "exceedance-at-threshold",
            "exceedance-below-threshold", "exceedance-moved", "empirical-dropped",
            "volume-zero"])
    def test_malformed_fit_number_is_refused_by_field(self, tmp_path, capsys, key, edit, named):
        # a refitted number edited alone is refused naming it, and a data
        # number either by its own key or by the first refitted number it moves
        path = tmp_path / "fit.txt"
        write_fit_report(data_fit(), path)
        path.write_text(re.sub(rf"^{key} = (.*)$", lambda m: f"{key} = {edit(m.group(1))}",
                               path.read_text(), flags=re.M))
        assert main(["predict", "--fit", str(path), "--volume", "10", "--seed", "1",
                     "--mode", "all", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"data error: {path}: {named}" in err
        assert "Warning" not in err
        assert not list(tmp_path.glob("*_cdf.csv"))

    def test_report_without_exceedances_names_the_command_that_remakes_it(self, tmp_path,
                                                                         capsys):
        # a report written before fit reports carried their exceedances
        path = tmp_path / "fit.txt"
        write_fit_report(data_fit(), path)
        path.write_text(re.sub(r"^(exceedances_um|scanned_volume_mm3) = .*\n", "",
                               path.read_text(), flags=re.M))
        assert main(["sweep", "--fit", str(path), "--volumes", "10",
                     "--output", str(tmp_path / "sweep.csv")]) == 2
        err = capsys.readouterr().err
        assert f"data error: {path}: exceedances_um is missing, as in reports written before" in err
        assert "run `poretail fit` again to regenerate the report" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("key", ["sigma_um", "xi", "cov_sigma_sigma", "cov_xi_xi"])
    def test_refitted_number_reads_back_within_tolerance(self, tmp_path, key):
        # another build of numpy may end the likelihood search a few
        # stopping widths away; the refitted value is the one returned
        fit = data_fit()
        path = tmp_path / "fit.txt"
        write_fit_report(fit, path)
        nudged = lambda m: f"{key} = {float(m.group(1)) * (1.0 + 1e-7)!r}"
        path.write_text(re.sub(rf"^{key} = (.*)$", nudged, path.read_text(), flags=re.M))
        assert differing_fields(read_fit_report(path), fit) == []

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(FIT_NUMBER_KEYS), value=st.one_of(
        st.sampled_from(["nan", "inf", "-inf", "", "1e999"]),
        st.floats(max_value=-1e-300, allow_nan=False, allow_infinity=False).map(repr),
        st.integers(max_value=-1).map(str),
        st.text("abcxyz_", min_size=1),
    ))
    def test_edited_fit_number_reads_back_or_is_refused_by_key(self, workspace, tmp_path,
                                                               capsys, key, value):
        # one number of a report written by fit replaced at a time: a refitted
        # number is refused naming it, and a number the fit is refitted from
        # by its own key or by the first refitted number it moves
        path = tmp_path / "edited.txt"
        text = (workspace / "run" / "syn_fit.txt").read_text()
        path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M))
        try:
            fit = read_fit_report(path)
        except ReportParseError:
            capsys.readouterr()
            assert main(["predict", "--fit", str(path), "--volume", "10", "--mode", "none",
                         "--out-dir", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert f"poretail: data error: {path}: " in err
            named = err.split(f"{path}: ", 1)[1]
            if key in REFITTED_KEYS:
                assert named.startswith(f"{key} = {value} is not "), err
            else:
                refitted_text = ("estimator", "covariance_available", "flags")
                assert named.startswith((key, *refitted_text, *REFITTED_KEYS)), err
        else:
            assert key in FIT_DATA_KEYS
            assert isinstance(fit, poretail.TailFit)

    @pytest.mark.parametrize("command", ["predict", "sweep"])
    def test_report_without_rates_is_data_error(self, tmp_path, capsys, command):
        path = tmp_path / "fit.txt"
        write_fit_report(data_fit(), path)
        path.write_text(re.sub(r"^lambda_below_se = .*\n", "", path.read_text(), flags=re.M))
        where = (["--volume", "10", "--out-dir", str(tmp_path)] if command == "predict"
                 else ["--volumes", "10", "--output", str(tmp_path / "sweep.csv")])
        assert main([command, "--fit", str(path), "--seed", "1", *where]) == 2
        assert f"{path}: lambda_below_se is missing" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "sweep"])
    def test_report_with_nonpositive_threshold_is_data_error(self, tmp_path, capsys, command):
        path = tmp_path / "fit.txt"
        write_fit_report(data_fit(), path)
        path.write_text(re.sub(r"^threshold_um = .*$", "threshold_um = -5.0",
                               path.read_text(), flags=re.M))
        where = (["--volume", "100", "--out-dir", str(tmp_path)] if command == "predict"
                 else ["--volumes", "100", "--output", str(tmp_path / "sweep.csv")])
        assert main([command, "--fit", str(path), "--seed", "1", *where]) == 2
        assert (f"data error: {path}: threshold_um = -5.0 is not a positive diameter"
                in capsys.readouterr().err)
        assert not list(tmp_path.glob("*.csv"))


class TestCompare:
    def test_median_observation_scores_half(self, workspace, tmp_path, capsys):
        dist = read_prediction(workspace / "run" / "pred")
        median = dist.quantile(0.5)
        out = tmp_path / "report.csv"
        code = main(["compare", "--prediction", str(workspace / "run" / "pred"),
                     "--observed", str(median), "--part-id", "AX1",
                     "--coupon-position", "0,0", "--part-position", "3,4",
                     "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("coupon_fit_id,part_specimen_id,observed_um,q_value")
        cells = lines[1].split(",")
        assert float(cells[3]) == pytest.approx(0.5, abs=0.01)
        assert float(cells[6]) == pytest.approx(5.0)

    def test_missing_positions_warns_and_omits_distances(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["compare", "--prediction", str(workspace / "run" / "pred"),
                     "--observed", "30", "--part-id", "AX1",
                     "--plate-extents", "0,0,250,250", "--output", str(out)])
        assert code == 0
        assert "distances omitted" in capsys.readouterr().err
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[6] == "" and cells[7] == ""

    def test_nan_observation_is_usage_error(self, workspace, tmp_path, capsys):
        code = main(["compare", "--prediction", str(workspace / "run" / "pred"),
                     "--observed", "nan", "--output", str(tmp_path / "nan.csv")])
        assert code == 1
        assert "finite, non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, refusal", [
        ("--coupon-position", "nan,0", "coupon_position_mm = (nan, 0.0)"),
        ("--part-position", "1,inf", "part_position_mm = (1.0, inf)"),
        ("--plate-extents", "0,0,inf,10",
         "plate extents (x_min, y_min, x_max, y_max) = (0.0, 0.0, inf, 10.0)"),
    ], ids=["coupon-position", "part-position", "plate-extents"])
    def test_nonfinite_position_is_refused_by_name(self, workspace, tmp_path, capsys, flag,
                                                   value, refusal):
        # these used to write nan distances and exit 0
        positions = {"--coupon-position": "0,0", "--part-position": "1,1",
                     "--plate-extents": "0,0,250,250", flag: value}
        out = tmp_path / "report.csv"
        code = main(["compare", "--prediction", str(workspace / "run" / "pred"),
                     "--observed", "41.3", *[x for item in positions.items() for x in item],
                     "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"poretail: usage error: {refusal} is not finite\n"
        assert not out.exists()

    def test_warning_prints_without_library_paths(self, workspace, tmp_path):
        # Python's default format printed "<site>/poretail/equivalence.py:<line>:
        # UserWarning: ..." and the source line
        proc = subprocess.run(
            [sys.executable, "-m", "poretail", "compare",
             "--prediction", str(workspace / "run" / "pred"), "--observed", "1000",
             "--output", str(tmp_path / "far.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert ("poretail: warning: observation above histogram range; CDF floor reported\n"
                in proc.stderr)
        assert ".py:" not in proc.stderr

    def test_warning_of_another_category_keeps_its_name(self, workspace, tmp_path):
        # the library's notices are UserWarnings; a numpy RuntimeWarning points
        # at a fault, so its category is printed
        script = (
            "import sys, warnings\n"
            "import poretail.cli as cli\n"
            "engine = cli.sample_largest\n"
            "def noisy(*args, **kwargs):\n"
            "    warnings.warn('overflow encountered in exp', RuntimeWarning)\n"
            "    return engine(*args, **kwargs)\n"
            "cli.sample_largest = noisy\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "predict", "--fit",
             str(workspace / "run" / "syn_fit.txt"), "--volume", "100", "--mode", "none",
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == "poretail: warning: RuntimeWarning: overflow encountered in exp\n"

    def test_warning_still_reaches_a_callers_capture(self, workspace, tmp_path):
        with pytest.warns(UserWarning, match="above histogram range"):
            assert main(["compare", "--prediction", str(workspace / "run" / "pred"),
                         "--observed", "1000", "--output", str(tmp_path / "far.csv")]) == 0
        assert warnings.formatwarning is not poretail.cli._format_warning

    def test_multiple_observations(self, workspace, tmp_path):
        out = tmp_path / "multi.csv"
        code = main(["compare", "--prediction", str(workspace / "run" / "pred"),
                     "--observed", "25", "--observed", "35", "--observed", "45",
                     "--output", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 4


    @staticmethod
    def copied_prediction(workspace, tmp_path):
        for suffix in ("_cdf.csv", "_summary.txt"):
            (tmp_path / f"pred{suffix}").write_bytes((workspace / "run" / f"pred{suffix}").read_bytes())
        return tmp_path / "pred"

    @pytest.mark.parametrize("key", ["mean_um", "p97_5_um"])
    def test_edited_summary_statistic_is_data_error(self, workspace, tmp_path, capsys, key):
        prefix = self.copied_prediction(workspace, tmp_path)
        summary = tmp_path / "pred_summary.txt"
        lines = summary.read_text().splitlines(keepends=True)
        lines = [f"{key} = 1000000000.0\n" if l.startswith(f"{key} = ") else l for l in lines]
        summary.write_text("".join(lines))
        with pytest.raises(ReportParseError, match=rf"{key} = 1000000000.0 is not "):
            read_prediction(prefix)
        code = main(["compare", "--prediction", str(prefix), "--observed", "41.3",
                     "--output", str(tmp_path / "eq.csv")])
        assert code == 2
        assert f"data error: {summary}: {key} = 1000000000.0" in capsys.readouterr().err

    @pytest.mark.parametrize("row, fault", [
        ("12.5", "row 3: missing cells"),
        ("abc,0.5", "row 3, column edge_um: could not parse 'abc'"),
    ], ids=["12.5", "abc,0.5"])
    def test_malformed_cdf_row_is_data_error(self, workspace, tmp_path, capsys, row, fault):
        prefix = self.copied_prediction(workspace, tmp_path)
        table = tmp_path / "pred_cdf.csv"
        lines = table.read_text().splitlines(keepends=True)
        header = lines.index("edge_um,cdf\n")
        lines[header + 2] = row + "\n"  # the second data row: row 3, below the header
        table.write_text("".join(lines))
        code = main(["compare", "--prediction", str(prefix), "--observed", "41.3",
                     "--output", str(tmp_path / "eq.csv")])
        assert code == 2
        assert f"data error: {table}: {fault}" in capsys.readouterr().err

    def test_missing_prediction_is_usage_error(self, tmp_path, capsys):
        code = main(["compare", "--prediction", str(tmp_path / "nope"), "--observed", "41.3",
                     "--output", str(tmp_path / "eq.csv")])
        assert code == 1
        assert f"usage error: input path not resolvable: {tmp_path / 'nope_cdf.csv'}" in capsys.readouterr().err

    def test_text_cells_are_quoted(self, tmp_path):
        fit_path = tmp_path / "fit.txt"
        write_fit_report(data_fit(fit_id='A,"B"@20um'), fit_path)
        assert main(["predict", "--fit", str(fit_path), "--volume", "10", "--seed", "1",
                     "--mode", "none", "--out-dir", str(tmp_path), "--tag", "p"]) == 0
        out = tmp_path / "report.csv"
        assert main(["compare", "--prediction", str(tmp_path / "p"), "--observed", "25",
                     "--part-id", "P,1", "--output", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1 and len(rows[0]) == 8 and None not in rows[0]
        assert rows[0]["coupon_fit_id"] == 'A,"B"@20um'
        assert rows[0]["part_specimen_id"] == "P,1"
        assert float(rows[0]["observed_um"]) == 25.0

class TestSweep:
    def test_single_volume_matches_predict_summary(self, workspace, tmp_path):
        out_dir = workspace / "run"
        sweep_path = tmp_path / "sweep.csv"
        code = main(["sweep", "--fit", str(out_dir / "syn_fit.txt"),
                     "--volumes", "100", "--seed", "11", "--mode", "all",
                     "--count-samples", "200", "--param-samples", "20",
                     "--p-samples", "200", "--bins", "256",
                     "--output", str(sweep_path)])
        assert code == 0
        dist = read_prediction(out_dir / "pred")
        rows = [l for l in sweep_path.read_text().splitlines() if not l.startswith("#")]
        cells = rows[1].split(",")
        assert float(cells[1]) == pytest.approx(dist.mean_um, rel=1e-12)
        assert float(cells[4]) == pytest.approx(dist.p97_5_um, rel=1e-12)

    def test_unconverged_rule_flagged_per_volume(self, tmp_path, capsys):
        from poretail.extremes import FLAG_RULE_UNCONVERGED

        # the heavy-tail probe, 30 exceedances at GPD(3, 0.9) quantiles that
        # fit a shape of 0.85: the (scale, shape) rule hits its 64-node cap
        fit = data_fit(shape=0.9, n_exceed=30, volume=30.0)
        assert fit.params.shape == pytest.approx(0.85, abs=0.005)
        write_fit_report(fit, tmp_path / "heavy_fit.txt")
        sweep_path = tmp_path / "sweep.csv"
        code = main(["sweep", "--fit", str(tmp_path / "heavy_fit.txt"),
                     "--volumes", "10,100", "--seed", "1", "--mode", "all", "--bins", "64",
                     "--output", str(sweep_path)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"sweep: 2 volume(s) -> {sweep_path}"
        assert out[1:] == [f"sweep flags at {v} mm3: {FLAG_RULE_UNCONVERGED}" for v in (10, 100)]
        rows = [l for l in sweep_path.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "volume_mm3,mean_um,p2_5_um,p50_um,p97_5_um,no_pore_mass"
        assert [len(r.split(",")) for r in rows[1:]] == [6, 6]

    def test_empty_volume_list_is_usage_error(self, workspace, tmp_path):
        code = main(["sweep", "--fit", str(workspace / "run" / "syn_fit.txt"),
                     "--volumes", "", "--seed", "1",
                     "--output", str(tmp_path / "s.csv")])
        assert code == 1

    def test_nonfinite_volume_is_refused_by_name(self, workspace, tmp_path, capsys):
        code = main(["sweep", "--fit", str(workspace / "run" / "syn_fit.txt"),
                     "--volumes", "10,inf", "--seed", "1",
                     "--output", str(tmp_path / "s.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error: volume_mm3 must be finite and positive, got inf" in err
        assert "Warning" not in err
        assert not (tmp_path / "s.csv").exists()


class TestConfigFile:
    def test_config_supplies_metadata_and_flags_override(self, workspace, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[specimen]\nspecimen_id = CFG\nscanned_volume_mm3 = 200\n"
            "[threshold]\nmode = manual\nvalue = 20\n"
        )
        out = tmp_path / "out"
        code = main(["fit", "--config", str(cfg), "--input",
                     str(workspace / "pores.csv"), "--out-dir", str(out)])
        assert code == 0
        fit = read_fit_report(out / "CFG_fit.txt")
        assert fit.fit_id.startswith("CFG@")
        # flag overrides the config value
        code = main(["fit", "--config", str(cfg), "--input",
                     str(workspace / "pores.csv"), "--specimen-id", "FLAG",
                     "--out-dir", str(out)])
        assert code == 0
        assert (out / "FLAG_fit.txt").exists()

    def test_simulate_from_truth_config(self, tmp_path):
        cfg = tmp_path / "truth.ini"
        cfg.write_text(
            "[truth]\nthreshold_um = 20\nsigma_um = 3\nxi = 0.1\n"
            "lambda_above_per_mm3 = 10\nlambda_below_per_mm3 = 40\n"
            "volume_mm3 = 200\nbulk_log_mean = 2.0\nbulk_log_sigma = 0.5\nseed = 5\n"
        )
        out = tmp_path / "pores.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        direct = tmp_path / "direct.csv"
        assert main(["simulate", *TRUTH_FLAGS, "--bulk-log-mean", "2.0",
                     "--bulk-log-sigma", "0.5", "--seed", "5",
                     "--output", str(direct)]) == 0
        # same truth and seed, whichever way it was supplied
        strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
        assert strip(out) == strip(direct)

    def test_readme_config_example_runs(self, workspace, tmp_path):
        # the README's INI block verbatim, inline "; ..." comments included
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        cfg = tmp_path / "readme.ini"
        cfg.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--input",
                     str(workspace / "pores.csv"), "--out-dir", str(out)]) == 0
        assert main(["predict", "--config", str(cfg), "--fit", str(out / "S1_fit.txt"),
                     "--out-dir", str(out), "--tag", "pred"]) == 0
        dist = read_prediction(out / "pred")
        assert dist.provenance["uncertainty_mode"] == "all"
        assert dist.provenance["volume_mm3"] == 100.0

    def test_readme_config_names_every_option(self):
        # each (section, key) some command reads, as a line or as a "; key = value" comment
        from poretail.cli import CONFIG_KEYS

        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        parser.read_string(re.sub(r"^; (\w+ = )", r"\1", block, flags=re.M))
        named = {(section, key) for section in parser.sections() for key in parser[section]}
        assert named == CONFIG_KEYS

    @pytest.mark.parametrize("text, named", [
        ("[mc]\nbin = 512\n", "[mc] bin"),
        ("[specimen]\nscanned_volume = 200\n", "[specimen] scanned_volume"),
        ("[fit]\nmode = auto\n", "section [fit]"),
        ("[DEFAULT]\nseed = 5\n", "section [DEFAULT]"),
        *((f"[specimen]\n{key} = 1\n", f"[specimen] {key}") for key in (
            "geometry_label", "scan_velocity_mm_s", "build_x_mm", "build_y_mm")),
    ])
    def test_unknown_config_key_is_data_error(self, workspace, tmp_path, capsys, text, named):
        cfg = tmp_path / "typo.ini"
        cfg.write_text(text)
        code = main(["predict", "--config", str(cfg), "--fit",
                     str(workspace / "run" / "syn_fit.txt"), "--volume", "10",
                     "--seed", "1", "--mode", "none", "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"data error: config {cfg}: no command reads {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("x = 1\n", 1),
        ("[specimen]\nspecimen_id\n", 2),
        ("[specimen]\nspecimen_id = A\nspecimen_id = B\n", 3),
        ("[mc]\nbins = 256\n[mc]\n", 3),
    ])
    def test_malformed_config_is_one_line_data_error(self, workspace, tmp_path, capsys,
                                                     text, line):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        code = main(["geom", "--config", str(cfg), "--input", str(workspace / "pores.csv"),
                     "--specimen-id", "X", "--scanned-volume", "200",
                     "--output", str(tmp_path / "g.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith(f"poretail: data error: malformed config {cfg}, line {line}: ")

    def test_config_that_is_not_utf8_is_data_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "latin1.ini"
        cfg.write_bytes(b"[specimen]\nspecimen_id = \xff\n")
        code = main(["geom", "--config", str(cfg), "--input", str(workspace / "pores.csv"),
                     "--scanned-volume", "200", "--output", str(tmp_path / "g.csv")])
        assert code == 2
        assert f"data error: config {cfg}: byte 25: not UTF-8 text" in capsys.readouterr().err

    def test_interpolation_syntax_in_config_value_is_data_error(self, workspace, tmp_path,
                                                                capsys):
        cfg = tmp_path / "pct.ini"
        cfg.write_text("[specimen]\nspecimen_id = 50%\n")
        code = main(["geom", "--config", str(cfg), "--input", str(workspace / "pores.csv"),
                     "--scanned-volume", "200", "--output", str(tmp_path / "g.csv")])
        assert code == 2
        assert "data error: config [specimen] specimen_id: " in capsys.readouterr().err

    def test_config_keys_of_other_commands_and_workers_are_accepted(self, workspace, tmp_path):
        cfg = tmp_path / "shared.ini"
        cfg.write_text("[mc]\nworkers = 4\n[truth]\nseed = 5\n[threshold]\nmode = auto\n")
        assert main(["predict", "--config", str(cfg), "--fit",
                     str(workspace / "run" / "syn_fit.txt"), "--volume", "10",
                     "--seed", "1", "--mode", "none", "--out-dir", str(tmp_path)]) == 0

    def test_config_value_outside_choices_is_data_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "mode.ini"
        cfg.write_text("[threshold]\nmode = sometimes\n")
        code = main(["fit", "--config", str(cfg), "--input", str(workspace / "pores.csv"),
                     "--specimen-id", "S", "--scanned-volume", "200",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "config [threshold] mode: 'sometimes' is not one of auto, manual" in (
            capsys.readouterr().err
        )

    def test_missing_config_file_is_usage_error(self, workspace, tmp_path):
        code = main(["fit", "--config", str(tmp_path / "nope.ini"),
                     "--input", str(workspace / "pores.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == 1


def text_reader(kind, workspace, tmp_path):
    """A copy of a file of the workspace's that a command reads ("fit" a fit
    report, "summary" a prediction summary, "config" an INI), its text, and
    the argv of the command reading it with its outputs in a new directory."""
    run = workspace / "run"
    if kind == "summary":
        (tmp_path / "pred_cdf.csv").write_bytes((run / "pred_cdf.csv").read_bytes())
    target, text = {
        "fit": (tmp_path / "syn_fit.txt", (run / "syn_fit.txt").read_bytes()),
        "summary": (tmp_path / "pred_summary.txt", (run / "pred_summary.txt").read_bytes()),
        "config": (tmp_path / "mc.ini", b"[mc]\nbins = 256\n"),
    }[kind]

    def argv(out):
        out.mkdir()
        predict = ["predict", "--volume", "10", "--mode", "none", "--out-dir", str(out)]
        return {
            "fit": [*predict, "--fit", str(target)],
            "summary": ["compare", "--prediction", str(tmp_path / "pred"), "--observed", "41.3",
                        "--output", str(out / "eq.csv")],
            "config": [*predict, "--config", str(target), "--fit", str(run / "syn_fit.txt")],
        }[kind]

    return target, text, argv


class TestReportAndConfigText:
    """Reports, summaries and configs are decoded as pore tables are."""

    @pytest.mark.parametrize("kind", ["fit", "summary", "config"])
    def test_byte_order_mark_is_stripped(self, workspace, tmp_path, capsys, kind):
        # a marked report or summary used to be "not a poretail-fit/1 report",
        # and a marked config "line 1: '\ufeff[mc]' comes before any [section]"
        target, text, argv = text_reader(kind, workspace, tmp_path)
        outputs = []
        for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            target.write_bytes(mark + text)
            assert main(argv(tmp_path / name)) == 0, capsys.readouterr().err
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("kind", ["fit", "summary"])
    def test_report_that_is_not_utf8_is_data_error(self, workspace, tmp_path, capsys, kind):
        # this used to end in a UnicodeDecodeError traceback
        target, text, argv = text_reader(kind, workspace, tmp_path)
        first_line = text.split(b"\n")[0] + b"\n"
        target.write_bytes(first_line + b"\xff\xfe bad\n")
        assert main(argv(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            f"poretail: data error: {target}: byte {len(first_line)}: "
            "not UTF-8 text (invalid start byte)\n"
        )

    @pytest.mark.parametrize("kind, line", [
        ("fit", "fit_id = OTHER"),  # was read as the fit's id
        ("fit", "threshold_um = 30"),  # was refused as exceedances below the threshold
        ("summary", "volume_mm3 = 5"),  # was read as the prediction's volume
    ])
    def test_repeated_report_key_is_data_error(self, workspace, tmp_path, capsys, kind, line):
        target, text, argv = text_reader(kind, workspace, tmp_path)
        target.write_bytes(text + line.encode() + b"\n")
        key = line.split(" = ")[0]
        lines = text.decode().splitlines()
        first = next(n for n, entry in enumerate(lines, start=1) if entry.startswith(f"{key} = "))
        assert main(argv(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            f"poretail: data error: {target}: line {len(lines) + 1}: {key} is repeated "
            f"(first on line {first})\n"
        )


class TestReportRoundTrips:
    def test_fit_report_round_trip(self, tmp_path):
        fit = data_fit(shape=-0.2, n_exceed=123)
        path = tmp_path / "fit.txt"
        write_fit_report(fit, path)
        assert differing_fields(read_fit_report(path), fit) == []

    @pytest.mark.filterwarnings("ignore:candidate .* exceedances; excluded")
    @pytest.mark.parametrize("seed, volume", [(1, 200.0), (2, 200.0), (3, 200.0), (4, 200.0),
                                              (5, 200.0), (7, 4000.0)],
                             ids=["1", "2", "3", "4", "5", "large-table"])
    def test_fit_report_of_readme_specimen_refits_bit_for_bit(self, tmp_path, seed, volume):
        # the README specimen (and the benchmark's large table, 38,079
        # exceedances) fitted as `fit` fits it; the refit of the exceedances
        # in fit_tail's order writes the same report
        truth = poretail.GroundTruth(poretail.GpdParams(20.0, 3.0, 0.1), 10.0, 40.0, volume,
                                     poretail.BulkModel(2.0, 0.5))
        dataset = poretail.generate_specimen(truth, seed, specimen_id=f"S{seed}")
        scan = poretail.stability_scan(dataset, poretail.default_candidate_grid(dataset))
        fit = poretail.fit_tail(dataset, poretail.select_threshold(scan))
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        write_fit_report(fit, first)
        back = read_fit_report(first)
        assert differing_fields(back, fit) == []
        write_fit_report(back, second)
        assert second.read_bytes() == first.read_bytes()

    def test_committed_fit_report_reads_back(self, tmp_path):
        # written by `fit` on another build of numpy, perhaps: the refit must
        # land within the reader's tolerance of every number written
        fit = read_fit_report(FIT_FIXTURE)
        assert fit.n_exceed == fit.exceedances_um.size > 0
        assert main(["predict", "--fit", str(FIT_FIXTURE), "--volume", "10", "--mode", "all",
                     "--out-dir", str(tmp_path), "--tag", "p"]) == 0

    def test_fit_without_rates_is_refused_before_writing(self, tmp_path):
        # the reader refits a report from its data, so the writer refuses a
        # fit that lacks it
        x = 20.0 + np.random.default_rng(3).exponential(2.0, 200)
        path = tmp_path / "fit.txt"
        with pytest.raises(ValueError, match=r"^fit lacks the data it was fitted from; "
                                             r"build it with fit_tail\(\)$"):
            write_fit_report(poretail.fit_mle(x, 20.0), path)
        assert not path.exists()

    def test_prediction_round_trip(self, tmp_path):
        import poretail as pt

        # the heavy-tail probe: unconverged rule, dropped nodes, nonzero precision
        fit = synthetic_fit(shape=0.9, n_exceed=30)
        dist = pt.sample_largest(fit, pt.VolumeOfInterest(100.0),
                                 pt.McConfig(seed=1, histogram_bins=64))
        write_prediction(dist, tmp_path / "pred")
        back = read_prediction(tmp_path / "pred")
        assert back.cdf_precision == dist.cdf_precision > 0.0
        assert back.nodes_per_axis == dist.nodes_per_axis == 64
        assert back.n_samples_total == dist.n_samples_total
        assert back.flags == dist.flags
        assert back.summary() == dist.summary()
        assert back.cdf_at_edges.tobytes() == dist.cdf_at_edges.tobytes()

    @pytest.mark.parametrize("mode", ["none", "poisson_only", "all"])
    def test_prediction_round_trip_field_for_field(self, tmp_path, mode):
        import poretail as pt

        dist = pt.sample_largest(synthetic_fit(), pt.VolumeOfInterest(2.0),
                                 pt.McConfig(histogram_bins=64, uncertainty_mode=mode))
        _, summary_path = write_prediction(dist, tmp_path / "pred")
        back = read_prediction(tmp_path / "pred")
        assert differing_fields(back, dist) == []
        # the typed provenance reads back typed
        assert back.provenance["histogram_bins"] == 64
        assert back.provenance["volume_mm3"] == 2.0
        # the summary file ends with summary() in its order, then the flags
        keys = [line.split(" = ")[0] for line in summary_path.read_text().splitlines()]
        assert keys[-len(dist.summary()) - 1:] == [*dist.summary(), "dist_flags"]

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "poretail", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "poretail" in proc.stdout


class TestExitCodes:
    @pytest.mark.parametrize("command", [
        "geom", "fit-specimen-id", "fit-tag", "predict", "compare", "sweep", "simulate",
    ])
    def test_unwritable_output_is_usage_error(self, workspace, tmp_path, capsys, command):
        # each used to end in a FileNotFoundError or FileExistsError traceback
        pores, run, out = str(workspace / "pores.csv"), workspace / "run", tmp_path / "no" / "o.csv"
        fit = ["fit", "--input", pores, "--scanned-volume", "200", "--threshold-mode", "manual",
               "--threshold", "20", "--candidates", "20", "--out-dir", str(tmp_path)]
        missing, exists = os.strerror(errno.ENOENT), os.strerror(errno.EEXIST)
        argv, path, reason = {
            "geom": (["geom", "--input", pores, "--specimen-id", "SYN", "--scanned-volume", "200",
                      "--output", str(out)], out, missing),
            # the specimen id is the default tag
            "fit-specimen-id": ([*fit, "--specimen-id", "a/b"], tmp_path / "a/b_fit.txt", missing),
            "fit-tag": ([*fit, "--specimen-id", "SYN", "--tag", "x/y"], tmp_path / "x/y_fit.txt",
                        missing),
            "predict": (["predict", "--fit", str(run / "syn_fit.txt"), "--volume", "100",
                         "--out-dir", str(run / "syn_fit.txt")], run / "syn_fit.txt", exists),
            "compare": (["compare", "--prediction", str(run / "pred"), "--observed", "41.3",
                         "--output", str(out)], out, missing),
            "sweep": (["sweep", "--fit", str(run / "syn_fit.txt"), "--volumes", "25,50",
                       "--mode", "none", "--output", str(out)], out, missing),
            "simulate": (["simulate", *TRUTH_FLAGS, "--seed", "1", "--output", str(out)], out,
                         missing),
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"poretail: usage error: cannot write {path}: {reason}\n"

    @pytest.mark.parametrize("fault", [
        ValueError("fault inside the engine"),  # used to be reported as a usage error
        OSError(errno.EIO, "fault naming no file"),
    ], ids=["ValueError", "OSError"])
    def test_fault_inside_a_command_surfaces(self, workspace, tmp_path, monkeypatch, fault):
        def engine(*args, **kwargs):
            raise fault

        monkeypatch.setattr(poretail.cli, "sample_largest", engine)
        with pytest.raises(type(fault), match="fault"):
            main(["predict", "--fit", str(workspace / "run" / "syn_fit.txt"), "--volume", "100",
                  "--out-dir", str(tmp_path)])


@pytest.mark.parametrize("refusal", [
    lambda: poretail.VolumeOfInterest(0.0),
    lambda: poretail.McConfig(histogram_bins=8),
    lambda: poretail.McConfig(uncertainty_mode="some"),
    lambda: poretail.extremes.fit_exceedances(np.array([25.0]), np.array([10.0]), 0.0, 1.0),
    lambda: poretail.volume_sweep(synthetic_fit(), [], poretail.McConfig()),
    lambda: poretail.stability_scan([1.0, 2.0], [1.0], window=0),
    lambda: poretail.mean_excess_curve([1.0, 2.0], [float("nan")]),
    lambda: poretail.GpdParams(20.0, 0.0, 0.1),
    lambda: poretail.GroundTruth(poretail.GpdParams(20.0, 3.0, 0.1), -1.0, 1.0, 1.0,
                                 poretail.BulkModel(2.0, 0.5)),
    lambda: poretail.BulkModel(2.0, 0.0),
    lambda: poretail.reports._keyvalue_text([("fit_id", " S")]),
    lambda: poretail.q_value(
        poretail.LargestPoreDistribution(np.array([1.0, 2.0]), np.array([0.0, 1.0])), math.nan),
    lambda: poretail.equiv_diameter(0.0),
    lambda: poretail.aspect_ratio(2.0, 1.0),
    lambda: poretail.sphericity(1.0, -1.0),
    lambda: poretail.geometry.sphere_surface_area(math.nan),
    lambda: poretail.GroundTruth(poretail.GpdParams(20.0, 3.0, 0.1), 1e300, 1.0, 200.0,
                                 poretail.BulkModel(2.0, 0.5)),
    lambda: poretail.LargestPoreLaw(synthetic_fit(), 0.0),
    lambda: poretail.LargestPoreLaw(synthetic_fit(), 1.0, "some"),
    lambda: poretail.generate_specimen(
        poretail.GroundTruth(poretail.GpdParams(20.0, 3.0, 0.1), 10.0, 40.0, 1.0,
                             poretail.BulkModel(2.0, 0.5)), -1),
    lambda: poretail.build_report(
        poretail.LargestPoreDistribution(np.array([1.0, 2.0]), np.array([0.0, 1.0])), 1.5,
        coupon_position_mm=(math.nan, 0.0), part_position_mm=(1.0, 1.0)),
    lambda: poretail.plate_center_from_extents(0.0, 0.0, math.inf, 10.0),
], ids=["volume", "bins", "mode", "threshold", "volumes", "window", "candidate", "scale",
        "rate", "log-sigma", "report-value", "observation", "equiv-diameter", "aspect-ratio",
        "sphericity", "sphere-surface-area", "expected-count", "law-volume", "law-mode", "seed",
        "position", "plate-extents"])
def test_library_refusals_are_usage_errors(refusal):
    # main maps UsageError to exit 1; any other ValueError surfaces
    with pytest.raises(poretail.UsageError):
        refusal()


def test_readme_library_block_runs(workspace, monkeypatch, capsys):
    # the README's "Library use" block verbatim, run where the walkthrough's files are
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(workspace)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("{") and len(printed) == 5


def test_version_matches_pyproject():
    # the version is declared once, in poretail.__version__, which
    # pyproject.toml reads rather than repeats
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        config = tomllib.load(handle)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "poretail.__version__"}


def run_probe(source, *args):
    """Lines printed by source run in a fresh interpreter that imports this
    checkout's poretail."""
    src = str(Path(poretail.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", source, *map(str, args)],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout.splitlines()


STARTUP_PROBE = """
import sys
import numpy as np
import poretail, poretail.cli

def loaded():
    return [m in sys.modules for m in ("scipy.optimize", "scipy.stats")]

print(loaded())
poretail.fit_mle(20.0 + np.random.default_rng(1).exponential(3.0, 100), 20.0)
print(loaded())
poretail.generate_specimen(poretail.GroundTruth(
    poretail.GpdParams(20.0, 3.0, 0.1), 10.0, 40.0, 5.0, poretail.BulkModel(2.0, 0.5)), seed=1)
print(loaded())
"""


def test_heavy_scipy_subpackages_load_only_where_used():
    # every CLI command is a fresh interpreter that pays for what `import poretail` loads
    assert run_probe(STARTUP_PROBE) == ["[False, False]", "[False, False]", "[True, True]"]


FIT_PROBE = """
import sys
from poretail.cli import main

table, out = sys.argv[1:]
assert main(["fit", "--input", table, "--specimen-id", "S", "--scanned-volume", "20",
             "--threshold-mode", "auto", "--out-dir", out, "--tag", "s"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_fit_starts_on_numpy_alone(tmp_path):
    table = tmp_path / "pores.csv"
    assert main(["simulate", *TRUTH_FLAGS[:-2], "--volume", "20", "--seed", "3",
                 "--output", str(table)]) == 0
    assert run_probe(FIT_PROBE, table, tmp_path)[-1] == "[]"


ENGINE_PROBE = """
import contextlib, io, sys
from poretail.cli import main

table, fit, out = sys.argv[1:]
common = ["--fit", fit, "--seed", "1"]
for argv in (
    ["geom", "--input", table, "--specimen-id", "X", "--scanned-volume", "10",
     "--output", out + "/geom.csv"],
    *(["predict", *common, "--volume", "10", "--mode", mode, "--out-dir", out, "--tag", mode]
      for mode in ("none", "poisson_only", "all")),
    ["compare", "--prediction", out + "/all", "--observed", "25",
     "--output", out + "/compare.csv"],
    ["sweep", *common, "--volumes", "1,10,100", "--mode", "all", "--output", out + "/sweep.csv"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    print(argv[0], sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_predict_and_sweep_start_on_numpy_alone(tmp_path):
    # the engine's count law is a closed form in numpy (the Gamma rate's
    # Laplace transform), so no command but simulate loads scipy
    table = tmp_path / "pores.csv"
    table.write_text(
        "pore_id,volume_um3,surface_area_um2,min_feret_um,max_feret_um\n"
        "p1,15.625,30.0,2.5,5.0\n"
    )
    fit = tmp_path / "fit.txt"
    write_fit_report(data_fit(), fit)
    assert run_probe(ENGINE_PROBE, table, fit, tmp_path) == [
        "geom []", "predict []", "predict []", "predict []", "compare []", "sweep []"
    ]
