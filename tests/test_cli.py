import configparser
import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poretail
from poretail.cli import main
from poretail.reports import (
    ReportParseError,
    read_fit_report,
    read_prediction,
    write_fit_report,
    write_prediction,
)

from conftest import differing_fields, synthetic_fit

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
    def test_simulate_emits_provenance_and_reingests(self, workspace, tmp_path):
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

    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["simulate", *TRUTH_FLAGS, "--seed", "9",
                         "--output", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

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
            config_hash("g", *base, "--geometry-label", "4PB"),
        }
        assert len(hashes) == 4

    def test_manual_mode_requires_value(self, workspace, tmp_path):
        code = main(["fit", "--input", str(workspace / "pores.csv"),
                     "--specimen-id", "S", "--scanned-volume", "200",
                     "--threshold-mode", "manual", "--out-dir", str(tmp_path)])
        assert code == 1


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
            # everything but the echoed seed, sample counts and config hash
            echoed = ("seed", "n_param_samples", "config_sha256")
            return [line for line in path.read_text().splitlines()
                    if not line.lstrip("# ").startswith(echoed)]

        for seed, samples in (("1", "20"), ("2", "999")):
            common = ["--fit", fit, "--seed", seed, "--mode", "all", "--param-samples", samples]
            assert main(["predict", *common, "--volume", "100",
                         "--out-dir", str(tmp_path / seed), "--tag", "p"]) == 0
            assert main(["sweep", *common, "--volumes", "25,100",
                         "--output", str(tmp_path / seed / "sweep.csv")]) == 0
        for name in ("p_cdf.csv", "p_summary.txt", "sweep.csv"):
            assert values(tmp_path / "1" / name) == values(tmp_path / "2" / name)

    def test_seed_mandatory(self, workspace, tmp_path):
        code = main(["predict", "--fit", str(workspace / "run" / "syn_fit.txt"),
                     "--volume", "100", "--out-dir", str(tmp_path)])
        assert code == 1

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
        assert {"seed", "toolkit_version", "config_sha256"} <= set(keys)

    def test_covariance_refusal_is_statistical_error(self, tmp_path):
        fit = synthetic_fit(with_covariance=False)
        path = tmp_path / "fit.txt"
        write_fit_report(fit, path)
        code = main(["predict", "--fit", str(path), "--volume", "10",
                     "--seed", "2", "--mode", "all", "--out-dir", str(tmp_path)])
        assert code == 3


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

    @pytest.mark.parametrize("row", ["12.5", "abc,0.5"])
    def test_malformed_cdf_row_is_data_error(self, workspace, tmp_path, capsys, row):
        prefix = self.copied_prediction(workspace, tmp_path)
        table = tmp_path / "pred_cdf.csv"
        lines = table.read_text().splitlines(keepends=True)
        header = lines.index("edge_um,cdf\n")
        lines[header + 2] = row + "\n"  # the second data row: row 3, below the header
        table.write_text("".join(lines))
        code = main(["compare", "--prediction", str(prefix), "--observed", "41.3",
                     "--output", str(tmp_path / "eq.csv")])
        assert code == 2
        assert f"data error: {table}: row 3: expected 'edge_um,cdf', got {row!r}" in capsys.readouterr().err

    def test_missing_prediction_is_usage_error(self, tmp_path, capsys):
        code = main(["compare", "--prediction", str(tmp_path / "nope"), "--observed", "41.3",
                     "--output", str(tmp_path / "eq.csv")])
        assert code == 1
        assert f"usage error: input path not resolvable: {tmp_path / 'nope_cdf.csv'}" in capsys.readouterr().err

    def test_text_cells_are_quoted(self, tmp_path):
        fit_path = tmp_path / "fit.txt"
        write_fit_report(synthetic_fit(fit_id='A,"B"@20um'), fit_path)
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

        # the heavy-tail probe: the (scale, shape) rule hits its 64-node cap
        write_fit_report(synthetic_fit(shape=0.9, n_exceed=30), tmp_path / "heavy_fit.txt")
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
    ])
    def test_unknown_config_key_is_data_error(self, workspace, tmp_path, capsys, text, named):
        cfg = tmp_path / "typo.ini"
        cfg.write_text(text)
        code = main(["predict", "--config", str(cfg), "--fit",
                     str(workspace / "run" / "syn_fit.txt"), "--volume", "10",
                     "--seed", "1", "--mode", "none", "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"data error: config {cfg}: no command reads {named}" in capsys.readouterr().err

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


class TestReportRoundTrips:
    def test_fit_report_round_trip(self, tmp_path):
        fit = synthetic_fit(shape=-0.2, n_exceed=123)
        path = tmp_path / "fit.txt"
        write_fit_report(fit, path)
        back = read_fit_report(path)
        assert back.params == fit.params
        assert back.n_exceed == fit.n_exceed
        assert np.array_equal(back.covariance, fit.covariance)
        assert back.lambda_above_per_mm3 == fit.lambda_above_per_mm3
        assert np.array_equal(back.empirical_below_um, fit.empirical_below_um)

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
                                 pt.McConfig(seed=1, histogram_bins=64, uncertainty_mode=mode))
        _, summary_path = write_prediction(dist, tmp_path / "pred", provenance={"seed": 1})
        back = read_prediction(tmp_path / "pred")
        assert differing_fields(back, dist) == []
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


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == poretail.__version__


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


SPECIAL_PROBE = """
import sys
from poretail.cli import main

table, fit, out = sys.argv[1:]
loaded = ["scipy.special" in sys.modules]
for argv in (
    ["geom", "--input", table, "--specimen-id", "X", "--scanned-volume", "10",
     "--output", out + "/geom.csv"],
    ["predict", "--fit", fit, "--volume", "10", "--seed", "1", "--mode", "none",
     "--out-dir", out, "--tag", "none"],
    ["compare", "--prediction", out + "/none", "--observed", "25",
     "--output", out + "/compare.csv"],
    ["predict", "--fit", fit, "--volume", "10", "--seed", "1", "--mode", "all",
     "--out-dir", out, "--tag", "all"],
):
    assert main(argv) == 0, argv
    loaded.append("scipy.special" in sys.modules)
print(loaded)
"""


def test_scipy_special_loads_only_for_the_engine_and_synthesis(tmp_path):
    # geom, predict --mode none and compare start on numpy alone
    table = tmp_path / "pores.csv"
    table.write_text(
        "pore_id,volume_um3,surface_area_um2,min_feret_um,max_feret_um\n"
        "p1,15.625,30.0,2.5,5.0\n"
    )
    fit = tmp_path / "fit.txt"
    write_fit_report(synthetic_fit(), fit)
    assert run_probe(SPECIAL_PROBE, table, fit, tmp_path)[-1] == "[False, False, False, False, True]"
