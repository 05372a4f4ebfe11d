"""CLI surface: flags, exit codes, JSON documents against their schemas."""

import json
import math
import subprocess
import sys
from unittest import mock

import jsonschema
import numpy as np
import pytest

from tailtest import CopulaModel, FormatError, RngStream, cli, experiments, ingest
from tailtest.cli import build_parser, main
from tailtest.schemas import get_schema
from .conftest import make_rain_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def simulate_file(capsys, tmp_path, name, theta=0.5, seed=1, n=2000, family="logistic"):
    path = tmp_path / name
    code, doc = run_cli(capsys, "simulate", "--family", family, "--theta", str(theta),
                        "-n", str(n), "--seed", str(seed), "--out", str(path))
    assert code == 0
    return str(path), doc


class TestSimulate:
    def test_writes_sample_and_manifest(self, capsys, tmp_path):
        path, doc = simulate_file(capsys, tmp_path, "a.csv")
        jsonschema.validate(doc, get_schema("simulate"))
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (2000, 2)
        assert data.min() > 0.0 and data.max() < 1.0
        stored = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert stored == doc

    def test_seed_reproducible(self, capsys, tmp_path):
        p1, _ = simulate_file(capsys, tmp_path, "s1.csv", seed=9)
        p2, _ = simulate_file(capsys, tmp_path, "s2.csv", seed=9)
        assert (tmp_path / "s1.csv").read_text() == (tmp_path / "s2.csv").read_text()

    def test_asymmetric_needs_psi(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "simulate", "--family", "asymmetric-logistic",
                          "--theta", "0.5", "-n", "10",
                          "--out", str(tmp_path / "x.csv"))
        assert code == 4

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["float", "int"])
    def test_sample_csv_bytes_match_savetxt(self, tmp_path, d, kind):
        data = np.random.default_rng(d).standard_normal((40, d)) * 1e3
        data[:4, 0] = [1e-300, 1e300, -7.0, 12.0]
        data[4:8, -1] = [-1e-300, -1e300, 0.1, -0.0]
        if kind == "int":
            data = np.round(data[8:]).astype(np.int64)
        header = ",".join(f"x{j + 1}" for j in range(d))
        np.savetxt(tmp_path / "savetxt.csv", data, delimiter=",", header=header, comments="",
                   fmt="%.17g")
        cli._write_sample(str(tmp_path / "sample.csv"), data)
        assert ((tmp_path / "sample.csv").read_bytes()
                == (tmp_path / "savetxt.csv").read_bytes())


class TestStandardize:
    def test_empirical(self, capsys, tmp_path):
        src, _ = simulate_file(capsys, tmp_path, "raw.csv", n=50)
        out = tmp_path / "pseudo.csv"
        code, doc = run_cli(capsys, "standardize", src, "--out", str(out))
        assert code == 0
        jsonschema.validate(doc, get_schema("standardize"))
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.max() == pytest.approx(51.0)

    def test_known(self, capsys, tmp_path):
        src, _ = simulate_file(capsys, tmp_path, "raw2.csv", n=50)
        out = tmp_path / "pareto.csv"
        code, doc = run_cli(capsys, "standardize", src, "--margins", "known",
                            "--known-cdf", "uniform", "--out", str(out))
        assert code == 0
        assert doc["known_cdf"] == "uniform"

    def test_headerless_csv_is_failure(self, capsys, tmp_path):
        # Three rows and no header: the first row must not be read as one.
        bare = tmp_path / "bare.csv"
        bare.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        with pytest.raises(FormatError, match="no header row"):
            cli._read_sample(str(bare))
        code = main(["standardize", str(bare), "--out", str(tmp_path / "out.csv")])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "no header row" in captured.err
        (tmp_path / "headed.csv").write_text("x1,x2\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        assert cli._read_sample(str(tmp_path / "headed.csv")).n == 3


class TestTestCommand:
    def test_same_file_twice_not_rejected(self, capsys, tmp_path):
        src, _ = simulate_file(capsys, tmp_path, "same.csv")
        code, doc = run_cli(capsys, "test", src, src, "--risk", "l2", "--sets", "4",
                            "--k-exceedances", "200", "--margins", "empirical",
                            "--bootstrap", "150", "--seed", "7")
        assert code == 0
        assert doc["statistic"] == 0.0
        jsonschema.validate(doc, get_schema("test"))

    def test_clear_alternative_rejected_exit_3(self, capsys, tmp_path):
        x, _ = simulate_file(capsys, tmp_path, "x.csv", theta=0.3, seed=2)
        y, _ = simulate_file(capsys, tmp_path, "y.csv", theta=0.9, seed=3)
        code, doc = run_cli(capsys, "test", x, y, "--risk", "l2", "--sets", "5",
                            "--k-exceedances", "200", "--margins", "known",
                            "--known-cdf", "uniform", "--seed", "5")
        assert code == 3
        assert doc["reject"] is True
        jsonschema.validate(doc, get_schema("test"))

    def test_exceedance_rule_flag_removed(self, capsys, tmp_path):
        # The bootstrap has one exceedance rule, so there is no flag to pick one.
        src, _ = simulate_file(capsys, tmp_path, "u.csv", n=100)
        code = main(["test", src, src, "--sets", "4", "--k-exceedances", "10",
                     "--bootstrap-exceedances", "same"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --bootstrap-exceedances" in captured.err

    def test_sets_one_is_usage_error(self, capsys, tmp_path):
        src, _ = simulate_file(capsys, tmp_path, "u.csv", n=100)
        code = main(["test", src, src, "--sets", "1", "--k-exceedances", "10"])
        assert code == 2

    def test_angular_risk_without_sets_is_usage_error(self, capsys, tmp_path):
        src, _ = simulate_file(capsys, tmp_path, "u.csv", n=100)
        code = main(["test", src, src, "--risk", "l2", "--k-exceedances", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "need --sets" in captured.err

    def test_non_finite_csv_is_failure(self, capsys, tmp_path):
        src, _ = simulate_file(capsys, tmp_path, "good.csv", n=400)
        bad = tmp_path / "bad.csv"
        lines = (tmp_path / "good.csv").read_text().splitlines()
        lines[4] = "nan," + lines[4].split(",")[1]
        bad.write_text("\n".join(lines) + "\n")
        code, doc = run_cli(capsys, "test", str(bad), src, "--risk", "l2", "--sets", "4",
                            "--k-exceedances", "40", "--margins", "empirical",
                            "--bootstrap", "100")
        assert code == 4
        assert doc is None

    def test_missing_file_is_failure(self, capsys):
        code, _ = run_cli(capsys, "test", "/nonexistent/a.csv", "/nonexistent/b.csv",
                          "--sets", "4", "--k-exceedances", "10")
        assert code == 4

    def test_rainfall_unreadable_file_is_failure(self, capsys, tmp_path):
        # A missing path, a directory and non-UTF-8 bytes fail at the boundary.
        garbage = tmp_path / "garbage.csv"
        garbage.write_bytes(bytes(RngStream(8).permutation(256).astype(np.uint8)) * 16)
        for path in (tmp_path / "missing.csv", tmp_path, garbage):
            code = main(["rainfall", str(path), "--sets", "4", "--k-exceedances", "50",
                         "--outdir", str(tmp_path / "out")])
            captured = capsys.readouterr()
            assert code == 4
            assert captured.out == ""
            assert captured.err.startswith("tailtest: error: ")
            assert str(path) in captured.err

    def test_independence_coverage_over_seeds(self, capsys, tmp_path):
        # theta = 1 logistic pairs are independent; at level 0.05 the known-margin
        # test keeps H0 in at least 91 of 100 seeded runs (99% binomial band).
        not_rejected = 0
        for seed in range(100):
            x, _ = simulate_file(capsys, tmp_path, f"ix{seed}.csv", theta=1.0,
                                 seed=1000 + seed)
            y, _ = simulate_file(capsys, tmp_path, f"iy{seed}.csv", theta=1.0,
                                 seed=2000 + seed)
            code, _doc = run_cli(capsys, "test", x, y, "--risk", "l2", "--sets", "4",
                                 "--k-exceedances", "200", "--margins", "known",
                                 "--known-cdf", "uniform")
            assert code in (0, 3)
            not_rejected += code == 0
        assert not_rejected >= 91

    def test_report_out_file(self, capsys, tmp_path):
        src, _ = simulate_file(capsys, tmp_path, "o.csv", n=600)
        dest = tmp_path / "report.json"
        code, doc = run_cli(capsys, "test", src, src, "--sets", "4",
                            "--k-exceedances", "60", "--margins", "empirical",
                            "--bootstrap", "120", "--out", str(dest))
        assert code == 0
        assert json.loads(dest.read_text()) == doc


class TestPowerCommand:
    def test_k_grid_study(self, capsys, tmp_path):
        code, doc = run_cli(capsys, "power", "--family-x", "logistic", "--theta-x", "0.45",
                            "--family-y", "logistic", "--theta-y", "0.45",
                            "-n", "400", "--reps", "10", "--k-grid", "40,80",
                            "--risk", "l2", "--sets", "4", "--margins", "known",
                            "--seed", "3", "--workers", "1",
                            "--outdir", str(tmp_path / "power"))
        assert code == 0
        jsonschema.validate(doc, get_schema("power"))
        rows = (tmp_path / "power" / "power.csv").read_text().splitlines()
        assert len(rows) == 1 + 10
        stored = json.loads((tmp_path / "power" / "power_manifest.json").read_text())
        assert stored == doc
        jsonschema.validate(stored, get_schema("power"))

    def test_set_grid_study(self, capsys, tmp_path):
        code, doc = run_cli(capsys, "power", "--family-x", "outer-power-clayton",
                            "--theta-x", "0.45", "--family-y", "outer-power-clayton",
                            "--theta-y", "0.7", "-n", "500", "--reps", "8",
                            "--set-grid", "2,4", "--k-exceedances", "50",
                            "--margins", "known", "--seed", "4", "--workers", "1",
                            "--outdir", str(tmp_path / "ksets"))
        assert code == 0
        jsonschema.validate(doc, get_schema("power"))
        text = (tmp_path / "ksets" / "ksets.csv").read_text()
        assert "baseline" in text
        stored = json.loads((tmp_path / "ksets" / "ksets_manifest.json").read_text())
        assert stored == doc
        jsonschema.validate(stored, get_schema("power"))

    def test_missing_sets_for_k_grid_is_usage_error(self, capsys):
        code = main(["power", "--family-x", "logistic", "--theta-x", "0.5",
                     "--family-y", "logistic", "--theta-y", "0.5", "-n", "100",
                     "--reps", "2", "--k-grid", "10", "--margins", "known"])
        assert code == 2

    def test_outdir_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TAILTEST_OUTDIR", str(tmp_path / "envout"))
        code, doc = run_cli(capsys, "power", "--family-x", "logistic", "--theta-x", "0.5",
                            "--family-y", "logistic", "--theta-y", "0.5",
                            "-n", "300", "--reps", "4", "--k-grid", "30",
                            "--risk", "max", "--margins", "known", "--workers", "1")
        assert code == 0
        assert (tmp_path / "envout" / "power.csv").exists()

    @pytest.mark.parametrize("flags", [
        ("-n", "100", "--k-grid", "50,200", "--sets", "4", "--margins", "known"),
        ("-n", "300", "--k-grid", "40,80", "--sets", "4", "--margins", "empirical"),
        ("-n", "600", "--k-grid", "40", "--sets", "4", "--margins", "empirical",
         "--bootstrap", "50"),
        ("-n", "300", "--set-grid", "2,4", "--k-exceedances", "300", "--margins", "known"),
        ("-n", "600", "--k-grid", "40", "--sets", "4", "--margins", "known", "--workers", "0"),
    ])
    def test_bad_sizes_fail_before_sampling(self, capsys, tmp_path, flags):
        with mock.patch.object(experiments, "sample", side_effect=AssertionError("sampled")):
            code = main(["power", "--family-x", "logistic", "--theta-x", "0.5",
                         "--family-y", "logistic", "--theta-y", "0.5", "--reps", "2",
                         *flags, "--outdir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("tailtest: error: ")

    @pytest.mark.parametrize("flags, message", [
        (("--k-grid", "20,40", "--sets", "4", "--k-exceedances", "300"),
         "k_exceedances must not be set"),
        (("--set-grid", "2,3", "--k-exceedances", "40", "--sets", "7"),
         "num_cells must not be set"),
    ])
    def test_other_studys_fixed_value_rejected(self, capsys, tmp_path, flags, message):
        # The study never reads the other study's fixed value, so accepting it would
        # ignore it silently and still write it into the manifest.
        with mock.patch.object(experiments, "sample", side_effect=AssertionError("sampled")):
            code = main(["power", "--family-x", "logistic", "--theta-x", "0.5",
                         "--family-y", "logistic", "--theta-y", "0.5", "-n", "400",
                         "--reps", "2", "--margins", "known", "--workers", "1", *flags,
                         "--outdir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert message in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--bootstrap-source", "symmetric"),
                                             ("--known-cdf", "uniform")])
    def test_test_only_flags_rejected(self, capsys, tmp_path, flag, value):
        # The study does not read these, so accepting them would ignore them silently.
        with mock.patch.object(experiments, "sample", side_effect=AssertionError("sampled")):
            code = main(["power", "--family-x", "logistic", "--theta-x", "0.5",
                         "--family-y", "logistic", "--theta-y", "0.5", "-n", "400",
                         "--reps", "2", "--k-grid", "40", "--sets", "4", "--workers", "1",
                         flag, value, "--outdir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err


class TestNullsCommand:
    def test_outputs(self, capsys, tmp_path):
        code, doc = run_cli(capsys, "nulls", "--family", "outer-power-clayton",
                            "--theta", "0.45", "-n", "600", "--k-exceedances", "60",
                            "--sets", "4", "--bootstrap", "60", "--seed", "2",
                            "--outdir", str(tmp_path))
        assert code == 0
        jsonschema.validate(doc, get_schema("nulls"))
        assert (tmp_path / "null_replicates.csv").exists()
        stored = json.loads((tmp_path / "nulls_manifest.json").read_text())
        assert stored == doc
        jsonschema.validate(stored, get_schema("nulls"))

    @pytest.mark.parametrize("flags", [
        ("-n", "600", "--k-exceedances", "60", "--bootstrap", "0"),
        ("-n", "600", "--k-exceedances", "60", "--bootstrap", "-5"),
        ("-n", "600", "--k-exceedances", "0", "--bootstrap", "60"),
        ("-n", "400", "--k-exceedances", "400", "--bootstrap", "60"),
    ])
    def test_bad_sizes_fail_before_sampling(self, capsys, tmp_path, flags):
        with mock.patch.object(experiments, "sample", side_effect=AssertionError("sampled")):
            code = main(["nulls", "--family", "logistic", "--theta", "0.5", "--sets", "4",
                         *flags, "--outdir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("tailtest: error: ")


class TestRainfallCommand:
    @pytest.fixture
    def rainfall_csv(self, tmp_path):
        series = make_rain_series({
            "DJF": (520, CopulaModel("outer_power_clayton", 0.3)),
            "MAM": (520, CopulaModel("outer_power_clayton", 0.7)),
        }, seed=77)
        lines = ["timestamp,depth"]
        for ts, depth in zip(series.timestamps, series.depths):
            lines.append(f"{ts},{depth:.6f}")
        path = tmp_path / "rain.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_end_to_end(self, capsys, tmp_path, rainfall_csv):
        code, doc = run_cli(capsys, "rainfall", rainfall_csv, "--sets", "4",
                            "--k-exceedances", "120", "--bootstrap", "200",
                            "--seed", "5", "--outdir", str(tmp_path / "rain_out"))
        jsonschema.validate(doc, get_schema("rainfall"))
        assert doc["seasons"]["DJF"]["days"] == 520
        assert doc["seasons"]["JJA"]["error"] is not None
        pair = doc["pairs"]["DJF_MAM"]
        assert pair["error"] is None
        assert pair["reject"] is True
        assert (tmp_path / "rain_out" / "pairs_DJF.csv").exists()
        report = json.loads((tmp_path / "rain_out" / "report_DJF_MAM.json").read_text())
        assert report["reject"] is True
        # A pair rejects, yet the command exits 0: the six pairs are one family
        # of tests, and until their p-values are adjusted together the exit
        # code does not report their decisions.
        assert code == 0


    def test_angular_risk_without_sets_is_usage_error(self, capsys, tmp_path, rainfall_csv):
        code = main(["rainfall", rainfall_csv, "--risk", "l2", "--k-exceedances", "120",
                     "--outdir", str(tmp_path / "rain_out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "need --sets" in captured.err
        assert not (tmp_path / "rain_out").exists()

    def test_unbuildable_partition_fails_once(self, capsys, tmp_path, rainfall_csv):
        # The 2-D max partition has 3 cells: one error for the run, not one per season pair.
        code = main(["rainfall", rainfall_csv, "--risk", "max", "--sets", "4",
                     "--k-exceedances", "120", "--bootstrap", "100",
                     "--outdir", str(tmp_path / "rain_out")])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("tailtest: error: ")
        assert captured.err.count("\n") == 1 and "num_cells=4" in captured.err
        assert not (tmp_path / "rain_out" / "rainfall_summary.json").exists()

    def test_offset_stamps_leaving_utc_years_are_malformed_rows(self, capsys, tmp_path,
                                                                 rainfall_csv):
        with open(rainfall_csv, "a") as fh:
            fh.write("0001-01-01T00:00+01:00,1.0\n9999-12-31T23:54-01:00,1.0\n")
        code, doc = run_cli(capsys, "rainfall", rainfall_csv, "--sets", "4",
                            "--k-exceedances", "120", "--bootstrap", "100",
                            "--seed", "6", "--outdir", str(tmp_path / "rain_out"))
        assert code == 0
        assert doc["seasons"]["DJF"] == {"days": 520, "error": None}
        assert doc["pairs"]["DJF_MAM"]["error"] is None

    def test_keep_incomplete_days(self, capsys, tmp_path, rainfall_csv):
        # Mask the first slot of 2006-01-01 and remove slots 15-19 of
        # 2006-01-02: both days stay, with maxima over their unmasked slots.
        header, *rows = open(rainfall_csv).read().splitlines()
        assert rows[0].startswith("2006-01-01T00:00") and rows[240].startswith("2006-01-02")
        rows[0] = rows[0].split(",")[0] + ","
        del rows[240 + 15:240 + 20]
        with open(rainfall_csv, "w") as fh:
            fh.write("\n".join([header, *rows]) + "\n")
        day1 = [float(row.split(",")[1]) for row in rows[10:20]]
        day2 = [float(row.split(",")[1]) for row in rows[240:240 + 15]]
        expected = [[max(day1), math.fsum(day1)],
                    [max(day2), max(day2[0], math.fsum(day2[10:15]))]]
        days = {}
        for flags in ([], ["--keep-incomplete-days"]):
            outdir = tmp_path / f"out{len(flags)}"
            code, doc = run_cli(capsys, "rainfall", rainfall_csv, "--sets", "4",
                                "--k-exceedances", "120", "--bootstrap", "100",
                                "--seed", "6", "--outdir", str(outdir), *flags)
            assert code in (0, 3)
            days[len(flags)] = doc["seasons"]["DJF"]["days"]
        assert days == {0: 518, 1: 520}
        kept = np.loadtxt(tmp_path / "out1" / "pairs_DJF.csv", delimiter=",", skiprows=1)
        assert kept[:2] == pytest.approx(np.array(expected), rel=1e-12)

    def test_builds_each_season_once(self, capsys, tmp_path, rainfall_csv):
        with mock.patch.object(ingest, "build_pairs", wraps=ingest.build_pairs) as spy:
            code, doc = run_cli(capsys, "rainfall", rainfall_csv, "--sets", "4",
                                "--k-exceedances", "120", "--bootstrap", "100",
                                "--seed", "6", "--outdir", str(tmp_path / "rain_out"))
        assert code in (0, 3)
        assert spy.call_count == 1
        assert doc["seasons"]["MAM"] == {"days": 520, "error": None}
        assert doc["seasons"]["SON"]["error"] is not None


class TestSharedFlags:
    @staticmethod
    def _flag(command, dest):
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        return next((a for a in subparsers.choices[command]._actions if a.dest == dest), None)

    def test_bootstrap_flag_is_the_same_everywhere(self):
        flags = [self._flag(command, "bootstrap") for command in ("test", "power", "nulls", "rainfall")]
        assert {(a.option_strings[0], a.type, a.default, a.help) for a in flags} == {
            ("--bootstrap", int, 1000, flags[0].help)}
        assert "bootstrap replicates" in flags[0].help

    def test_margins_flag_only_where_read(self):
        for command in ("standardize", "test", "power"):
            margins = self._flag(command, "margins")
            assert (margins.default, margins.choices) == ("empirical", ["known", "empirical"])
        assert self._flag("nulls", "margins") is None
        assert self._flag("rainfall", "margins") is None


class TestEntryPoint:
    def test_console_script_smoke(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "tailtest.cli", "simulate", "--family", "logistic",
             "--theta", "0.5", "-n", "20", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        jsonschema.validate(doc, get_schema("simulate"))
        assert out.exists()

    def test_bad_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tailtest.cli", "test", "--no-such-flag"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
