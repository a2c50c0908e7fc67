import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dopplerkb
import dopplerkb.cli
from dopplerkb import GasConditions, ScanConfig, Transition, constants, synth_spectrum
from dopplerkb.cli import main
from dopplerkb.fileio import (
    read_fit_records,
    read_regression_summary,
    read_spectrum,
    write_spectrum,
)

NH3 = Transition.nh3()


def write_config(tmp_path, **overrides):
    cfg = {
        "pressures_pa": [0.2, 0.6, 1.2, 2.0, 3.2, 5.0, 7.5, 10.0],
        "replicas": 1,
        "seed": 42,
        "snr": 1000.0,
    }
    cfg.update(overrides)
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(cfg))
    return path


def run(*args):
    return main([str(a) for a in args])


class TestSimulate:
    def test_writes_series_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, pressures_pa=[0.5, 2.0, 8.0])
        out = tmp_path / "spectra"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        files = sorted(out.glob("spectrum_*.txt"))
        assert len(files) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 42
        spectrum = read_spectrum(files[0])
        assert spectrum.meta.pressure_pa == 0.5

    def test_same_seed_identical_files(self, tmp_path):
        cfg = write_config(tmp_path, pressures_pa=[1.0, 4.0])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", cfg, "--out", out1) == 0
        assert run("simulate", "--config", cfg, "--out", out2) == 0
        for f1, f2 in zip(sorted(out1.glob("*.txt")), sorted(out2.glob("*.txt"))):
            assert f1.read_text() == f2.read_text()
        assert (out1 / "manifest.json").read_text() == (out2 / "manifest.json").read_text()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, pressures_pa=[1.0])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", cfg, "--out", out1) == 0
        assert run("simulate", "--config", cfg, "--out", out2, "--seed", 7) == 0
        f1, f2 = next(out1.glob("*.txt")), next(out2.glob("*.txt"))
        assert f1.read_text() != f2.read_text()

    def test_no_noise_flag(self, tmp_path):
        cfg = write_config(tmp_path, pressures_pa=[1.0])
        out = tmp_path / "clean"
        assert run("simulate", "--config", cfg, "--out", out, "--no-noise") == 0
        spectrum = read_spectrum(next(out.glob("*.txt")))
        assert math.isinf(spectrum.meta.snr)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"snrr": 5}))
        assert run("simulate", "--config", path, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and err.count("\n") == 1


class TestFitSeriesKb:
    @pytest.fixture()
    def spectra_dir(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "spectra"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        return out

    def test_full_pipeline_noiseless_round_trip(self, tmp_path):
        # simulate -> fit -> series -> kb through files only; the recovered
        # kb must equal kb_true to 1e-6 (gamma = 0 keeps the Gaussian model
        # exact; the Voigt-model variant is exercised in the acceptance suite)
        cfg = write_config(tmp_path, snr=None, pressure_broadening_mhz_per_pa=0.0)
        spectra = tmp_path / "spectra"
        fits = tmp_path / "fits.jsonl"
        summary = tmp_path / "summary.json"
        table = tmp_path / "table.txt"
        kb_out = tmp_path / "kb.json"
        assert run("simulate", "--config", cfg, "--out", spectra) == 0
        assert run("fit", spectra, "--out", fits) == 0
        assert run("series", "--fits", fits, "--out-summary", summary,
                   "--out-table", table) == 0
        assert run("kb", "--summary", summary, "--config", cfg, "--out", kb_out) == 0
        record = json.loads(kb_out.read_text())
        assert record["kb_j_per_k"] == pytest.approx(constants.KB_CODATA_2002, rel=1e-6)

    def test_fit_writes_records(self, tmp_path, spectra_dir):
        fits = tmp_path / "fits.jsonl"
        assert run("fit", spectra_dir, "--out", fits) == 0
        records = read_fit_records(fits)
        assert len(records) == 8
        assert all(r.converged for r in records)
        assert records[0].source_id.startswith("spectrum_")

    def test_series_writes_summary_and_table(self, tmp_path, spectra_dir):
        fits = tmp_path / "fits.jsonl"
        summary = tmp_path / "summary.json"
        table = tmp_path / "table.txt"
        assert run("fit", spectra_dir, "--out", fits) == 0
        assert run("series", "--fits", fits, "--out-summary", summary,
                   "--out-table", table) == 0
        rec = read_regression_summary(summary)
        assert rec["n_used"] + rec["n_rejected"] == 8
        rows = [l for l in table.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 8

    def test_threshold_flag_respected(self, tmp_path, spectra_dir):
        fits = tmp_path / "fits.jsonl"
        summary = tmp_path / "summary.json"
        assert run("fit", spectra_dir, "--out", fits) == 0
        code = run("series", "--fits", fits, "--out-summary", summary,
                   "--out-table", tmp_path / "t.txt", "--threshold-slope", 1e30)
        assert code == 0
        assert read_regression_summary(summary)["n_rejected"] == 0

    def test_unconverged_fits_exit_3(self, tmp_path, spectra_dir, capsys):
        fits = tmp_path / "fits.jsonl"
        assert run("fit", spectra_dir, "--out", fits, "--max-iter", 1) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: fit:")
        # records are still written, flagged unconverged
        records = read_fit_records(fits)
        assert all(not r.converged for r in records)

    def test_usage_error_exits_1(self, capsys):
        assert run("fit") == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_unknown_command_exits_1(self, capsys):
        assert run("frobnicate") == 1

    def test_missing_spectrum_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nope.txt"
        path.write_text("garbage\n")
        assert run("fit", path, "--out", tmp_path / "f.jsonl") == 2

    def test_degenerate_fit_before_a_bad_file_exits_3(self, tmp_path, capsys):
        # errors surface in file order: the degenerate fit of the first file
        # is reported, not the unreadable second file
        scan = ScanConfig(center_mhz=NH3.nu0_mhz, snr=1000.0)
        spectrum, _ = synth_spectrum(NH3, GasConditions(pressure_pa=0.01), scan,
                                     constants.KB_CODATA_2002, 1)
        write_spectrum(spectrum, tmp_path / "spectrum_000.txt")
        (tmp_path / "spectrum_001.txt").write_text("garbage\n")
        assert run("fit", tmp_path, "--out", tmp_path / "f.jsonl") == 3
        assert "degenerate" in capsys.readouterr().err


class TestBudgetCommands:
    def test_budget_command(self, tmp_path, capsys):
        out = tmp_path / "kb.json"
        code = run("budget", "--delta-d-mhz", 49.8831, "--delta-d-sigma-mhz",
                   9.5e-5 * 49.8831, "--temperature-sigma-k", 7e-5 * 273.15,
                   "--mass-sigma-rel", 0, "--nu-sigma-rel", 0, "--out", out)
        assert code == 0
        text = capsys.readouterr().out
        assert "combined" in text
        record = json.loads(out.read_text())
        assert record["budget_relative"]["width"] == pytest.approx(1.9e-4, rel=1e-12)

    def test_reproduce_paper(self, capsys):
        assert run("reproduce-paper") == 0
        text = capsys.readouterr().out
        assert "k_B = 1.38065" in text
        assert "published: k_B = 1.38065e-23 +/- 2.6e-27 J/K, relative 1.9e-04" in text
        # computed value agrees with the published one well inside its sigma
        assert "agreement:" in text


class TestProcessContract:
    def test_internal_error_exits_4(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(dopplerkb.cli, "uncertainty_budget", broken)
        assert run("budget", "--delta-d-mhz", 49.88, "--delta-d-sigma-mhz", 0.005) == 4
        assert capsys.readouterr().err == "error: internal: boom\n"

    def test_exit_codes_documented(self):
        assert "4 internal error" in " ".join(dopplerkb.cli.__doc__.split())

    def test_fit_help_names_the_real_default_model(self, capsys):
        assert run("fit", "--help") == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "from config" not in text
        assert "default: exp-gaussian" in text

    def test_import_does_not_load_scipy_special(self):
        src = str(Path(dopplerkb.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = "import sys, dopplerkb.cli; print('scipy.special' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout.strip() == "False"
