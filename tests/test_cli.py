import errno
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
from dopplerkb import (
    GasConditions,
    HyperfineStructure,
    ScanConfig,
    Transition,
    constants,
    synth_series,
    synth_spectrum,
)
from dopplerkb.cli import main
from dopplerkb.config import CampaignConfig, load_config
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

    @pytest.mark.parametrize("overrides, args, key", [
        ({"pressures_pa": [50.0]}, (), "pressures_pa"),
        ({"seed": -1}, (), "seed"),
        ({}, ("--seed", -5), "seed"),
        ({"kb_true": -1}, (), "kb_true"),
        ({"temperature_k": 1e305}, (), "temperature_k"),
        ({"mass_sigma_rel": -1}, (), "mass_sigma_rel"),
        ({"nu_sigma_rel": -1}, (), "nu_sigma_rel"),
        ({"hyperfine_file": "nope.txt"}, (), "hyperfine_file"),
        ({"transition": {"label": "a\nb"}}, (), "transition"),
        ({"cell_length_m": -1}, (), "cell_length_m"),
        ({"scan": {"time_constant_ms": 20}}, (), "scan.time_constant_ms"),  # not a key
    ])
    def test_value_out_of_range_exits_2_naming_the_key(self, tmp_path, capsys, overrides,
                                                        args, key):
        cfg = write_config(tmp_path, **overrides)
        assert run("simulate", "--config", cfg, "--out", tmp_path / "x", *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: config:") and key in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text, key", [
        ('{"transition": {"mass_u": 1e400}}', "transition.mass_u"),
        ('{"transition": {"nu0_mhz": 1e400}}', "transition.nu0_mhz"),
        ('{"scan": {"span_mhz": 1e400}}', "scan.span_mhz"),
        ('{"temperature_k": NaN}', "temperature_k"),
    ])
    def test_non_finite_number_exits_2_naming_the_key(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "campaign.json"
        cfg.write_text(text)
        assert run("simulate", "--config", cfg, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err.startswith(f"error: data: config: bad value for '{key}'")
        assert not (tmp_path / "x").exists()

    def test_hyperfine_file_is_relative_to_the_config_file(self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "hf.txt").write_text("-0.04 1\n0.0 2\n0.06 1\n")
        config = {"pressures_pa": [1.0], "hyperfine_file": "hf.txt"}
        (sub / "c.json").write_text(json.dumps(config))
        monkeypatch.chdir(tmp_path)
        assert run("simulate", "--config", "sub/c.json", "--out", "outer") == 0
        monkeypatch.chdir(sub)
        assert run("simulate", "--config", "c.json", "--out", "inner") == 0
        outer, inner = tmp_path / "outer", sub / "inner"
        for out, recorded in ((outer, str(Path("sub", "hf.txt"))), (inner, "hf.txt")):
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["hyperfine_file"] == recorded
        name = "spectrum_p00_r000.txt"
        assert (outer / name).read_bytes() == (inner / name).read_bytes()

    def test_files_follow_the_library_seed_rule(self, tmp_path):
        # replica r of pressure i is entry i * replicas + r of synth_series
        # over the pressure-major expansion of the config's pressures
        hf = tmp_path / "hf.txt"
        hf.write_text("-0.04 1\n0.0 2\n0.06 1\n")
        pressures = [0.5, 2.0, 6.0]
        cfg_path = write_config(tmp_path, pressures_pa=pressures, replicas=3,
                                hyperfine_file=str(hf))
        out = tmp_path / "cli"
        assert run("simulate", "--config", cfg_path, "--out", out) == 0
        cfg = load_config(cfg_path)
        expanded = [p for p in pressures for _ in range(3)]
        series = synth_series(NH3, expanded, cfg.conditions(expanded[0]), cfg.scan(),
                              cfg.kb_true, cfg.seed,
                              hyperfine=HyperfineStructure.from_file(hf),
                              temperature_sigma_k=cfg.temperature_sigma_k,
                              cell_length_m=cfg.cell_length_m)
        files = sorted(out.glob("spectrum_*.txt"))
        assert [f.name for f in files] == [f"spectrum_p{i:02d}_r{r:03d}.txt"
                                           for i in range(3) for r in range(3)]
        for k, (path, (spectrum, _)) in enumerate(zip(files, series)):
            expected = tmp_path / f"lib_{k}.txt"
            write_spectrum(spectrum, expected)
            assert path.read_bytes() == expected.read_bytes()


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

    def test_series_counts_unconverged_fits(self, tmp_path, spectra_dir, capsys):
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        assert run("fit", spectra_dir, "--out", good) == 0
        assert run("fit", spectra_dir, "--out", bad, "--max-iter", 1) == 3
        fits = tmp_path / "fits.jsonl"
        fits.write_text(good.read_text() + bad.read_text())
        summary = tmp_path / "summary.json"
        capsys.readouterr()
        assert run("series", "--fits", fits, "--out-summary", summary,
                   "--out-table", tmp_path / "t.txt") == 0
        rec = read_regression_summary(summary)
        assert rec["n_unconverged"] == 8
        assert rec["n_used"] + rec["n_rejected"] == 8
        assert "unconverged 8)" in capsys.readouterr().out

    @pytest.mark.parametrize("stage, option, value", [
        ("fit", "--max-iter", 0),
        ("series", "--threshold-slope", -1.0),
        ("series", "--threshold-slope", math.nan),
        ("series", "--threshold-slope", math.inf),
    ])
    def test_option_out_of_range_exits_2_naming_it(self, tmp_path, spectra_dir, capsys, stage,
                                                   option, value):
        fits, out = tmp_path / "fits.jsonl", tmp_path / "out.json"
        if stage == "fit":
            args = ("fit", spectra_dir, "--out", out)
        else:
            assert run("fit", spectra_dir, "--out", fits) == 0
            args = ("series", "--fits", fits, "--out-summary", out, "--out-table", tmp_path / "t")
        capsys.readouterr()
        assert run(*args, option, value) == 2
        assert capsys.readouterr().err.startswith(f"error: data: {option}:")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("converged", "no"),
                                            ("params", {"delta_mhz": "49.9"}),
                                            ("covariance", "12")])
    def test_series_refuses_a_mistyped_fit_record_value(self, tmp_path, spectra_dir, capsys,
                                                        key, value):
        # bool("no") is true: a string flag must not pass as a converged fit
        fits, out = tmp_path / "fits.jsonl", tmp_path / "summary.json"
        assert run("fit", spectra_dir, "--out", fits) == 0
        lines = fits.read_text().splitlines()
        record = json.loads(lines[2])
        record[key] = {**record[key], **value} if isinstance(value, dict) else value
        lines[2] = json.dumps(record)
        fits.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("series", "--fits", fits, "--out-summary", out,
                   "--out-table", tmp_path / "t.txt") == 2
        assert capsys.readouterr().err.startswith(
            f"error: data: {fits}: line 3: bad value for '{key}'")
        assert not out.exists()

    @staticmethod
    def edit_records(fits, edit, indices=None):
        """Apply ``edit`` to the fit records at ``indices`` (all by default)."""
        records = [json.loads(line) for line in fits.read_text().splitlines()]
        for i in range(len(records)) if indices is None else indices:
            edit(records[i])
        fits.write_text("".join(json.dumps(r) + "\n" for r in records))

    @pytest.mark.parametrize("key, index, value, indices, message", [
        # the covariance diagonal carries the squared sigmas
        ("covariance", 1, 0.0, [2], "fit 'spectrum_p02_r000.txt': width sigma must be positive"),
        ("covariance", 4, 0.0, None, "median slope sigma of the converged fits is 0.0"),
        ("params", "delta_mhz", -49.9, [5],
         "fit 'spectrum_p05_r000.txt': width must be positive"),
    ], ids=["width-sigma-0", "every-slope-sigma-0", "negative-width"])
    def test_series_refuses_a_non_positive_width_or_sigma(self, tmp_path, spectra_dir, capsys,
                                                          key, index, value, indices, message):
        fits, out = tmp_path / "fits.jsonl", tmp_path / "summary.json"
        assert run("fit", spectra_dir, "--out", fits) == 0

        def edit(record):
            if key == "covariance":
                record[key][index][index] = value
            else:
                record[key][index] = value

        self.edit_records(fits, edit, indices)
        capsys.readouterr()
        assert run("series", "--fits", fits, "--out-summary", out,
                   "--out-table", tmp_path / "t.txt") == 2
        assert capsys.readouterr().err.startswith(f"error: data: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("change, key", [
        ("drop delta_mhz", "params"),
        ("relabel exp-voigt", "params"),
        ("covariance 4 x 4", "covariance"),
    ])
    def test_series_refuses_a_record_that_disagrees_with_its_model(
            self, tmp_path, spectra_dir, capsys, change, key):
        fits, out = tmp_path / "fits.jsonl", tmp_path / "summary.json"
        assert run("fit", spectra_dir, "--out", fits) == 0

        def edit(record):
            if change == "drop delta_mhz":
                del record["params"]["delta_mhz"]
            elif change == "relabel exp-voigt":
                record["model"] = "exp-voigt"
            else:
                record["covariance"] = [row[:4] for row in record["covariance"][:4]]

        self.edit_records(fits, edit, [2])
        capsys.readouterr()
        assert run("series", "--fits", fits, "--out-summary", out,
                   "--out-table", tmp_path / "t.txt") == 2
        assert capsys.readouterr().err.startswith(
            f"error: data: {fits}: line 3: bad value for '{key}'")
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("delta_d_mhz", -1), ("delta_d_mhz", "x"),
                                              ("delta_d_sigma_mhz", math.nan)])
    def test_kb_refuses_a_bad_summary_value_naming_the_field(self, tmp_path, capsys, field,
                                                             value):
        summary, out = tmp_path / "summary.json", tmp_path / "kb.json"
        summary.write_text(json.dumps({"delta_d_mhz": 49.88, "delta_d_sigma_mhz": 0.005,
                                       field: value}))
        assert run("kb", "--summary", summary, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: data: {summary}: field '{field}'")
        assert not out.exists()

    def test_kb_refuses_a_width_whose_kb_overflows_naming_the_summary(self, tmp_path, capsys):
        summary, out = tmp_path / "summary.json", tmp_path / "kb.json"
        summary.write_text(json.dumps({"delta_d_mhz": 1e300, "delta_d_sigma_mhz": 0.005}))
        assert run("kb", "--summary", summary, "--out", out) == 2
        assert capsys.readouterr().err.startswith(
            f"error: data: {summary}: k_B must be positive and finite, got inf")
        assert not out.exists()

    def test_usage_error_exits_1(self, capsys):
        assert run("fit") == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_unknown_command_exits_1(self, capsys):
        assert run("frobnicate") == 1

    @pytest.mark.parametrize("line", ["# temperature_k: -1", "# nu0_mhz: nan",
                                      "# pressure_pa: -3"])
    def test_fit_refuses_a_header_value_the_metadata_refuses(self, tmp_path, spectra_dir,
                                                               capsys, line):
        path = sorted(spectra_dir.glob("spectrum_*.txt"))[1]
        field = line.split()[1]
        path.write_text("\n".join(line if l.startswith(field, 2) else l
                                  for l in path.read_text().splitlines()) + "\n")
        assert run("fit", spectra_dir, "--out", tmp_path / "f.jsonl") == 2
        assert capsys.readouterr().err.startswith(f"error: data: {path}: ")

    @pytest.mark.parametrize("old, new", [
        ("# columns: frequency_offset_mhz transmission",
         "# columns: transmission frequency_offset_mhz"),
        ("# dopplerkb-spectrum v2", "# dopplerkb-spectrumv2"),
    ])
    def test_fit_refuses_a_header_line_naming_it(self, tmp_path, spectra_dir, capsys, old, new):
        path = sorted(spectra_dir.glob("spectrum_*.txt"))[1]
        lines = path.read_text().splitlines()
        at = lines.index(old)
        lines[at] = new
        path.write_text("\n".join(lines) + "\n")
        assert run("fit", spectra_dir, "--out", tmp_path / "f.jsonl") == 2
        assert capsys.readouterr().err.startswith(f"error: data: {path}: line {at + 1}: ")

    @pytest.mark.parametrize("args", [
        ("fit", "bad.txt", "--out", "f.jsonl"),
        ("series", "--fits", "bad.txt", "--out-summary", "s.json", "--out-table", "t.txt"),
        ("kb", "--summary", "bad.txt", "--out", "kb.json"),
        ("simulate", "--config", "bad.txt", "--out", "spectra"),
        ("simulate", "--config", "hf.json", "--out", "spectra"),
    ], ids=["spectrum", "fit records", "summary", "config", "hyperfine table"])
    def test_file_that_is_not_utf8_exits_2_naming_it(self, tmp_path, monkeypatch, capsys,
                                                     args):
        monkeypatch.chdir(tmp_path)
        Path("bad.txt").write_bytes(b"\x89PNG\r\n\x1a\n")
        Path("hf.json").write_text(json.dumps({"hyperfine_file": "bad.txt"}))
        assert run(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and "bad.txt: not a UTF-8 text file" in err
        assert sorted(os.listdir()) == ["bad.txt", "hf.json"]

    def test_missing_spectrum_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nope.txt"
        path.write_text("garbage\n")
        assert run("fit", path, "--out", tmp_path / "f.jsonl") == 2

    def test_unreadable_spectrum_path_exits_2_naming_it(self, tmp_path, capsys):
        spectrum, _ = synth_spectrum(NH3, GasConditions(pressure_pa=1.0), ScanConfig(snr=1000.0),
                                     constants.KB_CODATA_2002, 1)
        (tmp_path / "sp").mkdir()
        write_spectrum(spectrum, tmp_path / "sp" / "spectrum_000.txt")
        unreadable = tmp_path / "sp" / "spectrum_zz.txt"
        unreadable.mkdir()
        assert run("fit", tmp_path / "sp", "--out", tmp_path / "f.jsonl") == 2
        assert capsys.readouterr().err == (
            f"error: data: {unreadable}: cannot read ({os.strerror(errno.EISDIR)})\n")
        assert not (tmp_path / "f.jsonl").exists()

    def test_degenerate_fit_before_a_bad_file_exits_3(self, tmp_path, capsys):
        # errors surface in file order: the degenerate fit of the first file
        # is reported, not the unreadable second file
        scan = ScanConfig(snr=1000.0)
        spectrum, _ = synth_spectrum(NH3, GasConditions(pressure_pa=0.01), scan,
                                     constants.KB_CODATA_2002, 1)
        write_spectrum(spectrum, tmp_path / "spectrum_000.txt")
        (tmp_path / "spectrum_001.txt").write_text("garbage\n")
        assert run("fit", tmp_path, "--out", tmp_path / "f.jsonl") == 3
        assert "degenerate" in capsys.readouterr().err


class TestConfigKeys:
    # A changed value for every key of the config (nested keys as "a.b").
    CHANGED = {
        "transition.label": "other line",
        "transition.nu0_mhz": 1.001 * constants.NH3_LINE_FREQ_MHZ,
        "transition.mass_u": 1.01 * constants.NH3_MASS_U,
        "scan.span_mhz": 200.0,
        "scan.step_mhz": 0.25,
        "pressures_pa": [0.2, 1.0, 5.0],
        "replicas": 2,
        "snr": None,
        "seed": 1,
        "temperature_k": 300.0,
        "temperature_sigma_k": 0.1,
        "pressure_broadening_mhz_per_pa": 0.03,
        "absorption_depth_per_pa": 0.1,
        "cell_length_m": 0.5,
        "kb_true": 1.001 * constants.KB_CODATA_2002,
        "mass_sigma_rel": 1e-6,
        "nu_sigma_rel": 1e-6,
        "hyperfine_file": "hf.txt",
    }

    @staticmethod
    def outputs(tmp_path, name, raw, summary):
        """Spectrum files of `simulate` and the k_B record of `kb`."""
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        spectra, kb_out = tmp_path / name, tmp_path / f"{name}.kb.json"
        assert run("simulate", "--config", path, "--out", spectra) == 0
        assert run("kb", "--summary", summary, "--config", path, "--out", kb_out) == 0
        files = sorted(spectra.glob("spectrum_*.txt"))
        return [f.read_bytes() for f in files], kb_out.read_bytes()

    def test_every_config_key_drives_behaviour(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "hf.txt").write_text("-0.04 1\n0.0 2\n0.06 1\n")
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({"delta_d_mhz": 49.88, "delta_d_sigma_mhz": 0.005}))
        base = CampaignConfig().to_dict()
        keys = []
        for key, value in base.items():
            keys += [f"{key}.{inner}" for inner in value] if isinstance(value, dict) else [key]
        assert sorted(keys) == sorted(self.CHANGED)
        reference = self.outputs(tmp_path, "base", base, summary)
        for key in keys:
            raw = json.loads(json.dumps(base))
            outer, _, inner = key.partition(".")
            target, name = (raw[outer], inner) if inner else (raw, outer)
            target[name] = self.CHANGED[key]
            assert self.outputs(tmp_path, key, raw, summary) != reference, key


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

    @pytest.mark.parametrize("option, value", [
        ("--delta-d-mhz", -1.0),
        ("--delta-d-sigma-mhz", -0.1),
        ("--temperature-k", -3.0),
        ("--mass-sigma-rel", -1.0),
        ("--delta-d-mhz", math.inf),
        ("--delta-d-sigma-mhz", math.nan),
        ("--temperature-k", math.inf),
        ("--temperature-sigma-k", math.nan),
        ("--mass-sigma-rel", math.nan),
        ("--nu-sigma-rel", math.inf),
        # a k_B or an uncertainty that over- or underflows
        ("--delta-d-mhz", 1e300),
        ("--delta-d-sigma-mhz", 1e300),
        ("--delta-d-mhz", 1e-200),
        ("--temperature-k", 1e305),
    ])
    def test_refused_value_exits_2_naming_the_option(self, tmp_path, capsys, option, value):
        args = {"--delta-d-mhz": 49.88, "--delta-d-sigma-mhz": 0.01, option: value}
        out = tmp_path / "kb.json"
        assert run("budget", *[a for item in args.items() for a in item], "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: data: {option}:")
        assert not out.exists()

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

    def test_non_ascii_label_is_written_as_utf8_under_an_ascii_locale(self, tmp_path):
        # the readers take UTF-8 only, so the writers must not use the locale's encoding
        src = str(Path(dopplerkb.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        cfg = write_config(tmp_path, transition={"label": "NH3 \u00b5"}, pressures_pa=[1.0])
        subprocess.run([sys.executable, "-m", "dopplerkb.cli", "simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "x")], env=env, capture_output=True, timeout=60,
                       check=True)
        spectrum = read_spectrum(tmp_path / "x" / "spectrum_p00_r000.txt")
        assert spectrum.meta.transition_label == "NH3 \u00b5"

    def test_import_does_not_load_scipy_special(self):
        src = str(Path(dopplerkb.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = "import sys, dopplerkb.cli; print('scipy.special' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout.strip() == "False"
