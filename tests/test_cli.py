import errno
import json
import math
import os
import subprocess
import sys
import weakref
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
    fit_series,
    synth_spectrum,
)
from dopplerkb.cli import main
from dopplerkb.config import CampaignConfig, load_config
from dopplerkb.extrapolation import extrapolate
from dopplerkb.fileio import (
    read_fit_records,
    read_regression_summary,
    read_spectrum,
    write_boltzmann_record,
    write_spectrum,
)
from dopplerkb.simulator import synth_series

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


def python_with_this_package(*args, **env):
    """Run ``python *args`` in a fresh interpreter that imports this checkout's
    ``dopplerkb``, with ``env`` added to the environment."""
    src = str(Path(dopplerkb.__file__).resolve().parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=60)


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

    def test_a_directory_that_holds_spectra_exits_2_and_is_left_as_it_was(self, tmp_path,
                                                                           capsys):
        # a second campaign written into the first's directory would be
        # fitted with it, under the second's manifest alone
        out = tmp_path / "sp"
        assert run("simulate", "--config", write_config(tmp_path, replicas=3), "--out", out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        cfg = write_config(tmp_path, replicas=1, seed=5)
        assert run("simulate", "--config", cfg, "--out", out) == 2
        assert capsys.readouterr().err == \
            f"error: data: --out: {out} already holds 24 spectrum files\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_snr_null_is_the_noiseless_campaign_and_no_noise_is_no_option(self, tmp_path,
                                                                            capsys):
        # noiseless replicas of one pressure are the same samples
        cfg = write_config(tmp_path, pressures_pa=[1.0], replicas=2, snr=None)
        out = tmp_path / "clean"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        first, second = (read_spectrum(path) for path in sorted(out.glob("*.txt")))
        assert math.isinf(first.meta.snr) and math.isinf(second.meta.snr)
        np.testing.assert_array_equal(first.transmission, second.transmission)
        capsys.readouterr()
        assert run("simulate", "--config", cfg, "--out", tmp_path / "x", "--no-noise") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage: ") and "unrecognized arguments: --no-noise" in err

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

    @pytest.mark.parametrize("stage", ["simulate", "kb"])
    @pytest.mark.parametrize("overrides, key", [
        ({"scan": {"step_mhz": 5e-324}}, "scan"),  # span / step overflows
        ({"scan": {"span_mhz": 1.7976931348623157e308}}, "scan"),
        ({"transition": {"mass_u": 1e-300}}, "transition"),  # 0 kg
        ({"transition": {"mass_u": 5e-324}}, "transition"),
    ])
    def test_a_number_that_overflows_or_underflows_exits_2_naming_its_object(
            self, tmp_path, capsys, stage, overrides, key):
        cfg, out = write_config(tmp_path, **overrides), tmp_path / "out"
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({"delta_d_mhz": 49.88, "delta_d_sigma_mhz": 0.005}))
        inputs = () if stage == "simulate" else ("--summary", summary)
        assert run(stage, "--config", cfg, *inputs, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: config: {key}: ") and err.count("\n") == 1
        assert not out.exists()

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

    def test_an_optically_black_last_pressure_exits_2_and_writes_no_spectrum(self, tmp_path,
                                                                            capsys):
        # every pressure's noiseless spectrum is made before the first file
        cfg = write_config(tmp_path, pressures_pa=[0.2, 1.0, 10.0], replicas=2,
                           absorption_depth_per_pa=1.0)
        out = tmp_path / "sp"
        assert run("simulate", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: optically black:") and err.endswith(" at 10.0 Pa\n")
        assert list(out.glob("spectrum_*.txt")) == []

    def test_each_spectrum_is_let_go_once_written(self, tmp_path, monkeypatch):
        # simulate writes each spectrum as it is made, however many there are
        written, alive = [], []
        write = dopplerkb.cli.write_spectrum

        def recording(spectrum, path):
            written.append(weakref.ref(spectrum))
            alive.append(sum(ref() is not None for ref in written))
            write(spectrum, path)

        monkeypatch.setattr(dopplerkb.cli, "write_spectrum", recording)
        cfg = write_config(tmp_path, replicas=5)
        assert run("simulate", "--config", cfg, "--out", tmp_path / "sp") == 0
        assert len(written) == 40 and max(alive) <= 2

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

    def test_spectra_may_come_before_between_and_after_the_options(self, tmp_path,
                                                                  spectra_dir):
        first, *rest = sorted(spectra_dir.glob("spectrum_*.txt"))
        before, mixed = tmp_path / "before.jsonl", tmp_path / "mixed.jsonl"
        assert run("fit", first, *rest, "--out", before, "--max-iter", 50) == 0
        assert run("fit", first, "--out", mixed, *rest[:3], "--max-iter", 50, *rest[3:]) == 0
        assert mixed.read_bytes() == before.read_bytes()

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

    def test_kb_json_of_the_four_stages_is_the_in_process_chain_byte_for_byte(self, tmp_path):
        cfg = write_config(tmp_path, pressures_pa=[0.5, 2.0, 8.0], replicas=3, seed=7)
        spectra, fits = tmp_path / "spectra", tmp_path / "fits.jsonl"
        summary, kb_out = tmp_path / "summary.json", tmp_path / "kb.json"
        assert run("simulate", "--config", cfg, "--out", spectra) == 0
        assert run("fit", spectra, "--out", fits) == 0
        assert run("series", "--fits", fits, "--out-summary", summary,
                   "--out-table", tmp_path / "t.txt") == 0
        assert run("kb", "--summary", summary, "--config", cfg, "--out", kb_out) == 0

        campaign = load_config(cfg)
        width, _, _, _ = extrapolate(fit_series([s for s, _ in campaign.synthesize()]))
        in_process = tmp_path / "in_process.kb.json"
        write_boltzmann_record(campaign.budget(width.delta_d_mhz, width.delta_d_sigma_mhz),
                               in_process)
        assert in_process.read_bytes() == kb_out.read_bytes()

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
        # the unconverged records are of the same spectra under other ids,
        # since series refuses a source id met twice
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        assert run("fit", spectra_dir, "--out", good) == 0
        assert run("fit", spectra_dir, "--out", bad, "--max-iter", 1) == 3
        self.edit_records(bad, lambda record: record.update(source_id="late_" +
                                                            record["source_id"]))
        fits = tmp_path / "fits.jsonl"
        fits.write_text(good.read_text() + bad.read_text())
        summary = tmp_path / "summary.json"
        capsys.readouterr()
        assert run("series", "--fits", fits, "--out-summary", summary,
                   "--out-table", tmp_path / "t.txt") == 0
        rec = read_regression_summary(summary)
        assert rec["n_unconverged"] == 8
        assert rec["n_used"] + rec["n_rejected"] == 8
        assert "unconverged 8 of which 0 failed)" in capsys.readouterr().out

    def test_series_refuses_a_source_id_met_twice_naming_both_lines(self, tmp_path,
                                                                     spectra_dir, capsys):
        # two fits of one spectrum would count it twice and shrink sigma(delta_D)
        fits, summary = tmp_path / "fits.jsonl", tmp_path / "summary.json"
        assert run("fit", spectra_dir, "--out", fits) == 0
        fits.write_text(fits.read_text() * 2)
        capsys.readouterr()
        assert run("series", "--fits", fits, "--out-summary", summary,
                   "--out-table", tmp_path / "t.txt") == 2
        assert capsys.readouterr().err == (f"error: data: {fits}: lines 1 and 9: source id "
                                           "'spectrum_p00_r000.txt' given twice\n")
        assert not summary.exists()

    @pytest.mark.parametrize("version", [3, 0, "2", 2.0, True, None])
    def test_a_stage_file_of_an_unknown_schema_version_exits_2_naming_it(
            self, tmp_path, spectra_dir, capsys, version):
        fits, summary = tmp_path / "fits.jsonl", tmp_path / "summary.json"
        assert run("fit", spectra_dir, "--out", fits) == 0
        assert run("series", "--fits", fits, "--out-summary", summary,
                   "--out-table", tmp_path / "t.txt") == 0
        self.edit_records(fits, lambda record: record.update(schema=version), [1])
        record = json.loads(summary.read_text())
        summary.write_text(json.dumps(record | {"schema": version}))
        capsys.readouterr()
        assert run("series", "--fits", fits, "--out-summary", tmp_path / "s.json",
                   "--out-table", tmp_path / "t.txt") == 2
        assert run("kb", "--summary", summary, "--out", tmp_path / "kb.json") == 2
        taken = "(this reader takes 1 and 2)\n"
        assert capsys.readouterr().err == (
            f"error: data: {fits}: line 2: unsupported schema version {version!r} {taken}"
            f"error: data: {summary}: unsupported schema version {version!r} {taken}")

    def test_stage_files_are_schema_2_and_unversioned_ones_read_as_1(self, tmp_path,
                                                                      spectra_dir):
        fits, summary, kb_out = (tmp_path / name for name in
                                 ("fits.jsonl", "summary.json", "kb.json"))
        assert run("fit", spectra_dir, "--out", fits) == 0
        assert run("series", "--fits", fits, "--out-summary", summary,
                   "--out-table", tmp_path / "t.txt") == 0
        assert run("kb", "--summary", summary, "--out", kb_out) == 0
        records = [json.loads(line) for line in fits.read_text().splitlines()]
        for record in records + [json.loads(summary.read_text()), json.loads(kb_out.read_text())]:
            assert next(iter(record.items())) == ("schema", 2)
        # today's layout without the added keys is version 1
        results = read_fit_records(fits)
        self.edit_records(fits, lambda record: [record.pop(key) for key in ("schema", "failure")])
        assert read_fit_records(fits) == results
        record = json.loads(summary.read_text())
        del record["schema"]
        summary.write_text(json.dumps(record))
        assert run("kb", "--summary", summary, "--out", tmp_path / "kb1.json") == 0

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

    def test_series_refuses_a_width_variance_whose_weight_overflows(self, tmp_path,
                                                                      spectra_dir, capsys):
        fits, out = tmp_path / "fits.jsonl", tmp_path / "summary.json"
        assert run("fit", spectra_dir, "--out", fits) == 0

        def tiny_width_variance(record):
            record["covariance"][1][1] = 1e-320

        self.edit_records(fits, tiny_width_variance, [2])
        capsys.readouterr()
        assert run("series", "--fits", fits, "--out-summary", out,
                   "--out-table", tmp_path / "t.txt") == 2
        assert capsys.readouterr().err == (
            f"error: data: extrapolation overflows: the width sigma {math.sqrt(1e-320)!r} MHz "
            "of 'spectrum_p02_r000.txt' weighs inf per MHz^2\n")
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

    @pytest.mark.parametrize("args, unrecognized", [
        (("budget", "--delta-d-mhz", 49.88, "--delta-d-sig", 0.01), "--delta-d-sig 0.01"),
        (("simulate", "--conf", "campaign.json", "--out", "spectra"), "--conf campaign.json"),
        (("fit", "spectra", "--outt", "fits.jsonl"), "--outt fits.jsonl"),
    ], ids=["budget", "simulate", "fit"])
    def test_an_unrecognized_option_is_named_before_a_missing_one(self, tmp_path, monkeypatch,
                                                                   capsys, args, unrecognized):
        monkeypatch.chdir(tmp_path)
        assert run(*args) == 1
        assert capsys.readouterr().err == \
            f"error: usage: dopplerkb: unrecognized arguments: {unrecognized}\n"
        assert os.listdir() == []

    @pytest.mark.parametrize("args", [(), ("frobnicate",)], ids=["no-command", "unknown"])
    def test_a_usage_error_is_one_line(self, capsys, args):
        assert run(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("args, missing", [
        (("simulate", "--config", "nope.json", "--out", "spectra"), "nope.json"),
        (("fit", "nope", "--out", "fits.jsonl"), "nope"),
        (("series", "--fits", "nope", "--out-summary", "s.json", "--out-table", "t.txt"), "nope"),
        (("kb", "--summary", "nope", "--out", "kb.json"), "nope"),
        (("kb", "--summary", "summary.json", "--config", "nope.json", "--out", "kb.json"),
         "nope.json"),
    ], ids=["config", "spectrum", "fit records", "summary", "kb config"])
    def test_a_missing_input_path_exits_2_naming_it(self, tmp_path, monkeypatch, capsys, args,
                                                    missing):
        monkeypatch.chdir(tmp_path)
        Path("summary.json").write_text(json.dumps({"schema": 2, "delta_d_mhz": 49.88,
                                                    "delta_d_sigma_mhz": 0.005}))
        assert run(*args) == 2
        assert capsys.readouterr().err == \
            f"error: data: {missing}: cannot read ({os.strerror(errno.ENOENT)})\n"
        assert os.listdir() == ["summary.json"]

    @pytest.mark.parametrize("stage, option", [
        ("simulate", "--out"), ("fit", "--out"), ("series", "--out-summary"),
        ("series", "--out-table"), ("kb", "--out"), ("budget", "--out"),
    ])
    def test_an_output_path_of_the_wrong_kind_exits_2_naming_it(self, tmp_path, spectra_dir,
                                                                capsys, stage, option):
        # a file where simulate writes its directory, or a directory where a
        # stage writes a file, is refused before the stage writes anything
        fits, summary, taken = tmp_path / "fits.jsonl", tmp_path / "summary.json", tmp_path / "x"
        assert run("fit", spectra_dir, "--out", fits) == 0
        assert run("series", "--fits", fits, "--out-summary", summary,
                   "--out-table", tmp_path / "t.txt") == 0
        args = {
            "simulate": ["--config", write_config(tmp_path), "--out", taken],
            "fit": [spectra_dir, "--out", taken],
            "series": ["--fits", fits, "--out-summary", tmp_path / "s2.json",
                       "--out-table", tmp_path / "t2.txt"],
            "kb": ["--summary", summary, "--out", taken],
            "budget": ["--delta-d-mhz", 49.88, "--delta-d-sigma-mhz", 0.01, "--out", taken],
        }[stage]
        args[args.index(option) + 1] = taken
        if stage == "simulate":
            taken.write_text("not a directory\n")
        else:
            taken.mkdir()
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run(stage, *args) == 2
        kind = "not a directory" if stage == "simulate" else "a directory"
        assert capsys.readouterr().err == f"error: data: {option}: {taken} is {kind}\n"
        assert sorted(tmp_path.rglob("*")) == before

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

    @pytest.mark.parametrize("copy", [False, True])
    def test_a_spectrum_file_name_met_twice_exits_2_naming_both_paths(
            self, tmp_path, spectra_dir, capsys, monkeypatch, copy):
        # A spectrum's file name is its source id: the same directory given
        # twice, or a file and a copy of it elsewhere, would be fitted twice
        # and counted twice by ``series``.  Nothing is read.
        first = sorted(spectra_dir.glob("spectrum_*.txt"))[0]
        second = spectra_dir
        if copy:
            (tmp_path / "copy").mkdir()
            second = tmp_path / "copy" / first.name
            second.write_bytes(first.read_bytes())
        read = []
        monkeypatch.setattr(dopplerkb.cli, "read_spectrum", read.append)
        fits = tmp_path / "fits.jsonl"
        assert run("fit", spectra_dir, second, "--out", fits) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and err.count("\n") == 1
        assert f"{first} and {second if copy else first}: " in err
        assert not read and not fits.exists()

    def test_a_bad_file_after_a_degenerate_fit_exits_2_naming_it(self, tmp_path, capsys):
        # a file that cannot be read is raised where it is met: the degenerate
        # fit of the first file is no error, and no record is written
        scan = ScanConfig(snr=1000.0)
        spectrum, _ = synth_spectrum(NH3, GasConditions(pressure_pa=0.01), scan,
                                     constants.KB_CODATA_2002, 1)
        write_spectrum(spectrum, tmp_path / "spectrum_000.txt")
        (tmp_path / "spectrum_001.txt").write_text("garbage\n")
        assert run("fit", tmp_path, "--out", tmp_path / "f.jsonl") == 2
        assert capsys.readouterr().err == (f"error: data: {tmp_path / 'spectrum_001.txt'}: "
                                           "line 1: not a dopplerkb spectrum file\n")
        assert not (tmp_path / "f.jsonl").exists()

    @staticmethod
    def spectra_with(tmp_path, odd):
        """Three W1-like spectrum files, the second replaced by ``odd``."""
        pairs = synth_series(NH3, [1.2, 3.2, 7.5], GasConditions(pressure_pa=1.0),
                             ScanConfig(snr=1000.0), constants.KB_CODATA_2002, 7)
        spectra = [spectrum for spectrum, _ in pairs]
        spectra[1] = odd(spectra[1])
        for i, spectrum in enumerate(spectra):
            write_spectrum(spectrum, tmp_path / f"spectrum_{i:03d}.txt")
        return tmp_path

    @staticmethod
    def assert_record_failed_alone(spectra, fits, tmp_path, failure):
        """``fits`` holds a record of each of the three files of ``spectra``:
        the second failed with ``failure``, and the other two are, byte for
        byte, the records that ``fit`` writes without it."""
        lines = fits.read_text().splitlines()
        record = json.loads(lines[1])
        assert (record["source_id"], record["failure"], record["converged"]) == \
            ("spectrum_001.txt", failure, False)
        alone = tmp_path / "alone.jsonl"
        assert run("fit", spectra / "spectrum_000.txt", spectra / "spectrum_002.txt",
                   "--out", alone) == 0
        assert alone.read_text().splitlines() == [lines[0], lines[2]]

    def test_a_spectrum_whose_line_is_outside_the_scan_exits_3_naming_it(self, tmp_path,
                                                                          capsys):
        # the line moved off the scan: its minimum sits on the last sample
        def off_scan(spectrum):
            x = spectrum.freq_offset_mhz
            return spectrum.with_transmission(1.0 - 1e-3 * (x - x[0]))

        spectra = self.spectra_with(tmp_path / "sp", off_scan)
        assert run("fit", spectra, "--out", tmp_path / "f.jsonl") == 3
        assert capsys.readouterr().err == ("error: fit: 1 of 3 fits did not converge: "
                                           "line not in scan window (1, first spectrum_001.txt)\n")
        self.assert_record_failed_alone(spectra, tmp_path / "f.jsonl", tmp_path,
                                        "line not in scan window")

    def test_a_degenerate_fit_exits_3_naming_its_spectrum(self, tmp_path, capsys):
        def degenerate(spectrum):
            low, _ = synth_spectrum(NH3, GasConditions(pressure_pa=0.01), ScanConfig(snr=1000.0),
                                    constants.KB_CODATA_2002, 1)
            return low

        spectra = self.spectra_with(tmp_path / "sp", degenerate)
        assert run("fit", spectra, "--out", tmp_path / "f.jsonl") == 3
        assert capsys.readouterr().err == (
            "error: fit: 1 of 3 fits did not converge: "
            "degenerate fit: singular normal matrix (1, first spectrum_001.txt)\n")
        self.assert_record_failed_alone(spectra, tmp_path / "f.jsonl", tmp_path,
                                        "degenerate fit: singular normal matrix")

    def test_a_spectrum_scaled_by_1e160_is_a_strict_json_record_and_exits_3(self, tmp_path,
                                                                              capsys):
        # its residuals overflow: the record holds chi2_reduced 0, not inf
        spectra = self.spectra_with(tmp_path / "sp",
                                    lambda s: s.with_transmission(s.transmission * 1e160))
        fits = tmp_path / "f.jsonl"
        message = ("error: fit: 1 of 3 fits did not converge: "
                   "degenerate fit: singular normal matrix (1, first spectrum_001.txt)\n")
        assert run("fit", spectra, "--out", fits) == 3
        assert capsys.readouterr().err == message
        # and no RuntimeWarning of the overflow reaches the process's stderr
        proc = python_with_this_package("-m", "dopplerkb.cli", "fit", spectra,
                                        "--out", tmp_path / "g.jsonl")
        assert (proc.returncode, proc.stderr) == (3, message)

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        records = [json.loads(line, parse_constant=refuse)
                   for line in fits.read_text().splitlines()]
        assert records[1]["chi2_reduced"] == 0.0
        self.assert_record_failed_alone(spectra, fits, tmp_path,
                                        "degenerate fit: singular normal matrix")

    def test_one_bad_spectrum_among_forty_is_written_and_left_out_by_series(self, tmp_path,
                                                                            capsys):
        # 40 W1 spectra and the 0.01 Pa spectrum whose fit is degenerate
        cfg = write_config(tmp_path, replicas=5, seed=9)
        spectra = tmp_path / "spectra"
        assert run("simulate", "--config", cfg, "--out", spectra) == 0
        (low, _), = synth_series(NH3, [0.01], GasConditions(pressure_pa=1.0),
                                 ScanConfig(snr=1000.0), constants.KB_CODATA_2002, 3)
        write_spectrum(low, spectra / "spectrum_p99_r000.txt")
        fits, summary = tmp_path / "fits.jsonl", tmp_path / "summary.json"
        capsys.readouterr()
        assert run("fit", spectra, "--out", fits) == 3
        out, err = capsys.readouterr()
        assert out == f"fit: 41 spectra -> {fits} (1 unconverged)\n"
        assert err == ("error: fit: 1 of 41 fits did not converge: degenerate fit: singular "
                       "normal matrix (1, first spectrum_p99_r000.txt)\n")
        records = read_fit_records(fits)
        assert [(r.source_id, r.failure) for r in records if not r.converged] == \
            [("spectrum_p99_r000.txt", "degenerate fit: singular normal matrix")]
        assert len(records) == 41
        assert run("series", "--fits", fits, "--out-summary", summary,
                   "--out-table", tmp_path / "t.txt") == 0
        assert read_regression_summary(summary)["n_unconverged"] == 1
        assert "used 40, rejected 0, unconverged 1 of which 1 failed)" in capsys.readouterr().out

    def test_the_fit_message_counts_each_reason_and_names_its_first_spectrum(
            self, tmp_path, spectra_dir, capsys):
        x = read_spectrum(spectra_dir / "spectrum_p00_r000.txt")
        for name in ("spectrum_p03_r001.txt", "spectrum_p99_r000.txt"):
            write_spectrum(x.with_transmission(np.ones(x.n_points)), spectra_dir / name)
        fits = tmp_path / "fits.jsonl"
        assert run("fit", spectra_dir, "--out", fits, "--max-iter", 2) == 3
        assert capsys.readouterr().err == (
            "error: fit: 10 of 10 fits did not converge: out of iterations (8, first "
            "spectrum_p00_r000.txt); line not in scan window (2, first spectrum_p03_r001.txt)\n")
        assert len(read_fit_records(fits)) == 10


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
        ("--temperature-k", -math.inf),
        ("--mass-sigma-rel", -1e-30),
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

    def test_the_budget_manifest_reruns_the_budget_bit_for_bit(self, tmp_path):
        # every option value is in the manifest's config, so its keys given
        # back as options write the same record
        first, again = tmp_path / "kb.json", tmp_path / "again.json"
        assert run("budget", "--delta-d-mhz", 49.88, "--delta-d-sigma-mhz", 0.01,
                   "--temperature-k", 300, "--temperature-sigma-k", 0.05,
                   "--mass-sigma-rel", 1e-6, "--nu-sigma-rel", 3e-9, "--out", first) == 0
        config = json.loads(first.with_suffix(".manifest.json").read_text())["config"]
        assert len(config) == 6
        assert run("budget", *[arg for key, value in config.items()
                               for arg in ("--" + key.replace("_", "-"), value)],
                   "--out", again) == 0
        assert again.read_bytes() == first.read_bytes()

    def test_reproduce_paper_prints_the_published_comparison(self, capsys):
        assert run("reproduce-paper") == 0
        assert capsys.readouterr().out == "\n".join([
            "inputs: delta_D = 49.8831 MHz (9.5e-05), nu = 28953694 MHz, T = 273.15 K (7e-05), "
            "m = 17.0265491 u",
            "k_B = 1.380654e-23 J/K  +/- 2.80e-27 (2.02e-04 relative)",
            "source           relative contribution",
            "width                        1.900e-04",
            "temperature                  7.000e-05",
            "frequency                    2.000e-08",
            "mass                         1.000e-09",
            "combined                     2.025e-04",
            "published: k_B = 1.38065e-23 +/- 2.6e-27 J/K, relative 1.9e-04",
            "agreement: computed/published - 1 = +2.75e-06 (0.01 published sigma)",
        ]) + "\n"

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

    def test_a_stage_line_comes_before_its_error_in_one_stream(self, tmp_path):
        # stdout to a pipe is block-buffered: the stage's own line is flushed
        # before the error line goes to stderr
        cfg, spectra = write_config(tmp_path), tmp_path / "sp"
        assert run("simulate", "--config", cfg, "--out", spectra) == 0
        src = str(Path(dopplerkb.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "dopplerkb.cli", "fit", str(spectra),
                               "--out", str(tmp_path / "f.jsonl"), "--max-iter", "1"],
                              env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=""),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              timeout=60)
        assert proc.returncode == 3
        assert [line.split(":")[0] for line in proc.stdout.splitlines()] == ["fit", "error"]

    def test_non_ascii_label_is_written_as_utf8_under_an_ascii_locale(self, tmp_path):
        # the readers take UTF-8 only, so the writers must not use the locale's encoding
        cfg = write_config(tmp_path, transition={"label": "NH3 \u00b5"}, pressures_pa=[1.0])
        python_with_this_package("-m", "dopplerkb.cli", "simulate", "--config", cfg,
                                 "--out", tmp_path / "x", LC_ALL="C", PYTHONUTF8="0",
                                 PYTHONCOERCECLOCALE="0").check_returncode()
        spectrum = read_spectrum(tmp_path / "x" / "spectrum_p00_r000.txt")
        assert spectrum.meta.transition_label == "NH3 \u00b5"

    def test_no_w1_stage_loads_importlib_metadata(self, tmp_path):
        # a manifest's versions are module attributes: no stage scans the
        # installed distributions
        cfg = write_config(tmp_path, replicas=50)
        spectra, fits = tmp_path / "sp", tmp_path / "fits.jsonl"
        summary = tmp_path / "summary.json"
        for stage in (["simulate", "--config", cfg, "--out", spectra],
                      ["fit", spectra, "--out", fits],
                      ["series", "--fits", fits, "--out-summary", summary,
                       "--out-table", tmp_path / "table.txt"],
                      ["kb", "--summary", summary, "--config", cfg,
                       "--out", tmp_path / "kb.json"]):
            code = ("import sys\nfrom dopplerkb.cli import main\n"
                    f"status = main({[str(arg) for arg in stage]!r})\n"
                    "print(status, 'importlib.metadata' in sys.modules)")
            proc = python_with_this_package("-c", code)
            assert proc.stdout.splitlines()[-1:] == ["0 False"], (stage[0], proc.stderr)

    @pytest.mark.parametrize("work", [
        "from dopplerkb.cli import main\n"
        "assert main(['kb', '--summary', SUMMARY, '--config', CFG, '--out', OUT]) == 0",
        "from dopplerkb.config import load_config\nload_config(CFG).budget(49.88, 0.005)",
    ], ids=["kb-stage", "config-budget"])
    def test_a_process_that_makes_no_spectrum_loads_no_numpy_random(self, tmp_path, work):
        # the config checks its seed as an integer: numpy.random, and OpenSSL
        # through its secrets import, load only where spectra are made
        cfg, summary = write_config(tmp_path), tmp_path / "summary.json"
        summary.write_text(json.dumps({"schema": 2, "delta_d_mhz": 49.88,
                                       "delta_d_sigma_mhz": 0.005}))
        code = (f"import sys\nCFG, SUMMARY, OUT = {str(cfg)!r}, {str(summary)!r}, "
                f"{str(tmp_path / 'kb.json')!r}\n{work}\n"
                "print('numpy.random' in sys.modules)")
        proc = python_with_this_package("-c", code)
        assert (proc.returncode, proc.stdout.splitlines()[-1:]) == (0, ["False"]), proc.stderr

    def test_w1_simulate_loads_no_numpy_fft(self, tmp_path):
        # a line without sub-structure is one profile, and Weideman's
        # coefficients are constants: nothing in W1 synthesis needs an FFT
        cfg = write_config(tmp_path)
        code = ("import sys\nfrom dopplerkb.cli import main\n"
                f"status = main(['simulate', '--config', {str(cfg)!r}, '--out', "
                f"{str(tmp_path / 'sp')!r}])\nprint(status, 'numpy.fft' in sys.modules)")
        proc = python_with_this_package("-c", code)
        assert proc.stdout.splitlines()[-1:] == ["0 False"], proc.stderr

    def test_the_stages_load_no_third_party_module_but_numpy(self, tmp_path):
        # the command line is parsed by the standard library.  What the
        # interpreter loaded before the import (site may load a .pth file's
        # package) is not the stages', and a module without a file is no
        # code loaded (numpy's Cython modules make `cython_runtime`)
        cfg, spectra, fits = write_config(tmp_path), tmp_path / "sp", tmp_path / "fits.jsonl"
        summary = tmp_path / "summary.json"
        stages = [["simulate", "--config", cfg, "--out", spectra],
                  ["fit", spectra, "--out", fits],
                  ["series", "--fits", fits, "--out-summary", summary,
                   "--out-table", tmp_path / "table.txt"],
                  ["kb", "--summary", summary, "--config", cfg, "--out", tmp_path / "kb.json"]]
        code = ("import sys\nstart = set(sys.modules)\nfrom dopplerkb.cli import main\n"
                f"status = [main(stage) for stage in {[list(map(str, s)) for s in stages]!r}]\n"
                "loaded = {name.split('.')[0] for name, module in sys.modules.items()\n"
                "          if name not in start and getattr(module, '__file__', None)}\n"
                "print(status, sorted(loaded - sys.stdlib_module_names - {'numpy', 'dopplerkb'}))")
        proc = python_with_this_package("-c", code)
        assert proc.stdout.splitlines()[-1:] == ["[0, 0, 0, 0] []"], proc.stderr

    def test_reading_stage_files_loads_no_openssl(self, tmp_path):
        # hashlib, which maps OpenSSL, is imported by the manifest writer alone
        cfg, spectra, fits = write_config(tmp_path), tmp_path / "sp", tmp_path / "fits.jsonl"
        summary = tmp_path / "summary.json"
        assert run("simulate", "--config", cfg, "--out", spectra) == 0
        assert run("fit", spectra, "--out", fits) == 0
        assert run("series", "--fits", fits, "--out-summary", summary,
                   "--out-table", tmp_path / "table.txt") == 0
        code = ("import sys\nimport dopplerkb.cli\n"
                "from dopplerkb.fileio import read_fit_records, read_regression_summary\n"
                f"read_fit_records({str(fits)!r})\nread_regression_summary({str(summary)!r})\n"
                "print('_hashlib' in sys.modules)")
        proc = python_with_this_package("-c", code)
        assert (proc.returncode, proc.stdout.splitlines()[-1:]) == (0, ["False"]), proc.stderr

    @pytest.mark.parametrize("work", [
        "import dopplerkb.cli",
        "from dopplerkb.cli import main; assert main(['simulate', '--config', CFG, '--out', "
        "OUT]) == 0",
        "from dopplerkb.cli import main; main(['simulate', '--config', CFG, '--out', OUT]); "
        "assert main(['fit', OUT, '--model', 'exp-voigt', '--out', OUT + '.jsonl']) in (0, 3)",
        "from dopplerkb import ModulationComb; ModulationComb.paper_default().weights",
    ], ids=["import", "w1-simulate", "exp-voigt-fit", "paper-comb"])
    def test_no_work_loads_scipy(self, tmp_path, work):
        # the package needs numpy only: scipy is a test oracle (an
        # exp-Voigt fit may run out of iterations, exit 3, and still counts)
        cfg = write_config(tmp_path, pressures_pa=[5.0, 10.0], replicas=2)
        code = (f"import sys\nCFG, OUT = {str(cfg)!r}, {str(tmp_path / 'sp')!r}\n{work}\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = python_with_this_package("-c", code)
        assert (proc.returncode, proc.stdout.splitlines()[-1:]) == (0, ["[]"]), proc.stderr
