import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dopplerkb import (
    ExtrapolationResult,
    FitModel,
    FitResult,
    GasConditions,
    ScanConfig,
    Transition,
    WidthPoint,
    constants,
    fit_spectrum,
    synth_spectrum,
    uncertainty_budget,
    zero_pressure_width,
)
from dopplerkb.boltzmann import TemperatureReading
from dopplerkb.config import CampaignConfig, config_from_dict, load_config
from dopplerkb.errors import DataError
from dopplerkb.fileio import (
    _FIT_RECORD,
    config_hash,
    read_fit_records,
    read_regression_summary,
    read_spectrum,
    write_boltzmann_record,
    write_fit_records,
    write_manifest,
    write_regression_summary,
    write_spectrum,
    write_width_table,
)
from dopplerkb.spectra import SCHEMA_VERSION

NH3 = Transition.nh3()
KB = constants.KB_CODATA_2002


@pytest.fixture()
def noisy_spectrum():
    cond = GasConditions(pressure_pa=3.1)
    scan = ScanConfig(snr=1000.0)
    spectrum, _ = synth_spectrum(NH3, cond, scan, KB, 42,
                                 temperature_sigma_k=0.02)
    return spectrum


class TestSpectrumFiles:
    def test_round_trip_bit_exact(self, tmp_path, noisy_spectrum):
        path = tmp_path / "s.txt"
        write_spectrum(noisy_spectrum, path)
        back = read_spectrum(path)
        assert np.array_equal(back.freq_offset_mhz, noisy_spectrum.freq_offset_mhz)
        assert np.array_equal(back.transmission, noisy_spectrum.transmission)
        assert back.meta == noisy_spectrum.meta

    def test_label_round_trips(self, tmp_path):
        transition = Transition(NH3.nu0_mhz, NH3.mass_u, "14NH3  nu2 asQ(6,3): #1")
        spectrum, _ = synth_spectrum(transition, GasConditions(pressure_pa=1.0),
                                     ScanConfig(snr=math.inf), KB, 0)
        path = tmp_path / "s.txt"
        write_spectrum(spectrum, path)
        assert read_spectrum(path).meta == spectrum.meta

    def test_noiseless_snr_round_trips_as_inf(self, tmp_path):
        cond = GasConditions(pressure_pa=1.0)
        scan = ScanConfig(snr=math.inf)
        spectrum, _ = synth_spectrum(NH3, cond, scan, KB, 0)
        path = tmp_path / "s.txt"
        write_spectrum(spectrum, path)
        assert math.isinf(read_spectrum(path).meta.snr)

    def test_shuffled_rows_rejected_with_line_number(self, tmp_path, noisy_spectrum):
        path = tmp_path / "s.txt"
        write_spectrum(noisy_spectrum, path)
        lines = path.read_text().splitlines()
        data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        lines[data_start], lines[data_start + 1] = lines[data_start + 1], lines[data_start]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"line {data_start + 2}.*increasing"):
            read_spectrum(path)

    @pytest.mark.parametrize("line", ["# temperature_k: -1", "# nu0_mhz: nan",
                                      "# cell_length_m: -1", "# cell_length_m: inf",
                                      "# snr: 0", "# snr: -1000", "# snr: nan",
                                      "# pressure_pa: -3", "# pressure_pa: 0",
                                      "# pressure_pa: inf"])
    def test_header_value_refused_by_the_metadata_is_data_error(self, tmp_path,
                                                               noisy_spectrum, line):
        path = tmp_path / "s.txt"
        write_spectrum(noisy_spectrum, path)
        field = line.split()[1]
        path.write_text("\n".join(line if l.startswith(field, 2) else l
                                  for l in path.read_text().splitlines()) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: ")):
            read_spectrum(path)

    def test_missing_header_field_named(self, tmp_path, noisy_spectrum):
        path = tmp_path / "s.txt"
        write_spectrum(noisy_spectrum, path)
        kept = [l for l in path.read_text().splitlines()
                if not l.startswith("# temperature_k:")]
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(DataError, match="temperature_k"):
            read_spectrum(path)

    def test_header_field_given_twice_names_both_lines(self, tmp_path, noisy_spectrum):
        path = tmp_path / "s.txt"
        write_spectrum(noisy_spectrum, path)
        lines = path.read_text().splitlines()
        first = next(i for i, l in enumerate(lines) if l.startswith("# temperature_k:")) + 1
        lines[first - 1] = "# temperature_k: 273.15"
        lines.insert(first, "# temperature_k: 300")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"lines {first} and {first + 1}: .*'temperature_k'"):
            read_spectrum(path)

    def test_v1_file_reads_to_the_same_samples_and_meta(self, tmp_path, noisy_spectrum):
        # v1 also held the scan span and step and a lock-in time constant
        path = tmp_path / "s.txt"
        write_spectrum(noisy_spectrum, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# dopplerkb-spectrum v2"
        at = next(i for i, l in enumerate(lines) if l.startswith("# snr:"))
        v1 = (["# dopplerkb-spectrum v1"] + lines[1:at]
              + ["# span_mhz: 250", "# step_mhz: 0.5", "# time_constant_ms: 20"] + lines[at:])
        path.write_text("\n".join(v1) + "\n")
        assert read_spectrum(path) == noisy_spectrum

    @pytest.mark.parametrize("columns", ["transmission frequency_offset_mhz",
                                         "frequency_offset_mhz", "frequency transmission", ""])
    def test_other_columns_line_rejected_naming_it(self, tmp_path, noisy_spectrum, columns):
        path = tmp_path / "s.txt"
        write_spectrum(noisy_spectrum, path)
        lines = path.read_text().splitlines()
        at = lines.index("# columns: frequency_offset_mhz transmission")
        lines[at] = f"# columns: {columns}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"line {at + 1}: columns"):
            read_spectrum(path)

    def test_magic_without_a_space_before_the_version_rejected(self, tmp_path, noisy_spectrum):
        path = tmp_path / "s.txt"
        write_spectrum(noisy_spectrum, path)
        lines = path.read_text().splitlines()
        lines[0] = f"# dopplerkb-spectrumv{SCHEMA_VERSION}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 1: not a dopplerkb spectrum file"):
            read_spectrum(path)
        lines[0] = f"# dopplerkb-spectrum\tv{SCHEMA_VERSION}"
        path.write_text("\n".join(lines) + "\n")
        assert read_spectrum(path) == noisy_spectrum

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("not a spectrum\n1 2\n")
        with pytest.raises(DataError, match="line 1"):
            read_spectrum(path)

    @pytest.mark.parametrize("tag", ["v0", "v3", "v", ""])
    def test_other_schema_version_rejected_naming_line_1(self, tmp_path, noisy_spectrum, tag):
        path = tmp_path / "s.txt"
        write_spectrum(noisy_spectrum, path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# dopplerkb-spectrum v{SCHEMA_VERSION}"
        lines[0] = f"# dopplerkb-spectrum {tag}".rstrip()
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 1: unsupported schema version"):
            read_spectrum(path)

    @pytest.mark.parametrize("row, match", [("-125.0 1.0", "increasing"),
                                            ("-125.5 1.0", "increasing"),
                                            ("nan 1.0", "non-finite"),
                                            ("-inf 1.0", "non-finite")])
    def test_bad_grid_value_names_line(self, tmp_path, noisy_spectrum, row, match):
        # the second row repeats, goes back from or is not a frequency
        path = tmp_path / "s.txt"
        write_spectrum(noisy_spectrum, path)
        lines = path.read_text().splitlines()
        data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        lines[data_start + 1] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"line {data_start + 2}.*{match}"):
            read_spectrum(path)

    def test_non_numeric_sample_names_line(self, tmp_path, noisy_spectrum):
        path = tmp_path / "s.txt"
        write_spectrum(noisy_spectrum, path)
        lines = path.read_text().splitlines()
        data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        lines[data_start] = "-125.0 not_a_number"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"line {data_start + 1}"):
            read_spectrum(path)


class TestFitRecords:
    def test_round_trip(self, tmp_path, noisy_spectrum):
        results = [fit_spectrum(noisy_spectrum, source_id="a"),
                   fit_spectrum(noisy_spectrum, FitModel.EXP_VOIGT, source_id="b")]
        path = tmp_path / "fits.jsonl"
        write_fit_records(results, path)
        back = read_fit_records(path)
        assert len(back) == 2
        for orig, rec in zip(results, back):
            assert rec.model is orig.model
            for field in dataclasses.fields(FitResult):
                np.testing.assert_equal(getattr(rec, field.name), getattr(orig, field.name),
                                        err_msg=field.name)

    def test_record_read_back_equals_the_result_written(self, tmp_path, noisy_spectrum):
        result = fit_spectrum(noisy_spectrum, FitModel.EXP_VOIGT, source_id="b")
        path = tmp_path / "fits.jsonl"
        write_fit_records([result], path)
        assert read_fit_records(path) == [result]

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "fits.jsonl"
        path.write_text('{"model": "exp-gaussian"}\n')
        with pytest.raises(DataError, match="line 1"):
            read_fit_records(path)

    @staticmethod
    def record_without(tmp_path, spectrum, *keys):
        path = tmp_path / "fits.jsonl"
        write_fit_records([fit_spectrum(spectrum, source_id="a")], path)
        record = json.loads(path.read_text())
        for key in keys:
            del record[key]
        path.write_text(json.dumps(record) + "\n")
        return path

    def test_record_without_optional_keys_reads_their_defaults(self, tmp_path,
                                                               noisy_spectrum):
        path = self.record_without(tmp_path, noisy_spectrum, "source_id")
        (back,) = read_fit_records(path)
        assert back.source_id == ""
        assert back.params == fit_spectrum(noisy_spectrum).params

    def test_sigmas_are_the_roots_of_the_covariance_diagonal(self, noisy_spectrum):
        result = fit_spectrum(noisy_spectrum, FitModel.EXP_VOIGT)
        assert list(result.sigmas) == list(FitModel.EXP_VOIGT.param_names)
        assert list(result.sigmas.values()) == \
            np.sqrt(np.maximum(np.diag(result.covariance), 0.0)).tolist()
        assert result.sigmas is result.sigmas  # computed once per result

    def test_records_that_store_sigmas_and_names_read_to_the_same_values(self):
        # Records in the earlier layout, which also stored "param_names",
        # "sigmas" and "convergence_spec": the extra keys are ignored, and the
        # sigmas derived from the covariance equal the stored ones bit for bit.
        path = Path(__file__).parent / "fit_records_stored_sigmas.jsonl"
        stored = [json.loads(line) for line in path.read_text().splitlines()]
        results = read_fit_records(path)
        assert [r.model for r in results] == [FitModel.EXP_GAUSSIAN, FitModel.EXP_VOIGT]
        for record, result in zip(stored, results):
            assert record["param_names"] == list(result.model.param_names)
            assert result.sigmas == record["sigmas"]
            assert result.params == record["params"]
            assert result.covariance.tolist() == record["covariance"]

    @pytest.mark.parametrize("key, value, named", [
        ("converged", "no", "'converged'"),
        ("converged", 1, "'converged'"),
        ("n_iter", 3.5, "'n_iter'"),
        ("n_points", "501", "'n_points'"),
        ("chi2_reduced", "1.0", "'chi2_reduced'"),
        ("chi2_reduced", None, "'chi2_reduced'"),
        ("params", {"delta_mhz": "49.9"}, "'params' .*'delta_mhz'"),
        ("params", [49.9], "'params'"),
        ("source_id", 5, "'source_id'"),
        ("model", "gaussian", "'model'"),
        ("covariance", "12", "'covariance'"),
        ("covariance", [1.0, 2.0], "'covariance'"),
        ("covariance", [["1.0"]], "'covariance'"),
        ("covariance", [[1.0]], "'covariance'"),
        # the model's parameter names are the keys of "params" and the rows
        # and columns of "covariance"
        ("model", "exp-voigt", "'params'"),
        ("params", {"gamma_mhz": 0.1}, "'params'"),
    ])
    def test_mistyped_value_names_line_and_key(self, tmp_path, noisy_spectrum, key, value,
                                               named):
        # JSON types are checked as the config reader checks them: "no" is
        # not a converged flag, and "49.9" is not a width
        path = tmp_path / "fits.jsonl"
        write_fit_records([fit_spectrum(noisy_spectrum, source_id="a")] * 2, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        if isinstance(value, dict):
            record[key].update(value)
        else:
            record[key] = value
        path.write_text(f"{lines[0]}\n{json.dumps(record)}\n")
        with pytest.raises(DataError, match=f"line 2: bad value for {named}"):
            read_fit_records(path)

    @pytest.mark.parametrize("key", ["model", "converged", "n_iter", "n_points",
                                     "chi2_reduced", "params", "covariance"])
    def test_record_without_a_required_key_names_line_and_key(self, tmp_path,
                                                              noisy_spectrum, key):
        path = self.record_without(tmp_path, noisy_spectrum, key)
        with pytest.raises(DataError, match=f"line 1: .*'{key}'"):
            read_fit_records(path)

    def test_record_without_a_parameter_of_its_model_names_line_and_params(
            self, tmp_path, noisy_spectrum):
        path = tmp_path / "fits.jsonl"
        write_fit_records([fit_spectrum(noisy_spectrum, source_id="a")], path)
        record = json.loads(path.read_text())
        del record["params"]["delta_mhz"]
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DataError, match="line 1: bad value for 'params'"):
            read_fit_records(path)


def test_record_keys_are_the_fields(tmp_path):
    # a fit record holds each FitResult field once, and a regression summary
    # each ExtrapolationResult field in order, then the slope threshold
    assert sorted(key for key, _ in _FIT_RECORD) == \
        sorted(f.name for f in dataclasses.fields(FitResult))
    points = [WidthPoint(a, 49.9 + 0.2 * a, 1e-3, 0.0) for a in (0.2, 0.8, 1.6)]
    path = tmp_path / "summary.json"
    write_regression_summary(zero_pressure_width(points), 1.5e-6, path)
    assert list(json.loads(path.read_text())) == \
        [f.name for f in dataclasses.fields(ExtrapolationResult)] + ["slope_threshold_per_mhz"]


class TestSummaryAndTables:
    def test_summary_round_trip(self, tmp_path):
        points = [WidthPoint(a, 49.9 + 0.2 * a, 1e-3, 0.0) for a in (0.2, 0.8, 1.6)]
        out = zero_pressure_width(points)
        path = tmp_path / "summary.json"
        write_regression_summary(out, 1.5e-6, path)
        back = read_regression_summary(path)
        assert back["delta_d_mhz"] == out.delta_d_mhz
        assert back["delta_d_sigma_mhz"] == out.delta_d_sigma_mhz
        assert back["slope_threshold_per_mhz"] == 1.5e-6

    @pytest.mark.parametrize("field, value", [
        ("delta_d_mhz", -1), ("delta_d_mhz", 0.0), ("delta_d_mhz", "x"), ("delta_d_mhz", True),
        ("delta_d_mhz", None), ("delta_d_mhz", math.nan), ("delta_d_mhz", math.inf),
        ("delta_d_sigma_mhz", -0.1), ("delta_d_sigma_mhz", "0.01"),
        ("delta_d_sigma_mhz", math.nan), ("delta_d_sigma_mhz", math.inf),
    ])
    def test_summary_value_kb_cannot_use_names_the_field(self, tmp_path, field, value):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({"delta_d_mhz": 49.88, "delta_d_sigma_mhz": 0.005,
                                    field: value}))
        with pytest.raises(DataError, match=f"field '{field}' must be a finite number"):
            read_regression_summary(path)

    def test_summary_takes_integers_and_a_zero_sigma(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({"delta_d_mhz": 50, "delta_d_sigma_mhz": 0}))
        assert read_regression_summary(path)["delta_d_mhz"] == 50

    def test_width_table_marks_partitions(self, tmp_path):
        kept = [WidthPoint(1.0, 49.9, 1e-3, 0.0, source_id="good")]
        rejected = [WidthPoint(2.0, 50.0, 1e-3, 5e-4, source_id="sloped")]
        path = tmp_path / "table.txt"
        write_width_table(kept, rejected, path)
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 2
        assert rows[0].endswith("1 good")
        assert rows[1].endswith("0 sloped")

    def test_boltzmann_record(self, tmp_path):
        out = uncertainty_budget(49.8831, 0.0047, NH3, TemperatureReading(273.15, 0.02))
        path = tmp_path / "kb.json"
        write_boltzmann_record(out, path)
        rec = json.loads(path.read_text())
        assert rec["kb_j_per_k"] == out.kb
        assert set(rec["budget_relative"]) == {"width", "temperature", "frequency", "mass"}


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        cfg = CampaignConfig()
        path = tmp_path / "manifest.json"
        write_manifest(path, "simulate", cfg.to_dict(), cfg.seed)
        manifest = json.loads(path.read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == cfg.seed
        assert manifest["config_sha256"] == config_hash(cfg.to_dict())
        assert manifest["constants"]["constants_version"] == constants.CONSTANTS_VERSION
        assert "numpy" in manifest["versions"]

    def test_manifest_holds_every_constant(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, "simulate", {}, None)
        recorded = json.loads(path.read_text())["constants"]
        names = [name for name in vars(constants) if re.fullmatch(r"[A-Z][A-Z0-9_]*", name)]
        assert "N14_MASS_U" in names and "H1_MASS_U" in names
        assert recorded == {name.lower(): getattr(constants, name) for name in names}

    def test_hash_is_canonical(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert config_hash(a) == config_hash(b)


class TestCampaignConfig:
    def test_defaults_are_valid(self):
        cfg = CampaignConfig()
        assert cfg.transition().label == constants.NH3_LINE_LABEL
        assert cfg.scan().n_points == 501

    def test_default_config_builds_the_library_defaults(self):
        # the config restates no default of the objects it builds
        cfg = CampaignConfig()
        assert cfg.scan() == ScanConfig()
        assert cfg.transition() == Transition.nh3()
        for p in cfg.pressures_pa:
            assert cfg.conditions(p) == GasConditions(p)

    def test_keys_are_the_fields_in_order(self):
        keys = []
        for outer, value in CampaignConfig().to_dict().items():
            keys += [f"{outer}_{inner}" for inner in value] if isinstance(value, dict) else [outer]
        assert keys == [f.name for f in dataclasses.fields(CampaignConfig)]

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(DataError, match="unknown key.*snrr"):
            config_from_dict({"snrr": 100})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(DataError, match="transition"):
            config_from_dict({"transition": {"mass_kg": 1.0}})

    def test_null_snr_means_noiseless(self):
        cfg = config_from_dict({"snr": None})
        assert math.isinf(cfg.snr)
        assert cfg.to_dict()["snr"] is None

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"pressures_pa": [0.5, 1.0, 5.0], "replicas": 2,
                                    "seed": 7, "scan": {"step_mhz": 0.25}}))
        cfg = load_config(path)
        assert cfg.pressures_pa == (0.5, 1.0, 5.0)
        assert (cfg.replicas, cfg.seed, cfg.scan_step_mhz) == (2, 7, 0.25)

    def test_bad_json_is_data_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(DataError, match="invalid JSON"):
            load_config(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_bad_model_rejected(self):
        # the fit model is chosen by `fit --model` and the slope threshold by
        # `series --threshold-slope`; the config keys that named them are gone
        for key, value in (("model", "exp-gaussian"), ("slope_threshold_per_mhz", 1e-6)):
            with pytest.raises(DataError, match=f"unknown key.*{key}"):
                config_from_dict({key: value})

    @pytest.mark.parametrize("raw, key", [
        ({"snr": "abc"}, "snr"),
        ({"scan": {"step_mhz": "x"}}, "scan.step_mhz"),
        ({"transition": {"nu0_mhz": None}}, "transition.nu0_mhz"),
        ({"pressures_pa": "123"}, "pressures_pa"),
        ({"pressures_pa": [1.0, True]}, "pressures_pa"),
        ({"replicas": 2.7}, "replicas"),
        ({"replicas": True}, "replicas"),
        ({"seed": 7.0}, "seed"),
        ({"seed": False}, "seed"),
        ({"temperature_k": True}, "temperature_k"),
        ({"transition": {"label": 5}}, "transition.label"),
        ({"hyperfine_file": ["hf.txt"]}, "hyperfine_file"),
        ({"transition": "nh3"}, "transition"),
        ({"scan": [0.5]}, "scan"),
        # only snr has a use for inf, and it says so with null
        ({"transition": {"mass_u": math.inf}}, "transition.mass_u"),
        ({"transition": {"nu0_mhz": math.inf}}, "transition.nu0_mhz"),
        ({"scan": {"span_mhz": math.inf}}, "scan.span_mhz"),
        ({"temperature_k": math.nan}, "temperature_k"),
        ({"pressures_pa": [1.0, math.nan]}, "pressures_pa"),
        ({"snr": math.inf}, "snr"),
    ])
    def test_malformed_value_is_data_error_naming_the_key(self, raw, key):
        with pytest.raises(DataError, match=f"config: .*'{key}'"):
            config_from_dict(raw)

    @pytest.mark.parametrize("raw, what", [
        ({"transition": {"nu0_mhz": -1.0}}, "transition"),
        ({"transition": {"mass_u": 0.0}}, "transition"),
        ({"scan": {"step_mhz": 100.0}}, "scan"),
        ({"snr": 0}, "scan"),
        ({"temperature_sigma_k": -0.1}, "temperature reading"),
        ({"temperature_k": 0.0}, "temperature reading"),
        ({"absorption_depth_per_pa": -0.1}, "pressures_pa[0]"),
        ({"pressures_pa": [1.0, 50.0]}, "pressures_pa[1]"),
        ({"pressures_pa": [0.001]}, "pressures_pa[0]"),
        ({"seed": -1}, "seed"),
        ({"kb_true": -1.0}, "kb_true"),
        ({"mass_sigma_rel": -1.0}, "uncertainty budget"),
        ({"nu_sigma_rel": -1.0}, "uncertainty budget"),
        ({"hyperfine_file": "nope.txt"}, "hyperfine_file"),
        ({"transition": {"label": "a\nb"}}, "transition"),
        ({"transition": {"label": "asQ(6,3) "}}, "transition"),
        ({"cell_length_m": -1.0}, "spectrum header"),
        ({"cell_length_m": 0.0}, "spectrum header"),
    ])
    def test_value_refused_by_a_built_object_is_data_error(self, raw, what):
        # the config builds the transition, the scan, the temperature reading,
        # the Doppler width, the uncertainty budget, the hyperfine structure,
        # the spectrum header, the gas conditions at every pressure and the
        # seed sequence, and names the one that failed
        with pytest.raises(DataError, match=rf"config: .*{re.escape(what)}: "):
            config_from_dict(raw)

    def test_round_trip_through_dict(self):
        cfg = CampaignConfig(snr=500.0, replicas=3)
        again = config_from_dict(cfg.to_dict())
        assert again == cfg
