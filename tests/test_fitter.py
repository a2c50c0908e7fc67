import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dopplerkb import (
    FitModel,
    GasConditions,
    HyperfineStructure,
    ModulationComb,
    ScanConfig,
    Transition,
    constants,
    fit_series,
    fit_spectrum,
    jacobian,
    synth_series,
    synth_spectrum,
)
from dopplerkb import fitter
from dopplerkb.errors import DataError, FitError
from dopplerkb.simulator import spawn_seeds
from dopplerkb.spectra import Spectrum, SpectrumMeta

import _loop_fitter
from _loop_fitter import initial_guess, loop_fit

NH3 = Transition.nh3()
KB = constants.KB_CODATA_2002


def make_scan(snr=math.inf, span=250.0, step=0.5):
    return ScanConfig(span_mhz=span, step_mhz=step, snr=snr)


def make_spectrum(pressure=3.0, snr=math.inf, seed=0, gamma_coeff=0.0, **kwargs):
    cond = GasConditions(pressure_pa=pressure, pressure_broadening_mhz_per_pa=gamma_coeff)
    return synth_spectrum(NH3, cond, make_scan(snr=snr), KB, seed, **kwargs)


def low_pressure_spectrum(seed):
    """The 0.01 Pa spectrum of ``seed`` on the default scan at S/N 1000, where
    exp-Gaussian fits fail: seeds 3 and 4 give a degenerate fit, seed 9 is
    unconverged after 200 iterations, and seeds 0 and 5 converge in 13 and 20
    iterations (pinned in ``TestFitSpectrum``)."""
    (spectrum, _), = synth_series(NH3, [0.01], GasConditions(pressure_pa=1.0),
                                  make_scan(snr=1000.0), KB, seed)
    return spectrum


def start_of(spectrum, model=FitModel.EXP_GAUSSIAN):
    """The package's start of one spectrum as a parameter dict; its refusal
    is raised as a ``DataError``."""
    starts, refusals = fitter._guesses(spectrum.freq_offset_mhz,
                                       spectrum.transmission[None], model)
    if refusals[0] is not None:
        raise DataError(refusals[0])
    return dict(zip(model.param_names, starts[0].tolist()))


def as_row(params, model):
    """One parameter dict as a (1, params) array for the row-batched kernels."""
    return np.array([[params[name] for name in model.param_names]])


def jacobian_fd(offsets, theta, model, rel_step=1e-6):
    """Central finite differences of every row of ``theta``, with steps of
    1e-6 of each parameter scale."""
    span = float(offsets[-1] - offsets[0])
    scale = {"nu0_mhz": span, "delta_mhz": span, "peak_depth": 1.0,
             "baseline_level": 1.0, "baseline_slope": 1.0 / span, "gamma_mhz": span}
    cols = []
    for k, name in enumerate(model.param_names):
        step = np.zeros(theta.shape[1])
        step[k] = rel_step * scale[name]
        cols.append((jacobian(offsets, theta + step, model)[0]
                     - jacobian(offsets, theta - step, model)[0]) / (2 * step[k]))
    return np.stack(cols, axis=-1)


class TestJacobian:
    def test_level_column_is_one_at_zero_depth(self):
        x = np.linspace(-125, 125, 501)
        params = dict(nu0_mhz=0.0, delta_mhz=50.0, peak_depth=0.0,
                      baseline_level=1.0, baseline_slope=0.0)
        j = jacobian(x, as_row(params, FitModel.EXP_GAUSSIAN), FitModel.EXP_GAUSSIAN)[1][0]
        np.testing.assert_array_equal(j[:, 3], np.ones_like(x))

    def test_center_column_zero_at_line_center_without_slope(self):
        params = dict(nu0_mhz=0.0, delta_mhz=50.0, peak_depth=0.7,
                      baseline_level=1.0, baseline_slope=0.0)
        j = jacobian(np.array([0.0]), as_row(params, FitModel.EXP_GAUSSIAN),
                     FitModel.EXP_GAUSSIAN)[1][0]
        assert j[0, 0] == 0.0

    @pytest.mark.parametrize("model", [FitModel.EXP_GAUSSIAN, FitModel.EXP_VOIGT])
    def test_matches_finite_differences_on_random_draws(self, model):
        # all 100 draws go through the kernels as one stack of rows
        rng = np.random.default_rng(17)
        x = np.linspace(-125, 125, 301)
        draws = [
            {
                "nu0_mhz": rng.uniform(-20, 20),
                "delta_mhz": rng.uniform(30, 70),
                "peak_depth": rng.uniform(0.05, 2.0),
                "baseline_level": rng.uniform(0.5, 1.5),
                "baseline_slope": rng.uniform(-1e-4, 1e-4),
                "gamma_mhz": rng.uniform(0.005, 1.0),
            }
            for _ in range(100)
        ]
        theta = np.concatenate([as_row(params, model) for params in draws])
        analytic = jacobian(x, theta, model)[1]
        assert analytic.shape == (100, x.size, len(model.param_names))
        fd = jacobian_fd(x, theta, model)
        norm = np.max(np.abs(analytic), axis=1)
        assert np.all(np.max(np.abs(analytic - fd), axis=1) <= 1e-6 * norm)

    @pytest.mark.parametrize("model", [FitModel.EXP_GAUSSIAN, FitModel.EXP_VOIGT])
    def test_no_rows_give_empty_model_and_jacobian(self, model):
        # an iteration whose rows all end or step to a non-positive width or
        # level sends an empty stack of trial rows
        x = np.linspace(-125, 125, 301)
        n = len(model.param_names)
        values, j = jacobian(x, np.empty((0, n)), model)
        assert values.shape == (0, x.size)
        assert j.shape == (0, x.size, n)


    @pytest.mark.parametrize("model", [FitModel.EXP_GAUSSIAN, FitModel.EXP_VOIGT])
    def test_calls_without_a_workspace_return_independent_arrays(self, model):
        x = np.linspace(-125, 125, 301)
        theta = as_row(dict(nu0_mhz=1.0, delta_mhz=50.0, peak_depth=0.7, baseline_level=1.0,
                            baseline_slope=1e-5, gamma_mhz=0.2), model)
        values, j = jacobian(x, theta, model)
        kept = values.copy(), j.copy()
        other = jacobian(x, 2 * theta, model)
        for mine, theirs in zip((values, j), other):
            assert not np.shares_memory(mine, theirs)
        np.testing.assert_array_equal(values, kept[0])
        np.testing.assert_array_equal(j, kept[1])


class TestInitialGuess:
    def test_noiseless_width_within_five_percent(self):
        spectrum, truth = make_spectrum(pressure=3.1)  # depth ~0.5
        guess = start_of(spectrum)
        assert guess["delta_mhz"] == pytest.approx(truth.delta_d_mhz, rel=0.05)
        assert guess["peak_depth"] == pytest.approx(truth.peak_depth, rel=0.05)
        x = spectrum.freq_offset_mhz
        assert abs(guess["nu0_mhz"]) <= x[1] - x[0]

    def test_one_sample_dip_starts_at_the_grid_spacing_of_its_minimum(self):
        # both neighbours of the minimum sit on the baseline, so the 1/e
        # region is empty and the width starts at the spacing x[i+1] - x[i]
        x = np.cumsum(np.linspace(0.5, 1.5, 41))
        t = np.ones_like(x)
        t[20] = 0.5
        meta = SpectrumMeta("dip", NH3.nu0_mhz, 273.15, 0.0, 1.0, 0.3, math.inf, 0)
        guess = start_of(Spectrum(x, t, meta))
        assert guess["nu0_mhz"] == x[20]
        assert guess["delta_mhz"] == x[21] - x[20] != x[20] - x[19]

    def test_one_sample_dip_on_a_tenth_mhz_scan_starts_ulps_from_the_step(self):
        # (i - half) * 0.1 is not spaced by exactly 0.1: the width start is
        # the grid's spacing, a few ulps away from the configured step
        x = make_scan(span=40.0, step=0.1).offsets_mhz()
        t = np.ones_like(x)
        t[250] = 0.5
        meta = SpectrumMeta("dip", NH3.nu0_mhz, 273.15, 0.0, 1.0, 0.3, math.inf, 0)
        delta = start_of(Spectrum(x, t, meta))["delta_mhz"]
        assert delta == x[251] - x[250] != 0.1
        assert abs(delta - 0.1) <= 2 * np.spacing(x[250])

    def test_flat_spectrum_rejected(self):
        x = make_scan().offsets_mhz()
        meta = SpectrumMeta("flat", NH3.nu0_mhz, 273.15, 0.0, 1.0, 0.3, math.inf, 0)
        flat = Spectrum(x, np.ones_like(x), meta)
        with pytest.raises(DataError, match="line not in scan window"):
            start_of(flat)

    def test_minimum_at_edge_rejected(self):
        x = make_scan().offsets_mhz()
        meta = SpectrumMeta("ramp", NH3.nu0_mhz, 273.15, 0.0, 1.0, 0.3, math.inf, 0)
        ramp = Spectrum(x, 1.0 - 1e-3 * (x - x[0]), meta)
        with pytest.raises(DataError, match="line not in scan window"):
            start_of(ramp)

    def test_too_few_points_rejected(self):
        meta = SpectrumMeta("short", NH3.nu0_mhz, 273.15, 0.0, 1.0, 0.3, math.inf, 0)
        short = Spectrum(np.arange(-5.0, 6.0), np.ones(11), meta)
        with pytest.raises(DataError, match="16"):
            start_of(short)


class TestFitSpectrum:
    def test_noiseless_recovery_at_machine_level(self):
        spectrum, truth = make_spectrum(pressure=3.1)
        result = fit_spectrum(spectrum)
        assert result.converged
        assert result.params["delta_mhz"] == pytest.approx(truth.delta_d_mhz, rel=1e-6)
        assert result.params["peak_depth"] == pytest.approx(truth.peak_depth, rel=1e-6)
        assert result.params["baseline_level"] == pytest.approx(1.0, rel=1e-6)
        assert abs(result.params["nu0_mhz"]) <= 1e-4
        assert abs(result.params["baseline_slope"]) <= 1e-12

    def test_voigt_model_recovers_gamma(self):
        spectrum, truth = make_spectrum(pressure=5.0, gamma_coeff=0.02)
        result = fit_spectrum(spectrum, FitModel.EXP_VOIGT)
        assert result.converged
        assert result.params["gamma_mhz"] == pytest.approx(truth.gamma_mhz, rel=1e-4)
        assert result.params["delta_mhz"] == pytest.approx(truth.delta_d_mhz, rel=1e-6)

    def test_noisy_width_uncertainty_in_paper_band(self):
        # per-spectrum statistical width uncertainty at S/N 1000 sits in the
        # 1e-3 .. 1e-4 relative band for this geometry
        sigmas = []
        for seed in spawn_seeds(101, 20):
            spectrum, truth = make_spectrum(pressure=3.1, snr=1000.0, seed=seed)
            result = fit_spectrum(spectrum)
            assert result.converged
            sigmas.append(result.sigmas["delta_mhz"] / truth.delta_d_mhz)
        med = float(np.median(sigmas))
        assert 1e-4 <= med <= 1e-3

    def test_gaussian_fit_to_voigt_data_absorbs_homogeneous_broadening(self):
        # fitted over a +/- sqrt(pi)*delta window, the Gaussian model inflates
        # the width by 0.484*gamma/delta (to 10% of the correction)
        ratio = 0.01
        delta_true = 49.883040330170026
        span = 2.0 * math.sqrt(math.pi) * delta_true
        scan = ScanConfig(span_mhz=span, step_mhz=0.5,
                          snr=math.inf)
        cond = GasConditions(pressure_pa=1.0, absorption_depth_per_pa=0.105,
                             pressure_broadening_mhz_per_pa=ratio * delta_true)
        spectrum, truth = synth_spectrum(NH3, cond, scan, KB, 0)
        result = fit_spectrum(spectrum)
        correction = 0.484 * ratio * truth.delta_d_mhz
        excess = result.params["delta_mhz"] - truth.delta_d_mhz
        assert abs(excess - correction) <= 0.10 * correction

    def test_chi2_reduced_near_one_for_noisy_data(self):
        spectrum, _ = make_spectrum(pressure=3.1, snr=1000.0, seed=7)
        result = fit_spectrum(spectrum)
        assert 0.8 <= result.chi2_reduced <= 1.2

    def test_degenerate_fit_raises(self):
        for seed in (3, 4):
            with pytest.raises(FitError, match="degenerate"):
                fit_spectrum(low_pressure_spectrum(seed))

    def test_low_pressure_spectra_end_as_documented(self):
        outcomes = [fit_spectrum(low_pressure_spectrum(seed)) for seed in (9, 0, 5)]
        assert [(r.converged, r.n_iter) for r in outcomes] == [(False, 200), (True, 13),
                                                               (True, 20)]

    def test_unconverged_flagged_not_raised(self):
        spectrum, _ = make_spectrum(pressure=3.1, snr=1000.0, seed=3)
        result = fit_spectrum(spectrum, max_iter=2)
        assert not result.converged
        assert result.n_iter == 2


@pytest.fixture(scope="module")
def replica_fits():
    fits = []
    truth = None
    for seed in spawn_seeds(2024, 200):
        spectrum, truth = make_spectrum(pressure=3.1, snr=1000.0, seed=seed)
        fits.append(fit_spectrum(spectrum))
    return fits, truth


class TestFitResultEquality:
    def test_fits_of_one_spectrum_compare_equal(self):
        spectrum, _ = make_spectrum(pressure=3.1, snr=1000.0, seed=12)
        assert fit_spectrum(spectrum, source_id="a") == fit_spectrum(spectrum, source_id="a")

    def test_a_changed_covariance_compares_unequal(self):
        spectrum, _ = make_spectrum(pressure=3.1, snr=1000.0, seed=12)
        result = fit_spectrum(spectrum)
        covariance = result.covariance.copy()
        covariance[1, 1] = np.nextafter(covariance[1, 1], 1.0)
        assert result != dataclasses.replace(result, covariance=covariance)
        assert result != dataclasses.replace(result, source_id="other")


class TestFitterStatistics:
    def test_estimator_consistency(self, replica_fits):
        fits, truth = replica_fits
        widths = np.array([f.params["delta_mhz"] for f in fits])
        sem = widths.std(ddof=1) / math.sqrt(len(widths))
        assert abs(widths.mean() - truth.delta_d_mhz) < 3.0 * sem

    def test_covariance_calibration(self, replica_fits):
        fits, _ = replica_fits
        widths = np.array([f.params["delta_mhz"] for f in fits])
        reported = np.array([f.sigmas["delta_mhz"] for f in fits])
        ratio = widths.var(ddof=1) / np.mean(reported**2)
        assert 0.5 <= ratio <= 2.0

    def test_frequency_axis_translation_invariance(self):
        spectrum, _ = make_spectrum(pressure=3.1, snr=1000.0, seed=9)
        shift = 37.25
        shifted = Spectrum(spectrum.freq_offset_mhz + shift,
                           spectrum.transmission, spectrum.meta)
        base = fit_spectrum(spectrum)
        moved = fit_spectrum(shifted)
        assert moved.params["nu0_mhz"] - base.params["nu0_mhz"] == pytest.approx(
            shift, abs=1e-9)
        for name in ("delta_mhz", "peak_depth", "baseline_level"):
            assert moved.params[name] == pytest.approx(base.params[name], rel=1e-9)
        # the slope hovers near zero, so "1e-9 relative" is taken against its
        # natural scale level/span (the transmission change it causes)
        x = spectrum.freq_offset_mhz
        slope_scale = base.params["baseline_level"] / (x[-1] - x[0])
        assert abs(moved.params["baseline_slope"] - base.params["baseline_slope"]) \
            <= 1e-9 * slope_scale

    def test_amplitude_invariant_under_slope_injection(self):
        spectrum, _ = make_spectrum(pressure=3.1, snr=1000.0, seed=21)
        base = fit_spectrum(spectrum)
        slope = 0.01 * 1.0 / 250.0  # |slope| * span = 1% of baseline
        injected = fit_spectrum(spectrum.with_transmission(
            spectrum.transmission + slope * spectrum.freq_offset_mhz))
        assert injected.params["peak_depth"] == pytest.approx(
            base.params["peak_depth"], rel=1e-3)
        assert injected.params["baseline_slope"] - base.params["baseline_slope"] == \
            pytest.approx(slope, rel=1e-3)


GOLDEN = json.loads((Path(__file__).parent / "fitter_golden.json").read_text())
GOLDEN_PRESSURES = (0.2, 0.6, 1.2, 2.0, 3.2, 5.0, 7.5, 10.0)


def golden_spectra(model):
    """The spectra behind ``fitter_golden.json``: one per default pressure
    (exp-Gaussian), or two hyperfine x FM-comb spectra (exp-Voigt)."""
    scan = make_scan(snr=1000.0)
    cond = GasConditions(pressure_pa=1.0)
    if model is FitModel.EXP_GAUSSIAN:
        pairs = synth_series(NH3, GOLDEN_PRESSURES, cond, scan, KB, 20070118)
    else:
        pairs = synth_series(NH3, (2.0, 7.5), cond, scan, KB, 20070119,
                             hyperfine=HyperfineStructure.nh3_placeholder(),
                             comb=ModulationComb.paper_default())
    return [spectrum for spectrum, _ in pairs]


def assert_same_fit(a, b):
    assert a.params == b.params and a.sigmas == b.sigmas
    np.testing.assert_array_equal(a.covariance, b.covariance)
    assert (a.chi2_reduced, a.n_iter, a.converged, a.n_points, a.source_id) == \
        (b.chi2_reduced, b.n_iter, b.converged, b.n_points, b.source_id)


class TestBlockFitting:
    @pytest.mark.parametrize("model", [FitModel.EXP_GAUSSIAN, FitModel.EXP_VOIGT])
    def test_matches_golden_values_of_per_spectrum_fitter(self, model):
        # Values recorded from the per-spectrum Gauss-Newton fitter that the
        # block fitter replaced, for the same spectra.
        results = fit_series(golden_spectra(model), model)
        golden = GOLDEN[model.value]
        assert len(results) == len(golden)
        for result, want in zip(results, golden):
            assert result.converged == want["converged"]
            assert result.params["delta_mhz"] == pytest.approx(
                want["params"]["delta_mhz"], rel=1e-9)
            for name, value in want["params"].items():
                assert abs(result.params[name] - value) <= 1e-5 * want["sigmas"][name], name

    def test_alone_equals_inside_a_batch_of_forty(self):
        pressures = [p for p in GOLDEN_PRESSURES for _ in range(5)]
        spectra = [s for s, _ in synth_series(NH3, pressures, GasConditions(pressure_pa=1.0),
                                              make_scan(snr=1000.0), KB, 5)]
        ids = [f"s{i}" for i in range(len(spectra))]
        batch = fit_series(spectra, source_ids=ids)  # 40 rows: two blocks at 501 points
        assert len(batch) == 40
        for i in (0, 17, 31, 32, 39):
            assert_same_fit(fit_spectrum(spectra[i], source_id=ids[i]), batch[i])

    def test_mixed_grids_come_back_in_input_order(self):
        wide = [s for s, _ in synth_series(NH3, [1.0, 3.0, 6.0], GasConditions(pressure_pa=1.0),
                                           make_scan(snr=1000.0), KB, 8)]
        narrow = [s for s, _ in synth_series(NH3, [2.0, 4.0], GasConditions(pressure_pa=1.0),
                                             make_scan(snr=1000.0, span=200.0, step=0.5),
                                             KB, 9)]
        mixed = [wide[0], narrow[0], wide[1], wide[2], narrow[1]]
        ids = ["w0", "n0", "w1", "w2", "n1"]
        results = fit_series(iter(mixed), source_ids=ids)
        assert [r.source_id for r in results] == ids
        assert [r.n_points for r in results] == [s.n_points for s in mixed]
        for spectrum, sid, result in zip(mixed, ids, results):
            assert_same_fit(fit_spectrum(spectrum, source_id=sid), result)

    def test_degenerate_spectrum_inside_a_block_raises(self):
        spectra = [s for s, _ in synth_series(NH3, [3.1] * 6, GasConditions(pressure_pa=1.0),
                                              make_scan(snr=1000.0), KB, 4)]
        spectra[2] = low_pressure_spectrum(3)
        with pytest.raises(FitError, match="degenerate"):
            fit_series(spectra)
        assert all(r.converged for r in fit_series(spectra[:2] + spectra[3:]))

    @pytest.mark.parametrize("model", [FitModel.EXP_GAUSSIAN, FitModel.EXP_VOIGT])
    def test_no_parameter_row_is_evaluated_twice(self, model, monkeypatch):
        # every model evaluation goes through ``_columns``; the start rows and
        # each trial row reach it once, and an accepted trial is not evaluated
        # again for its Jacobian
        if model is FitModel.EXP_GAUSSIAN:
            pressures = [p for p in GOLDEN_PRESSURES for _ in range(5)]
            spectra = [s for s, _ in synth_series(NH3, pressures, GasConditions(pressure_pa=1.0),
                                                  make_scan(snr=1000.0), KB, 5)]
        else:
            spectra = golden_spectra(model)
        rows = []
        columns = fitter._columns

        def recording(theta, model):
            rows.extend(row.tobytes() for row in np.asarray(theta, dtype=float))
            return columns(theta, model)

        monkeypatch.setattr(fitter, "_columns", recording)
        results = fit_series(spectra, model)
        assert sum(r.n_iter for r in results) >= len(rows) - len(spectra) > 0
        assert len(set(rows)) == len(rows)

    def test_reused_buffers_leak_nothing_between_blocks(self):
        # One call: a full 32-row block, a 5-row block on the same grid, a
        # second 501-point grid (other offsets, so a workspace of its own),
        # then the first grid again with a row that runs out of iterations.
        cond = GasConditions(pressure_pa=1.0)
        pressures = [p for p in GOLDEN_PRESSURES for _ in range(5)][:37]
        first = [s for s, _ in synth_series(NH3, pressures, cond, make_scan(snr=1000.0), KB, 5)]
        other_grid = make_scan(snr=1000.0, span=200.0, step=0.4)
        second = [s for s, _ in synth_series(NH3, [2.0, 4.0, 6.0], cond, other_grid, KB, 9)]
        last = [s for s, _ in synth_series(NH3, [1.0, 5.0], cond, make_scan(snr=1000.0), KB, 13)]
        spectra = first + second + last + [low_pressure_spectrum(0)]  # 13 iterations
        assert second[0].n_points == first[0].n_points
        results = fit_series(spectra, max_iter=10)
        assert (results[-1].converged, results[-1].n_iter) == (False, 10)
        assert sum(r.converged for r in results) >= len(spectra) - 4
        for spectrum, result in zip(spectra, results):
            assert result == fit_spectrum(spectrum, max_iter=10)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the bound is set for glibc's malloc")
    def test_a_second_fit_series_does_not_page_fault(self):
        # The block buffers are allocated once per grid, as one array that
        # malloc keeps for the next call; when every iteration allocated them
        # anew, a W1 fit took about 24k minor faults.  A fresh interpreter,
        # because large arrays freed by earlier tests change what malloc
        # keeps, which can hide the faults.
        code = textwrap.dedent("""
            import resource
            from dopplerkb import GasConditions, ScanConfig, Transition, constants
            from dopplerkb import fit_series, synth_series

            pressures = [p for p in (0.2, 0.6, 1.2, 2.0, 3.2, 5.0, 7.5, 10.0)
                         for _ in range(50)]
            pairs = synth_series(Transition.nh3(), pressures, GasConditions(pressure_pa=1.0),
                                 ScanConfig(snr=1000.0), constants.KB_CODATA_2002, 23)
            spectra = [spectrum for spectrum, _ in pairs]
            fit_series(spectra)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            results = fit_series(spectra)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            print(len(results), after - before)
        """)
        src = str(Path(fitter.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        n_results, faults = map(int, proc.stdout.split())
        assert n_results == 400
        assert faults < 2000

    def test_a_w1_series_fills_its_slots_and_evaluates_the_same_rows(self, monkeypatch):
        # With its slots refilled as fits end, a 400-spectrum W1 fit makes
        # about 90 kernel calls; iterated block by block it made about 200.
        pressures = [p for p in GOLDEN_PRESSURES for _ in range(50)]
        spectra = [s for s, _ in synth_series(NH3, pressures, GasConditions(pressure_pa=1.0),
                                              make_scan(snr=1000.0), KB, 23)]
        rows, calls = [], []
        columns, kernel = fitter._columns, fitter.jacobian

        def recording(theta, model):
            rows.extend(row.tobytes() for row in np.asarray(theta, dtype=float))
            return columns(theta, model)

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(fitter, "_columns", recording)
        monkeypatch.setattr(fitter, "jacobian", counting)
        batch = fit_series(spectra)
        in_batch, rows[:] = sorted(rows), []
        assert len(calls) <= 100
        assert sum(calls) == len(in_batch)
        alone = [fit_spectrum(spectrum) for spectrum in spectra]
        assert sorted(rows) == in_batch
        assert batch == alone

    def test_an_error_of_an_earlier_row_comes_before_a_later_unstartable_one(self):
        spectra = [s for s, _ in synth_series(NH3, [3.1] * 41, GasConditions(pressure_pa=1.0),
                                              make_scan(snr=1000.0), KB, 4)]
        meta = spectra[40].meta
        spectra[40] = spectra[40].with_transmission(np.ones(spectra[40].n_points), meta)
        with_degenerate = spectra[:3] + [low_pressure_spectrum(3)] + spectra[4:]
        with pytest.raises(FitError, match="degenerate"):
            fit_series(with_degenerate)
        with pytest.raises(DataError, match="line not in scan window"):
            fit_series(spectra)

    def test_a_degenerate_fit_names_the_first_degenerate_spectrum_in_input_order(self):
        # the same degenerate spectrum twice, so both fail in one iteration
        spectra = [s for s, _ in synth_series(NH3, [3.1] * 8, GasConditions(pressure_pa=1.0),
                                              make_scan(snr=1000.0), KB, 4)]
        spectra[3] = spectra[5] = low_pressure_spectrum(3)
        ids = [f"s{i}.txt" for i in range(8)]
        with pytest.raises(FitError, match=r"^s3\.txt: degenerate fit: singular normal matrix$"):
            fit_series(spectra, source_ids=ids)
        with pytest.raises(FitError, match=r"^degenerate fit: singular normal matrix$"):
            fit_series(spectra)

    def test_the_slot_of_a_row_out_of_iterations_is_refilled(self, monkeypatch):
        # Two slots: A runs out of iterations; B converges and C, which also
        # runs out, takes its slot; D then takes A's slot while C still runs.
        spectra = [s for s, _ in synth_series(NH3, [2.0, 3.1, 5.0, 7.5],
                                              GasConditions(pressure_pa=1.0),
                                              make_scan(snr=1000.0), KB, 31)]
        spectra[0], spectra[2] = low_pressure_spectrum(0), low_pressure_spectrum(5)
        calls = []
        kernel = fitter.jacobian

        def recording(*args, **kwargs):
            calls.append({row.tobytes() for row in args[1]})
            return kernel(*args, **kwargs)

        monkeypatch.setattr(fitter, "_BLOCK_ELEMENTS", 2 * spectra[0].n_points)
        monkeypatch.setattr(fitter, "jacobian", recording)
        a, b, c, d = fit_series(spectra, max_iter=10)
        monkeypatch.undo()

        def start_call(i):
            start = np.array(list(start_of(spectra[i]).values())).tobytes()
            return next(k for k, rows in enumerate(calls) if start in rows)

        assert (a.converged, a.n_iter, c.converged, c.n_iter) == (False, 10, False, 10)
        assert b.converged and b.n_iter < 10
        assert start_call(0) == start_call(1) == 0
        assert start_call(2) == b.n_iter + 1
        assert start_call(3) == a.n_iter + 1 < start_call(2) + c.n_iter
        for spectrum, result in zip(spectra, (a, b, c, d)):
            assert result == fit_spectrum(spectrum, max_iter=10)


def w1_spectra(seed, replicas=50):
    pressures = [p for p in GOLDEN_PRESSURES for _ in range(replicas)]
    return [s for s, _ in synth_series(NH3, pressures, GasConditions(pressure_pa=1.0),
                                       make_scan(snr=1000.0), KB, seed)]


def w3_spectra(seed):
    pressures = [p for p in GOLDEN_PRESSURES for _ in range(6)]
    return [s for s, _ in synth_series(NH3, pressures, GasConditions(pressure_pa=1.0),
                                       make_scan(snr=1000.0), KB, seed,
                                       hyperfine=HyperfineStructure.nh3_placeholder(),
                                       comb=ModulationComb.paper_default())]


def dip_meta(label):
    return SpectrumMeta(label, NH3.nu0_mhz, 273.15, 0.0, 1.0, 0.3, math.inf, 0)


def one_sample_dips():
    """The spectra of the two one-sample-dip tests of ``TestInitialGuess``."""
    uneven = np.cumsum(np.linspace(0.5, 1.5, 41))
    tenth = make_scan(span=40.0, step=0.1).offsets_mhz()
    dips = []
    for x, i in ((uneven, 20), (tenth, 250)):
        t = np.ones_like(x)
        t[i] = 0.5
        dips.append(Spectrum(x, t, dip_meta("dip")))
    return dips


def refused_spectra():
    """Spectra the start refuses, on the default scan: flat, a ramp (minimum
    at the edge), a dip so deep that the depth overflows (minimum on its own
    1/e boundary, width from the spacing), and a wide dip near the edge
    whose 1/e region runs off the scan."""
    x = make_scan().offsets_mhz()
    deep = np.ones_like(x)
    deep[250] = 5e-324
    near_edge = 1.0 - 0.5 * np.exp(-((x - x[10]) / 30.0) ** 2)
    return [Spectrum(x, t, dip_meta(label)) for label, t in (
        ("flat", np.ones_like(x)), ("ramp", 1.0 - 1e-3 * (x - x[0])), ("deep", deep),
        ("near edge", near_edge))]


def short_spectrum(n):
    """A flat spectrum of ``n`` points, refused for its length before its
    flatness is looked at."""
    return Spectrum(np.arange(n, dtype=float) - n // 2, np.ones(n), dip_meta("short"))


def reference_start(spectrum, model):
    """The per-spectrum start of the loop oracle, as a vector."""
    guess = initial_guess(spectrum, model)
    return np.array([guess[n] for n in model.param_names])


def start_error(spectrum, model=FitModel.EXP_GAUSSIAN):
    """The message with which the loop oracle refuses to start ``spectrum``."""
    with pytest.raises(DataError) as info:
        initial_guess(spectrum, model)
    return str(info.value)


FEWER = "spectrum has fewer points than fit parameters"
NOT_IN_WINDOW = "line not in scan window"
NON_FINITE = "initial guess contains non-finite parameters"


class TestStackedStarts:
    @pytest.mark.parametrize("model,campaign", [(FitModel.EXP_GAUSSIAN, w1_spectra),
                                                (FitModel.EXP_VOIGT, w3_spectra)],
                             ids=["w1", "w3"])
    def test_every_start_of_a_campaign_equals_the_initial_guess(self, model, campaign):
        # the whole campaign as one stack, and in read-ahead-sized stacks
        spectra = campaign(41)
        x = spectra[0].freq_offset_mhz
        t = np.array([s.transmission for s in spectra])
        for lo, hi in [(0, len(spectra))] + [(i, i + 7) for i in range(0, len(spectra), 7)]:
            starts, refusals = fitter._guesses(x, t[lo:hi], model)
            assert refusals == [None] * len(starts)
            for spectrum, start in zip(spectra[lo:hi], starts):
                assert start.tobytes() == reference_start(spectrum, model).tobytes()

    @pytest.mark.parametrize("model", [FitModel.EXP_GAUSSIAN, FitModel.EXP_VOIGT])
    def test_a_one_sample_dip_starts_at_the_grid_spacing_as_alone(self, model):
        for dip in one_sample_dips():
            x = dip.freq_offset_mhz
            starts, refusals = fitter._guesses(x, dip.transmission[None], model)
            assert refusals == [None]
            assert starts[0].tobytes() == reference_start(dip, model).tobytes()
            i = int(np.argmin(dip.transmission))
            assert starts[0, 1] == x[i + 1] - x[i]

    @pytest.mark.parametrize("model", [FitModel.EXP_GAUSSIAN, FitModel.EXP_VOIGT])
    def test_refused_rows_get_their_message_and_spare_their_neighbours(self, model):
        good = w1_spectra(43, replicas=1)[:3]
        refused = refused_spectra()
        stack = [good[0], refused[0], good[1], refused[1], refused[2], refused[3], good[2]]
        starts, refusals = fitter._guesses(good[0].freq_offset_mhz,
                                           np.array([s.transmission for s in stack]), model)
        messages = [NOT_IN_WINDOW, NOT_IN_WINDOW, NON_FINITE, NOT_IN_WINDOW]
        assert refusals == [None, messages[0], None, messages[1], messages[2], messages[3],
                            None]
        for i in (0, 2, 6):
            assert starts[i].tobytes() == reference_start(stack[i], model).tobytes()
        assert [start_error(s, model) for s in refused] == messages

    @pytest.mark.parametrize("model", [FitModel.EXP_GAUSSIAN, FitModel.EXP_VOIGT])
    def test_each_refusal_gives_todays_error_named_by_its_source(self, model):
        # inside a series, the first refused spectrum of a stack is named
        good = w1_spectra(44, replicas=1)[0]
        flat = refused_spectra()[0]
        for bad in refused_spectra() + [short_spectrum(11)]:
            message = start_error(bad, model)
            with pytest.raises(DataError) as alone:
                fit_series([bad], model)
            assert str(alone.value) == message
            with pytest.raises(DataError) as named:
                fit_series([good, bad, flat], model, source_ids=["a.txt", "b.txt", "c.txt"])
            assert str(named.value) == f"b.txt: {message}"

    @pytest.mark.parametrize("model,n,message", [
        (FitModel.EXP_GAUSSIAN, 5, FEWER),
        (FitModel.EXP_VOIGT, 5, FEWER),
        (FitModel.EXP_GAUSSIAN, 6, "spectrum too short for a fit (6 points, need >= 16)"),
        (FitModel.EXP_VOIGT, 6, FEWER),
        (FitModel.EXP_GAUSSIAN, 11, "spectrum too short for a fit (11 points, need >= 16)"),
        (FitModel.EXP_VOIGT, 11, "spectrum too short for a fit (11 points, need >= 16)"),
    ])
    def test_a_short_spectrum_is_refused_by_its_first_failing_check(self, model, n, message):
        # fewer points than parameters comes first, then the 16-point minimum
        short = short_spectrum(n)
        assert start_error(short, model) == message
        with pytest.raises(DataError) as alone:
            fit_spectrum(short, model)
        assert str(alone.value) == message
        good = w1_spectra(44, replicas=1)[0]
        with pytest.raises(DataError) as named:
            fit_series([good, short], model, source_ids=["a.txt", "b.txt"])
        assert str(named.value) == f"b.txt: {message}"


class TestReadAhead:
    def test_an_unstartable_spectrum_comes_before_a_later_read_error(self):
        spectra = w1_spectra(45, replicas=1)[:4]
        flat = refused_spectra()[0]

        def reading(items):
            for i, item in enumerate(items):
                if item is None:
                    raise DataError(f"spectrum_{i}.txt: cannot read")
                yield item

        ids = [f"spectrum_{i}.txt" for i in range(6)]
        inputs = [spectra[0], spectra[1], flat, spectra[2], spectra[3], None]
        with pytest.raises(DataError, match=r"^spectrum_2\.txt: line not in scan window$"):
            fit_series(reading(inputs), source_ids=ids)
        inputs = [spectra[0], spectra[1], None, spectra[2], spectra[3], flat]
        with pytest.raises(DataError, match=r"^spectrum_2\.txt: cannot read$"):
            fit_series(reading(inputs), source_ids=ids)
        # a degenerate fit read after the unstartable spectrum is never fitted
        with pytest.raises(DataError, match=r"^spectrum_1\.txt: line not in scan window$"):
            fit_series([spectra[0], flat, low_pressure_spectrum(3)], source_ids=ids)

    def test_reads_as_many_spectra_as_slots_and_one_more(self, monkeypatch):
        spectra = w1_spectra(46, replicas=2)
        read = []

        def reading():
            for i, spectrum in enumerate(spectra):
                read.append(i)
                yield spectrum

        admitted = []
        admit = fitter._Slots.admit

        def recording(slots, rows, results):
            admitted.append((len(rows), len(read)))
            return admit(slots, rows, results)

        monkeypatch.setattr(fitter, "_BLOCK_ELEMENTS", 3 * spectra[0].n_points)
        monkeypatch.setattr(fitter._Slots, "admit", recording)
        results = fit_series(reading())
        # a stack of three (the slots), read with the spectrum after it
        assert admitted == [(3, 4), (3, 7), (3, 10), (3, 13), (3, 16), (1, 16)]
        assert results == fit_series(spectra)

    def test_each_fit_is_assembled_by_one_fit_spectrum_call(self, monkeypatch):
        # the traced benchmark counts fits by ``fit_spectrum`` calls
        spectra = w1_spectra(47)
        spectra[1::7] = [s for s, _ in synth_series(
            NH3, [3.1] * len(spectra[1::7]), GasConditions(pressure_pa=1.0),
            make_scan(snr=1000.0, span=200.0), KB, 8)]  # other grids among them
        ids = [f"s{i}" for i in range(len(spectra))]
        calls = []
        assemble = fitter.fit_spectrum

        def counting(spectrum, *args, **kwargs):
            calls.append(kwargs["source_id"])
            return assemble(spectrum, *args, **kwargs)

        monkeypatch.setattr(fitter, "fit_spectrum", counting)
        for max_iter in (200, 3):
            calls.clear()
            results = fit_series(spectra, source_ids=ids, max_iter=max_iter)
            assert sorted(calls) == sorted(ids) and [r.source_id for r in results] == ids

    def test_errors_on_two_grids_of_one_size_come_in_input_order(self):
        # Two 501-point grids with other offsets: the fits on the first end
        # before a spectrum of the second is started, so a degenerate fit on
        # the first comes before a refused start on the second, and a
        # refused start on the first before a degenerate fit on the second.
        first = w1_spectra(50, replicas=1)[:2]
        second = [s for s, _ in synth_series(NH3, [2.0, 4.0], GasConditions(pressure_pa=1.0),
                                             make_scan(snr=1000.0, span=200.0, step=0.4),
                                             KB, 9)]
        assert first[0].n_points == second[0].n_points
        assert not np.array_equal(first[0].freq_offset_mhz, second[0].freq_offset_mhz)
        degenerate = low_pressure_spectrum(3)  # on the default scan, the first grid's
        flat_second = second[0].with_transmission(np.ones(second[0].n_points))
        ids = [f"s{i}.txt" for i in range(6)]
        inputs = [first[0], degenerate, first[1], second[0], flat_second, second[1]]
        with pytest.raises(FitError, match=r"^s1\.txt: degenerate fit: singular normal matrix$"):
            fit_series(iter(inputs), source_ids=ids)
        inputs = [second[0], flat_second, second[1], first[0], degenerate, first[1]]
        with pytest.raises(DataError, match=r"^s1\.txt: line not in scan window$"):
            fit_series(iter(inputs), source_ids=ids)

    @pytest.mark.parametrize("n_ids, message", [
        (1, r"^source_ids is shorter than the spectra: no id at index 1$"),
        (4, r"^source_ids is longer than the 3 spectra$")])
    def test_source_ids_out_of_step_raise_after_the_spectra_before_are_fitted(
            self, n_ids, message, monkeypatch):
        # a spectrum without an id, or an id without a spectrum, is met like
        # a spectrum that cannot be read; the message gives the index of the
        # first spectrum without an id, or the number of spectra
        spectra = w1_spectra(49, replicas=1)[:3]
        ids = [f"s{i}" for i in range(n_ids)]
        assembled = []
        assemble = fitter.fit_spectrum

        def counting(spectrum, *args, **kwargs):
            assembled.append(kwargs["source_id"])
            return assemble(spectrum, *args, **kwargs)

        monkeypatch.setattr(fitter, "fit_spectrum", counting)
        with pytest.raises(ValueError, match=message):
            fit_series((s for s in spectra), source_ids=ids)
        assert sorted(assembled) == ids[:3]
        # the error of an earlier fit still comes first
        with pytest.raises(FitError, match=r"^s0: degenerate fit"):
            fit_series((s for s in [low_pressure_spectrum(3)] + spectra[1:]), source_ids=ids)


class TestKeptRowsOnly:
    @pytest.mark.parametrize("model,replicas", [(FitModel.EXP_GAUSSIAN, 50),
                                                (FitModel.EXP_VOIGT, 5)])
    def test_no_rejected_trial_reaches_the_screen(self, model, replicas, monkeypatch):
        # Every row the kernel evaluated is multiplied, and only the starts
        # and the accepted steps reach the det/trace screen.  The loop lowers
        # its damping by DAMPING_DOWN exactly when it accepts a step: a float
        # that counts its multiplications counts them.
        spectra = w1_spectra(48, replicas)
        accepted = []

        class Counted(float):
            def __rmul__(self, other):
                accepted.append(other)
                return other * float(self)

        with monkeypatch.context() as patch:
            patch.setattr(_loop_fitter, "DAMPING_DOWN", Counted(fitter.DAMPING_DOWN))
            for spectrum in spectra:
                loop_fit(spectrum, model)
        multiplied, screened, evaluated = [], [], []
        normal, det = fitter._normal_equations, np.linalg.det

        class Multiplied(np.ndarray):
            """A Jacobian stack that records the rows of each ``matmul`` of it."""

            def __array_ufunc__(self, ufunc, method, *args, **kwargs):
                if ufunc is np.matmul:
                    multiplied[-1].append(len(args[0]))
                return getattr(ufunc, method)(*(np.asarray(a) for a in args), **kwargs)

        def recording(js, resid, keep):
            evaluated.append(len(keep))
            multiplied.append([])
            return normal(js.view(Multiplied), resid, keep)

        def screening(hess):
            screened.append(len(hess))
            return det(hess)

        monkeypatch.setattr(fitter, "_normal_equations", recording)
        monkeypatch.setattr(np.linalg, "det", screening)
        fit_series(spectra, model)
        assert all(rows and set(rows) == {n} for rows, n in zip(multiplied, evaluated))
        assert sum(screened) == len(spectra) + len(accepted) < sum(evaluated)


def normal_matrix_stacks(seed):
    """Jacobians (m, 5) whose J^T J have conditions from 1 to 1e17, most
    between 3e13 and 3e14, in stacks of 1 to 8.  Every other one has its
    three middle eigenvalues near half the largest, where trace^5 / det is
    closest to the condition (about 780 times it)."""
    rng = np.random.default_rng(seed)
    conds = np.concatenate([10 ** rng.uniform(0, 17, 400),
                            10 ** rng.uniform(math.log10(3e13), math.log10(3e14), 800)])
    js = []
    for k, cond in enumerate(conds):
        u, _ = np.linalg.qr(rng.standard_normal((40, 5)))
        v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        if k % 2:
            eigen = np.r_[1.0, rng.uniform(0.3, 0.7, 3), 1.0 / cond]
        else:
            eigen = np.r_[1.0, cond ** -np.sort(rng.uniform(0, 1, 3)), 1.0 / cond]
        js.append((u * (rng.uniform(0.1, 1e3) * np.sqrt(eigen))) @ v.T)
    rng.shuffle(js)
    sizes = rng.integers(1, 9, len(js))
    bounds = np.cumsum(sizes)[np.cumsum(sizes) < len(js)]
    return np.split(np.array(js), bounds)


class TestConditionScreen:
    def test_flags_exactly_the_rows_whose_condition_number_exceeds_the_limit(self):
        # every row kept, then a random part of them: the positions of the
        # degenerate kept rows come back, the rows left out are never
        # flagged, and the kept ones get the bits they get alone
        rng = np.random.default_rng(5)
        flagged = spared = 0
        for js in normal_matrix_stacks(12):
            resid = rng.standard_normal(js.shape[:2])
            degenerate = np.linalg.cond(js.transpose(0, 2, 1) @ js) > fitter._COND_LIMIT
            for keep in (np.ones(len(js), dtype=bool), rng.random(len(js)) < 0.5):
                grads, hess, bad = fitter._normal_equations(js, resid, keep)
                np.testing.assert_array_equal(bad, np.flatnonzero(degenerate[keep]))
                flagged += bool(bad.size)
                spared += bool(not bad.size and np.any(degenerate))
                alone = fitter._normal_equations(js[keep], resid[keep],
                                                 np.ones(keep.sum(), dtype=bool))
                assert (grads.tobytes(), hess.tobytes(), bad.tobytes()) == \
                    tuple(a.tobytes() for a in alone)
        assert flagged > 50 and spared > 20

    def test_no_w1_normal_matrix_reaches_the_svd(self, monkeypatch):
        pressures = [p for p in GOLDEN_PRESSURES for _ in range(50)]
        spectra = [s for s, _ in synth_series(NH3, pressures, GasConditions(pressure_pa=1.0),
                                              make_scan(snr=1000.0), KB, 29)]
        svd_rows = []
        cond = np.linalg.cond

        def counting(hess, *args):
            svd_rows.append(len(hess))
            return cond(hess, *args)

        monkeypatch.setattr(np.linalg, "cond", counting)
        results = fit_series(spectra)
        assert len(results) == 400 and sum(svd_rows) == 0


def assert_equals_loop(result, spectrum, model, **kwargs):
    params, sigmas, cov, n_iter, converged = loop_fit(spectrum, model, **kwargs)
    assert result.params == params and result.sigmas == sigmas
    np.testing.assert_array_equal(result.covariance, cov)
    assert (result.n_iter, result.converged) == (n_iter, converged)


class TestAgainstPerSpectrumLoop:
    def test_noisy_campaign_equals_the_loop_bit_for_bit(self):
        pressures = [p for p in GOLDEN_PRESSURES for _ in range(5)]
        spectra = [s for s, _ in synth_series(NH3, pressures, GasConditions(pressure_pa=1.0),
                                              make_scan(snr=1000.0), KB, 61)]
        for spectrum, result in zip(spectra, fit_series(spectra)):
            assert_equals_loop(result, spectrum, FitModel.EXP_GAUSSIAN)
        for spectrum, result in zip(spectra[:8], fit_series(spectra[:8], max_iter=3)):
            assert_equals_loop(result, spectrum, FitModel.EXP_GAUSSIAN, max_iter=3)

    def test_comb_voigt_fits_equal_the_loop_bit_for_bit(self):
        spectra = golden_spectra(FitModel.EXP_VOIGT)
        for spectrum, result in zip(spectra, fit_series(spectra, FitModel.EXP_VOIGT)):
            assert_equals_loop(result, spectrum, FitModel.EXP_VOIGT)

    def test_failures_at_the_lowest_pressure_match_the_loop(self):
        # at 0.01 Pa and S/N 1000 some fits are degenerate or unconverged
        outcomes = set()
        for seed in range(50):
            spectrum, _ = make_spectrum(pressure=0.01, snr=1000.0, seed=seed)
            try:
                want = loop_fit(spectrum)
            except (DataError, FitError) as exc:
                with pytest.raises(type(exc)):
                    fit_spectrum(spectrum)
                outcomes.add(type(exc).__name__)
                continue
            result = fit_spectrum(spectrum)
            assert_equals_loop(result, spectrum, FitModel.EXP_GAUSSIAN)
            outcomes.add(result.converged)
        assert outcomes >= {"FitError", True, False}
