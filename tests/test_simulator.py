import math

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
    fit_spectrum,
    synth_spectrum,
    voigt,
)
from dopplerkb.errors import DataError
from dopplerkb.simulator import iter_series, spawn_seeds, synth_series

NH3 = Transition.nh3()
KB = constants.KB_CODATA_2002


def scan(snr=math.inf):
    return ScanConfig(snr=snr)


class TestScanConfig:
    def test_default_grid_matches_acquisition(self):
        s = scan()
        assert s.n_points == 501
        x = s.offsets_mhz()
        assert x[0] == -125.0 and x[-1] == 125.0
        assert np.allclose(np.diff(x), 0.5)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            ScanConfig(span_mhz=10.0, step_mhz=1.0)


class TestGasConditions:
    def test_pressure_bounds(self):
        with pytest.raises(ValueError):
            GasConditions(pressure_pa=0.001)
        with pytest.raises(ValueError):
            GasConditions(pressure_pa=30.0)

    def test_proportionality(self):
        c = GasConditions(pressure_pa=4.0)
        assert c.gamma_mhz == pytest.approx(4.0 * c.pressure_broadening_mhz_per_pa)
        assert c.peak_depth == pytest.approx(4.0 * c.absorption_depth_per_pa)


class TestSynthSpectrum:
    def test_noiseless_beer_lambert_minimum(self):
        depth = math.log(1.0 / 0.2)
        cond = GasConditions(pressure_pa=1.0, absorption_depth_per_pa=depth,
                             pressure_broadening_mhz_per_pa=0.0)
        spectrum, _ = synth_spectrum(NH3, cond, scan(), KB, 0)
        assert spectrum.transmission.min() == pytest.approx(0.200, abs=1e-12)

    def test_ten_pascal_gives_eighty_percent_absorption(self):
        cond = GasConditions(pressure_pa=10.0, pressure_broadening_mhz_per_pa=0.0)
        spectrum, _ = synth_spectrum(NH3, cond, scan(), KB, 0)
        absorption = 1.0 - spectrum.transmission.min()
        assert absorption == pytest.approx(0.80, abs=0.01)

    def test_fixed_seed_bit_identical(self):
        cond = GasConditions(pressure_pa=2.0)
        a, _ = synth_spectrum(NH3, cond, scan(snr=1000.0), KB, 42)
        b, _ = synth_spectrum(NH3, cond, scan(snr=1000.0), KB, 42)
        assert np.array_equal(a.transmission, b.transmission)
        c, _ = synth_spectrum(NH3, cond, scan(snr=1000.0), KB, 43)
        assert not np.array_equal(a.transmission, c.transmission)

    def test_optically_black_refused(self):
        cond = GasConditions(pressure_pa=20.0, absorption_depth_per_pa=0.5)
        with pytest.raises(DataError, match="optically black"):
            synth_spectrum(NH3, cond, scan(), KB, 0)

    def test_ground_truth_is_consistent(self):
        cond = GasConditions(pressure_pa=3.0)
        spectrum, truth = synth_spectrum(NH3, cond, scan(), KB, 0)
        assert truth.gamma_mhz == cond.gamma_mhz
        assert truth.peak_depth == cond.peak_depth
        assert truth.kb_true == KB
        assert spectrum.meta.pressure_pa == 3.0


class TestSynthSeries:
    def test_one_spectrum_per_pressure_with_growing_amplitude(self):
        pressures = np.linspace(0.2, 10.0, 8)
        cond = GasConditions(pressure_pa=1.0)
        series = synth_series(NH3, pressures, cond, scan(snr=1000.0), KB, 7)
        assert len(series) == 8
        depths = [fit_spectrum(s).params["peak_depth"] for s, _ in series]
        assert all(a < b for a, b in zip(depths, depths[1:]))

    def test_single_pressure(self):
        cond = GasConditions(pressure_pa=1.0)
        series = synth_series(NH3, [1.0], cond, scan(), KB, 7)
        assert len(series) == 1

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            synth_series(NH3, [], GasConditions(pressure_pa=1.0), scan(), KB, 7)

    def test_spectra_equal_when_of_one_seed(self):
        cond = GasConditions(pressure_pa=1.0)
        first, _ = synth_spectrum(NH3, cond, scan(snr=1000.0), KB, 3)
        again, _ = synth_spectrum(NH3, cond, scan(snr=1000.0), KB, 3)
        other, _ = synth_spectrum(NH3, cond, scan(snr=1000.0), KB, 4)
        assert (first == again) is True and (first != again) is False
        assert (first == other) is False and first != other
        assert first != first.meta

    def test_series_streams_independent_but_deterministic(self):
        cond = GasConditions(pressure_pa=1.0)
        s1 = synth_series(NH3, [1.0, 1.0], cond, scan(snr=1000.0), KB, 7)
        s2 = synth_series(NH3, [1.0, 1.0], cond, scan(snr=1000.0), KB, 7)
        assert np.array_equal(s1[0][0].transmission, s2[0][0].transmission)
        assert not np.array_equal(s1[0][0].transmission, s1[1][0].transmission)


    @pytest.mark.parametrize("snr", [500.0, math.inf])
    def test_replicas_of_a_pressure_share_one_grid_array(self, snr):
        # a replica is its pressure's noiseless spectrum plus noise, on that
        # spectrum's grid, which is checked once
        pairs = synth_series(NH3, [1.0, 3.0, 1.0, 1.0, 3.0], GasConditions(pressure_pa=1.0),
                             scan(snr=snr), KB, 7)
        grids = [spectrum.freq_offset_mhz for spectrum, _ in pairs]
        assert grids[0] is grids[2] is grids[3]
        assert grids[1] is grids[4]
        np.testing.assert_array_equal(grids[0], scan().offsets_mhz())
        # and one ground truth: what differs between replicas is the header's
        truths = [truth for _, truth in pairs]
        assert truths[0] is truths[2] is truths[3] and truths[1] is truths[4]
        assert truths[0] != truths[1]

    @pytest.mark.parametrize("snr", [500.0, math.inf])
    @pytest.mark.parametrize("with_comb", [False, True])
    def test_series_equals_per_element_synthesis_bit_for_bit(self, with_comb, snr):
        # repeated pressures share one noiseless evaluation in synth_series
        extra = {}
        if with_comb:
            extra = dict(hyperfine=HyperfineStructure.nh3_placeholder(),
                         comb=ModulationComb.paper_default())
        pressures = [2.0, 2.0, 6.5, 2.0, 6.5]
        cond = GasConditions(pressure_pa=1.0)
        s = scan(snr=snr)
        series = synth_series(NH3, pressures, cond, s, KB, 31, temperature_sigma_k=0.01,
                              cell_length_m=0.25, **extra)
        seeds = spawn_seeds(31, len(pressures))
        for p, child, (spectrum, truth) in zip(pressures, seeds, series):
            want, want_truth = synth_spectrum(
                NH3, GasConditions(pressure_pa=p), s, KB, child, temperature_sigma_k=0.01,
                cell_length_m=0.25, **extra)
            assert spectrum == want and truth == want_truth

    def test_an_unknown_keyword_raises_at_the_call(self):
        with pytest.raises(TypeError, match="hyperfin"):
            iter_series(NH3, [1.0, 2.0], GasConditions(pressure_pa=1.0), scan(), KB, 3,
                        hyperfin=None)

    def test_comb_samples_equal_a_direct_sum_over_the_components(self):
        hf, comb = HyperfineStructure.nh3_placeholder(), ModulationComb.paper_default()
        cond = GasConditions(pressure_pa=1.0)
        series = synth_series(NH3, [0.5, 8.0], cond, scan(), KB, 5, hyperfine=hf, comb=comb)
        for spectrum, truth in series:
            x = spectrum.freq_offset_mhz
            depth = np.zeros_like(x)
            for off_h, w_h in zip(hf.offsets_mhz, hf.weights):
                for off_c, w_c in zip(comb.offsets_mhz, comb.weights):
                    depth += w_h * w_c * voigt(x - off_h - off_c, truth.delta_d_mhz,
                                               truth.gamma_mhz)
            np.testing.assert_allclose(spectrum.transmission,
                                       np.exp(-truth.peak_depth * depth), rtol=1e-12)

    def test_series_refuses_black_pressure(self):
        cond = GasConditions(pressure_pa=1.0, absorption_depth_per_pa=1.0)
        with pytest.raises(DataError, match="optically black"):
            synth_series(NH3, [1.0, 1.0, 10.0, 10.0], cond, scan(snr=1000.0), KB, 3)


class TestSimulatorFitRoundTrips:
    def test_noiseless_round_trip_recovers_parameters(self):
        cond = GasConditions(pressure_pa=3.1, pressure_broadening_mhz_per_pa=0.0)
        spectrum, truth = synth_spectrum(NH3, cond, scan(), KB, 0)
        result = fit_spectrum(spectrum)
        assert result.params["delta_mhz"] == pytest.approx(truth.delta_d_mhz, rel=1e-6)
        assert result.params["peak_depth"] == pytest.approx(truth.peak_depth, rel=1e-6)
        assert abs(result.params["nu0_mhz"]) < 1e-4

    def test_amplitude_pressure_proportionality(self):
        pressures = np.linspace(0.2, 10.0, 8)
        cond = GasConditions(pressure_pa=1.0, pressure_broadening_mhz_per_pa=0.0)
        series = synth_series(NH3, pressures, cond, scan(), KB, 0)
        depths = np.array([fit_spectrum(s).params["peak_depth"] for s, _ in series])
        slope = (depths @ pressures) / (pressures @ pressures)  # through origin
        resid = depths - slope * pressures
        r2 = 1.0 - resid @ resid / (depths @ depths)
        assert r2 > 0.999999

    def test_doubling_snr_halves_width_scatter(self):
        # paired seeds: the same unit noise draw enters at both amplitudes,
        # so the ratio isolates the scaling law from ensemble sampling noise
        cond = GasConditions(pressure_pa=3.1)
        seeds = spawn_seeds(777, 100)
        widths = {}
        for snr in (500.0, 1000.0):
            w = [
                fit_spectrum(synth_spectrum(NH3, cond, scan(snr=snr), KB, seed)[0]
                             ).params["delta_mhz"]
                for seed in seeds
            ]
            widths[snr] = np.std(w, ddof=1)
        ratio = widths[500.0] / widths[1000.0]
        assert 1.8 <= ratio <= 2.2


class TestInjections:
    def test_slope_recovered_by_fit_within_two_sigma(self):
        cond = GasConditions(pressure_pa=3.1)
        spectrum, _ = synth_spectrum(NH3, cond, scan(snr=1000.0), KB, 5)
        injected = spectrum.with_transmission(
            spectrum.transmission + 1e-4 * spectrum.freq_offset_mhz)
        result = fit_spectrum(injected)
        base = fit_spectrum(spectrum)
        recovered = result.params["baseline_slope"] - base.params["baseline_slope"]
        assert abs(recovered - 1e-4) <= 2.0 * result.sigmas["baseline_slope"]

    def test_pure_slope_leaves_width_unchanged(self):
        # the injected term coincides with the fit model's own slope term,
        # so it must be absorbed without touching the width
        cond = GasConditions(pressure_pa=3.1)
        spectrum, _ = synth_spectrum(NH3, cond, scan(snr=1000.0), KB, 5)
        base = fit_spectrum(spectrum)
        injected = fit_spectrum(spectrum.with_transmission(
            spectrum.transmission + 1e-4 * spectrum.freq_offset_mhz))
        assert injected.params["delta_mhz"] == pytest.approx(
            base.params["delta_mhz"], abs=1e-4)

    def test_parasitic_ramp_shifts_width_reproducibly(self, capsys):
        # stray light ramping across the scan biases the fitted width; the
        # sign and size are recorded here, the slope filter test asserts the
        # consequence for the extrapolation
        cond = GasConditions(pressure_pa=3.1)
        spectrum, _ = synth_spectrum(NH3, cond, scan(snr=1000.0), KB, 5)
        base = fit_spectrum(spectrum)
        x = spectrum.freq_offset_mhz
        shifts = []
        for ramp in (5e-5, 1e-4):
            result = fit_spectrum(spectrum.with_transmission(
                spectrum.transmission + ramp * (x - x[0])))
            shifts.append(result.params["delta_mhz"] - base.params["delta_mhz"])
            assert abs(result.params["baseline_slope"] - base.params["baseline_slope"]
                       - ramp) <= 3.0 * result.sigmas["baseline_slope"]
        print(f"parasitic-ramp width shifts (MHz): {shifts}")
        assert shifts[0] > 0 and shifts[1] > shifts[0]
