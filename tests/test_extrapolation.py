import dataclasses
import math

import numpy as np
import pytest

from dopplerkb import (
    GasConditions,
    ScanConfig,
    Transition,
    WidthPoint,
    constants,
    default_slope_threshold,
    filter_by_slope,
    fit_spectrum,
    points_from_fit_results,
    zero_pressure_width,
)
from dopplerkb.errors import DataError
from dopplerkb.extrapolation import extrapolate
from dopplerkb.simulator import spawn_seeds, synth_series

NH3 = Transition.nh3()
KB = constants.KB_CODATA_2002


def make_points(amps, widths, sigmas=None, slopes=None):
    sigmas = sigmas if sigmas is not None else [1e-3] * len(amps)
    slopes = slopes if slopes is not None else [0.0] * len(amps)
    return [
        WidthPoint(a, w, s, sl, source_id=f"p{i}")
        for i, (a, w, s, sl) in enumerate(zip(amps, widths, sigmas, slopes))
    ]


class TestFilterBySlope:
    def test_infinite_threshold_keeps_all(self):
        pts = make_points([1, 2, 3], [50, 50, 50], slopes=[0.1, -0.5, 2.0])
        kept, rejected = filter_by_slope(pts, math.inf)
        assert len(kept) == 3 and not rejected

    def test_partition_definition(self):
        t = 1e-5
        pts = make_points([1, 2, 3], [50, 50, 50], slopes=[0.0, 2 * t, -t / 2])
        kept, rejected = filter_by_slope(pts, t)
        assert [p.baseline_slope for p in kept] == [0.0, -t / 2]
        assert [p.baseline_slope for p in rejected] == [2 * t]

    def test_all_rejected_is_error(self):
        pts = make_points([1, 2, 3], [50, 50, 50], slopes=[1.0, 1.0, 1.0])
        with pytest.raises(DataError, match="no usable spectra"):
            filter_by_slope(pts, 1e-6)

    def test_rejects_invalid_threshold(self):
        with pytest.raises(ValueError):
            filter_by_slope(make_points([1], [50]), 0.0)

    def test_injected_slopes_identified_by_generator_bookkeeping(self):
        # inject known slopes on 75% of a simulated series and filter at
        # half the injection level: exactly the injected ones go
        pressures = [0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 9.0, 10.0]
        cond = GasConditions(pressure_pa=1.0)
        scan = ScanConfig(snr=1000.0)
        series = synth_series(NH3, pressures, cond, scan, KB, 99)
        injection = 1e-4
        injected_ids = {0, 1, 2, 4, 5, 7}  # 6 of 8
        fits = []
        for i, (spectrum, _) in enumerate(series):
            if i in injected_ids:
                spectrum = spectrum.with_transmission(
                    spectrum.transmission + injection * spectrum.freq_offset_mhz)
            fits.append(fit_spectrum(spectrum, source_id=f"s{i}"))
        points = points_from_fit_results(fits)
        kept, rejected = filter_by_slope(points, injection / 2)
        assert len(rejected) == len(injected_ids)
        assert {p.source_id for p in rejected} == {f"s{i}" for i in injected_ids}


class TestZeroPressureWidth:
    def test_exact_line_recovered(self):
        amps = np.array([0.1, 0.5, 1.0, 1.5, 2.0])
        widths = 49.8831 + 0.25 * amps
        out = zero_pressure_width(make_points(amps, widths))
        assert out.delta_d_mhz == pytest.approx(49.8831, rel=1e-12)
        assert out.slope_mhz_per_amplitude == pytest.approx(0.25, rel=1e-12)
        # exact data leave zero weighted residuals
        assert out.chi2_reduced == pytest.approx(0.0, abs=1e-18)

    def test_scale_invariance_of_intercept(self):
        rng = np.random.default_rng(3)
        amps = np.linspace(0.2, 2.0, 10)
        widths = 49.9 + 0.2 * amps + rng.normal(0, 1e-3, 10)
        sigmas = rng.uniform(5e-4, 2e-3, 10)
        base = zero_pressure_width(make_points(amps, widths, sigmas))
        for k in (1e-3, 7.3, 1e4):
            scaled = zero_pressure_width(make_points(k * amps, widths, sigmas))
            assert scaled.delta_d_mhz == pytest.approx(base.delta_d_mhz, rel=1e-12)
            assert scaled.delta_d_sigma_mhz == pytest.approx(
                base.delta_d_sigma_mhz, rel=1e-12)

    def test_removing_highest_amplitude_point_noiseless(self):
        amps = np.linspace(0.2, 2.0, 12)
        widths = 49.8831 + 0.25 * amps
        full = zero_pressure_width(make_points(amps, widths))
        trimmed = zero_pressure_width(make_points(amps[:-1], widths[:-1]))
        assert trimmed.delta_d_mhz == pytest.approx(full.delta_d_mhz, rel=1e-9)

    def test_needs_three_points(self):
        with pytest.raises(DataError, match="at least 3"):
            zero_pressure_width(make_points([1, 2], [50, 50]))

    def test_narrow_amplitude_range_rejected(self):
        pts = make_points([1.0, 1.2, 1.5], [50, 50, 50])
        with pytest.raises(DataError, match="ill-conditioned"):
            zero_pressure_width(pts)

    def test_single_amplitude_rejected(self):
        pts = make_points([1.0, 1.0, 1.0], [50, 50.1, 49.9])
        with pytest.raises(DataError, match="ill-conditioned"):
            zero_pressure_width(pts)

    def test_negative_intercept_rejected(self):
        amps = [0.5, 1.0, 2.0]
        widths = [1.0, 2.0, 4.0]  # extrapolates to ~0 at zero amplitude
        with pytest.raises(DataError, match="intercept"):
            zero_pressure_width(make_points(amps, [w - 0.02 for w in widths]))

    @pytest.mark.parametrize("sigmas", [[1e-160, 1e-3, 1e-3], [1e-154] * 3],
                             ids=["a-weight-overflows", "the-weight-sum-overflows"])
    def test_weights_that_overflow_are_a_data_error_naming_the_smallest_sigma(self, sigmas):
        with pytest.raises(DataError, match=r"extrapolation overflows: the width sigma "
                                            r"1e-1[56]\d MHz of 'p0' weighs"):
            zero_pressure_width(make_points([0.5, 1.0, 2.0], [50.0, 50.1, 50.2], sigmas))

    def test_inflation_flag_when_chi2_large(self):
        rng = np.random.default_rng(8)
        amps = np.linspace(0.2, 2.0, 20)
        widths = 49.9 + 0.2 * amps + rng.normal(0, 0.05, 20)
        out = zero_pressure_width(make_points(amps, widths, [1e-3] * 20))
        assert out.inflation_applied
        assert out.chi2_reduced > 1.0

    def test_weighting_favors_precise_points(self):
        amps = np.array([0.2, 0.6, 1.0, 1.4, 1.8, 2.2])
        widths = 49.9 + 0.1 * amps
        widths_noisy = widths.copy()
        widths_noisy[-1] += 1.0  # outlier with huge stated sigma
        sigmas = [1e-3] * 5 + [10.0]
        out = zero_pressure_width(make_points(amps, widths_noisy, sigmas))
        assert out.delta_d_mhz == pytest.approx(49.9, abs=1e-3)
        # an unweighted line would be dragged; both intercepts get reported
        assert out.unweighted_delta_d_mhz is not None
        assert abs(out.unweighted_delta_d_mhz - 49.9) > 0.01


class TestCampaignLevel:
    def test_noiseless_series_intercept_exact(self):
        pressures = [0.2, 0.6, 1.2, 2.0, 3.2, 5.0, 7.5, 10.0]
        cond = GasConditions(pressure_pa=1.0, pressure_broadening_mhz_per_pa=0.0)
        scan = ScanConfig(snr=math.inf)
        series = synth_series(NH3, pressures, cond, scan, KB, 0)
        fits = [fit_spectrum(s, source_id=f"p{p}") for (s, _), p in zip(series, pressures)]
        out = zero_pressure_width(points_from_fit_results(fits))
        truth = series[0][1].delta_d_mhz
        assert out.delta_d_mhz == pytest.approx(truth, rel=1e-6)

    def test_noisy_campaign_statistics(self):
        # reduced-size surrogate: 8 pressures x 15 replicas at S/N 1000
        pressures = [0.2, 0.6, 1.2, 2.0, 3.2, 5.0, 7.5, 10.0]
        cond = GasConditions(pressure_pa=1.0)
        scan = ScanConfig(snr=1000.0)
        fits = []
        truth = None
        for k, seed in enumerate(spawn_seeds(314159, 15)):
            series = synth_series(NH3, pressures, cond, scan, KB, seed)
            truth = series[0][1].delta_d_mhz
            fits.extend(fit_spectrum(s, source_id=f"r{k}") for s, _ in series)
        points = points_from_fit_results(fits)
        out = zero_pressure_width(points)
        assert out.delta_d_sigma_mhz / out.delta_d_mhz < 1e-3
        assert abs(out.delta_d_mhz - truth) < 4.0 * out.delta_d_sigma_mhz

    @pytest.mark.parametrize("given", [False, True])
    def test_extrapolate_chains_the_steps_and_counts_the_unconverged(self, given):
        series = synth_series(NH3, [0.5, 2.0, 8.0] * 2, GasConditions(pressure_pa=1.0),
                              ScanConfig(snr=1000.0), KB, 11)
        fits = [fit_spectrum(s, source_id=f"s{i}") for i, (s, _) in enumerate(series)]
        fits[4] = dataclasses.replace(fits[4], converged=False)
        threshold = default_slope_threshold(fits) / (3 if given else 1)
        kept, rejected = filter_by_slope(points_from_fit_results(fits), threshold)
        assert len(kept) + len(rejected) == 5 and bool(rejected) == given
        assert extrapolate(fits, threshold if given else None) == (
            zero_pressure_width(kept, n_rejected=len(rejected), n_unconverged=1),
            threshold, kept, rejected)

    def test_default_threshold_is_three_median_slope_sigmas(self):
        pressures = [0.5, 2.0, 8.0]
        cond = GasConditions(pressure_pa=1.0)
        scan = ScanConfig(snr=1000.0)
        series = synth_series(NH3, pressures, cond, scan, KB, 11)
        fits = [fit_spectrum(s) for s, _ in series]
        threshold = default_slope_threshold(fits)
        assert threshold == pytest.approx(
            3.0 * np.median([f.sigmas["baseline_slope"] for f in fits]))


class TestPointsFromFits:
    @pytest.fixture()
    def fit(self):
        series = synth_series(NH3, [2.0], GasConditions(pressure_pa=1.0),
                              ScanConfig(snr=1000.0), KB, 3)
        return fit_spectrum(series[0][0], source_id="s0")

    def test_zero_width_sigma_is_a_data_error_naming_the_fit(self, fit):
        covariance = fit.covariance.copy()
        covariance[1, 1] = 0.0  # delta_mhz
        with pytest.raises(DataError, match="fit 's0': width sigma must be positive"):
            points_from_fit_results([dataclasses.replace(fit, covariance=covariance)])

    def test_negative_slope_variances_give_no_threshold(self, fit):
        covariance = fit.covariance.copy()
        covariance[4, 4] = -1e-30  # baseline_slope, read as sigma 0
        with pytest.raises(DataError, match="median slope sigma .* is 0.0"):
            default_slope_threshold([dataclasses.replace(fit, covariance=covariance)] * 3)
