import math

import numpy as np
import pytest

from dopplerkb import Transition, constants, doppler_width, kb_from_width, voigt
from dopplerkb.boltzmann import TemperatureReading

from _oracles import voigt_quadrature


class TestGaussian:
    # voigt at gamma == 0 is the validated unit-peak Gaussian

    def test_peak_is_one(self):
        assert voigt(0.0, 49.8831, 0.0) == 1.0

    def test_one_over_e_at_delta(self):
        for delta in (0.3, 1.0, 49.8831):
            assert voigt(delta, delta, 0.0) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_two_deltas(self):
        assert voigt(2.0, 1.0, 0.0) == pytest.approx(math.exp(-4), rel=1e-15)

    def test_even_under_many_random_offsets(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-500, 500, size=1_000_000)
        assert np.array_equal(voigt(x, 49.88, 0.0), voigt(-x, 49.88, 0.0))

    def test_rejects_bad_width_and_nonfinite_input(self):
        with pytest.raises(ValueError):
            voigt(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            voigt(1.0, -2.0, 0.0)
        with pytest.raises(ValueError):
            voigt(math.nan, 1.0, 0.0)
        with pytest.raises(ValueError):
            voigt(np.array([0.0, math.inf]), 1.0, 0.0)


class TestVoigt:
    def test_gamma_zero_is_exactly_gaussian(self):
        x = np.linspace(-200, 200, 401)
        assert np.array_equal(voigt(x, 49.88, 0.0), np.exp(-((x / 49.88) ** 2)))

    def test_against_quadrature_spec_points(self):
        # frozen oracle values: quadrature of the convolution definition
        for x, delta, gamma in ((0.0, 1.0, 0.1), (1.0, 1.0, 0.01)):
            expected = voigt_quadrature(x, delta, gamma)
            assert voigt(x, delta, gamma) == pytest.approx(expected, rel=1e-6)

    def test_monotone_nonincreasing_in_abs_x(self):
        x = np.linspace(0.0, 10.0, 2000)
        for gamma in (0.0, 0.01, 0.1, 1.0):
            v = voigt(x, 1.0, gamma)
            assert np.all(np.diff(v) <= 1e-15)

    def test_peak_strictly_decreases_with_gamma(self):
        peaks = [voigt(0.0, 1.0, g) for g in (0.0, 0.001, 0.01, 0.1, 0.5, 1.0)]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            voigt(0.0, 1.0, -0.1)


class TestDopplerWidth:
    def test_nh3_paper_value(self):
        # published zero-pressure width 49.8831(47) MHz at 273.15 K
        t = Transition.nh3()
        dd = doppler_width(t, 273.15, constants.KB_CODATA_2002)
        assert dd == pytest.approx(49.88, abs=0.01)
        assert dd == pytest.approx(49.8831, abs=0.005)

    def test_sqrt_scaling_in_temperature(self):
        t = Transition.nh3()
        base = doppler_width(t, 100.0, constants.KB_CODATA_2002)
        assert doppler_width(t, 400.0, constants.KB_CODATA_2002) == pytest.approx(
            2.0 * base, rel=1e-14)

    def test_sqrt_scaling_in_kb(self):
        t = Transition.nh3()
        base = doppler_width(t, 273.15, 1e-23)
        assert doppler_width(t, 273.15, 4e-23) == pytest.approx(2.0 * base, rel=1e-14)

    def test_round_trip_with_kb_from_width(self):
        t = Transition.nh3()
        for kb0 in (1e-23, constants.KB_CODATA_2002, 2.5e-23):
            dd = doppler_width(t, 273.15, kb0)
            back = kb_from_width(dd, t, TemperatureReading(273.15, 0.0))
            assert back == pytest.approx(kb0, rel=1e-12)

    def test_rejects_bad_inputs(self):
        t = Transition.nh3()
        with pytest.raises(ValueError):
            doppler_width(t, 0.0, 1e-23)
        with pytest.raises(ValueError):
            doppler_width(t, 273.15, 0.0)


class TestTransition:
    def test_nh3_mass_documented_value(self):
        t = Transition.nh3()
        assert t.mass_u == pytest.approx(17.026549, abs=5e-7)
        assert t.mass_kg == constants.NH3_MASS_KG  # the same expression, the same bits

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            Transition(0.0, 17.0)

    @pytest.mark.parametrize("label", ["a\nb", "a\r\nb", "a\rb", "a\x1cb", "a\u2028b",
                                       " a", "a ", "a\t", "\n"])
    def test_rejects_a_label_the_file_header_cannot_hold(self, label):
        # the spectrum-file header is one line, read back stripped
        with pytest.raises(ValueError, match="label"):
            Transition(1e7, 17.0, label)
