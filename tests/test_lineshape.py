import math

import numpy as np
import pytest

from dopplerkb import Transition, constants, doppler_width, kb_from_width, voigt
from dopplerkb.boltzmann import TemperatureReading
from dopplerkb.lineshape import profile, profile_derivatives

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


class TestProfileOutputArrays:
    @pytest.mark.parametrize("derivs", [False, True])
    @pytest.mark.parametrize("voigt_gamma", [None, [[0.3], [-0.02]]])
    def test_written_into_out_with_the_same_bits(self, derivs, voigt_gamma):
        rng = np.random.default_rng(3)
        u = rng.uniform(-150.0, 150.0, size=(2, 301))
        delta = np.array([[49.88], [37.5]])
        gamma = None if voigt_gamma is None else np.array(voigt_gamma)
        fresh = [v for v in profile(u, delta, gamma, derivs=derivs) if v is not None]
        out = tuple(np.full(u.shape, np.nan) for _ in fresh)
        written = profile(u, delta, gamma, derivs=derivs, out=out)
        assert all(a is b for a, b in zip(written, out))
        assert written[len(out):] == (None,) * (4 - len(out))
        for want, got in zip(fresh, out):
            np.testing.assert_array_equal(got, want)


class TestProfileDerivatives:
    def test_gaussian_derivatives_are_hermite_functions(self):
        # d^n/dt^n exp(-t**2) = (-1)**n H_n(t) exp(-t**2)
        from scipy.special import eval_hermite

        u = np.linspace(-150.0, 150.0, 301)
        t = u / 49.88
        got = profile_derivatives(u, 49.88, 0.0, 10)
        for n in range(1, 11):
            want = (-1) ** n * eval_hermite(n, t) * np.exp(-t**2)
            np.testing.assert_allclose(got[n - 1], want, rtol=1e-12, atol=1e-15 * 2.0**n)

    def test_voigt_derivatives_match_the_kernel_and_differences(self):
        delta, gamma = 49.88, 2.5
        u = np.linspace(-150.0, 150.0, 301)[None, :]
        got = profile_derivatives(u, delta, gamma, 6)
        dp_du = profile(u, np.array([[delta]]), np.array([[gamma]]), derivs=True)[1]
        np.testing.assert_allclose(got[0], dp_du * delta, rtol=1e-13, atol=1e-16)
        # each order is the central difference of the one before, in t = u/delta
        h = 1e-4 * delta
        for n in range(1, 6):
            diff = (profile_derivatives(u + h, delta, gamma, n)[-1]
                    - profile_derivatives(u - h, delta, gamma, n)[-1]) / (2.0 * h / delta)
            np.testing.assert_allclose(got[n], diff, rtol=1e-6, atol=1e-8 * 2.0**n)


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
