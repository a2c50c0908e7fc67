import math

import numpy as np
import pytest

from dopplerkb.spectra import Spectrum, SpectrumMeta

META = SpectrumMeta("", 572113.0, 273.15, 0.0, 1.0, 0.3, math.inf, 0)
GRID = np.arange(-5.0, 6.0)


@pytest.fixture()
def spectrum():
    return Spectrum(GRID, np.ones(GRID.size), META)


@pytest.mark.parametrize("grid, match", [
    (GRID[::-1], "strictly increasing"),
    (np.r_[GRID[:3], GRID[2:]], "strictly increasing"),
    (np.r_[GRID[:-1], np.nan], "strictly increasing"),
    (np.r_[GRID[:-1], np.inf], "finite"),
    (np.r_[-np.inf, GRID[1:]], "finite"),
    (GRID[:1], "at least 2 samples"),
    (np.stack([GRID, GRID]), "1-d"),
])
def test_bad_grid_refused(grid, match):
    with pytest.raises(ValueError, match=match):
        Spectrum(grid, np.ones(np.shape(grid)), META)


@pytest.mark.parametrize("samples, match", [
    (np.r_[np.ones(GRID.size - 1), np.nan], "finite"),
    (np.r_[np.ones(GRID.size - 1), np.inf], "finite"),
    (np.ones(GRID.size - 1), "equal length"),
])
def test_bad_samples_refused(spectrum, samples, match):
    with pytest.raises(ValueError, match=match):
        Spectrum(GRID, samples, META)
    with pytest.raises(ValueError, match=match):
        spectrum.with_transmission(samples)


def test_with_transmission_keeps_the_grid_array(spectrum):
    meta = SpectrumMeta("", 572113.0, 273.15, 0.0, 2.0, 0.3, 1000.0, 5)
    samples = np.linspace(0.9, 1.0, GRID.size)
    other = spectrum.with_transmission(samples, meta)
    assert other.freq_offset_mhz is spectrum.freq_offset_mhz
    assert other.meta is meta and spectrum.meta is META
    np.testing.assert_array_equal(other.transmission, samples)
    np.testing.assert_array_equal(spectrum.transmission, np.ones(GRID.size))
    assert spectrum.with_transmission(samples).meta is META


@pytest.mark.parametrize("pressure", [-3.0, 0.0, math.inf, math.nan])
def test_pressure_not_positive_and_finite_refused(pressure):
    with pytest.raises(ValueError, match="pressure_pa must be positive and finite"):
        SpectrumMeta("", 572113.0, 273.15, 0.0, pressure, 0.3, math.inf, 0)


@pytest.mark.parametrize("snr, sigma", [(1000.0, 1e-3), (4.0, 0.25), (math.inf, 0.0)])
def test_noise_sigma_estimate_is_one_over_the_snr(snr, sigma):
    meta = SpectrumMeta("", 572113.0, 273.15, 0.0, 1.0, 0.3, snr, 0)
    assert Spectrum(GRID, np.ones(GRID.size), meta).noise_sigma_estimate() == sigma
