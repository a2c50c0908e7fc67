"""Doppler-broadening thermometry toolkit.

Synthesizes Doppler-limited absorption spectra of a molecular line, fits
them with an exponential-of-Gaussian (or exponential-of-Voigt) model,
extrapolates the fitted width to zero pressure through the amplitude
pressure proxy, and converts the Doppler width into the Boltzmann constant
with an itemized uncertainty budget.
"""

__version__ = "0.1.0"

from .absorption import (
    HyperfineStructure,
    ModulationComb,
    transmission,
)
from .boltzmann import (
    BoltzmannResult,
    TemperatureReading,
    kb_from_width,
    uncertainty_budget,
)
from .errors import DataError, DopplerKBError, FitError
from .extrapolation import (
    ExtrapolationResult,
    WidthPoint,
    default_slope_threshold,
    filter_by_slope,
    points_from_fit_results,
    zero_pressure_width,
)
from .fitter import FitModel, FitResult, fit_series, fit_spectrum, initial_guess, jacobian
from .lineshape import Transition, doppler_width, voigt
from .simulator import (
    GasConditions,
    GroundTruth,
    ScanConfig,
    synth_series,
    synth_spectrum,
)
from .spectra import Spectrum, SpectrumMeta

__all__ = [
    "BoltzmannResult",
    "DataError",
    "DopplerKBError",
    "ExtrapolationResult",
    "FitError",
    "FitModel",
    "FitResult",
    "GasConditions",
    "GroundTruth",
    "HyperfineStructure",
    "ModulationComb",
    "ScanConfig",
    "Spectrum",
    "SpectrumMeta",
    "TemperatureReading",
    "Transition",
    "WidthPoint",
    "default_slope_threshold",
    "doppler_width",
    "filter_by_slope",
    "fit_series",
    "fit_spectrum",
    "initial_guess",
    "jacobian",
    "kb_from_width",
    "points_from_fit_results",
    "synth_series",
    "synth_spectrum",
    "transmission",
    "uncertainty_budget",
    "voigt",
    "zero_pressure_width",
]
