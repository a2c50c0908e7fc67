"""Doppler-broadening thermometry toolkit.

Synthesizes Doppler-limited absorption spectra of a molecular line, fits
them with an exponential-of-Gaussian (or exponential-of-Voigt) model,
extrapolates the fitted width to zero pressure through the amplitude
pressure proxy, and converts the Doppler width into the Boltzmann constant
with an itemized uncertainty budget.
"""

__version__ = "0.1.0"

from .absorption import (
    AbsorptionModel,
    CorrectedWidth,
    HyperfineStructure,
    ModulationComb,
    broadening_homogeneous,
    broadening_hyperfine,
    broadening_modulation,
    optical_depth,
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
from .lineshape import Transition, doppler_width, gaussian, voigt
from .simulator import (
    GasConditions,
    GroundTruth,
    ScanConfig,
    inject_baseline_slope,
    inject_parasitic_ramp,
    spawn_seeds,
    synth_series,
    synth_spectrum,
)
from .spectra import Spectrum, SpectrumMeta

__all__ = [
    "AbsorptionModel",
    "BoltzmannResult",
    "CorrectedWidth",
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
    "broadening_homogeneous",
    "broadening_hyperfine",
    "broadening_modulation",
    "default_slope_threshold",
    "doppler_width",
    "filter_by_slope",
    "fit_series",
    "fit_spectrum",
    "gaussian",
    "initial_guess",
    "inject_baseline_slope",
    "inject_parasitic_ramp",
    "jacobian",
    "kb_from_width",
    "optical_depth",
    "points_from_fit_results",
    "spawn_seeds",
    "synth_series",
    "synth_spectrum",
    "transmission",
    "uncertainty_budget",
    "voigt",
    "zero_pressure_width",
]
