"""Synthetic spectrometer: generate noisy absorption spectra over pressure
series with known ground truth, mirroring the acquisition geometry of the
real instrument (250 MHz scans in 500 kHz steps, ice-bath cell).

Noise streams are derived from a master seed through ``SeedSequence`` so a
series is reproducible bit-for-bit whether spectra are generated serially or
in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .absorption import AbsorptionModel, HyperfineStructure, ModulationComb, transmission
from .errors import DataError
from .lineshape import Transition, doppler_width
from .spectra import Spectrum, SpectrumMeta

PRESSURE_RANGE_PA = (0.01, 20.0)
BLACK_TRANSMISSION_FLOOR = 1e-3

# Pressure-broadening coefficient (HWHM per Pa): not a measured value, an
# order-of-magnitude default for ammonia self-broadening.  Downstream
# analysis only relies on gamma being proportional to pressure.
DEFAULT_PRESSURE_BROADENING_MHZ_PA = 0.02
# Peak optical depth per Pa; 0.161/Pa puts 10 Pa at ~80% peak absorption.
DEFAULT_ABSORPTION_DEPTH_PA = 0.161

DEFAULT_CELL_LENGTH_M = 0.30


@dataclass(frozen=True)
class ScanConfig:
    """Frequency scan geometry and recording settings."""

    span_mhz: float = 250.0
    step_mhz: float = 0.5
    time_constant_ms: float = 20.0  # metadata only
    snr: float = 1000.0             # per-point S/N; math.inf disables noise

    def __post_init__(self):
        if not (self.span_mhz > 0 and self.step_mhz > 0):
            raise ValueError("scan span and step must be positive")
        if self.n_points < 16:
            raise ValueError(f"scan must cover at least 16 points, got {self.n_points}")
        if not (self.snr > 0):
            raise ValueError("snr must be positive (use math.inf for noiseless)")

    @property
    def n_points(self) -> int:
        return int(math.floor(self.span_mhz / self.step_mhz + 1e-9)) + 1

    def offsets_mhz(self) -> np.ndarray:
        """Grid of offsets from the scan center, symmetric around 0."""
        half = (self.n_points - 1) / 2.0
        return (np.arange(self.n_points) - half) * self.step_mhz

    def without_noise(self) -> "ScanConfig":
        return replace(self, snr=math.inf)


@dataclass(frozen=True)
class GasConditions:
    """Cell conditions plus the two proportionality coefficients tying the
    homogeneous width and the peak optical depth to pressure."""

    pressure_pa: float
    temperature_k: float = 273.15
    pressure_broadening_mhz_per_pa: float = DEFAULT_PRESSURE_BROADENING_MHZ_PA
    absorption_depth_per_pa: float = DEFAULT_ABSORPTION_DEPTH_PA

    def __post_init__(self):
        lo, hi = PRESSURE_RANGE_PA
        if not (lo <= self.pressure_pa <= hi):
            raise ValueError(f"pressure must be in [{lo}, {hi}] Pa, got {self.pressure_pa}")
        if not (self.temperature_k > 0):
            raise ValueError("temperature must be positive")
        if self.pressure_broadening_mhz_per_pa < 0 or self.absorption_depth_per_pa < 0:
            raise ValueError("broadening and absorption coefficients must be >= 0")

    @property
    def gamma_mhz(self) -> float:
        return self.pressure_broadening_mhz_per_pa * self.pressure_pa

    @property
    def peak_depth(self) -> float:
        return self.absorption_depth_per_pa * self.pressure_pa


@dataclass(frozen=True)
class GroundTruth:
    """What the simulator actually put into a spectrum."""

    kb_true: float
    delta_d_mhz: float
    gamma_mhz: float
    peak_depth: float
    pressure_pa: float
    seed: int


def _noisy_spectrum(transition, conditions, scan, kb_true, seed, offsets, clean, delta,
                    baseline_level, temperature_sigma_k, cell_length_m):
    """Add the noise stream of ``seed`` to noiseless samples and label them."""
    if math.isinf(scan.snr):
        samples = clean.copy()  # replicas in a series share ``clean``
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        samples = clean + rng.normal(0.0, baseline_level / scan.snr, size=clean.size)
    meta = SpectrumMeta(
        transition_label=transition.label,
        nu0_mhz=transition.nu0_mhz,
        temperature_k=conditions.temperature_k,
        temperature_sigma_k=temperature_sigma_k,
        pressure_pa=conditions.pressure_pa,
        cell_length_m=cell_length_m,
        span_mhz=scan.span_mhz,
        step_mhz=scan.step_mhz,
        time_constant_ms=scan.time_constant_ms,
        snr=scan.snr,
        seed=int(seed),
    )
    truth = GroundTruth(
        kb_true=kb_true,
        delta_d_mhz=delta,
        gamma_mhz=conditions.gamma_mhz,
        peak_depth=conditions.peak_depth,
        pressure_pa=conditions.pressure_pa,
        seed=int(seed),
    )
    return Spectrum(offsets, samples, meta), truth


def synth_spectrum(
    transition: Transition,
    conditions: GasConditions,
    scan: ScanConfig,
    kb_true: float,
    seed: int,
    *,
    hyperfine: Optional[HyperfineStructure] = None,
    comb: Optional[ModulationComb] = None,
    baseline_level: float = 1.0,
    baseline_slope: float = 0.0,
    temperature_sigma_k: float = 0.0,
    cell_length_m: float = DEFAULT_CELL_LENGTH_M,
) -> tuple[Spectrum, GroundTruth]:
    """Generate one spectrum with additive white Gaussian noise.

    The Doppler width comes from ``kb_true`` and the cell temperature; the
    homogeneous width and peak depth scale linearly with pressure.  Noise has
    sigma ``baseline_level / snr``.  Deterministic for a fixed seed.
    """
    delta = doppler_width(transition, conditions.temperature_k, kb_true)
    model = AbsorptionModel(
        transition=transition,
        delta_mhz=delta,
        gamma_mhz=conditions.gamma_mhz,
        peak_depth=conditions.peak_depth,
        hyperfine=hyperfine,
        comb=comb,
        baseline_level=baseline_level,
        baseline_slope=baseline_slope,
    )
    offsets = scan.offsets_mhz()
    clean = transmission(transition.nu0_mhz + offsets, model)
    if clean.min() < BLACK_TRANSMISSION_FLOOR:
        raise DataError(
            f"optically black: peak transmission {clean.min():.2e} below "
            f"{BLACK_TRANSMISSION_FLOOR} at {conditions.pressure_pa} Pa"
        )
    return _noisy_spectrum(transition, conditions, scan, kb_true, seed, offsets, clean, delta,
                           baseline_level, temperature_sigma_k, cell_length_m)


def spawn_seeds(master_seed: int, n: int) -> list[int]:
    """Derive ``n`` independent child seeds from a master seed."""
    state = np.random.SeedSequence(master_seed).generate_state(n, dtype=np.uint64)
    return [int(s) for s in state]


def synth_series(
    transition: Transition,
    pressures_pa: Sequence[float],
    conditions: GasConditions,
    scan: ScanConfig,
    kb_true: float,
    seed: int,
    *,
    hyperfine: Optional[HyperfineStructure] = None,
    comb: Optional[ModulationComb] = None,
    baseline_level: float = 1.0,
    baseline_slope: float = 0.0,
    temperature_sigma_k: float = 0.0,
    cell_length_m: float = DEFAULT_CELL_LENGTH_M,
) -> list[tuple[Spectrum, GroundTruth]]:
    """One spectrum per pressure, each with its own derived noise stream.

    ``conditions`` supplies the temperature and proportionality coefficients;
    its pressure field is replaced per entry.  Entry ``i`` equals
    ``synth_spectrum`` with the ``i``-th of ``spawn_seeds(seed, n)``.  Each
    distinct pressure is synthesized once, as a noiseless ``synth_spectrum``
    (which also refuses an optically black line), and every replica of that
    pressure adds its own noise stream to those samples.
    """
    if len(pressures_pa) == 0:
        raise ValueError("pressure list must not be empty")
    noiseless = {}
    out = []
    for p, child in zip(pressures_pa, spawn_seeds(seed, len(pressures_pa))):
        cond = replace(conditions, pressure_pa=float(p))
        if cond.pressure_pa not in noiseless:
            noiseless[cond.pressure_pa] = synth_spectrum(
                transition, cond, scan.without_noise(), kb_true, child, hyperfine=hyperfine,
                comb=comb, baseline_level=baseline_level, baseline_slope=baseline_slope)
        clean, truth = noiseless[cond.pressure_pa]
        out.append(_noisy_spectrum(
            transition, cond, scan, kb_true, child, clean.freq_offset_mhz, clean.transmission,
            truth.delta_d_mhz, baseline_level, temperature_sigma_k, cell_length_m))
    return out


def inject_baseline_slope(spectrum: Spectrum, slope_per_mhz: float) -> Spectrum:
    """Add ``slope * (nu - nu0)`` to every sample.

    This matches the fit model's own slope term exactly, so it is absorbed by
    the slope parameter and leaves every other fitted parameter untouched;
    use it to verify that round trip.
    """
    if not math.isfinite(slope_per_mhz):
        raise ValueError("slope must be finite")
    if slope_per_mhz == 0.0:
        return spectrum
    return spectrum.with_transmission(
        spectrum.transmission + slope_per_mhz * spectrum.freq_offset_mhz
    )


def inject_parasitic_ramp(spectrum: Spectrum, ramp_per_mhz: float) -> Spectrum:
    """Add stray light growing linearly from zero at the scan start:
    ``ramp * (nu - nu_start)``.

    Equivalent to a baseline slope plus a constant offset of
    ``ramp * span/2``.  The offset is outside the fit model, so this is the
    systematic that shifts fitted widths while betraying itself through the
    fitted slope; it is what the slope filter is for.
    """
    if not math.isfinite(ramp_per_mhz):
        raise ValueError("ramp must be finite")
    if ramp_per_mhz == 0.0:
        return spectrum
    x = spectrum.freq_offset_mhz
    return spectrum.with_transmission(spectrum.transmission + ramp_per_mhz * (x - x[0]))
