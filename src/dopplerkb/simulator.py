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

from . import constants
from .absorption import HyperfineStructure, ModulationComb, transmission
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
    """Frequency scan geometry and the per-point S/N."""

    span_mhz: float = 250.0
    step_mhz: float = 0.5
    snr: float = 1000.0  # per-point S/N; math.inf disables noise

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
    temperature_k: float = constants.CELL_TEMPERATURE_K
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
    """What the simulator put into a spectrum that its header does not say;
    every replica of a pressure shares one."""

    kb_true: float
    delta_d_mhz: float
    gamma_mhz: float
    peak_depth: float


def _replica(noiseless: tuple, seed: int, snr: float) -> tuple[Spectrum, GroundTruth]:
    """The noiseless ``(Spectrum, GroundTruth)`` pair with the noise stream of
    ``seed`` at ``snr`` added, labelled with that seed and S/N; the truth is shared."""
    spectrum, truth = noiseless
    if math.isinf(snr):
        samples = spectrum.transmission.copy()
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        samples = spectrum.transmission + rng.normal(0.0, 1.0 / snr, size=spectrum.n_points)
    meta = replace(spectrum.meta, snr=snr, seed=int(seed))
    return spectrum.with_transmission(samples, meta), truth


def synth_spectrum(
    transition: Transition,
    conditions: GasConditions,
    scan: ScanConfig,
    kb_true: float,
    seed: int,
    *,
    hyperfine: Optional[HyperfineStructure] = None,
    comb: Optional[ModulationComb] = None,
    temperature_sigma_k: float = 0.0,
    cell_length_m: float = DEFAULT_CELL_LENGTH_M,
) -> tuple[Spectrum, GroundTruth]:
    """Generate one spectrum with additive white Gaussian noise.

    The Doppler width comes from ``kb_true`` and the cell temperature; the
    homogeneous width and peak depth scale linearly with pressure.  The
    baseline is 1 and flat; noise has sigma ``1 / snr``.  The result is the
    noiseless spectrum with the noise stream of ``seed`` added, so it is
    deterministic for a fixed seed.
    """
    delta = doppler_width(transition, conditions.temperature_k, kb_true)
    offsets = scan.offsets_mhz()
    clean = transmission(offsets, delta, conditions.gamma_mhz, conditions.peak_depth, hyperfine,
                         comb)
    if clean.min() < BLACK_TRANSMISSION_FLOOR:
        raise DataError(
            f"optically black: peak transmission {clean.min():.2e} below "
            f"{BLACK_TRANSMISSION_FLOOR} at {conditions.pressure_pa} Pa"
        )
    meta = SpectrumMeta(transition.label, transition.nu0_mhz, conditions.temperature_k,
                        temperature_sigma_k, conditions.pressure_pa, cell_length_m, math.inf,
                        int(seed))
    truth = GroundTruth(kb_true, delta, conditions.gamma_mhz, conditions.peak_depth)
    return _replica((Spectrum(offsets, clean, meta), truth), seed, scan.snr)


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
        pressure = float(p)
        if pressure not in noiseless:
            noiseless[pressure] = synth_spectrum(
                transition, replace(conditions, pressure_pa=pressure), scan.without_noise(),
                kb_true, child, hyperfine=hyperfine, comb=comb,
                temperature_sigma_k=temperature_sigma_k, cell_length_m=cell_length_m)
        out.append(_replica(noiseless[pressure], child, scan.snr))
    return out

