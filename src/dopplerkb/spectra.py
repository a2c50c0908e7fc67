"""Spectrum data containers shared by the simulator, the fitter and file IO."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

SCHEMA_VERSION = 2


def fields_equal(a, b):
    """``a == b`` for dataclass instances holding arrays: equal when of one
    class and equal field by field, arrays compared with ``np.array_equal``."""
    if b.__class__ is not a.__class__:
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs)


@dataclass(frozen=True)
class SpectrumMeta:
    """The conditions a spectrum was recorded at.

    The fields, in order, are the header of spectrum files of schema
    ``SCHEMA_VERSION``.  The scan geometry is not among them: the frequency
    column holds it.
    """

    transition_label: str
    nu0_mhz: float
    temperature_k: float
    temperature_sigma_k: float
    pressure_pa: float
    cell_length_m: float
    snr: float  # math.inf for noiseless data
    seed: int

    def __post_init__(self):
        if not (0 < self.nu0_mhz < math.inf):
            raise ValueError(f"nu0_mhz must be positive and finite, got {self.nu0_mhz}")
        if not (0 < self.temperature_k < math.inf):
            raise ValueError(
                f"temperature_k must be positive and finite, got {self.temperature_k}")
        if not (0 <= self.temperature_sigma_k < math.inf):
            raise ValueError(f"temperature_sigma_k must be >= 0 and finite, "
                             f"got {self.temperature_sigma_k}")
        if not (0 < self.pressure_pa < math.inf):
            raise ValueError(f"pressure_pa must be positive and finite, got {self.pressure_pa}")
        if not (self.snr > 0):
            raise ValueError(f"snr must be positive (inf for noiseless), got {self.snr}")
        if not (0 < self.cell_length_m < math.inf):
            raise ValueError(
                f"cell_length_m must be positive and finite, got {self.cell_length_m}")


@dataclass(frozen=True)
class Spectrum:
    """A frequency grid (offsets from nu0, MHz) plus transmission samples.

    The constructor checks the grid (1-d, at least 2 points, finite and
    strictly increasing) and the samples.  ``with_transmission`` gives a
    spectrum on the same grid array, which it does not check again.
    Spectra are equal when their grids, samples and meta are.
    """

    freq_offset_mhz: np.ndarray
    transmission: np.ndarray
    meta: SpectrumMeta

    __eq__ = fields_equal

    def __post_init__(self):
        f = np.asarray(self.freq_offset_mhz, dtype=float)
        if f.ndim != 1 or f.shape != np.shape(self.transmission):
            raise ValueError("frequency and transmission arrays must be 1-d and equal length")
        if f.size < 2:
            raise ValueError("a spectrum needs at least 2 samples")
        if not np.all(np.diff(f) > 0):
            raise ValueError("frequency grid must be strictly increasing")
        if not np.all(np.isfinite(f)):
            raise ValueError("spectrum samples must be finite")
        object.__setattr__(self, "freq_offset_mhz", f)
        object.__setattr__(self, "transmission", self._checked_samples(self.transmission))

    def _checked_samples(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if t.shape != self.freq_offset_mhz.shape:
            raise ValueError("frequency and transmission arrays must be 1-d and equal length")
        if not np.all(np.isfinite(t)):
            raise ValueError("spectrum samples must be finite")
        return t

    @property
    def n_points(self) -> int:
        return int(self.freq_offset_mhz.size)

    def with_transmission(self, t, meta: SpectrumMeta | None = None) -> "Spectrum":
        """This spectrum's grid, the same array, with the samples ``t`` and,
        if given, ``meta``; only ``t`` is checked."""
        new = object.__new__(type(self))
        new.__dict__.update(freq_offset_mhz=self.freq_offset_mhz,
                            transmission=self._checked_samples(t),
                            meta=self.meta if meta is None else meta)
        return new

    def noise_sigma_estimate(self) -> float:
        """Nominal per-point noise from the recorded S/N (inf S/N gives 0)."""
        if math.isinf(self.meta.snr):
            return 0.0
        return 1.0 / self.meta.snr
