"""Elementary spectral profiles and the Doppler width/temperature relation.

Width conventions, used everywhere in this package:

* Gaussian widths ``delta`` are 1/e half-widths: ``gaussian(delta) = 1/e``.
* Lorentzian widths ``gamma`` are half-widths at half-maximum.

All functions are pure and accept scalars or numpy arrays for the frequency
offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants


@dataclass(frozen=True)
class Transition:
    """A molecular line: center frequency and absorber mass.

    ``mass_kg`` and ``mass_u`` must agree through the unified-atomic-mass
    constant to 1e-9 relative; both are kept so that manifests record the
    mass in the unit it was sourced in.
    """

    nu0_mhz: float
    mass_kg: float
    mass_u: float
    label: str = ""

    def __post_init__(self):
        if not (self.nu0_mhz > 0):
            raise ValueError(f"transition frequency must be positive, got {self.nu0_mhz}")
        if not (self.mass_kg > 0 and self.mass_u > 0):
            raise ValueError("molecular mass must be positive")
        rel = abs(self.mass_kg / (self.mass_u * constants.ATOMIC_MASS_KG) - 1.0)
        if rel > 1e-9:
            raise ValueError(
                f"mass_kg and mass_u inconsistent by {rel:.2e} relative "
                "(limit 1e-9 via the unified atomic mass constant)"
            )

    @classmethod
    def nh3(cls) -> "Transition":
        """The ammonia nu2 asQ(6,3) line with the documented default mass."""
        return cls(
            nu0_mhz=constants.NH3_LINE_FREQ_MHZ,
            mass_kg=constants.NH3_MASS_KG,
            mass_u=constants.NH3_MASS_U,
            label=constants.NH3_LINE_LABEL,
        )

    @classmethod
    def from_mass_u(cls, nu0_mhz: float, mass_u: float, label: str = "") -> "Transition":
        return cls(nu0_mhz=nu0_mhz, mass_kg=mass_u * constants.ATOMIC_MASS_KG,
                   mass_u=mass_u, label=label)


def _as_offsets(x) -> np.ndarray:
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("frequency offsets must be finite")
    return xa


def _match_input(x, values: np.ndarray):
    if np.ndim(x) == 0:
        return float(values)
    return values


def gaussian(x, delta: float):
    """Unit-peak Gaussian ``exp(-x**2 / delta**2)``.

    ``delta`` is the 1/e half-width in MHz; ``x`` a frequency offset from the
    line center.
    """
    if not (delta > 0):
        raise ValueError(f"Gaussian 1/e half-width must be positive, got {delta}")
    xa = _as_offsets(x)
    return _match_input(x, np.exp(-((xa / delta) ** 2)))


def lorentzian(x, gamma: float):
    """Unit-peak Lorentzian ``gamma**2 / (x**2 + gamma**2)``, HWHM ``gamma``."""
    if not (gamma > 0):
        raise ValueError(f"Lorentzian HWHM must be positive, got {gamma}")
    xa = _as_offsets(x)
    return _match_input(x, gamma**2 / (xa**2 + gamma**2))


def voigt(x, delta: float, gamma: float):
    """Convolution of the unit-peak Gaussian with a unit-area Lorentzian.

    Normalized so that ``gamma == 0`` returns exactly ``gaussian(x, delta)``;
    for ``gamma > 0`` the peak value is ``erfcx(gamma/delta) < 1`` because the
    convolution conserves area, not height.  Evaluated through the real part
    of the Faddeeva function ``w((x + i*gamma)/delta)``, accurate to well
    below 1e-8 relative for ``0 <= gamma/delta <= 1`` and ``|x| <= 10*delta``.
    """
    if not (delta > 0):
        raise ValueError(f"Gaussian 1/e half-width must be positive, got {delta}")
    if gamma < 0 or not math.isfinite(gamma):
        raise ValueError(f"Lorentzian HWHM must be >= 0 and finite, got {gamma}")
    xa = _as_offsets(x)
    if gamma == 0.0:
        return _match_input(x, np.exp(-((xa / delta) ** 2)))
    from scipy.special import wofz

    z = (xa + 1j * gamma) / delta
    return _match_input(x, wofz(z).real)


def doppler_width(transition: Transition, temperature_k: float, kb: float) -> float:
    """Doppler 1/e half-width ``nu0 * sqrt(2*kb*T / (m*c**2))`` in MHz."""
    if not (temperature_k > 0):
        raise ValueError(f"temperature must be positive, got {temperature_k}")
    if not (kb > 0):
        raise ValueError(f"Boltzmann constant must be positive, got {kb}")
    mc2 = transition.mass_kg * constants.SPEED_OF_LIGHT_M_S**2
    return transition.nu0_mhz * math.sqrt(2.0 * kb * temperature_k / mc2)
