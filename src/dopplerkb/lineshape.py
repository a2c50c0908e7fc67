"""Elementary spectral profiles and the Doppler width/temperature relation.

Width conventions, used everywhere in this package:

* Gaussian widths ``delta`` are 1/e half-widths of ``exp(-(x/delta)**2)``.
* Lorentzian widths ``gamma`` are half-widths at half-maximum.

``profile`` is the one kernel behind both the simulator and the fitter.  At
offsets ``u`` from the line center it returns a tuple ``(P, dP/du,
dP/ddelta, dP/dgamma)``: ``P`` is the unit-peak Gaussian
``exp(-(u/delta)**2)`` when ``gamma`` is ``None``, else the Voigt profile
``Re w((u + i*|gamma|)/delta)`` with ``w`` the Faddeeva function.  The
derivatives are analytic partials of ``P`` with respect to the offset, the
Gaussian width and the Lorentzian width, taken through
``w'(z) = -2*z*w(z) + 2i/sqrt(pi)`` for the Voigt; ``dP/dgamma`` carries the
sign of ``gamma``, so it is the derivative of ``P`` as written with
``|gamma|``.  Without ``derivs`` the three derivatives are ``None``, and the
Gaussian ``dP/dgamma`` is always ``None``.  The kernel validates nothing;
``voigt`` is its validated form, a pure function that takes a scalar or a
numpy array of offsets and is the unit-peak Gaussian at ``gamma == 0``.
``profile_derivatives`` gives the higher offset derivatives of the same
profile, the terms of the Taylor expansion behind
``absorption.transmission``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


@dataclass(frozen=True)
class Transition:
    """A molecular line: center frequency, absorber mass in unified atomic
    mass units (the unit it is sourced in, and the one manifests record) and
    a label.  ``mass_kg`` is derived from ``mass_u``, so the two cannot
    disagree.  ``label`` is one unpadded line.
    """

    nu0_mhz: float
    mass_u: float
    label: str = ""

    def __post_init__(self):
        if len(self.label.splitlines()) > 1 or self.label != self.label.strip():
            raise ValueError(f"label must be one line, unpadded; got {self.label!r}")
        if not (self.nu0_mhz > 0):
            raise ValueError(f"transition frequency must be positive, got {self.nu0_mhz}")
        if not (self.mass_u > 0):
            raise ValueError(f"molecular mass must be positive, got {self.mass_u}")

    @property
    def mass_kg(self) -> float:
        return self.mass_u * constants.ATOMIC_MASS_KG

    @classmethod
    def nh3(cls) -> "Transition":
        """The ammonia nu2 asQ(6,3) line with the documented default mass."""
        return cls(constants.NH3_LINE_FREQ_MHZ, constants.NH3_MASS_U, constants.NH3_LINE_LABEL)


def profile(u, delta, gamma=None, derivs: bool = False, out=None):
    """Unit-peak Gaussian (``gamma is None``) or Voigt profile at offsets
    ``u``, with its derivatives on request: see the module docstring.

    With ``derivs`` the offsets are a (rows, points) array and ``delta`` and
    ``gamma`` (rows, 1) columns; without, any shapes that broadcast.

    ``out``, the numpy ``out=`` idiom, is an optional tuple of arrays of the
    broadcast shape, one for each value returned that is not ``None`` and in
    that order: P, then with ``derivs`` dP/du, dP/ddelta and, for the Voigt,
    dP/dgamma.  The values are written into them and the same arrays are
    returned; without ``out`` they are new arrays.  The operations are the
    same either way, so are the bits.  The Gaussian needs no other array of
    that shape; the Voigt's complex intermediates are allocated on each call.
    """
    if out is None:
        out = (None,) * 4
    if gamma is None:
        p = out[0] if out[0] is not None else np.empty(np.broadcast_shapes(np.shape(u),
                                                                          np.shape(delta)))
        np.divide(u, delta, out=p)
        np.square(p, out=p)
        np.negative(p, out=p)
        np.exp(p, out=p)  # exp(-(u/delta)**2)
        if not derivs:
            return p, None, None, None
        # Powers of the width use Python's scalar ``**`` row by row: for some
        # inputs ``np.power`` rounds differently in the last bit, and the
        # scalar form keeps each row bit-identical to a per-spectrum fit
        # (tests/_loop_fitter.py).
        widths = delta[:, 0].tolist()
        dp_du = np.multiply(-2.0, u, out=out[1])
        np.divide(dp_du, np.array([d**2 for d in widths])[:, None], out=dp_du)
        np.multiply(p, dp_du, out=dp_du)  # p * (-2.0*u / delta**2)
        dp_ddelta = np.square(u, out=out[2])
        np.multiply(2.0, dp_ddelta, out=dp_ddelta)
        np.divide(dp_ddelta, np.array([d**3 for d in widths])[:, None], out=dp_ddelta)
        np.multiply(p, dp_ddelta, out=dp_ddelta)  # p * (2.0*u**2 / delta**3)
        return p, dp_du, dp_ddelta, None
    from scipy.special import wofz

    z = (u + 1j * np.abs(gamma)) / delta
    w = wofz(z)
    p = w.real
    if out[0] is not None:
        p = out[0]
        np.copyto(p, w.real)
    if not derivs:
        return p, None, None, None
    wprime = -2.0 * z * w + 1j * _TWO_OVER_SQRT_PI
    dp_du = np.divide(wprime.real, delta, out=out[1])
    dp_ddelta = np.negative((z * wprime).real, out=out[2])
    np.divide(dp_ddelta, delta, out=dp_ddelta)
    dp_dgamma = np.divide((1j * wprime).real, delta, out=out[3])
    np.multiply(np.where(gamma < 0, -1.0, 1.0), dp_dgamma, out=dp_dgamma)
    return p, dp_du, dp_ddelta, dp_dgamma


def profile_derivatives(u, delta, gamma, order: int) -> np.ndarray:
    """The derivatives ``d^n V / dt^n``, ``n = 1..order``, of the Voigt
    profile ``V(t) = Re w(t + i*|gamma|/delta)`` at ``t = u/delta``, stacked
    into an array of shape ``(order,) + u.shape``; at ``gamma == 0`` ``V`` is
    the unit-peak Gaussian.

    One ``wofz`` call gives them all, through the recurrence
    ``w^(n+1) = -2*z*w^(n) - 2*n*w^(n-1)`` from
    ``w' = -2*z*w + 2i/sqrt(pi)``.  Validates nothing, like ``profile``.
    """
    from scipy.special import wofz

    z = (u + 1j * abs(gamma)) / delta
    w = wofz(z)
    dw = -2.0 * z * w + 1j * _TWO_OVER_SQRT_PI
    out = np.empty((order,) + np.shape(u))
    for n in range(1, order + 1):
        out[n - 1] = dw.real
        w, dw = dw, -2.0 * z * dw - 2.0 * n * w
    return out


def voigt(x, delta: float, gamma: float):
    """Convolution of the unit-peak Gaussian with a unit-area Lorentzian.

    Normalized so that ``gamma == 0`` returns exactly ``exp(-(x/delta)**2)``;
    for ``gamma > 0`` the peak value is ``erfcx(gamma/delta) < 1`` because the
    convolution conserves area, not height.  Evaluated through the real part
    of the Faddeeva function ``w((x + i*gamma)/delta)``, accurate to well
    below 1e-8 relative for ``0 <= gamma/delta <= 1`` and ``|x| <= 10*delta``.
    """
    if not (delta > 0):
        raise ValueError(f"Gaussian 1/e half-width must be positive, got {delta}")
    if gamma < 0 or not math.isfinite(gamma):
        raise ValueError(f"Lorentzian HWHM must be >= 0 and finite, got {gamma}")
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("frequency offsets must be finite")
    values = profile(xa, delta, None if gamma == 0.0 else gamma)[0]
    return float(values) if np.ndim(x) == 0 else values


def doppler_width(transition: Transition, temperature_k: float, kb: float) -> float:
    """Doppler 1/e half-width ``nu0 * sqrt(2*kb*T / (m*c**2))`` in MHz."""
    if not (temperature_k > 0):
        raise ValueError(f"temperature must be positive, got {temperature_k}")
    if not (kb > 0):
        raise ValueError(f"Boltzmann constant must be positive, got {kb}")
    mc2 = transition.mass_kg * constants.SPEED_OF_LIGHT_M_S**2
    return transition.nu0_mhz * math.sqrt(2.0 * kb * temperature_k / mc2)
