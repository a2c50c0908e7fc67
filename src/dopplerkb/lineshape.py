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

``w`` is the Faddeeva function ``w(z) = exp(-z**2) erfc(-iz)`` for
``Im z >= 0``, from numpy alone, in three regions of ``z = x + iy``:

* ``|z| >= 8``: the Laplace continued fraction of ``w`` to 20 terms
  (e.g. Gautschi, SIAM J. Numer. Anal. 7, 187, 1970), plus
  ``exp(-z**2)`` where ``y < 1``, which the fraction misses near the real
  axis;
* ``|x| >= 2.5`` and ``y < 0.3`` within ``|z| < 8``: the five exponential
  sums of Zaghloul & Ali's Algorithm 916 (ACM TOMS 38, 15, 2011), with
  ``erfcx(y)`` from ``math.erfc``;
* everywhere else: Weideman's rational approximation with N = 40
  (SIAM J. Numer. Anal. 31, 1497, 1994), whose 40 coefficients are
  constants here; ``tests/_oracles.py`` derives them by Weideman's FFT, and
  a test holds the table to that derivation bit for bit.

Weideman's form is accurate to about 2e-15 absolute everywhere, but near
the real axis ``Re w`` is only about ``y/|z|**2`` of ``|w|``, and there the
other two forms keep the relative accuracy.  Against 40-digit values at
21000 points of ``|x| <= 1e4``, ``0 <= y <= 100`` (denser near the region
borders), ``w`` was within 1.4e-15 absolute, 2e-15 relative in ``Im w`` and
1.1e-13 relative in ``Re w``; the largest of those are Weideman's, just
inside ``|x| = 2.5`` near the axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_WEIDEMAN_N = 40
_WEIDEMAN_L = math.sqrt(_WEIDEMAN_N / math.sqrt(2.0))
# Weideman's a_N, ..., a_1 for N = 40: the FFT of exp(-t**2) * (L**2 + t**2)
# at t = L tan(theta/2), as the repr of each double.
_WEIDEMAN_COEFFICIENTS = (
    -1.7404341423286935e-15, 1.2291587955939944e-15, 1.1529729069165072e-14,
    -5.200039821056964e-15, -7.067920367632665e-14, 1.381518001713928e-14,
    4.5343560679118935e-13, 1.2034365414037787e-13, -2.90771851041427e-12,
    -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727332121065047e-11,
    -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085995172143158e-10,
    3.0177804477560245e-09, 3.2497466273539997e-09, -1.8315616800990142e-08,
    -6.351773480517409e-08, 1.419864242846458e-08, 5.912136953223345e-07,
    1.4835661133401e-06, -1.0660138984032193e-06, -1.800744714475281e-05,
    -5.591309264242065e-05, -3.939363145484148e-05, 0.000439807015986967,
    0.0027054056330737155, 0.010048186242783521, 0.029202916471241867,
    0.07182361779074331, 0.15504263802479507, 0.2998943799615006,
    0.5266528988277086, 0.8472174576593815, 1.2563815675765133,
    1.7253830848179779, 2.201513794878312, 2.6160541527618597,
    2.899624509389705,
)
_CF_TERMS = 20
# Algorithm 916's a = pi / sqrt(-ln(2**-53)) and c = 2a/pi, and the sum
# index n = 1..28, past which exp(-(a*n - |x|)**2) < 4e-19 for |x| < 8.
_Z_A = math.pi / math.sqrt(53.0 * math.log(2.0))
_Z_C = 2.0 * _Z_A / math.pi
_Z_AN = _Z_A * np.arange(1, 29)
_Z_AN2 = _Z_AN * _Z_AN
_Z_EXP = np.exp(-_Z_AN2)
_Z_CHUNK = 2048  # points per pass of the sums' (points, 28) arrays


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
        if not (self.mass_kg > 0):
            raise ValueError(f"molecular mass {self.mass_u} u is 0 kg in floating point")

    @property
    def mass_kg(self) -> float:
        return self.mass_u * constants.ATOMIC_MASS_KG

    @classmethod
    def nh3(cls) -> "Transition":
        """The ammonia nu2 asQ(6,3) line with the documented default mass."""
        return cls(constants.NH3_LINE_FREQ_MHZ, constants.NH3_MASS_U, constants.NH3_LINE_LABEL)


def w(z) -> np.ndarray:
    """The Faddeeva function ``exp(-z**2) erfc(-iz)`` of a complex array or
    scalar with ``Im z >= 0``, elementwise: see the module docstring."""
    z = np.asarray(z, dtype=complex)
    return _faddeeva(z.real, z.imag)


def _faddeeva(x, y) -> np.ndarray:
    """``w(x + iy)`` for real arrays ``x`` and ``y >= 0`` that broadcast,
    e.g. offsets and a column of widths."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    x, y = np.atleast_1d(x, y)
    out = _weideman(x, y)
    # Only these points can lie in the other two regions: a point of
    # |z| >= 8 with |x| < 2.5 has y*y > 64 - 2.5**2.  The region tests run on
    # them alone.
    at = np.nonzero((np.abs(x) >= 2.5) | (y * y >= 64.0 - 2.5**2))
    if at[0].size:
        x, y = (np.broadcast_to(v, out.shape)[at] for v in (x, y))
        far = x * x + y * y >= 64.0
        near = ~far & (y < 0.3) & (np.abs(x) >= 2.5)
        if far.any():
            out[tuple(i[far] for i in at)] = _continued_fraction(x[far] + 1j * y[far])
        if near.any():
            out[tuple(i[near] for i in at)] = _exponential_sums(x[near], y[near])
    return out.reshape(shape)


def _weideman(x, y) -> np.ndarray:
    """``2 p(Z) / (L - iz)**2 + 1 / (sqrt(pi) (L - iz))`` with
    ``Z = (L + iz) / (L - iz) = 2L / (L - iz) - 1`` and ``p`` the
    polynomial of ``_WEIDEMAN_COEFFICIENTS``."""
    a = _WEIDEMAN_COEFFICIENTS
    lw = _WEIDEMAN_L
    shift = lw + y
    norm = shift * shift + x * x
    inv = np.empty(norm.shape, dtype=complex)
    np.divide(shift, norm, out=inv.real)
    np.divide(x, norm, out=inv.imag)  # 1 / (L - iz)
    big_z = 2.0 * lw * inv
    big_z -= 1.0
    p = a[0] * big_z
    p += a[1]
    for coefficient in a[2:]:
        p *= big_z
        p += coefficient
    p *= inv
    p *= 2.0
    p += _INV_SQRT_PI
    p *= inv
    return p


def _continued_fraction(z) -> np.ndarray:
    """``i/sqrt(pi) / (z - (1/2) / (z - 1 / (z - (3/2) / (z - ...))))`` to
    ``_CF_TERMS`` terms, plus ``exp(-z**2)`` where ``Im z < 1``."""
    r = np.zeros_like(z)
    for k in range(_CF_TERMS, 0, -1):
        r = (0.5 * k) / (z - r)
    out = (1j * _INV_SQRT_PI) / (z - r)
    low = z.imag < 1.0
    out[low] += np.exp(-np.square(z[low]))
    return out


def _exponential_sums(x, y) -> np.ndarray:
    """Algorithm 916 of Zaghloul & Ali at 1-d arrays ``x``, ``y >= 0`` with
    ``|x| < 8``: ``w`` from ``exp(-x**2) erfcx(y)``, sines of ``xy`` and the
    sums over ``n`` of ``exp(-a**2 n**2 - x**2)``, ``exp(-(a n -+ |x|)**2)``
    and ``a n exp(-(a n -+ |x|)**2)``, each over ``a**2 n**2 + y**2``, at
    ``|x|``, and conjugated where ``x < 0``."""
    ax = np.abs(x)
    ex2 = np.exp(-ax * ax)
    erfcx = np.array([math.exp(v * v) * math.erfc(v) for v in y.tolist()])
    sums = np.empty((5, x.size))
    for i in range(0, x.size, _Z_CHUNK):
        part = slice(i, i + _Z_CHUNK)
        g = 1.0 / (_Z_AN2 + np.square(y[part])[:, None])
        minus = np.exp(-np.square(_Z_AN + ax[part, None])) * g
        plus = np.exp(-np.square(_Z_AN - ax[part, None])) * g
        sums[:, part] = ((g * _Z_EXP).sum(axis=1), minus.sum(axis=1),
                         plus.sum(axis=1), (minus * _Z_AN).sum(axis=1),
                         (plus * _Z_AN).sum(axis=1))
    s1, s2, s3, s4, s5 = sums
    xy = ax * y
    sin_xy, sin_2xy = np.sin(xy), np.sin(2.0 * xy)
    sinc_xy = np.divide(sin_xy, xy, out=np.ones_like(xy), where=xy != 0.0)
    sinc_2xy = np.divide(sin_2xy, 2.0 * xy, out=np.ones_like(xy), where=xy != 0.0)
    first = ex2 * erfcx - _Z_C * y * ex2 * s1
    second = _Z_C * ax * ex2
    out = np.empty(x.shape, dtype=complex)
    out.real = (first * np.cos(2.0 * xy) + second * sin_xy * sinc_xy
                + 0.5 * _Z_C * y * (s2 + s3))
    out.imag = second * sinc_2xy - first * sin_2xy + 0.5 * _Z_C * (s5 - s4)
    np.negative(out.imag, out=out.imag, where=x < 0.0)  # the conjugate where x < 0
    return out


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
    that shape; the Voigt's intermediates, real and complex, are allocated
    on each call.
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
    x, y = np.divide(u, delta), np.abs(gamma) / delta
    wz = _faddeeva(x, y)
    p = wz.real
    if out[0] is not None:
        p = out[0]
        np.copyto(p, wz.real)
    if not derivs:
        return p, None, None, None
    z = x + 1j * y
    wprime = -2.0 * z * wz + 1j * _TWO_OVER_SQRT_PI
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

    One ``w`` call gives them all, through the recurrence
    ``w^(n+1) = -2*z*w^(n) - 2*n*w^(n-1)`` from
    ``w' = -2*z*w + 2i/sqrt(pi)``.  Validates nothing, like ``profile``.
    """
    x, y = np.divide(u, delta), abs(gamma) / delta
    z = x + 1j * y
    wn = _faddeeva(x, y)
    dw = -2.0 * z * wn + 1j * _TWO_OVER_SQRT_PI
    out = np.empty((order,) + np.shape(u))
    for n in range(1, order + 1):
        out[n - 1] = dw.real
        wn, dw = dw, -2.0 * z * dw - 2.0 * n * wn
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
