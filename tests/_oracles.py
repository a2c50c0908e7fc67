"""Independent oracles used across the test suite.

These deliberately avoid the package's own evaluation paths: the Voigt
oracle integrates the convolution definition with adaptive quadrature, the
Bessel oracle sums the power series in exact rational arithmetic, and the
Weideman oracle derives by an FFT the coefficients the package holds as
constants.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad


def voigt_quadrature(x: float, delta: float, gamma: float) -> float:
    """Gaussian (x) unit-area-Lorentzian convolution by adaptive quadrature."""

    def integrand(t):
        return math.exp(-((t / delta) ** 2)) * (gamma / math.pi) / ((x - t) ** 2 + gamma**2)

    cut = 60.0 * gamma
    total = 0.0
    for a, b in ((-math.inf, x - cut), (x + cut, math.inf)):
        val, _ = quad(integrand, a, b, epsabs=1e-16, epsrel=1e-11, limit=400)
        total += val
    # the Lorentzian spike at t = x needs an explicit breakpoint
    val, _ = quad(integrand, x - cut, x + cut, points=[x],
                  epsabs=1e-16, epsrel=1e-11, limit=400)
    return total + val


def weideman_coefficients(n: int = 40) -> tuple:
    """Weideman's a_N, ..., a_1 of the rational approximation to the
    Faddeeva function (SIAM J. Numer. Anal. 31, 1497, 1994): the FFT of
    ``exp(-t**2) * (L**2 + t**2)`` at ``t = L tan(theta/2)``, with
    ``L = sqrt(N / sqrt(2))``."""
    lw = math.sqrt(n / math.sqrt(2.0))
    t = lw * np.tan(np.arange(1 - 2 * n, 2 * n) * (math.pi / (4 * n)))
    f = np.concatenate(([0.0], np.exp(-t * t) * (lw * lw + t * t)))
    return tuple((np.fft.fft(np.fft.fftshift(f)).real / (4 * n))[n:0:-1].tolist())


def bessel_j_exact(n: int, beta: float) -> float:
    """J_n(beta) from sum_k (-1)**k (beta/2)**(2k+|n|) / (k! (k+|n|)!), summed
    exactly and rounded once, times (-1)**n for n < 0.  The terms are summed
    past their peak (k > beta/2) until they fall below 2**-80."""
    half = Fraction(beta) / 2
    m = abs(n)
    term = half**m / math.factorial(m)
    total, k = Fraction(0), 0
    while term != 0 and (k <= half or abs(term) > Fraction(1, 2**80)):
        total += term
        k += 1
        term *= -half * half / (k * (k + m))
    return float(total) * (-1 if n < 0 and m % 2 else 1)
