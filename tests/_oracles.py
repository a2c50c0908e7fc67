"""Independent oracles used across the test suite.

These deliberately avoid the package's own evaluation paths: the Voigt
oracle integrates the convolution definition with adaptive quadrature.
"""

import math

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

