"""Convert an extrapolated Doppler width into the Boltzmann constant and
assemble the itemized uncertainty budget.

The central relation is ``kb*T = (m*c^2/2) * (delta_d/nu)^2``; width and
frequency enter quadratically (their relative uncertainties double), mass
and temperature linearly.  Propagation is first order, which is ample when
every contribution is at or below a few parts in 1e4.  The speed of light is
exact by definition and contributes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import constants
from .lineshape import Transition

BUDGET_SOURCES = ("width", "temperature", "frequency", "mass")


@dataclass(frozen=True)
class TemperatureReading:
    """Cell temperature with its standard uncertainty."""

    value_k: float
    sigma_k: float = 0.0

    def __post_init__(self):
        if not (0 < self.value_k < math.inf):
            raise ValueError(f"temperature must be positive and finite, got {self.value_k}")
        if not (0 <= self.sigma_k < math.inf):
            raise ValueError(f"temperature sigma must be >= 0 and finite, got {self.sigma_k}")


@dataclass(frozen=True)
class BoltzmannResult:
    """k_B estimate plus its relative uncertainty budget.

    ``budget`` maps each source to its relative contribution; the combined
    value is their root-sum-square and ``sigma_kb = kb * combined``.
    """

    kb: float
    sigma_kb: float
    budget: dict
    combined_relative: float


def _squared(x: float) -> float:
    """``x ** 2``, or inf where that overflows."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def kb_from_width(delta_d_mhz: float, transition: Transition,
                  temperature: TemperatureReading) -> float:
    """Boltzmann constant from the zero-pressure Doppler 1/e half-width:
    ``(m*c^2 / (2*T)) * (delta_d/nu)^2``; a result that is not positive and
    finite (it over- or underflows) is a ``ValueError``."""
    if not (0 < delta_d_mhz < math.inf):
        raise ValueError(f"Doppler width must be positive and finite, got {delta_d_mhz}")
    mc2 = transition.mass_kg * constants.SPEED_OF_LIGHT_M_S**2
    kb = (mc2 / (2.0 * temperature.value_k)) * _squared(delta_d_mhz / transition.nu0_mhz)
    if not (0 < kb < math.inf):
        raise ValueError(f"k_B must be positive and finite, got {kb} J/K from a Doppler "
                         f"width of {delta_d_mhz} MHz at {temperature.value_k} K")
    return kb


def uncertainty_budget(
    delta_d_mhz: float,
    delta_d_sigma_mhz: float,
    transition: Transition,
    temperature: TemperatureReading,
    *,
    mass_sigma_rel: float = constants.MASS_SIGMA_REL_DEFAULT,
    nu_sigma_rel: float = constants.FREQUENCY_SIGMA_REL_DEFAULT,
) -> BoltzmannResult:
    """First-order uncertainty budget for the k_B determination.

    Relative contributions: ``2*sigma_delta/delta`` (width),
    ``sigma_T/T`` (temperature), ``2*sigma_nu/nu`` (frequency) and
    ``sigma_m/m`` (mass), combined in quadrature.  A k_B or a combined
    uncertainty that is not finite is a ``ValueError``.
    """
    for name, sigma in {"delta_d_sigma_mhz": delta_d_sigma_mhz, "mass_sigma_rel": mass_sigma_rel,
                        "nu_sigma_rel": nu_sigma_rel}.items():
        if not (0 <= sigma < math.inf):
            raise ValueError(f"{name} must be >= 0 and finite, got {sigma}")
    kb = kb_from_width(delta_d_mhz, transition, temperature)
    budget = {
        "width": 2.0 * delta_d_sigma_mhz / delta_d_mhz,
        "temperature": temperature.sigma_k / temperature.value_k,
        "frequency": 2.0 * nu_sigma_rel,
        "mass": mass_sigma_rel,
    }
    combined = math.sqrt(sum(_squared(v) for v in budget.values()))
    sigma_kb = kb * combined
    if not sigma_kb < math.inf:
        raise ValueError(f"the uncertainty of k_B overflows (relative terms {budget})")
    return BoltzmannResult(
        kb=kb,
        sigma_kb=sigma_kb,
        budget=budget,
        combined_relative=combined,
    )


def format_budget_table(result: BoltzmannResult) -> str:
    """Human-readable budget table."""
    lines = [
        f"k_B = {result.kb:.6e} J/K  +/- {result.sigma_kb:.2e} "
        f"({result.combined_relative:.2e} relative)",
        f"{'source':<14}{'relative contribution':>24}",
    ]
    for source in BUDGET_SOURCES:
        lines.append(f"{source:<14}{result.budget[source]:>24.3e}")
    lines.append(f"{'combined':<14}{result.combined_relative:>24.3e}")
    return "\n".join(lines)
