"""Physical absorption model: hyperfine comb, FM sideband comb, Beer-Lambert
transmission (the one synthesis call, from line parameters to samples), and
the closed-form width corrections for the small perturbations that broaden
the apparent Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DataError
from .lineshape import voigt

# Validity limit of the first-order width-correction formulas; beyond it the
# result is still computed but flagged.
CORRECTION_DOMAIN_LIMIT = 0.1

_WEIGHT_SUM_TOL = 1e-12
_CENTROID_TOL_MHZ = 1e-9
_COMB_WEIGHT_TOL = 1e-10


@dataclass(frozen=True)
class HyperfineStructure:
    """Unresolved sub-components as (offset from centroid, weight) pairs.

    Weights are positive and sum to one; offsets follow the centroid
    convention (weighted mean zero), so adding a structure never shifts the
    fitted line center at first order.
    """

    offsets_mhz: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.offsets_mhz) != len(self.weights) or len(self.weights) == 0:
            raise ValueError("hyperfine structure needs matching, non-empty offset/weight lists")
        w = np.asarray(self.weights, dtype=float)
        off = np.asarray(self.offsets_mhz, dtype=float)
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(off)):
            raise ValueError("hyperfine offsets and weights must be finite")
        if np.any(w <= 0):
            raise ValueError("hyperfine weights must be positive")
        if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"hyperfine weights must sum to 1 (got {w.sum()!r})")
        centroid = float(np.dot(w, off))
        if abs(centroid) > _CENTROID_TOL_MHZ:
            raise ValueError(f"hyperfine centroid must be 0 (got {centroid:.3e} MHz)")

    @property
    def span_mhz(self) -> float:
        return float(max(self.offsets_mhz) - min(self.offsets_mhz))

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple]) -> "HyperfineStructure":
        """Build from raw (offset, weight) pairs, normalizing the weights and
        re-centering the offsets onto the weighted centroid."""
        if not pairs:
            raise ValueError("empty hyperfine component list")
        off = np.asarray([p[0] for p in pairs], dtype=float)
        w = np.asarray([p[1] for p in pairs], dtype=float)
        if np.any(w <= 0):
            raise ValueError("hyperfine weights must be positive")
        w = w / w.sum()
        off = off - np.dot(w, off)
        return cls(offsets_mhz=tuple(off), weights=tuple(w))

    @classmethod
    def from_file(cls, path) -> "HyperfineStructure":
        """Read a plain-text table of ``offset_MHz  weight`` pairs.

        One component per line, ``#`` starts a comment.  Weights are
        normalized and offsets re-centered on load.
        """
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise DataError(f"{path}: cannot read hyperfine table ({exc.strerror})") from None
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise DataError(f"{path}: line {lineno}: expected 'offset_MHz weight'")
            try:
                pairs.append((float(fields[0]), float(fields[1])))
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric component") from None
        if not pairs:
            raise DataError(f"{path}: no hyperfine components found")
        try:
            return cls.from_pairs(pairs)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None

    @classmethod
    def nh3_placeholder(cls) -> "HyperfineStructure":
        """Illustrative 12-component structure spanning 150 kHz.

        The true asQ(6,3) hyperfine table is not shipped; this symmetric,
        equal-weight stand-in only exercises the comb machinery and must not
        be used where physically accurate sub-structure matters.
        """
        offsets = np.linspace(-0.075, 0.075, 12)
        weights = np.full(12, 1.0 / 12.0)
        return cls.from_pairs(list(zip(offsets, weights)))


@dataclass(frozen=True)
class ModulationComb:
    """Sideband comb from sinusoidal frequency modulation.

    Line ``n`` sits at ``n * mod_freq`` with weight ``J_n(beta)**2`` where
    ``beta = depth / mod_freq``.  ``order_cutoff``, the largest retained
    ``|n|``, is worked out on construction: the smallest one whose retained
    weights sum to within 1e-10 of one.
    """

    mod_freq_khz: float
    depth_khz: float
    order_cutoff: int = field(init=False)

    def __post_init__(self):
        if not (0 < self.mod_freq_khz < math.inf):
            raise ValueError(f"mod_freq_khz must be positive and finite, got {self.mod_freq_khz}")
        if not (0 <= self.depth_khz < math.inf):
            raise ValueError(f"depth_khz must be >= 0 and finite, got {self.depth_khz}")
        from scipy.special import jv

        total = jv(0, self.beta) ** 2
        n = 0
        while 1.0 - total > _COMB_WEIGHT_TOL:
            n += 1
            total += 2.0 * jv(n, self.beta) ** 2
            if n > 1000:
                raise ValueError("comb cutoff search failed to converge")
        object.__setattr__(self, "order_cutoff", n)

    @property
    def beta(self) -> float:
        return self.depth_khz / self.mod_freq_khz

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.order_cutoff, self.order_cutoff + 1)

    @property
    def offsets_mhz(self) -> np.ndarray:
        return self.orders * (self.mod_freq_khz * 1e-3)

    @property
    def weights(self) -> np.ndarray:
        from scipy.special import jv

        return jv(self.orders, self.beta) ** 2

    @classmethod
    def paper_default(cls) -> "ModulationComb":
        """8 kHz modulation with 38 kHz depth (beta = 4.75)."""
        return cls(8.0, 38.0)


def transmission(offsets_mhz, delta_mhz: float, gamma_mhz: float, peak_depth: float,
                 hyperfine: Optional[HyperfineStructure] = None,
                 comb: Optional[ModulationComb] = None) -> np.ndarray:
    """Unit-baseline Beer-Lambert transmission ``exp(-tau)`` at the 1-d array
    ``offsets_mhz`` from the line center.  ``tau`` is ``peak_depth`` (the
    Gaussian-amplitude optical depth) times the weighted sum of Voigt profiles
    over the hyperfine x comb components, or the one component (0.0, 1.0).
    """
    offs, wts = np.array([0.0]), np.array([1.0])
    if hyperfine is not None:
        offs = np.asarray(hyperfine.offsets_mhz, dtype=float)
        wts = np.asarray(hyperfine.weights, dtype=float)
    if comb is not None:
        offs = (offs[:, None] + comb.offsets_mhz).ravel()
        wts = (wts[:, None] * comb.weights).ravel()
    return np.exp(-(peak_depth * voigt(offsets_mhz[:, None] - offs, delta_mhz, gamma_mhz) @ wts))


class CorrectedWidth(NamedTuple):
    """A width-correction result with its validity flag."""

    delta_mhz: float
    within_domain: bool


def broadening_homogeneous(delta_d_mhz: float, gamma_mhz: float) -> CorrectedWidth:
    """Apparent Gaussian width with homogeneous (Lorentzian) broadening:
    ``delta * (1 + 0.484 * gamma/delta)``, first order in ``gamma/delta``.

    Valid for ``gamma/delta <= 0.1``; outside that the value is returned with
    ``within_domain=False``.
    """
    if not (delta_d_mhz > 0):
        raise ValueError("Doppler width must be positive")
    if gamma_mhz < 0:
        raise ValueError("homogeneous width must be >= 0")
    ratio = gamma_mhz / delta_d_mhz
    return CorrectedWidth(delta_d_mhz * (1.0 + 0.484 * ratio), ratio <= CORRECTION_DOMAIN_LIMIT)


def broadening_hyperfine(delta_d_mhz: float, delta_hyp_mhz: float) -> CorrectedWidth:
    """Apparent width with an unresolved structure of total span
    ``delta_hyp``: ``delta * (1 + 0.254 * (delta_hyp/delta)**2)``.

    The 0.254 coefficient is the worst case, an equal-amplitude doublet.
    """
    if not (delta_d_mhz > 0):
        raise ValueError("Doppler width must be positive")
    if delta_hyp_mhz < 0:
        raise ValueError("hyperfine span must be >= 0")
    ratio = delta_hyp_mhz / delta_d_mhz
    return CorrectedWidth(delta_d_mhz * (1.0 + 0.254 * ratio**2), ratio <= CORRECTION_DOMAIN_LIMIT)


def broadening_modulation(delta_d_mhz: float, depth_mhz: float) -> CorrectedWidth:
    """Apparent width with FM modulation depth ``depth``:
    ``delta * (1 + (depth/delta)**2)``."""
    if not (delta_d_mhz > 0):
        raise ValueError("Doppler width must be positive")
    if depth_mhz < 0:
        raise ValueError("modulation depth must be >= 0")
    ratio = depth_mhz / delta_d_mhz
    return CorrectedWidth(delta_d_mhz * (1.0 + ratio**2), ratio <= CORRECTION_DOMAIN_LIMIT)
