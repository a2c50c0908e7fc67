"""Physical absorption model: hyperfine comb, FM sideband comb, Beer-Lambert
transmission with a linear baseline, and the closed-form width corrections
for the small perturbations that broaden the apparent Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DataError
from .lineshape import Transition, voigt

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
        pairs = []
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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
    ``beta = depth / mod_freq``.  ``order_cutoff`` is the largest retained
    ``|n|``; the retained weights must sum to one within 1e-10.
    """

    mod_freq_khz: float
    depth_khz: float
    order_cutoff: int

    def __post_init__(self):
        if not (self.mod_freq_khz > 0):
            raise ValueError("modulation frequency must be positive")
        if self.depth_khz < 0:
            raise ValueError("modulation depth must be >= 0")
        if self.order_cutoff < 0:
            raise ValueError("order cutoff must be >= 0")
        if 1.0 - sum(self.weights) > _COMB_WEIGHT_TOL:
            raise ValueError(
                f"comb truncated too early: weights sum to {sum(self.weights)!r} "
                f"at order_cutoff={self.order_cutoff}"
            )

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
    def auto(cls, mod_freq_khz: float, depth_khz: float) -> "ModulationComb":
        """Pick the smallest cutoff with cumulative weight >= 1 - 1e-10."""
        if not (mod_freq_khz > 0):
            raise ValueError("modulation frequency must be positive")
        from scipy.special import jv

        beta = depth_khz / mod_freq_khz
        total = jv(0, beta) ** 2
        n = 0
        while 1.0 - total > _COMB_WEIGHT_TOL:
            n += 1
            total += 2.0 * jv(n, beta) ** 2
            if n > 1000:
                raise ValueError("comb cutoff search failed to converge")
        return cls(mod_freq_khz=mod_freq_khz, depth_khz=depth_khz, order_cutoff=n)

    @classmethod
    def paper_default(cls) -> "ModulationComb":
        """8 kHz modulation with 38 kHz depth (beta = 4.75)."""
        return cls.auto(8.0, 38.0)


@dataclass(frozen=True)
class AbsorptionModel:
    """Everything needed to evaluate the transmission of the cell.

    ``peak_depth`` is the Gaussian-amplitude optical depth (the product of
    line strength, ground-level density and cell length); with homogeneous
    broadening the actual depth at line center is slightly smaller.
    """

    transition: Transition
    delta_mhz: float
    gamma_mhz: float
    peak_depth: float
    hyperfine: Optional[HyperfineStructure] = None
    comb: Optional[ModulationComb] = None
    baseline_level: float = 1.0
    baseline_slope: float = 0.0  # per MHz, anchored at the line center

    def __post_init__(self):
        if not (self.delta_mhz > 0):
            raise ValueError("Gaussian width must be positive")
        if self.gamma_mhz < 0:
            raise ValueError("Lorentzian width must be >= 0")
        if self.peak_depth < 0:
            raise ValueError("peak optical depth must be >= 0")
        if not (self.baseline_level > 0):
            raise ValueError("baseline level must be positive")
        if not math.isfinite(self.baseline_slope):
            raise ValueError("baseline slope must be finite")

    def component_offsets_and_weights(self):
        """Flattened (offset, weight) arrays of the hyperfine x comb grid."""
        offs = np.array([0.0])
        wts = np.array([1.0])
        if self.hyperfine is not None:
            offs = np.asarray(self.hyperfine.offsets_mhz, dtype=float)
            wts = np.asarray(self.hyperfine.weights, dtype=float)
        if self.comb is not None:
            c_off = self.comb.offsets_mhz
            c_w = self.comb.weights
            offs = (offs[:, None] + c_off[None, :]).ravel()
            wts = (wts[:, None] * c_w[None, :]).ravel()
        return offs, wts


def optical_depth(nu_mhz, model: AbsorptionModel):
    """Optical depth at absolute frequency ``nu_mhz``.

    Weighted sum of shifted Voigt profiles over every hyperfine and comb
    component; with neither present this is a single Voigt, and with zero
    homogeneous width a single Gaussian.
    """
    x = np.asarray(nu_mhz, dtype=float) - model.transition.nu0_mhz
    offs, wts = model.component_offsets_and_weights()
    if offs.size == 1:
        depth = model.peak_depth * voigt(x, model.delta_mhz, model.gamma_mhz)
    else:
        profile = voigt(x[..., None] - offs, model.delta_mhz, model.gamma_mhz)
        depth = model.peak_depth * np.asarray(profile) @ wts
    if np.ndim(nu_mhz) == 0:
        return float(depth)
    return depth


def transmission(nu_mhz, model: AbsorptionModel):
    """Beer-Lambert transmission with the additive linear baseline:
    ``level * exp(-optical_depth) + slope * (nu - nu0)``."""
    x = np.asarray(nu_mhz, dtype=float) - model.transition.nu0_mhz
    t = model.baseline_level * np.exp(-optical_depth(nu_mhz, model)) + model.baseline_slope * x
    if np.ndim(nu_mhz) == 0:
        return float(t)
    return t


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
