"""Physical absorption model: hyperfine comb, FM sideband comb and
Beer-Lambert transmission (the one synthesis call, from line parameters to
samples).

``transmission`` sums the Voigt profiles of the hyperfine x comb components
(324 for the placeholder table times the paper's comb) without evaluating
one profile per component.  Every component lies within a small fraction of
the Doppler width of a cluster centre, so the sum is a short Taylor series
in the offsets, and costs one ``voigt`` and one Faddeeva evaluation per
point and cluster in place of one ``voigt`` per point and component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, read_text
from .lineshape import profile_derivatives, voigt

_WEIGHT_SUM_TOL = 1e-12
_CENTROID_TOL_MHZ = 1e-9
_COMB_WEIGHT_TOL = 1e-10

# Cluster centres of the expansion in ``transmission`` are the multiples of
# delta / _CLUSTERS_PER_WIDTH, so every component is within delta/8 of one.
_CLUSTERS_PER_WIDTH = 4
# Cramer's inequality: |H_n(t)| exp(-t**2/2) <= k 2**(n/2) sqrt(n!) with
# k = 1.0864..., rounded up here.
_CRAMER_K = 1.09


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
        for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
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
    Gaussian-amplitude optical depth) times ``sum_j w_j V(x - o_j)``, the
    weighted sum of the Voigt profiles ``V = voigt(., delta, gamma)`` of the
    hyperfine x comb components ``(o_j, w_j)``, or of the one component
    (0.0, 1.0).

    The sum is evaluated as a Taylor expansion in the offsets.  Each
    component joins the cluster at the nearest multiple ``c`` of ``delta/4``,
    so ``s_j = (o_j - c) / delta`` has ``|s_j| <= 1/8``, and with
    ``t = (x - c) / delta`` a cluster contributes
    ``M_0 V(x - c) + sum_{n=1..N} M_n d^nV/dt^n(t)``, with the moments
    ``M_n = sum_j w_j (-s_j)**n / n!`` and the derivatives from
    ``lineshape.profile_derivatives``.  Cramer's inequality bounds
    ``|d^nV/dt^n|`` by ``1.09 * 2**(n/2) * sqrt(n!)`` for the Gaussian, and so
    for the Voigt, the Gaussian convolved with a unit-area Lorentzian; term
    ``n`` is then at most ``1.09 * W * (sqrt(2) * s_max)**n / sqrt(n!)``, with
    ``W`` the total weight.  ``N`` is the last ``n`` at which that bound is
    not below 2**-53; each later bound is at most 0.13 of the one before it.
    The bound is absolute, on the scale of the unit peak: far out in a
    Gaussian wing, where the sum itself falls below about 1e-16, its
    relative error can be large.  Without hyperfine and comb ``N`` is 0 and
    ``tau`` is ``peak_depth * 1.0 * V(x - 0.0)``.
    """
    return np.exp(-(peak_depth * _component_sum(offsets_mhz, delta_mhz, gamma_mhz, hyperfine,
                                                comb)))


def _component_sum(offsets_mhz, delta_mhz, gamma_mhz, hyperfine, comb) -> np.ndarray:
    """``sum_j w_j V(x - o_j)`` by the expansion described in ``transmission``."""
    offs, wts = np.array([0.0]), np.array([1.0])
    if hyperfine is not None:
        offs = np.asarray(hyperfine.offsets_mhz, dtype=float)
        wts = np.asarray(hyperfine.weights, dtype=float)
    if comb is not None:
        offs = (offs[:, None] + comb.offsets_mhz).ravel()
        wts = (wts[:, None] * comb.weights).ravel()
    spacing = delta_mhz / _CLUSTERS_PER_WIDTH
    cells = np.rint(offs / spacing)
    s = (offs - cells * spacing) / delta_mhz
    order = _expansion_order(float(np.abs(s).max()), float(wts.sum()))
    factorials = np.array([math.factorial(n) for n in range(order + 1)], dtype=float)
    total = 0.0
    for cell in np.unique(cells):
        members = cells == cell
        u = offsets_mhz - cell * spacing
        moments = (-s[members]) ** np.arange(order + 1)[:, None] @ wts[members] / factorials
        total = total + moments[0] * voigt(u, delta_mhz, gamma_mhz)
        if order:
            total = total + moments[1:] @ profile_derivatives(u, delta_mhz, gamma_mhz, order)
    return total


def _expansion_order(s_max: float, weight: float) -> int:
    """The last order ``n`` whose term bound in ``transmission`` is not below
    2**-53, or 0 when there is none."""
    n = 0
    while _CRAMER_K * weight * (math.sqrt(2.0) * s_max) ** (n + 1) \
            / math.sqrt(math.factorial(n + 1)) >= 2.0**-53:
        n += 1
    return n

