"""Zero-pressure extrapolation of fitted Gaussian widths.

The fitted amplitude (peak optical depth) is the pressure proxy: a weighted
straight line ``width = delta_d + b * amplitude`` is regressed through the
per-spectrum width estimates, and its intercept is the Doppler width freed of
pressure broadening.  Spectra showing a baseline slope can be filtered out
first; the slope is the fingerprint of stray light reaching the detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, refused_as
from .fitter import FitResult

MIN_POINTS = 3
MIN_AMPLITUDE_RATIO = 2.0
# Weighted and unweighted intercepts are both reported when they differ by
# more than this fraction of the intercept uncertainty.
UNWEIGHTED_REPORT_THRESHOLD = 0.1


@dataclass(frozen=True)
class WidthPoint:
    """One spectrum's contribution to the extrapolation."""

    amplitude: float        # fitted peak depth, proportional to pressure
    width_mhz: float
    width_sigma_mhz: float
    baseline_slope: float   # per MHz
    source_id: str = ""

    def __post_init__(self):
        if not (self.width_mhz > 0):
            raise ValueError("width must be positive")
        if not (self.width_sigma_mhz > 0):
            raise ValueError("width sigma must be positive")


@dataclass(frozen=True)
class ExtrapolationResult:
    """Weighted straight-line result: intercept = zero-pressure width."""

    delta_d_mhz: float
    delta_d_sigma_mhz: float
    slope_mhz_per_amplitude: float
    slope_sigma: float
    chi2_reduced: float
    n_used: int
    n_rejected: int         # left out by the slope filter
    n_unconverged: int      # fits left out because they did not converge
    inflation_applied: bool
    # Set when the unweighted intercept differs from the weighted one by
    # more than 0.1 sigma; None otherwise.
    unweighted_delta_d_mhz: Optional[float] = None

    def __post_init__(self):
        if not (self.delta_d_mhz > 0):
            raise ValueError("extrapolated width must be positive")
        if not (self.delta_d_sigma_mhz > 0 and self.slope_sigma > 0):
            raise ValueError("uncertainties must be positive")


def points_from_fit_results(results: Sequence[FitResult]) -> list:
    """Turn converged fit results into extrapolation points; a fit that
    cannot be one (a non-positive width or width sigma) is a data error
    naming its source id."""
    points = []
    for i, r in enumerate(results):
        if not r.converged:
            continue
        source_id = r.source_id or f"spectrum-{i}"
        fields = {"amplitude": r.params["peak_depth"], "width_mhz": r.params["delta_mhz"],
                  "width_sigma_mhz": r.sigmas["delta_mhz"],
                  "baseline_slope": r.params["baseline_slope"], "source_id": source_id}
        points.append(refused_as(f"fit {source_id!r}", WidthPoint, **fields))
    return points


def default_slope_threshold(results: Sequence[FitResult]) -> float:
    """Three times the median fitted-slope uncertainty of the batch."""
    sigmas = [r.sigmas["baseline_slope"] for r in results if r.converged]
    if not sigmas:
        raise DataError("no converged fits to derive a slope threshold from")
    median = float(np.median(sigmas))
    if not (median > 0):
        raise DataError(f"median slope sigma of the converged fits is {median!r}; "
                        "a slope threshold needs it positive")
    return 3.0 * median


def filter_by_slope(points: Sequence[WidthPoint], threshold: float):
    """Partition points into (kept, rejected) by ``|baseline_slope| <= threshold``."""
    if not (threshold > 0):
        raise ValueError("slope threshold must be positive")
    kept = [p for p in points if abs(p.baseline_slope) <= threshold]
    rejected = [p for p in points if abs(p.baseline_slope) > threshold]
    if not kept:
        raise DataError("no usable spectra: slope filter rejected every point")
    return kept, rejected


def extrapolate(results: Sequence[FitResult], threshold: Optional[float] = None) -> tuple:
    """The zero-pressure width of a series of fits: the converged ones
    (``points_from_fit_results``), filtered by baseline slope at
    ``threshold`` per MHz (by default ``default_slope_threshold(results)``)
    and extrapolated by ``zero_pressure_width``, which counts the points the
    filter rejected and the fits left out as unconverged, failed ones
    included.  Returns (result, threshold, kept points, rejected points)."""
    if threshold is None:
        threshold = default_slope_threshold(results)
    points = points_from_fit_results(results)
    if not points:
        raise DataError("no converged fits to extrapolate")
    kept, rejected = filter_by_slope(points, threshold)
    result = zero_pressure_width(kept, n_rejected=len(rejected),
                                 n_unconverged=len(results) - len(points))
    return result, threshold, kept, rejected


def _weighted_line(amp: np.ndarray, width: np.ndarray, weights: np.ndarray):
    """Weighted LS of width = a + b*amp; returns (a, b), covariance."""
    w_sum = weights.sum()
    x_mean = (weights * amp).sum() / w_sum
    y_mean = (weights * width).sum() / w_sum
    dx = amp - x_mean
    sxx = (weights * dx * dx).sum()
    if sxx <= 0:
        raise DataError("extrapolation ill-conditioned: no amplitude spread")
    b = (weights * dx * (width - y_mean)).sum() / sxx
    a = y_mean - b * x_mean
    var_b = 1.0 / sxx
    var_a = 1.0 / w_sum + x_mean**2 / sxx
    cov_ab = -x_mean / sxx
    return (a, b), np.array([[var_a, cov_ab], [cov_ab, var_b]])


def zero_pressure_width(points: Sequence[WidthPoint], n_rejected: int = 0,
                        n_unconverged: int = 0) -> ExtrapolationResult:
    """Weighted least-squares extrapolation of the width to zero amplitude.

    Weights are the inverse width variances.  When the reduced chi-square
    exceeds one, the parameter uncertainties are inflated by its square root
    (flagged in the result).  The intercept is invariant under rescaling all
    amplitudes, so the pressure proxy may carry arbitrary units.  A line
    that is not finite, e.g. from a width variance so small that its weight
    overflows, is a ``DataError`` naming the smallest width sigma and its
    source id.
    """
    if len(points) < MIN_POINTS:
        raise DataError(
            f"extrapolation needs at least {MIN_POINTS} points, got {len(points)}"
        )
    amp = np.array([p.amplitude for p in points], dtype=float)
    width = np.array([p.width_mhz for p in points], dtype=float)
    sigma = np.array([p.width_sigma_mhz for p in points], dtype=float)
    if amp.min() <= 0:
        raise DataError("extrapolation ill-conditioned: non-positive amplitude")
    if amp.max() / amp.min() < MIN_AMPLITUDE_RATIO:
        raise DataError(
            "extrapolation ill-conditioned: amplitude range narrower than "
            f"{MIN_AMPLITUDE_RATIO}x"
        )

    with np.errstate(all="ignore"):  # an overflow is refused below
        weights = 1.0 / sigma**2
        (a, b), cov = _weighted_line(amp, width, weights)
        resid = width - (a + b * amp)
        chi2 = float((weights * resid**2).sum())
    chi2_reduced = chi2 / (len(points) - 2)  # MIN_POINTS leaves at least one dof

    sigma_a = math.sqrt(cov[0, 0])
    sigma_b = math.sqrt(cov[1, 1])
    inflated = chi2_reduced > 1.0
    if inflated:
        factor = math.sqrt(chi2_reduced)
        sigma_a *= factor
        sigma_b *= factor

    if not np.isfinite([a, b, sigma_a, sigma_b, chi2_reduced]).all():
        i = int(np.argmin(sigma))
        raise DataError(f"extrapolation overflows: the width sigma {points[i].width_sigma_mhz!r} "
                        f"MHz of {points[i].source_id!r} weighs {weights[i]:.3g} per MHz^2")
    if a <= 0:
        raise DataError(f"extrapolation gave a non-positive intercept ({a:.4g} MHz)")

    (a_unw, _), _ = _weighted_line(amp, width, np.ones_like(amp))
    unweighted = a_unw if abs(a_unw - a) > UNWEIGHTED_REPORT_THRESHOLD * sigma_a else None

    return ExtrapolationResult(
        delta_d_mhz=float(a),
        delta_d_sigma_mhz=float(sigma_a),
        slope_mhz_per_amplitude=float(b),
        slope_sigma=float(sigma_b),
        chi2_reduced=float(chi2_reduced),
        n_used=len(points),
        n_rejected=int(n_rejected),
        n_unconverged=int(n_unconverged),
        inflation_applied=inflated,
        unweighted_delta_d_mhz=None if unweighted is None else float(unweighted),
    )
