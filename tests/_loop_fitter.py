"""Per-spectrum reference for the block fitter.

The same start and damped Gauss-Newton rules as ``dopplerkb.fitter``,
written as one Python loop per spectrum with scalar parameters, the way the
package started and fitted spectra before it advanced them in blocks.
Every block operation is row-wise with the same arithmetic, so the block
fitter must reproduce this loop bit for bit, and its stacked start
(``fitter._guesses``) must give ``initial_guess``'s starts and refusals.
The Voigt takes the package's Faddeeva function ``lineshape.w``, as the
kernel does, so that the two agree to the bit.
"""

import math

import numpy as np

from dopplerkb.errors import DataError, FitError
from dopplerkb.fitter import (
    COST_TOL,
    DAMPING_DOWN,
    DAMPING_START,
    DAMPING_UP,
    GRAD_TOL,
    FitModel,
)
from dopplerkb.lineshape import w

_COND_LIMIT = 1e14
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def initial_guess(spectrum, model=FitModel.EXP_GAUSSIAN):
    """Direct parameter estimates from the raw samples, keyed by
    ``model.param_names``; raises ``DataError`` for a spectrum that cannot
    start.

    Center from the grid position of minimum transmission (which must lie
    strictly inside the scan), baseline from the outer 10% of samples on each
    side, depth from the log of the baseline-to-minimum ratio, width from the
    half-width of the region where the optical depth exceeds 1/e of its peak,
    slope from the difference of the two edge means, and the Voigt's
    homogeneous width from 1/100 of the width.
    """
    x = spectrum.freq_offset_mhz
    t = spectrum.transmission
    n = x.size
    if n <= len(model.param_names):
        raise DataError("spectrum has fewer points than fit parameters")
    if n < 16:
        raise DataError(f"spectrum too short for a fit ({n} points, need >= 16)")

    i_min = int(np.argmin(t))
    if i_min == 0 or i_min == n - 1:
        raise DataError("line not in scan window")

    k = max(2, n // 10)
    left = float(t[:k].sum()) / k
    right = float(t[-k:].sum()) / k
    level = 0.5 * (left + right)
    t_min = float(t[i_min])
    if not (t_min > 0.0) or t_min >= level:
        raise DataError("line not in scan window")
    depth = math.log(level / t_min)

    # Region where transmission < level * exp(-depth/e), i.e. optical depth
    # above 1/e of its peak; its half-width estimates the 1/e half-width.
    threshold = level * math.exp(-depth / math.e)
    outside = np.flatnonzero(t >= threshold)
    j = int(np.searchsorted(outside, i_min))
    lo = int(outside[j - 1]) + 1 if j > 0 else 0
    hi = int(outside[j]) - 1 if j < outside.size else n - 1
    if lo == 0 or hi == n - 1:
        raise DataError("line not in scan window")
    delta = 0.5 * (x[hi] - x[lo])
    if delta <= 0:
        delta = x[i_min + 1] - x[i_min]  # a one-sample dip: the grid spacing

    x_left = float(x[:k].sum()) / k
    x_right = float(x[-k:].sum()) / k
    params = {
        "nu0_mhz": float(x[i_min]),
        "delta_mhz": float(delta),
        "peak_depth": depth,
        "baseline_level": level,
        "baseline_slope": (right - left) / (x_right - x_left),
    }
    if model is FitModel.EXP_VOIGT:
        params["gamma_mhz"] = params["delta_mhz"] / 100.0
    if not all(math.isfinite(value) for value in params.values()):
        raise DataError("initial guess contains non-finite parameters")
    if params["delta_mhz"] <= 0 or params["baseline_level"] <= 0:
        raise DataError("initial guess needs positive width and baseline level")
    return params


def _model_and_jacobian(x, p, model):
    u = x - p["nu0_mhz"]
    delta, depth, level = p["delta_mhz"], p["peak_depth"], p["baseline_level"]
    if model is FitModel.EXP_GAUSSIAN:
        prof = np.exp(-((u / delta) ** 2))
        dp_du = prof * (-2.0 * u / delta**2)
        dp_ddelta = prof * (2.0 * u**2 / delta**3)
    else:
        gamma = p["gamma_mhz"]
        z = u / delta + 1j * (abs(gamma) / delta)
        wz = w(z)
        wprime = -2.0 * z * wz + 1j * _TWO_OVER_SQRT_PI
        prof = wz.real
        dp_du = wprime.real / delta
        dp_ddelta = (-(z * wprime).real) / delta
        dp_dgamma = (1j * wprime).real / delta * (-1.0 if gamma < 0 else 1.0)
    atten = np.exp(-depth * prof)
    cols = [level * depth * dp_du * atten - p["baseline_slope"],
            -level * depth * dp_ddelta * atten, -level * prof * atten, atten, u]
    if model is FitModel.EXP_VOIGT:
        cols.append(-level * depth * dp_dgamma * atten)
    return level * atten + p["baseline_slope"] * u, np.column_stack(cols)


def _checked_hessian(js):
    hess = js.T @ js
    if not np.all(np.isfinite(hess)) or np.linalg.cond(hess) > _COND_LIMIT:
        raise FitError("degenerate fit: singular normal matrix")
    return hess


def loop_fit(spectrum, model=FitModel.EXP_GAUSSIAN, max_iter=200):
    """(params, sigmas, covariance, n_iter, converged) of one spectrum."""
    names = model.param_names
    x, y = spectrum.freq_offset_mhz, spectrum.transmission
    params = initial_guess(spectrum, model)
    theta = np.array([params[n] for n in names], dtype=float)
    span = float(x[-1] - x[0])
    scale = np.array([{"peak_depth": 1.0, "baseline_level": 1.0,
                       "baseline_slope": 1.0 / span}.get(n, span) for n in names])

    def evaluate(vec):
        return _model_and_jacobian(x, dict(zip(names, vec.tolist())), model)

    resid = y - evaluate(theta)[0]
    cost = float(resid @ resid)
    lam, n_iter, converged = DAMPING_START, 0, False
    while n_iter < max_iter:
        n_iter += 1
        js = evaluate(theta)[1] * scale
        grad = js.T @ resid
        if np.max(np.abs(grad)) < GRAD_TOL:
            converged = True
            break
        hess = _checked_hessian(js)
        damped = hess + lam * np.diag(np.maximum(np.diag(hess), 1e-300))
        candidate = theta + np.linalg.solve(damped, grad) * scale
        if model is FitModel.EXP_VOIGT:
            candidate[-1] = abs(candidate[-1])
        if candidate[1] <= 0 or candidate[3] <= 0:  # width, baseline level
            lam *= DAMPING_UP
            continue
        new_resid = y - evaluate(candidate)[0]
        new_cost = float(new_resid @ new_resid)
        if new_cost <= cost:
            drop = cost - new_cost
            theta, cost, resid = candidate, new_cost, new_resid
            lam = max(lam * DAMPING_DOWN, 1e-15)
            if cost == 0.0 or drop < COST_TOL * cost:
                converged = True
                break
        elif (new_cost - cost <= COST_TOL * cost
              and grad @ np.linalg.solve(hess, grad) <= COST_TOL * cost):
            converged = True  # a rejected step at the rounding floor
            break
        else:
            lam *= DAMPING_UP

    hess = _checked_hessian(evaluate(theta)[1] * scale)
    cov = cost / (x.size - len(names)) * np.linalg.inv(hess) * np.outer(scale, scale)
    sigmas = {n: math.sqrt(max(cov[i, i], 0.0)) for i, n in enumerate(names)}
    return dict(zip(names, theta.tolist())), sigmas, cov, n_iter, converged
