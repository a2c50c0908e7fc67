"""Per-spectrum reference for the block fitter.

The same damped Gauss-Newton rules as ``dopplerkb.fitter``, written as one
Python loop per spectrum with scalar parameters, the way the package fitted
spectra before it advanced them in blocks.  Every block operation is
row-wise with the same arithmetic, so the block fitter must reproduce this
loop bit for bit.
"""

import math

import numpy as np
from scipy.special import wofz

from dopplerkb.errors import FitError
from dopplerkb.fitter import (
    COST_TOL,
    DAMPING_DOWN,
    DAMPING_START,
    DAMPING_UP,
    GRAD_TOL,
    FitModel,
    initial_guess,
)

_COND_LIMIT = 1e14
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _model_and_jacobian(x, p, model):
    u = x - p["nu0_mhz"]
    delta, depth, level = p["delta_mhz"], p["peak_depth"], p["baseline_level"]
    if model is FitModel.EXP_GAUSSIAN:
        prof = np.exp(-((u / delta) ** 2))
        dp_du = prof * (-2.0 * u / delta**2)
        dp_ddelta = prof * (2.0 * u**2 / delta**3)
    else:
        gamma = p["gamma_mhz"]
        z = (u + 1j * abs(gamma)) / delta
        w = wofz(z)
        wprime = -2.0 * z * w + 1j * _TWO_OVER_SQRT_PI
        prof = w.real
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


def loop_fit(spectrum, model=FitModel.EXP_GAUSSIAN, init=None, max_iter=200):
    """(params, sigmas, covariance, n_iter, converged) of one spectrum."""
    names = model.param_names
    x, y = spectrum.freq_offset_mhz, spectrum.transmission
    params = dict(init) if init is not None else initial_guess(spectrum)
    if model is FitModel.EXP_VOIGT:
        params.setdefault("gamma_mhz", params["delta_mhz"] / 100.0)
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
        else:
            lam *= DAMPING_UP

    hess = _checked_hessian(evaluate(theta)[1] * scale)
    cov = cost / (x.size - len(names)) * np.linalg.inv(hess) * np.outer(scale, scale)
    sigmas = {n: math.sqrt(max(cov[i, i], 0.0)) for i, n in enumerate(names)}
    return dict(zip(names, theta.tolist())), sigmas, cov, n_iter, converged
