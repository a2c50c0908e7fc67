"""Nonlinear least-squares estimation of line-shape parameters.

The fit model is the measured transmission

    level * exp(-depth * P(nu - nu0)) + slope * (nu - nu0)

with ``P`` a unit-peak Gaussian (paper analysis) or a Voigt profile
(cross-check), both from the kernel ``lineshape.profile`` that also drives
the simulator.  Minimization is a damped Gauss-Newton (Levenberg-Marquardt)
iteration with an analytic Jacobian: the damping factor grows tenfold whenever
a step raises the cost and shrinks tenfold on success, starting from 1e-3.
Parameters are scaled internally (frequencies by the scan span, the slope by
its inverse) to keep the normal matrix well conditioned.

Spectra are fitted in blocks, after the design of Gpufit (Przybylski et al.,
Sci. Rep. 7, 15722, 2017): consecutive spectra on one frequency grid form a
``(rows, points)`` block of at most ``16384 // points`` rows, and each
iteration advances every row still active at once.  The fitter makes one
kernel call per parameter set: ``jacobian`` gives the model and its Jacobian
for the start rows and then for each iteration's trial rows, and an accepted
step keeps its trial's gradient and normal matrix.  These are formed with
stacked ``matmul``, the conditioning test runs on the whole stack and the
damped steps come from one stacked ``np.linalg.solve``.  Each row keeps its
own damping factor, iteration count and convergence state, and leaves the
active set as soon as it converges or runs out of iterations.  Every
operation is row-wise, so a spectrum gets the same bits whether it is
fitted alone or inside a block.  ``fit_spectrum`` is ``fit_series`` of a
batch of one; ``fit_series`` ends each spectrum's fit in a ``fit_spectrum``
call that only assembles the result from its row of the iterated block.

In the Gaussian variant the homogeneous width is fixed at zero: pressure
broadening is deliberately absorbed into the fitted width, and the
zero-pressure extrapolation takes it out.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError, FitError
from .lineshape import profile
from .spectra import Spectrum

COST_TOL = 1e-12       # relative cost decrease at convergence
GRAD_TOL = 1e-10       # max-norm of the scaled gradient at convergence
MAX_ITER_DEFAULT = 200
DAMPING_START = 1e-3
DAMPING_UP = 10.0
DAMPING_DOWN = 0.1
_COND_LIMIT = 1e14
_BLOCK_ELEMENTS = 16384  # rows per block = this // points per spectrum


class FitModel(enum.Enum):
    """Which profile sits inside the Beer-Lambert exponential."""

    EXP_GAUSSIAN = "exp-gaussian"
    EXP_VOIGT = "exp-voigt"

    @classmethod
    def from_name(cls, name: str) -> "FitModel":
        for member in cls:
            if member.value == name:
                return member
        raise DataError(f"unknown fit model {name!r} (choose from "
                        f"{', '.join(m.value for m in cls)})")

    @property
    def param_names(self) -> tuple:
        base = ("nu0_mhz", "delta_mhz", "peak_depth", "baseline_level", "baseline_slope")
        if self is FitModel.EXP_VOIGT:
            return base + ("gamma_mhz",)
        return base


@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters with covariance and residual diagnostics."""

    model: FitModel
    params: dict
    sigmas: dict
    covariance: np.ndarray
    param_names: tuple
    chi2_reduced: float
    n_iter: int
    converged: bool
    n_points: int
    source_id: str = ""
    convergence_spec: dict = field(default_factory=dict)


def _columns(theta, model: FitModel) -> dict:
    """Each parameter of a (rows, params) array as a (rows, 1) column."""
    theta = np.asarray(theta, dtype=float)
    return {name: theta[:, i:i + 1] for i, name in enumerate(model.param_names)}


def jacobian(offsets_mhz, theta, model: FitModel, scale=None) -> tuple:
    """The fit model and its Jacobian for each row of ``theta`` (parameters in
    ``model.param_names`` order) from one profile call: (rows, points) and
    (rows, points, params) arrays.  ``scale`` multiplies column k of the
    Jacobian by ``scale[k]``, for parameters measured in those units."""
    p = _columns(theta, model)
    u = np.asarray(offsets_mhz, dtype=float) - p["nu0_mhz"]
    depth = p["peak_depth"]
    level = p["baseline_level"]
    prof, dp_du, dp_ddelta, dp_dgamma = profile(
        u, p["delta_mhz"], p.get("gamma_mhz"), derivs=True)
    atten = np.exp(-depth * prof)

    cols = [
        level * depth * dp_du * atten - p["baseline_slope"],  # d/d nu0 (du/dnu0 = -1)
        -level * depth * dp_ddelta * atten,                   # d/d delta
        -level * prof * atten,                                # d/d depth
        atten,                                                # d/d level
        u,                                                    # d/d slope
    ]
    if model is FitModel.EXP_VOIGT:
        cols.append(-level * depth * dp_dgamma * atten)      # d/d gamma
    scale = np.ones(len(cols)) if scale is None else scale
    out = np.empty(u.shape + (len(cols),))
    for k, col in enumerate(cols):
        np.multiply(col, scale[k], out=out[..., k])
    return level * atten + p["baseline_slope"] * u, out


def initial_guess(spectrum: Spectrum) -> dict:
    """Direct parameter estimates from the raw samples.

    Center from the grid position of minimum transmission (which must lie
    strictly inside the scan), baseline from the outer 10% of samples on each
    side, depth from the log of the baseline-to-minimum ratio, width from the
    half-width of the region where the optical depth exceeds 1/e of its peak,
    slope from the difference of the two edge means.
    """
    x = spectrum.freq_offset_mhz
    t = spectrum.transmission
    n = x.size
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
        delta = spectrum.meta.step_mhz

    x_left = float(x[:k].sum()) / k
    x_right = float(x[-k:].sum()) / k
    slope = (right - left) / (x_right - x_left)

    return {
        "nu0_mhz": float(x[i_min]),
        "delta_mhz": float(delta),
        "peak_depth": depth,
        "baseline_level": level,
        "baseline_slope": slope,
    }


def _scales(names: tuple, span: float) -> np.ndarray:
    per_name = {
        "nu0_mhz": span,
        "delta_mhz": span,
        "peak_depth": 1.0,
        "baseline_level": 1.0,
        "baseline_slope": 1.0 / span,
        "gamma_mhz": span,
    }
    return np.array([per_name[n] for n in names])


def _start(spectrum: Spectrum, model: FitModel, init) -> np.ndarray:
    """Validated starting parameters of one spectrum, as a vector."""
    names = model.param_names
    if spectrum.n_points <= len(names):
        raise DataError("spectrum has fewer points than fit parameters")
    params = dict(init) if init is not None else initial_guess(spectrum)
    if model is FitModel.EXP_VOIGT and "gamma_mhz" not in params:
        params["gamma_mhz"] = params["delta_mhz"] / 100.0
    missing = [n for n in names if n not in params]
    if missing:
        raise DataError(f"initial guess missing parameters: {missing}")
    if not all(math.isfinite(params[n]) for n in names):
        raise DataError("initial guess contains non-finite parameters")
    if params["delta_mhz"] <= 0 or params["baseline_level"] <= 0:
        raise DataError("initial guess needs positive width and baseline level")
    return np.array([params[n] for n in names], dtype=float)


def _row_costs(resid: np.ndarray) -> np.ndarray:
    """Sum of squares of each row, through the same dot product as ``r @ r``."""
    return (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]


def _normal_equations(js: np.ndarray, resid: np.ndarray) -> tuple:
    """J^T r and J^T J of each row; raises ``FitError`` if a J^T J is degenerate."""
    hess = js.transpose(0, 2, 1) @ js
    if not np.all(np.isfinite(hess)) or np.any(np.linalg.cond(hess) > _COND_LIMIT):
        raise FitError("degenerate fit: singular normal matrix")
    return (js.transpose(0, 2, 1) @ resid[:, :, None])[:, :, 0], hess


class _Solution(NamedTuple):
    """Outcome of iterating a block, one row per spectrum."""

    theta: np.ndarray
    covariance: np.ndarray
    sigmas: np.ndarray
    resid_var: np.ndarray
    n_iter: np.ndarray
    converged: np.ndarray


def _iterate_block(block: list, model: FitModel, max_iter: int) -> _Solution:
    """Run the damped Gauss-Newton iteration on a block of (spectrum, start
    vector) rows sharing one grid."""
    names = model.param_names
    x = block[0][0].freq_offset_mhz
    y = np.stack([spectrum.transmission for spectrum, _ in block])
    theta = np.stack([start for _, start in block])
    scale = _scales(names, float(x[-1] - x[0]))
    diag = np.arange(len(names))
    i_delta = names.index("delta_mhz")
    i_level = names.index("baseline_level")
    i_gamma = names.index("gamma_mhz") if "gamma_mhz" in names else None

    # Cost, gradient and normal matrix of each row at its current parameters.
    # They come from the one kernel call at the start rows, and then from the
    # trial call of each accepted step; a rejected step leaves them as they were.
    values, js = jacobian(x, theta, model, scale)
    resid = y - values
    cost = _row_costs(resid)
    grads, hessians = _normal_equations(js, resid)
    del values, js, resid
    lam = np.full(len(block), DAMPING_START)
    n_iter = np.zeros(len(block), dtype=int)
    converged = np.zeros(len(block), dtype=bool)
    active = np.arange(len(block) if max_iter > 0 else 0)

    while active.size:
        n_iter[active] += 1
        grad = grads[active]
        # A row whose gradient vanished is done; its normal matrix has still
        # been through the degeneracy test, which the covariance faces anyway.
        done = np.max(np.abs(grad), axis=1) < GRAD_TOL
        damped = hessians[active]  # fancy indexing copies
        damped[:, diag, diag] += lam[active, None] * np.maximum(damped[:, diag, diag], 1e-300)
        try:
            step = np.linalg.solve(damped, grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            raise FitError("degenerate fit: singular normal matrix") from None
        candidate = theta[active] + step * scale
        if i_gamma is not None:
            candidate[:, i_gamma] = np.abs(candidate[:, i_gamma])
        # Steps to a non-positive width or level are rejected unevaluated.
        trial = ~done & ~((candidate[:, i_delta] <= 0) | (candidate[:, i_level] <= 0))
        values, js = jacobian(x, candidate[trial], model, scale)
        new_resid = y[active[trial]] - values
        new_cost = _row_costs(new_resid)
        better = np.zeros_like(trial)
        better[trial] = new_cost <= cost[active[trial]]
        kept = better[trial]  # the accepted ones among the trial rows
        accepted = active[better]
        drop = cost[accepted] - new_cost[kept]
        theta[accepted] = candidate[better]
        cost[accepted] = new_cost[kept]
        grads[accepted], hessians[accepted] = _normal_equations(js[kept], new_resid[kept])
        del values, js  # no trial Jacobian stays alive into the next kernel call
        lam[accepted] = np.maximum(lam[accepted] * DAMPING_DOWN, 1e-15)
        lam[active[~done & ~better]] *= DAMPING_UP
        converged[accepted] = (cost[accepted] == 0.0) | (drop < COST_TOL * cost[accepted])
        converged[active[done]] = True
        active = active[~converged[active] & (n_iter[active] < max_iter)]

    resid_var = cost / (x.size - len(names))
    cov = resid_var[:, None, None] * np.linalg.inv(hessians) * np.outer(scale, scale)
    sigmas = np.sqrt(np.maximum(cov[:, diag, diag], 0.0))
    return _Solution(theta, cov, sigmas, resid_var, n_iter, converged)


def fit_series(spectra, model: FitModel = FitModel.EXP_GAUSSIAN, *,
               max_iter: int = MAX_ITER_DEFAULT, source_ids=None, inits=None) -> list:
    """Fit spectra in input order; each result is independent of the others.

    ``spectra`` may be any iterable, a generator included: it is consumed one
    block at a time.  ``source_ids`` and ``inits`` are optional iterables in
    step with it, of labels and of starting-parameter dicts (``None`` for the
    initial guess).  A fit that runs out of iterations comes back flagged
    (``converged=False``); a degenerate problem (singular normal matrix, e.g.
    vanishing depth) raises ``FitError``, and a spectrum that cannot be read
    or started raises its own error once the spectra before it are fitted,
    so errors surface in input order.

    Each result is assembled by a ``fit_spectrum`` call on the iterated
    block, because the traced benchmark (``perfbench/tracing.py``) counts
    fits, iterations and convergence by ``fit_spectrum`` calls.
    """
    ids = iter(source_ids) if source_ids is not None else itertools.repeat("")
    starts = iter(inits) if inits is not None else itertools.repeat(None)
    rows = zip(spectra, ids, starts)
    results = []
    block, block_ids = [], []

    def finish():
        solution = _iterate_block(block, model, max_iter)
        results.extend(
            fit_spectrum(spectrum, model, max_iter=max_iter, source_id=source_id,
                         _solved=(solution, r))
            for r, ((spectrum, _), source_id) in enumerate(zip(block, block_ids)))
        block.clear()
        block_ids.clear()

    while True:
        try:
            spectrum, source_id, init = next(rows)
            start = _start(spectrum, model, init)
        except StopIteration:
            break
        except Exception:
            if block:
                finish()  # a FitError of an earlier spectrum comes first
            raise
        if block:
            grid = block[0][0].freq_offset_mhz
            if (len(block) >= max(1, _BLOCK_ELEMENTS // grid.size)
                    or not np.array_equal(spectrum.freq_offset_mhz, grid)):
                finish()
        block.append((spectrum, start))
        block_ids.append(source_id)
    if block:
        finish()
    return results


def fit_spectrum(
    spectrum: Spectrum,
    model: FitModel = FitModel.EXP_GAUSSIAN,
    init: dict | None = None,
    *,
    max_iter: int = MAX_ITER_DEFAULT,
    source_id: str = "",
    _solved: tuple | None = None,
) -> FitResult:
    """Least-squares fit of one spectrum: ``fit_series`` of a batch of one.

    ``_solved`` is ``(solution, row)`` of a block that ``fit_series`` has
    iterated; it is passed only by ``fit_series``, to assemble that row's
    result.
    """
    if _solved is None:
        return fit_series([spectrum], model, max_iter=max_iter, source_ids=[source_id],
                          inits=[init])[0]
    solution, r = _solved
    names = model.param_names
    params = dict(zip(names, solution.theta[r].tolist()))
    var = float(solution.resid_var[r])
    noise = spectrum.noise_sigma_estimate() * params["baseline_level"]
    return FitResult(
        model=model,
        params=params,
        sigmas=dict(zip(names, solution.sigmas[r].tolist())),
        covariance=solution.covariance[r],
        param_names=names,
        chi2_reduced=var / noise**2 if noise > 0 else var,
        n_iter=int(solution.n_iter[r]),
        converged=bool(solution.converged[r]),
        n_points=int(spectrum.n_points),
        source_id=source_id,
        convergence_spec={
            "cost_tol": COST_TOL,
            "grad_tol": GRAD_TOL,
            "max_iter": max_iter,
            "damping_start": DAMPING_START,
            "weighting": "uniform",
        },
    )
