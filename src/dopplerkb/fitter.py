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

Spectra are fitted in batches, after the design of Gpufit (Przybylski et
al., Sci. Rep. 7, 15722, 2017): a workspace has ``16384 // points`` row
slots, each holding one spectrum of the current frequency grid, and each
iteration advances every occupied row at once.  A slot is refilled as soon
as its fit ends, converged or out of iterations, so the batch never waits
for its slowest row: the iteration-level scheduling of Orca (Yu et al., OSDI
2022).  An iteration makes one kernel call: ``jacobian`` gives the model and
its Jacobian for the start parameters of the rows just admitted together
with the trial parameters of the active rows, and an accepted step keeps its
trial's gradient and normal matrix.  These are formed with stacked
``matmul``, the conditioning test runs on the whole stack, the damped steps
come from one stacked ``np.linalg.solve``, and the covariances of the fits
that end in an iteration from one stacked ``np.linalg.inv``.  Each row keeps
its own damping factor, iteration count and convergence state.  Every
operation is row-wise, so a spectrum gets the same bits whether it is fitted
alone or among others, in whichever slot.  ``fit_spectrum`` is
``fit_series`` of a batch of one; ``fit_series`` ends each spectrum's fit in
a ``fit_spectrum`` call that only assembles the result from its row.  A
spectrum on another grid waits until every slot is free, and the slots then
start again on its grid.

The iteration allocates no real array of the slots' size; only the Voigt's
complex intermediates (``scipy.special.wofz``) are allocated per call.
``fit_series`` allocates a workspace once per grid (again only when the
number of points changes): the data and residual rows, the kernel's
intermediates (offsets, attenuation, P and its derivatives), each a
``(rows, points)`` buffer, and the ``(rows, points, params)`` Jacobian, all
carved from one array.  An evaluation of ``n`` rows uses the ``[:n]`` views
of these buffers, and ``jacobian``, ``lineshape.profile`` and the residuals
write every intermediate into them through the ufuncs' ``out=``, with the
same operations in the same order as the expressions they replace, so the
bits are unchanged; the normal equations of rejected trials are formed
with the others and dropped.
Temporaries allocated per iteration would be freed to the top of glibc's
heap, which malloc hands back to the OS, so the next iteration would fault
the pages in again: about 28k minor faults per 400-spectrum W1 fit, a fifth
of its time spent in the OS.  The single allocation matters too: glibc keeps
a freed chunk that size in the heap, for the next ``fit_series`` call.  A
workspace holds ``_BLOCK_ELEMENTS = 16384`` samples, so a ``(rows, points)``
buffer is 128 KiB and a Gaussian workspace (12 of them) 1.5 MiB, which stays
in a core's L2 cache through the chain of ufuncs.  More slots spread the
per-iteration Python overhead over more rows: on a 2-vCPU x86-64 host,
32768 and 65536 samples fitted a W2 campaign 1.37x and 1.40x as fast, but
raised the benchmark's peak RSS (about 62 MB, with a 10% bound) by 2.1 and
5.3 MB on W2 and by 3.3 and 6.7 MB on W3.

In the Gaussian variant the homogeneous width is fixed at zero: pressure
broadening is deliberately absorbed into the fitted width, and the
zero-pressure extrapolation takes it out.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, FitError
from .lineshape import profile
from .spectra import Spectrum, fields_equal

COST_TOL = 1e-12       # relative cost decrease at convergence
GRAD_TOL = 1e-10       # max-norm of the scaled gradient at convergence
MAX_ITER_DEFAULT = 200
DAMPING_START = 1e-3
DAMPING_UP = 10.0
DAMPING_DOWN = 0.1
_COND_LIMIT = 1e14
_BLOCK_ELEMENTS = 16384  # row slots = this // points; 128 KiB per (rows, points)


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
    """Best-fit parameters with covariance and residual diagnostics.

    ``params`` is keyed by ``model.param_names``, and the rows and columns of
    ``covariance`` follow that order.  The parameter uncertainties are not
    stored: ``sigmas`` derives them from the covariance diagonal.  Results
    are equal when every field is, the covariance compared element by
    element.
    """

    model: FitModel
    params: dict
    covariance: np.ndarray
    chi2_reduced: float
    n_iter: int
    converged: bool
    n_points: int
    source_id: str = ""

    __eq__ = fields_equal

    @functools.cached_property
    def sigmas(self) -> dict:
        """The square roots of the covariance diagonal (negative variances
        read as 0), keyed by ``model.param_names``."""
        return dict(zip(self.model.param_names,
                        np.sqrt(np.maximum(np.diag(self.covariance), 0.0)).tolist()))


def _columns(theta, model: FitModel) -> dict:
    """Each parameter of a (rows, params) array as a (rows, 1) column."""
    theta = np.asarray(theta, dtype=float)
    return {name: theta[:, i:i + 1] for i, name in enumerate(model.param_names)}


class _Workspace(NamedTuple):
    """Buffers for up to ``rows`` spectra of ``points`` samples at once:
    the data rows, the residual rows, the kernel's and ``jacobian``'s
    intermediates and the Jacobian (see the module docstring)."""

    data: np.ndarray     # (rows, points)
    resid: np.ndarray    # (rows, points)
    kernel: np.ndarray   # (k, rows, points)
    jac: np.ndarray      # (rows, points, params)

    @classmethod
    def allocate(cls, rows: int, points: int, model: FitModel) -> "_Workspace":
        # the offsets, the attenuation, and P, dP/du, dP/ddelta (and dP/dgamma)
        k = 6 if model is FitModel.EXP_VOIGT else 5
        n_params = len(model.param_names)
        planes = np.empty((2 + k + n_params, rows, points))
        # the memory of the last n_params planes holds the Jacobian
        return cls(planes[0], planes[1], planes[2:2 + k],
                   planes[2 + k:].reshape(rows, points, n_params))


def jacobian(offsets_mhz, theta, model: FitModel, scale=None, workspace=None) -> tuple:
    """The fit model and its Jacobian for each row of ``theta`` (parameters in
    ``model.param_names`` order) from one profile call: (rows, points) and
    (rows, points, params) arrays.  ``scale`` multiplies column k of the
    Jacobian by ``scale[k]``, for parameters measured in those units.

    With a ``workspace`` (``fit_series`` passes one) every intermediate of
    that shape is written into its buffers and both arrays returned are
    views of them, valid until the next call with that workspace; without
    one they are new arrays.
    """
    p = _columns(theta, model)
    rows = len(p["nu0_mhz"])
    if workspace is None:
        workspace = _Workspace.allocate(rows, np.size(offsets_mhz), model)
    u, atten, *prof_out = workspace.kernel[:, :rows]
    jac = workspace.jac[:rows]
    np.subtract(np.asarray(offsets_mhz, dtype=float), p["nu0_mhz"], out=u)
    depth = p["peak_depth"]
    level = p["baseline_level"]
    slope = p["baseline_slope"]
    prof, dp_du, dp_ddelta, dp_dgamma = profile(
        u, p["delta_mhz"], p.get("gamma_mhz"), derivs=True, out=prof_out)
    np.multiply(-depth, prof, out=atten)
    np.exp(atten, out=atten)

    # Each column is formed in place in a profile array that is not read
    # again, in the order of ``-level * depth * dP * atten`` and so on, and
    # then scaled into the Jacobian.
    scale = np.ones(jac.shape[-1]) if scale is None else scale
    minus_level = -level

    def column(k, factor, values, *, minus=None):
        np.multiply(factor, values, out=values)
        np.multiply(values, atten, out=values)
        if minus is not None:
            np.subtract(values, minus, out=values)
        np.multiply(values, scale[k], out=jac[..., k])

    column(0, level * depth, dp_du, minus=slope)             # d/d nu0 (du/dnu0 = -1)
    column(1, minus_level * depth, dp_ddelta)                # d/d delta
    if model is FitModel.EXP_VOIGT:
        column(5, minus_level * depth, dp_dgamma)            # d/d gamma
    column(2, minus_level, prof)                             # d/d depth
    np.multiply(atten, scale[3], out=jac[..., 3])            # d/d level
    np.multiply(u, scale[4], out=jac[..., 4])                # d/d slope
    values = np.multiply(level, atten, out=dp_du)
    np.add(values, np.multiply(slope, u, out=dp_ddelta), out=values)
    return values, jac


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
        delta = x[i_min + 1] - x[i_min]  # a one-sample dip: the grid spacing

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


def _normal_equations(js: np.ndarray, resid: np.ndarray, keep: np.ndarray) -> tuple:
    """J^T r and J^T J of the rows where ``keep`` is true; raises ``FitError``
    if one of their J^T J is degenerate.

    Both are formed for every row of ``js`` and ``resid`` and those of the
    other rows dropped, so the kept rows need not be moved together first; a
    row that is not kept never raises.  For a positive semi-definite H of
    order n, cond(H) <= trace(H)^n / det(H), so a row with
    ``det(H) * _COND_LIMIT / 10 > trace(H)^n`` is well inside the limit; the
    factor 10 covers the rounding of the LU determinant (about n * eps *
    cond, 0.1 at 1e14).  Only the rows this screen leaves over go through the
    SVD of ``np.linalg.cond``, so the decision is the SVD's.
    """
    jt = js.transpose(0, 2, 1)
    hess = (jt @ js)[keep]
    if not np.all(np.isfinite(hess)):
        raise FitError("degenerate fit: singular normal matrix")
    unclear = (np.linalg.det(hess) * (_COND_LIMIT / 10)
               <= np.trace(hess, axis1=1, axis2=2) ** hess.shape[-1])
    if unclear.any() and np.any(np.linalg.cond(hess[unclear]) > _COND_LIMIT):
        raise FitError("degenerate fit: singular normal matrix")
    return (jt @ resid[:, :, None])[keep, :, 0], hess


class _Slots:
    """The rows of a workspace, each holding one spectrum of the current grid
    from its admission until its fit ends (see the module docstring).

    Row ``s`` of the workspace's data and of ``theta``, ``cost``, ``grads``,
    ``hessians``, ``lam`` and ``n_iter`` is the state of the spectrum in slot
    ``s``; ``owners[s]`` is its (result index, spectrum, source id).
    """

    def __init__(self, points: int, model: FitModel, max_iter: int):
        rows = max(1, _BLOCK_ELEMENTS // points)
        names = model.param_names
        n = len(names)
        self.model, self.max_iter = model, max_iter
        self.diag = np.arange(n)
        self.i_delta = names.index("delta_mhz")
        self.i_level = names.index("baseline_level")
        self.i_gamma = names.index("gamma_mhz") if "gamma_mhz" in names else None
        self.workspace = _Workspace.allocate(rows, points, model)
        self.theta = np.empty((rows, n))
        self.cost = np.empty(rows)
        self.grads = np.empty((rows, n))
        self.hessians = np.empty((rows, n, n))
        self.lam = np.empty(rows)
        self.n_iter = np.empty(rows, dtype=int)
        self.owners = [None] * rows
        self.free = list(range(rows))[::-1]  # popped lowest first
        self.active = np.empty(0, dtype=int)  # slots being iterated
        self.new = []                         # slots admitted since the last step
        self.x = self.scale = None

    @property
    def busy(self) -> bool:
        return len(self.free) < len(self.owners)

    def takes(self, spectrum: Spectrum) -> bool:
        """Whether a slot is free for ``spectrum``: one of the same number of
        points when no slot is taken, else one on the current grid."""
        if not self.free:
            return False
        if self.busy:  # replicas of a pressure share one grid array
            x = spectrum.freq_offset_mhz
            return x is self.x or np.array_equal(x, self.x)
        return spectrum.n_points == self.workspace.data.shape[1]

    def admit(self, index: int, spectrum: Spectrum, source_id: str, start) -> None:
        if not self.busy:
            self.x = spectrum.freq_offset_mhz
            self.scale = _scales(self.model.param_names, float(self.x[-1] - self.x[0]))
        slot = self.free.pop()
        self.workspace.data[slot] = spectrum.transmission
        self.theta[slot] = start
        self.lam[slot] = DAMPING_START
        self.n_iter[slot] = 0
        self.owners[slot] = (index, spectrum, source_id)
        self.new.append(slot)

    def step(self, results: list) -> None:
        """One iteration: a damped step for every active row, the start of
        every new row, and the results of the fits that end, into
        ``results``.  A new row is evaluated at its start parameters in the
        same ``jacobian`` call as the active rows' trials, and its first step
        comes in the next iteration."""
        diag = self.diag
        active, new = self.active, np.array(self.new, dtype=int)
        self.new.clear()

        self.n_iter[active] += 1
        grad = self.grads[active]
        # A row whose gradient vanished is done; its normal matrix has still
        # been through the degeneracy test, which the covariance faces anyway.
        done = np.max(np.abs(grad), axis=1) < GRAD_TOL
        damped = self.hessians[active]  # fancy indexing copies
        damped[:, diag, diag] += self.lam[active, None] * np.maximum(damped[:, diag, diag],
                                                                     1e-300)
        try:
            step = np.linalg.solve(damped, grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            raise FitError("degenerate fit: singular normal matrix") from None
        candidate = self.theta[active] + step * self.scale
        if self.i_gamma is not None:
            candidate[:, self.i_gamma] = np.abs(candidate[:, self.i_gamma])
        # Steps to a non-positive width or level are rejected unevaluated.
        trial = ~done & ~((candidate[:, self.i_delta] <= 0) | (candidate[:, self.i_level] <= 0))

        # Cost, gradient and normal matrix of each row at its current
        # parameters come from the one kernel call at its start, and then
        # from the trial call of each accepted step; a rejected step leaves
        # them as they were.
        tried = active[trial]
        rows = np.concatenate((new, tried))
        values, js = jacobian(self.x, np.concatenate((self.theta[new], candidate[trial])),
                              self.model, self.scale, workspace=self.workspace)
        # the indices are in range, and "clip" takes rows without a copy of ``out``
        resid = np.take(self.workspace.data, rows, axis=0,
                        out=self.workspace.resid[:rows.size], mode="clip")
        np.subtract(resid, values, out=resid)
        costs = _row_costs(resid)
        new_cost = costs[new.size:]
        kept = new_cost <= self.cost[tried]  # the accepted ones among the trial rows
        better = np.zeros_like(trial)
        better[trial] = kept
        accepted = active[better]
        drop = self.cost[accepted] - new_cost[kept]
        self.theta[accepted] = candidate[better]
        keep = np.concatenate((np.ones(new.size, dtype=bool), kept))
        evaluated = rows[keep]  # the new rows, then the accepted ones
        self.cost[evaluated] = costs[keep]
        self.grads[evaluated], self.hessians[evaluated] = _normal_equations(js, resid, keep)
        self.lam[accepted] = np.maximum(self.lam[accepted] * DAMPING_DOWN, 1e-15)
        self.lam[active[~done & ~better]] *= DAMPING_UP

        converged = np.concatenate((done, np.zeros(new.size, dtype=bool)))
        converged[:active.size][better] = ((self.cost[accepted] == 0.0)
                                           | (drop < COST_TOL * self.cost[accepted]))
        live = np.concatenate((active, new))
        ended = converged | (self.n_iter[live] >= self.max_iter)
        self.active = live[~ended]
        if ended.any():
            self._finish(live[ended], converged[ended], results)

    def _finish(self, slots: np.ndarray, converged: np.ndarray, results: list) -> None:
        """Assemble the results of the fits in ``slots`` and free the slots."""
        resid_var = self.cost[slots] / (self.x.size - len(self.model.param_names))
        cov = (resid_var[:, None, None] * np.linalg.inv(self.hessians[slots])
               * np.outer(self.scale, self.scale))
        for slot, *solved in zip(slots.tolist(), self.theta[slots], cov, resid_var,
                                 self.n_iter[slots], converged):
            index, spectrum, source_id = self.owners[slot]
            results[index] = fit_spectrum(spectrum, self.model, max_iter=self.max_iter,
                                          source_id=source_id, _solved=tuple(solved))
            self.owners[slot] = None
            self.free.append(slot)


def fit_series(spectra, model: FitModel = FitModel.EXP_GAUSSIAN, *,
               max_iter: int = MAX_ITER_DEFAULT, source_ids=None, inits=None) -> list:
    """Fit spectra in input order; each result is independent of the others.

    ``spectra`` may be any iterable, a generator included: it is read one
    spectrum at a time, as row slots free up.  ``source_ids`` and ``inits``
    are optional iterables in step with it, of labels and of
    starting-parameter dicts (``None`` for the initial guess).  A fit that
    runs out of iterations comes back flagged (``converged=False``); a
    degenerate problem (singular normal matrix, e.g. vanishing depth) raises
    ``FitError``, and a spectrum that cannot be read or started raises its
    own error once the spectra before it are fitted, so errors surface in
    input order.

    Each result is assembled by a ``fit_spectrum`` call on its row of the
    iteration it ended in, because the traced benchmark
    (``perfbench/tracing.py``) counts fits, iterations and convergence by
    ``fit_spectrum`` calls.
    """
    ids = iter(source_ids) if source_ids is not None else itertools.repeat("")
    starts = iter(inits) if inits is not None else itertools.repeat(None)
    rows = zip(spectra, ids, starts)
    results = []
    slots = None
    while True:
        try:
            spectrum, source_id, init = next(rows)
            start = _start(spectrum, model, init)
        except Exception as exc:  # the end of the input, or a spectrum that cannot start
            while slots is not None and slots.busy:
                slots.step(results)  # a FitError of an earlier spectrum comes first
            if isinstance(exc, StopIteration):
                return results
            raise
        while slots is None or not slots.takes(spectrum):
            if slots is not None and slots.busy:
                slots.step(results)
            else:  # idle slots on another number of points
                slots = _Slots(spectrum.n_points, model, max_iter)
        results.append(None)
        slots.admit(len(results) - 1, spectrum, source_id, start)


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

    ``_solved`` is the (parameters, covariance, residual variance, iteration
    count, converged) of a row that ended in one of ``fit_series``'s
    iterations; it is passed only by ``fit_series``, to assemble that row's
    result.
    """
    if _solved is None:
        return fit_series([spectrum], model, max_iter=max_iter, source_ids=[source_id],
                          inits=[init])[0]
    theta, covariance, var, n_iter, converged = _solved
    params = dict(zip(model.param_names, theta.tolist()))
    var = float(var)
    noise = spectrum.noise_sigma_estimate() * params["baseline_level"]
    return FitResult(
        model=model,
        params=params,
        covariance=covariance,
        chi2_reduced=var / noise**2 if noise > 0 else var,
        n_iter=int(n_iter),
        converged=bool(converged),
        n_points=int(spectrum.n_points),
        source_id=source_id,
    )
