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
al., Sci. Rep. 7, 15722, 2017): a workspace serves one frequency grid and
has ``16384 // points`` row slots, each holding one spectrum, and each
iteration advances every occupied row at once.  A slot is refilled as soon
as its fit ends, converged or out of iterations, so the batch never waits
for its slowest row: the iteration-level scheduling of Orca (Yu et al., OSDI
2022).  ``fit_series`` reads the spectra in stacks, each of up to as many
spectra on one grid as there are slots.  Every start, and every refusal to
start, comes from one pass over a stack's samples (``_guesses``), and its
spectra take slots as they free up.  An iteration makes one kernel call:
``jacobian`` gives the model and its Jacobian for the start parameters of
the rows just admitted together with the trial parameters of the active
rows.  The gradient and normal matrix of every row evaluated are formed
with stacked ``matmul``, and those of the new rows and the accepted trials
are kept: an accepted step keeps its trial's, and a rejected trial's are
dropped unscreened.  The conditioning test runs on the whole stack of the
kept ones, and the damped steps come from one stacked ``np.linalg.solve``.
A fit that ends keeps its parameters, normal matrix, cost, iteration count
and convergence.
When the grid changes and when the input ends, one stacked ``np.linalg.inv``
gives the covariances of all the fits that ended, and a ``fit_spectrum``
call per spectrum assembles its result.  Each row keeps its own damping
factor, iteration count and convergence state.  Every operation is
row-wise, so a spectrum gets the same bits whether it is fitted alone or
among others, in whichever slot.  ``fit_spectrum`` is ``fit_series`` of a
batch of one.  A spectrum on another grid, even one of the same number of
points, drains the workspace: every fit on the current grid runs to its
end and has its result assembled, and a new workspace for the new grid
takes its place.  A failure is raised where it is found: a degenerate
normal matrix in the iteration, and a refused start when its stack is
admitted, after the spectra before it have been fitted.

The iteration allocates no real array of the slots' size; only the Voigt's
complex intermediates (``scipy.special.wofz``) are allocated per call.
``fit_series`` allocates a workspace once per grid: the data and residual
rows and the kernel's intermediates (offsets, attenuation, P and its
derivatives), each a ``(rows, points)`` buffer, and the ``(rows, points,
params)`` Jacobian, all carved from one array.  An evaluation of ``n`` rows
uses the ``[:n]`` views of these buffers, and ``jacobian``,
``lineshape.profile`` and the residuals write every intermediate into them
through the ufuncs' ``out=``, with the same operations in the same order as
the expressions they replace, so the bits are unchanged.  Temporaries
allocated per iteration would be freed to the top of glibc's heap, which
malloc hands back to the OS, so the next iteration would fault the pages in
again: about 28k minor faults per 400-spectrum W1 fit, a fifth of its time
spent in the OS.  The single allocation matters too: glibc keeps a freed
chunk that size in the heap, for the next ``fit_series`` call.  A workspace
holds ``_BLOCK_ELEMENTS = 16384`` samples, so a ``(rows, points)``
buffer is 128 KiB and a Gaussian workspace (12 of them) 1.5 MiB, which stays
in a core's L2 cache through the chain of ufuncs.  More slots spread the
per-iteration Python overhead over more rows: on a 2-vCPU x86-64 host, with
14-plane Gaussian workspaces, 32768 and 65536 samples fitted a W2 campaign
1.37x and 1.40x as fast, but raised the benchmark's peak RSS (about 62 MB,
with a 10% bound) by 2.1 and 5.3 MB on W2 and by 3.3 and 6.7 MB on W3.

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
_SINGULAR = "degenerate fit: singular normal matrix"


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
        return cls(*planes[:2], planes[2:2 + k], planes[2 + k:].reshape(rows, points, n_params))


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


def _guesses(x: np.ndarray, t: np.ndarray, model: FitModel) -> tuple:
    """Direct parameter estimates from the raw samples of each row of ``t``,
    on the grid ``x``: the (rows, params) starts, and for each row None or
    the message of its refusal.

    Center from the grid position of minimum transmission, baseline from
    the outer 10% of samples on each side, depth from the log of the
    baseline-to-minimum ratio, width from the half-width of the region
    where the optical depth exceeds 1/e of its peak (the grid spacing at the
    minimum for a one-sample dip), slope from the difference of the two
    edge means, and for the Voigt a homogeneous width of 1/100 of the
    width.  The checks, in order, and their messages:

    - ``spectrum has fewer points than fit parameters``;
    - ``spectrum too short for a fit (n points, need >= 16)``;
    - ``line not in scan window``: the minimum or its 1/e region reaches an
      edge of the scan, or the minimum is not positive and below the
      baseline;
    - ``initial guess contains non-finite parameters``, e.g. a depth that
      overflows.

    A finite start has a positive width and baseline level, since the grid
    is strictly increasing.  Every step is made on the whole stack but
    ``math.log`` and ``math.exp``, which run row by row, so a row gets the
    same bits alone or in any stack.  The start of a refused row is
    meaningless.
    """
    rows, n = t.shape
    theta = np.zeros((rows, len(model.param_names)))
    if n <= theta.shape[1]:
        return theta, ["spectrum has fewer points than fit parameters"] * rows
    if n < 16:
        return theta, [f"spectrum too short for a fit ({n} points, need >= 16)"] * rows
    i_min = np.argmin(t, axis=1)
    k = max(2, n // 10)
    left = t[:, :k].sum(axis=1) / k
    right = t[:, -k:].sum(axis=1) / k
    level = 0.5 * (left + right)
    depth = [math.log(lv / tm) if 0 < j < n - 1 and 0.0 < tm < lv else math.nan
             for j, lv, tm in zip(i_min.tolist(), level.tolist(), t.min(axis=1).tolist())]
    # a refused row's threshold is nan, which no sample reaches
    above = t >= np.array([lv * math.exp(-d / math.e)
                           for lv, d in zip(level.tolist(), depth)])[:, None]

    # The 1/e region lies between the last sample at or above the threshold
    # before the minimum and the first one from it on; with no such sample
    # it reaches the edge of the scan, and the row is refused.
    from_min = np.arange(n) >= i_min[:, None]
    after = above & from_min
    before = (above & ~from_min)[:, ::-1]
    hi = np.where(after.any(axis=1), np.argmax(after, axis=1) - 1, n - 1)
    lo = np.where(before.any(axis=1), n - np.argmax(before, axis=1), 0)
    inside = (lo != 0) & (hi != n - 1)

    delta = 0.5 * (x[hi] - x[lo])
    flat = inside & (delta <= 0)  # a one-sample dip: the grid spacing
    delta[flat] = x[i_min[flat] + 1] - x[i_min[flat]]
    x_left = float(x[:k].sum()) / k
    x_right = float(x[-k:].sum()) / k
    columns = [x[i_min], delta, depth, level, (right - left) / (x_right - x_left)]
    if model is FitModel.EXP_VOIGT:
        columns.append(delta / 100.0)
    theta[:] = np.transpose(columns)
    finite = np.isfinite(theta).all(axis=1)
    return theta, ["line not in scan window" if not in_window
                   else None if ok else "initial guess contains non-finite parameters"
                   for in_window, ok in zip(inside.tolist(), finite.tolist())]


def _row_costs(resid: np.ndarray) -> np.ndarray:
    """Sum of squares of each row, through the same dot product as ``r @ r``."""
    return (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]


def _normal_equations(js: np.ndarray, resid: np.ndarray, keep: np.ndarray) -> tuple:
    """J^T r and J^T J of the rows where ``keep`` is true, and the positions
    among those rows of the ones whose J^T J is degenerate (condition number
    above ``_COND_LIMIT``, or not finite).

    Every row is multiplied, in one stacked product per array, and the kept
    rows' products are taken from it; each row's product is the same bits
    alone or in any stack.  A row that is not kept never reaches the screen
    below, so a rejected trial is never flagged.

    For a positive semi-definite H of order n, cond(H) <= trace(H)^n /
    det(H), so a row with ``det(H) * _COND_LIMIT / 10 > trace(H)^n`` is well
    inside the limit; the factor 10 covers the rounding of the LU
    determinant (about n * eps * cond, 0.1 at 1e14).  Only the rows this
    screen leaves over go through the SVD of ``np.linalg.cond``, so the
    decision is the SVD's.
    """
    jt = js.transpose(0, 2, 1)
    grads, hess = (jt @ resid[:, :, None])[keep, :, 0], (jt @ js)[keep]
    if np.all(np.isfinite(hess)):
        unclear = np.flatnonzero(np.linalg.det(hess) * (_COND_LIMIT / 10)
                                 <= np.trace(hess, axis1=1, axis2=2) ** hess.shape[-1])
        bad = np.empty(0, dtype=int)
    else:  # each finite row faces the SVD
        finite = np.isfinite(hess).all(axis=(1, 2))
        unclear, bad = np.flatnonzero(finite), np.flatnonzero(~finite)
    if unclear.size:
        bad = np.union1d(bad, unclear[np.linalg.cond(hess[unclear]) > _COND_LIMIT])
    return grads, hess, bad


def _same_grid(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` are one frequency grid (replicas of a
    pressure share one grid array)."""
    return a is b or np.array_equal(a, b)


class _Slots:
    """The rows of a workspace for the grid ``x``, each holding one spectrum
    from its admission until its fit ends, and the fits that ended until
    their results are assembled (see the module docstring).  The grid and
    its parameter scale are fixed at construction.

    Row ``s`` of the workspace's data and of ``theta``, ``cost``, ``grads``,
    ``hessians``, ``lam`` and ``n_iter`` is the state of the spectrum in slot
    ``s``; ``owners[s]`` is its (result index, spectrum, source id).
    """

    def __init__(self, x: np.ndarray, model: FitModel, max_iter: int):
        rows = max(1, _BLOCK_ELEMENTS // x.size)
        names = model.param_names
        n = len(names)
        self.model, self.max_iter = model, max_iter
        self.diag = np.arange(n)
        self.i_delta = names.index("delta_mhz")
        self.i_level = names.index("baseline_level")
        self.i_gamma = names.index("gamma_mhz") if "gamma_mhz" in names else None
        self.x, self.scale = x, _scales(names, float(x[-1] - x[0]))
        self.workspace = _Workspace.allocate(rows, x.size, model)
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
        self.ended = []                       # fits set aside by ``_finish``

    @property
    def busy(self) -> bool:
        return len(self.free) < len(self.owners)

    def admit(self, rows: list, results: list) -> None:
        """Admit ``rows`` (spectrum, source id), all on the workspace's grid,
        no more than it has slots, in input order up to the first that
        ``_guesses`` refuses.  The starts come from one ``_guesses`` call
        on the rows' samples, stacked into a new array, and the rows take
        slots as they free up.

        A refused row raises ``DataError`` with its message, prefixed by its
        source id, once the rows before it have been fitted (``drain``), so
        that a ``FitError`` of an earlier row comes first."""
        t = np.stack([spectrum.transmission for spectrum, _ in rows])
        starts, refusals = _guesses(self.x, t, self.model)
        refused = next((i for i, message in enumerate(refusals) if message is not None),
                       len(rows))
        i = 0
        while i < refused:
            if not self.free:
                self.step()
                continue
            taken = rows[i:min(refused, i + len(self.free))]
            slots = [self.free.pop() for _ in taken]
            self.workspace.data[slots] = t[i:i + len(taken)]
            self.theta[slots] = starts[i:i + len(taken)]
            self.lam[slots] = DAMPING_START
            self.n_iter[slots] = 0
            for slot, (spectrum, source_id) in zip(slots, taken):
                self.owners[slot] = (len(results), spectrum, source_id)
                results.append(None)
            self.new += slots
            i += len(taken)
        if refused < len(rows):
            self.drain(results)
            source_id, message = rows[refused][1], refusals[refused]
            raise DataError(f"{source_id}: {message}" if source_id else message)

    def step(self) -> None:
        """One iteration: a damped step for every active row, the start of
        every new row, and the fits that end set aside.  A new row is
        evaluated at its start parameters in the same ``jacobian`` call as
        the active rows' trials, and its first step comes in the next
        iteration.  A degenerate normal matrix (``_normal_equations`` gives
        the positions of such rows) raises ``FitError`` naming the first of
        its spectra in input order, before any state of the iteration is
        stored."""
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
            raise FitError(_SINGULAR) from None
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
        grads, hessians, bad = _normal_equations(js, resid, keep)
        if bad.size:  # named by its first spectrum in input order
            _, _, source_id = min(self.owners[s] for s in evaluated[bad].tolist())
            raise FitError(f"{source_id}: {_SINGULAR}" if source_id else _SINGULAR)
        self.grads[evaluated], self.hessians[evaluated] = grads, hessians
        self.lam[accepted] = np.maximum(self.lam[accepted] * DAMPING_DOWN, 1e-15)
        self.lam[active[~done & ~better]] *= DAMPING_UP

        converged = np.concatenate((done, np.zeros(new.size, dtype=bool)))
        converged[:active.size][better] = ((self.cost[accepted] == 0.0)
                                           | (drop < COST_TOL * self.cost[accepted]))
        live = np.concatenate((active, new))
        ended = converged | (self.n_iter[live] >= self.max_iter)
        self.active = live[~ended]
        if ended.any():
            self._finish(live[ended], converged[ended])

    def _finish(self, slots: np.ndarray, converged: np.ndarray) -> None:
        """Set the fits that ended in ``slots`` aside and free the slots."""
        self.ended.append(([self.owners[s] for s in slots.tolist()], self.theta[slots],
                           self.hessians[slots],
                           self.cost[slots] / (self.x.size - len(self.model.param_names)),
                           self.n_iter[slots], converged))
        for slot in slots.tolist():
            self.owners[slot] = None
            self.free.append(slot)

    def drain(self, results: list) -> None:
        """Step until every fit has ended, then put the results of the fits
        set aside into ``results``: one stacked ``inv`` gives every
        covariance, scaled by the grid's parameter scale, and a
        ``fit_spectrum`` call per spectrum assembles its result."""
        while self.busy:
            self.step()
        if not self.ended:
            return
        owners, theta, hessians, var, n_iter, converged = zip(*self.ended)
        self.ended = []
        var = np.concatenate(var)
        cov = (var[:, None, None] * np.linalg.inv(np.concatenate(hessians))
               * (self.scale[:, None] * self.scale))
        solved = zip(np.concatenate(theta).tolist(), cov, var.tolist(),
                     np.concatenate(n_iter).tolist(), np.concatenate(converged).tolist())
        for (index, spectrum, source_id), row in zip(itertools.chain.from_iterable(owners),
                                                     solved):
            results[index] = fit_spectrum(spectrum, self.model, max_iter=self.max_iter,
                                          source_id=source_id, _solved=row)


def _inputs(spectra, source_ids):
    """The (spectrum, source id) rows of ``fit_series``'s input, then the
    exception that ended it: ``StopIteration`` at its end, else the error of
    the spectrum that could not be read, or a ``ValueError`` naming
    ``source_ids`` when it is out of step with the spectra: the index of the
    first spectrum without an id, or the number of spectra when ids are left
    over."""
    ids = itertools.repeat("") if source_ids is None else iter(source_ids)
    n, end = 0, object()
    try:
        for n, spectrum in enumerate(spectra, 1):
            if (source_id := next(ids, end)) is end:
                raise ValueError(f"source_ids is shorter than the spectra: no id at index {n - 1}")
            yield spectrum, source_id
        if source_ids is not None and next(ids, end) is not end:
            raise ValueError(f"source_ids is longer than the {n} spectra")
        raise StopIteration  # the end of the input, yielded below like an error
    except Exception as exc:
        yield exc


def fit_series(spectra, model: FitModel = FitModel.EXP_GAUSSIAN, *,
               max_iter: int = MAX_ITER_DEFAULT, source_ids=None) -> list:
    """Fit spectra in input order; each result is independent of the others.

    ``spectra`` may be any iterable, a generator included.  It is read in
    stacks: a spectrum, the spectra after it on its grid up to as many as
    the workspace has slots, and the one after those, which begins the next
    stack.  Every start comes from the samples, in one array pass per stack
    (``_guesses``), and a stack's spectra take slots as they free up.  A
    spectrum on another grid than the one before it first lets every fit on
    that grid end, and then gets a workspace of its own grid.
    ``source_ids`` is an optional iterable of labels in step with it, one
    per spectrum: a spectrum without an id, or an id left over when the
    spectra end, raises ``ValueError`` where it is met, like a spectrum
    that cannot be read.

    A fit that runs out of iterations comes back flagged
    (``converged=False``).  A degenerate problem (singular normal matrix,
    e.g. vanishing depth) raises ``FitError``.  A spectrum that cannot be
    read raises its own error, and one that ``_guesses`` refuses raises
    ``DataError`` with its message, once the spectra before it are fitted,
    so errors surface in input order: the spectra of its stack before an
    unstartable one are fitted, and those after it are dropped unfitted, as
    is a spectrum read after it.  The error of a spectrum that cannot be
    started or fitted is prefixed by its source id, the first in input order
    among the degenerate fits of an iteration.

    Each result is assembled by a ``fit_spectrum`` call, once per spectrum,
    because the traced benchmark (``perfbench/tracing.py``) counts fits,
    iterations and convergence by ``fit_spectrum`` calls.
    """
    inputs = _inputs(spectra, source_ids)
    row = next(inputs)
    results = []
    slots = None
    while not isinstance(row, Exception):
        x = row[0].freq_offset_mhz
        if slots is None or not _same_grid(x, slots.x):
            if slots is not None:
                slots.drain(results)
            slots = _Slots(x, model, max_iter)
        stack = [row]
        for row in inputs:
            if (isinstance(row, Exception) or len(stack) == len(slots.owners)
                    or not _same_grid(row[0].freq_offset_mhz, x)):
                break
            stack.append(row)
        slots.admit(stack, results)
    if slots is not None:
        slots.drain(results)  # a FitError of an earlier spectrum comes first
    if not isinstance(row, StopIteration):
        raise row
    return results


def fit_spectrum(
    spectrum: Spectrum,
    model: FitModel = FitModel.EXP_GAUSSIAN,
    *,
    max_iter: int = MAX_ITER_DEFAULT,
    source_id: str = "",
    _solved: tuple | None = None,
) -> FitResult:
    """Least-squares fit of one spectrum: ``fit_series`` of a batch of one,
    started and refused as there (see ``_guesses``).

    ``_solved`` is the (parameter list, covariance, residual variance,
    iteration count, converged) of a fit that ended in ``fit_series``; it
    is passed only by ``fit_series``, to assemble that fit's result.
    """
    if _solved is None:
        return fit_series([spectrum], model, max_iter=max_iter, source_ids=[source_id])[0]
    theta, covariance, var, n_iter, converged = _solved
    params = dict(zip(model.param_names, theta))
    noise = spectrum.noise_sigma_estimate() * params["baseline_level"]
    return FitResult(
        model=model,
        params=params,
        covariance=covariance,
        chi2_reduced=var / noise**2 if noise > 0 else var,
        n_iter=n_iter,
        converged=converged,
        n_points=spectrum.n_points,
        source_id=source_id,
    )
