"""Command-line pipeline: simulate -> fit -> series -> kb, plus a standalone
budget calculator and a reproduction of the published determination.

Stages talk to each other through files only, and each reads its input,
makes one library call and writes its output: ``CampaignConfig.synthesize``,
``fit_series``, ``extrapolate`` and ``CampaignConfig.budget``.  Every
file-writing run also writes a manifest (config hash, seed, dopplerkb and
numpy versions, constants snapshot) sufficient to reproduce it
bit-identically with the same numpy build on the same BLAS kernel; other
OpenBLAS kernels change the bits (ROADMAP.md, direction 21).

Exit codes: 0 success, 1 usage error, 2 data error (a bad file, config value
or option value), 3 a fit that did not converge (its record is written),
4 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
from pathlib import Path

from . import constants, errors
from .boltzmann import TemperatureReading, format_budget_table, uncertainty_budget
from .config import CampaignConfig, load_config
from .errors import DataError, FitError
from .extrapolation import extrapolate
from .fileio import (
    read_fit_records,
    read_regression_summary,
    read_spectrum,
    write_boltzmann_record,
    write_fit_records,
    write_manifest,
    write_regression_summary,
    write_spectrum,
    write_width_table,
)
from .fitter import MAX_ITER_DEFAULT, FitModel, fit_series
from .lineshape import Transition

# Published values this pipeline is benchmarked against.
PAPER_DELTA_D_MHZ = 49.8831
PAPER_DELTA_D_REL = 9.5e-5
PAPER_KB = 1.38065e-23
PAPER_KB_SIGMA = 2.6e-27
PAPER_KB_REL = 1.9e-4
PAPER_TEMPERATURE_REL = 7e-5


class _UsageError(Exception):
    """A command line the parser refuses."""


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that raises ``_UsageError`` where the stock one
    prints its usage and exits, takes no abbreviated option, and reads
    ``-1e-3``, ``-inf`` and ``-nan`` as an option's value, as it reads ``-1.0``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


class _OutputFile(argparse.Action):
    """Stores an output file's path; a directory there is a data error naming
    the option, met before the command starts."""

    def __call__(self, parser, namespace, path, option_string=None):
        if Path(path).is_dir():
            raise DataError(f"{option_string}: {path} is a directory")
        setattr(namespace, self.dest, path)


def simulate(config_path, out_dir, seed):
    """Write a synthetic spectrum series (one file per pressure and replica)
    into a directory that holds no spectrum files yet."""
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise DataError(f"--out: {out} is not a directory")
    held = len(list(out.glob("spectrum_*.txt")))
    if held:  # a second campaign's files would mix with these under one manifest
        raise DataError(f"--out: {out} already holds {held} spectrum files")
    cfg = load_config(config_path)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    # Each spectrum is written as it is made, and let go.
    n = 0
    for n, (spectrum, _) in enumerate(cfg.synthesize(), 1):
        pi, replica = divmod(n - 1, cfg.replicas)
        write_spectrum(spectrum, out / f"spectrum_p{pi:02d}_r{replica:03d}.txt")
    write_manifest(out / "manifest.json", "simulate", cfg.to_dict(), cfg.seed)
    print(f"simulate: wrote {n} spectra to {out}")


def fit_command(spectra, out_path, model, max_iter):
    """Fit every spectrum file and write one record per spectrum, whether or
    not its fit converged."""
    if max_iter < 1:
        raise DataError(f"--max-iter: must be >= 1, got {max_iter}")
    paths = _collect_spectrum_paths(spectra)
    fit_model = FitModel.from_name(model)
    # Files are read as the fitter consumes them, a stack of up to one
    # workspace's slots at a time, and a spectrum is let go when its fit
    # ends: the stage holds at most 2 * slots + 1 spectra, however many files.
    results = fit_series((read_spectrum(path) for path in paths), fit_model,
                         max_iter=max_iter, source_ids=[path.name for path in paths])
    write_fit_records(results, out_path)
    write_manifest(Path(out_path).with_suffix(".manifest.json"), "fit",
                   {"spectra": [p.name for p in paths], "model": fit_model.value,
                    "max_iter": max_iter}, None)
    unconverged = {}  # the source ids of the fits that did not converge, by reason
    for r in results:
        if not r.converged:
            unconverged.setdefault(r.failure or "out of iterations", []).append(r.source_id)
    n_bad = sum(map(len, unconverged.values()))
    print(f"fit: {len(results)} spectra -> {out_path} ({n_bad} unconverged)")
    if n_bad:
        raise FitError(f"{n_bad} of {len(results)} fits did not converge: " + "; ".join(
            f"{reason} ({len(ids)}, first {ids[0]})" for reason, ids in unconverged.items()))


def series(fits_path, out_summary, out_table, threshold_slope):
    """Filter fitted spectra by baseline slope and extrapolate to zero pressure;
    fits that did not converge, failed ones included, are left out."""
    if threshold_slope is not None and not 0.0 < threshold_slope < math.inf:
        raise DataError(f"--threshold-slope: must be positive and finite, got {threshold_slope}")
    results = read_fit_records(fits_path)
    outcome, threshold, kept, rejected = extrapolate(results, threshold_slope)
    write_regression_summary(outcome, threshold, out_summary)
    write_width_table(kept, rejected, out_table)
    write_manifest(Path(out_summary).with_suffix(".manifest.json"), "series",
                   {"fits": str(fits_path), "threshold_slope_per_mhz": threshold}, None)
    print(
        f"series: delta_d = {outcome.delta_d_mhz:.6f} +/- {outcome.delta_d_sigma_mhz:.6f} MHz "
        f"(chi2_red {outcome.chi2_reduced:.3f}, used {outcome.n_used}, "
        f"rejected {outcome.n_rejected}, unconverged {outcome.n_unconverged} of which "
        f"{sum(1 for r in results if r.failure)} failed)"
    )


def kb(summary_path, config_path, out_path):
    """Convert an extrapolated width into k_B with its uncertainty budget."""
    summary = read_regression_summary(summary_path)
    cfg = CampaignConfig() if config_path is None else load_config(config_path)
    result = errors.refused_as(summary_path, cfg.budget, summary["delta_d_mhz"],
                               summary["delta_d_sigma_mhz"])
    _report(result, out_path, "kb", {"summary": str(summary_path), "config": cfg.to_dict()})


def budget(delta_d_mhz, temperature_k, temperature_sigma_k, delta_d_sigma_mhz,
           mass_sigma_rel, nu_sigma_rel, out_path=None):
    """Uncertainty budget for explicit width/temperature inputs (NH3 line)."""
    inputs = {name: value for name, value in locals().items() if name != "out_path"}
    # Each build adds one input to those already accepted, in the order of
    # the arguments, the rest at _nh3_budget's defaults: a refusal names the
    # option it added.
    accepted = {}
    for name, value in inputs.items():
        accepted[name] = value
        result = errors.refused_as("--" + name.replace("_", "-"), _nh3_budget, **accepted)
    _report(result, out_path, "budget", inputs)
    return result


def _nh3_budget(delta_d_mhz, temperature_k=constants.CELL_TEMPERATURE_K,
                temperature_sigma_k=0.0, delta_d_sigma_mhz=0.0, mass_sigma_rel=0.0,
                nu_sigma_rel=0.0):
    """The budget of the NH3 line; an uncertainty not given is zero, and the
    temperature is the cell's."""
    return uncertainty_budget(delta_d_mhz, delta_d_sigma_mhz, Transition.nh3(),
                              TemperatureReading(temperature_k, temperature_sigma_k),
                              mass_sigma_rel=mass_sigma_rel, nu_sigma_rel=nu_sigma_rel)


def reproduce_paper():
    """Recompute k_B from the published width and compare with the published value."""
    transition, t_k = Transition.nh3(), constants.CELL_TEMPERATURE_K
    print(f"inputs: delta_D = {PAPER_DELTA_D_MHZ} MHz ({PAPER_DELTA_D_REL:.1e}), "
          f"nu = {transition.nu0_mhz:.0f} MHz, T = {t_k} K "
          f"({PAPER_TEMPERATURE_REL:.0e}), m = {transition.mass_u:.7f} u")
    kb_value = budget(PAPER_DELTA_D_MHZ, t_k, PAPER_TEMPERATURE_REL * t_k,
                      PAPER_DELTA_D_REL * PAPER_DELTA_D_MHZ, constants.MASS_SIGMA_REL_DEFAULT,
                      constants.FREQUENCY_SIGMA_REL_DEFAULT).kb
    print(f"published: k_B = {PAPER_KB:.5e} +/- {PAPER_KB_SIGMA:.1e} J/K, "
          f"relative {PAPER_KB_REL:.1e}")
    print(f"agreement: computed/published - 1 = {kb_value / PAPER_KB - 1.0:+.2e} "
          f"({abs(kb_value - PAPER_KB) / PAPER_KB_SIGMA:.2f} published sigma)")


def _report(result, out_path, command, inputs):
    """Print the budget table of ``result``; with ``out_path``, write it there
    as a k_B record, with a manifest of ``command`` and its ``inputs``."""
    print(format_budget_table(result))
    if out_path:
        write_boltzmann_record(result, out_path)
        write_manifest(Path(out_path).with_suffix(".manifest.json"), command, inputs, None)


def _collect_spectrum_paths(args) -> list:
    paths = []
    for arg in args:
        p = Path(arg)
        if p.is_dir():
            paths.extend(sorted(p.glob("spectrum_*.txt")))
        else:
            paths.append(p)
    if not paths:
        raise DataError("no spectrum files found")
    first = {}  # a spectrum's file name is its source id, so two of one name are refused
    for path in paths:
        if first.setdefault(path.name, path) is not path:
            raise DataError(f"{first[path.name]} and {path}: two spectra named {path.name}")
    return paths


def _parser():
    """The parser of the command line and the parsers of its six commands,
    by name; each command is run by the function given to ``command``, with
    that function's docstring as its help."""
    parser = _Parser(prog="dopplerkb", description="Doppler-broadening thermometry toolkit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        return sub.add_argument

    arg = command("simulate", simulate)
    arg("--config", dest="config_path", required=True, help="Campaign configuration (JSON).")
    arg("--out", dest="out_dir", required=True, help="Output directory for spectrum files.")
    arg("--seed", type=int, help="Override the config seed.")

    arg = command("fit", fit_command)
    arg("spectra", nargs="+")
    arg("--out", dest="out_path", required=True, action=_OutputFile,
        help="Output fit-record stream (JSON lines).")
    arg("--model", choices=[m.value for m in FitModel], default=FitModel.EXP_GAUSSIAN.value,
        help="Fit model. [default: %(default)s]")
    arg("--max-iter", type=int, default=MAX_ITER_DEFAULT,
        help="Iteration budget per spectrum. [default: %(default)s]")

    arg = command("series", series)
    arg("--fits", dest="fits_path", required=True, help="Fit-record stream from the fit stage.")
    arg("--out-summary", required=True, action=_OutputFile)
    arg("--out-table", required=True, action=_OutputFile,
        help="Plot-ready (amplitude, width, sigma) table.")
    arg("--threshold-slope", type=float,
        help="Slope filter threshold per MHz (default: 3x median slope sigma).")

    arg = command("kb", kb)
    arg("--summary", dest="summary_path", required=True,
        help="Regression summary from the series stage.")
    arg("--config", dest="config_path", help="Campaign config for temperature/transition inputs.")
    arg("--out", dest="out_path", action=_OutputFile)

    arg = command("budget", budget)
    arg("--delta-d-mhz", type=float, required=True)
    arg("--delta-d-sigma-mhz", type=float, required=True)
    arg("--temperature-k", type=float, default=constants.CELL_TEMPERATURE_K,
        help="[default: %(default)s]")
    arg("--temperature-sigma-k", type=float, default=constants.CELL_TEMPERATURE_SIGMA_K,
        help="[default: %(default)s]")
    arg("--mass-sigma-rel", type=float, default=constants.MASS_SIGMA_REL_DEFAULT)
    arg("--nu-sigma-rel", type=float, default=constants.FREQUENCY_SIGMA_REL_DEFAULT)
    arg("--out", dest="out_path", action=_OutputFile)

    command("reproduce-paper", reproduce_paper)
    return parser, commands.choices


def _arguments(argv) -> dict:
    """``run`` and its keyword arguments, from the command line ``argv``.

    Arguments that the stock parse of a command leaves over are parsed again
    intermixed, so ``fit``'s spectra may come before, between and after its
    options, and an unrecognized argument is named before a missing
    required one."""
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0] if argv else "")
    if command is None:  # no command, an unknown one, or --help
        return vars(parser.parse_args(argv))
    try:
        arguments, extras = command.parse_known_args(argv[1:])  # --help, argparse's refusals
    except _UsageError:  # a missing argument is named once none is unrecognized
        for action in command._actions:
            action.required = False
        arguments, extras = command.parse_known_intermixed_args(argv[1:])
        if not extras:
            raise
    if extras:  # spectra after an option, or arguments that no option takes
        arguments, extras = command.parse_known_intermixed_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return vars(arguments)


# The stderr tag and exit code of a failure, by the first class it is an instance of.
_FAILURES = ((_UsageError, "usage", 1), (DataError, "data", 2), (FitError, "fit", 3),
             (Exception, "internal", 4))


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        kwargs = _arguments(argv)
        kwargs.pop("run")(**kwargs)
        return 0
    except SystemExit as exc:  # --help prints and exits 0
        return exc.code
    except Exception as exc:  # keep failures one-line and machine-parsable
        kind, code = next((kind, code) for cls, kind, code in _FAILURES if isinstance(exc, cls))
        sys.stdout.flush()  # what the stage printed comes before its error
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
