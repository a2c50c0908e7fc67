"""Command-line pipeline: simulate -> fit -> series -> kb, plus a standalone
budget calculator and a reproduction of the published determination.

Stages talk to each other through files only, and each reads its input,
makes one library call and writes its output: ``CampaignConfig.synthesize``,
``fit_series``, ``extrapolate`` and ``CampaignConfig.budget``.  Every
file-writing run also writes a manifest (config hash, seed, dopplerkb and
numpy versions, constants snapshot) sufficient to reproduce it
bit-identically.

Exit codes: 0 success, 1 usage error, 2 data error (a bad file, config value
or option value), 3 a fit that did not converge (its record is written),
4 internal error.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import click

from . import constants
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


@click.group()
def cli():
    """Doppler-broadening thermometry toolkit."""


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Campaign configuration (JSON).")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True,
              help="Output directory for spectrum files.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
def simulate(config_path, out_dir, seed):
    """Write a synthetic spectrum series (one file per pressure and replica)
    into a directory that holds no spectrum files yet."""
    out = Path(out_dir)
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
    click.echo(f"simulate: wrote {n} spectra to {out}")


@cli.command("fit")
@click.argument("spectra", nargs=-1, type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True,
              help="Output fit-record stream (JSON lines).")
@click.option("--model", type=click.Choice([m.value for m in FitModel]),
              default=FitModel.EXP_GAUSSIAN.value, show_default=True, help="Fit model.")
@click.option("--max-iter", type=int, default=MAX_ITER_DEFAULT, show_default=True,
              help="Iteration budget per spectrum.")
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
    click.echo(f"fit: {len(results)} spectra -> {out_path} ({n_bad} unconverged)")
    if n_bad:
        raise FitError(f"{n_bad} of {len(results)} fits did not converge: " + "; ".join(
            f"{reason} ({len(ids)}, first {ids[0]})" for reason, ids in unconverged.items()))


@cli.command()
@click.option("--fits", "fits_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Fit-record stream from the fit stage.")
@click.option("--out-summary", type=click.Path(dir_okay=False), required=True)
@click.option("--out-table", type=click.Path(dir_okay=False), required=True,
              help="Plot-ready (amplitude, width, sigma) table.")
@click.option("--threshold-slope", type=float, default=None,
              help="Slope filter threshold per MHz (default: 3x median slope sigma).")
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
    click.echo(
        f"series: delta_d = {outcome.delta_d_mhz:.6f} +/- {outcome.delta_d_sigma_mhz:.6f} MHz "
        f"(chi2_red {outcome.chi2_reduced:.3f}, used {outcome.n_used}, "
        f"rejected {outcome.n_rejected}, unconverged {outcome.n_unconverged} of which "
        f"{sum(1 for r in results if r.failure)} failed)"
    )


@cli.command()
@click.option("--summary", "summary_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Regression summary from the series stage.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Campaign config for temperature/transition inputs.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def kb(summary_path, config_path, out_path):
    """Convert an extrapolated width into k_B with its uncertainty budget."""
    summary = read_regression_summary(summary_path)
    cfg = load_config(config_path) if config_path else CampaignConfig()
    result = _refused_as(summary_path, cfg.budget, summary["delta_d_mhz"],
                         summary["delta_d_sigma_mhz"])
    click.echo(format_budget_table(result))
    if out_path:
        write_boltzmann_record(result, out_path)
        write_manifest(Path(out_path).with_suffix(".manifest.json"), "kb",
                       {"summary": str(summary_path), "config": cfg.to_dict()}, None)


@cli.command()
@click.option("--delta-d-mhz", type=float, required=True)
@click.option("--delta-d-sigma-mhz", type=float, required=True)
@click.option("--temperature-k", type=float, default=constants.CELL_TEMPERATURE_K,
              show_default=True)
@click.option("--temperature-sigma-k", type=float,
              default=constants.CELL_TEMPERATURE_SIGMA_K, show_default=True)
@click.option("--mass-sigma-rel", type=float, default=constants.MASS_SIGMA_REL_DEFAULT)
@click.option("--nu-sigma-rel", type=float, default=constants.FREQUENCY_SIGMA_REL_DEFAULT)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def budget(delta_d_mhz, delta_d_sigma_mhz, temperature_k, temperature_sigma_k,
           mass_sigma_rel, nu_sigma_rel, out_path):
    """Uncertainty budget for explicit width/temperature inputs (NH3 line)."""
    # Each build adds one option to those already accepted, the width first
    # at the default temperature: a refusal names the option it added.
    def terms(t, t_sigma=0.0, width_sigma=0.0, mass=0.0, nu=0.0):
        return uncertainty_budget(delta_d_mhz, width_sigma, Transition.nh3(),
                                  TemperatureReading(t, t_sigma),
                                  mass_sigma_rel=mass, nu_sigma_rel=nu)

    _refused_as("--delta-d-mhz", terms, constants.CELL_TEMPERATURE_K)
    _refused_as("--temperature-k", terms, temperature_k)
    reading = (temperature_k, temperature_sigma_k)
    _refused_as("--temperature-sigma-k", terms, *reading)
    _refused_as("--delta-d-sigma-mhz", terms, *reading, delta_d_sigma_mhz)
    _refused_as("--mass-sigma-rel", terms, *reading, delta_d_sigma_mhz, mass_sigma_rel)
    result = _refused_as("--nu-sigma-rel", terms, *reading, delta_d_sigma_mhz, mass_sigma_rel,
                         nu_sigma_rel)
    click.echo(format_budget_table(result))
    if out_path:
        write_boltzmann_record(result, out_path)
        write_manifest(Path(out_path).with_suffix(".manifest.json"), "budget",
                       {"delta_d_mhz": delta_d_mhz,
                        "delta_d_sigma_mhz": delta_d_sigma_mhz}, None)


@cli.command("reproduce-paper")
def reproduce_paper():
    """Recompute k_B from the published width and compare with the published value."""
    transition = Transition.nh3()
    temperature = TemperatureReading(constants.CELL_TEMPERATURE_K,
                                     PAPER_TEMPERATURE_REL * constants.CELL_TEMPERATURE_K)
    result = uncertainty_budget(
        PAPER_DELTA_D_MHZ, PAPER_DELTA_D_REL * PAPER_DELTA_D_MHZ,
        transition, temperature,
    )
    kb_value = result.kb
    rel_diff = kb_value / PAPER_KB - 1.0
    click.echo(f"inputs: delta_D = {PAPER_DELTA_D_MHZ} MHz ({PAPER_DELTA_D_REL:.1e}), "
               f"nu = {transition.nu0_mhz:.0f} MHz, T = {temperature.value_k} K "
               f"({PAPER_TEMPERATURE_REL:.0e}), m = {transition.mass_u:.7f} u")
    click.echo(format_budget_table(result))
    click.echo(f"published: k_B = {PAPER_KB:.5e} +/- {PAPER_KB_SIGMA:.1e} J/K, "
               f"relative {PAPER_KB_REL:.1e}")
    click.echo(f"agreement: computed/published - 1 = {rel_diff:+.2e} "
               f"({abs(kb_value - PAPER_KB) / PAPER_KB_SIGMA:.2f} published sigma)")


def _refused_as(option, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ``ValueError`` is a data error naming ``option``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise DataError(f"{option}: {exc}") from None


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


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:  # --help and friends
        return int(exc.exit_code)
    except click.ClickException as exc:
        print(f"error: usage: {exc.format_message()}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"error: fit: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # keep failures one-line and machine-parsable
        print(f"error: internal: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
