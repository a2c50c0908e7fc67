"""File formats: spectrum files, fit-result records, regression summaries,
uncertainty budgets and run manifests.

Everything is text.  Floats are written with 17 significant digits so a
write/read round trip is bit-exact.  All writes go through a temp file in
the target directory followed by an atomic rename.

Each record layout has one source that both its writer and its reader walk:
the spectrum header is the fields of ``SpectrumMeta`` (``_HEADER_FIELDS``),
and a fit record is the ordered key table ``_FIT_RECORD``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np

from . import constants
from .config import json_bool, json_integer, json_number, json_text
from .errors import DataError
from .extrapolation import ExtrapolationResult, WidthPoint
from .fitter import FitModel, FitResult
from .spectra import SCHEMA_VERSION, Spectrum, SpectrumMeta

SPECTRUM_MAGIC = "# dopplerkb-spectrum"

# Name and type of every SpectrumMeta field, in field order.
_HEADER_FIELDS = tuple(get_type_hints(SpectrumMeta).items())


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path, text: str) -> None:
    """Write whole-file atomically: temp file in the same directory, then rename."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_spectrum(spectrum: Spectrum, path) -> None:
    meta = spectrum.meta
    lines = [f"{SPECTRUM_MAGIC} v{SCHEMA_VERSION}"]
    for name, kind in _HEADER_FIELDS:
        value = getattr(meta, name)
        lines.append(f"# {name}: {_fmt(value) if kind is float else value}")
    lines.append("# columns: frequency_offset_mhz transmission")
    for f, t in zip(spectrum.freq_offset_mhz, spectrum.transmission):
        lines.append(f"{_fmt(f)} {_fmt(t)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_spectrum(path) -> Spectrum:
    """Parse a spectrum file; errors name the offending line."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or not lines[0].startswith(SPECTRUM_MAGIC):
        raise DataError(f"{path}: line 1: not a dopplerkb spectrum file")
    version = lines[0][len(SPECTRUM_MAGIC):].strip()
    if version != f"v{SCHEMA_VERSION}":
        raise DataError(f"{path}: line 1: unsupported schema version {version!r} "
                        f"(this reader takes v{SCHEMA_VERSION})")

    header: dict = {}
    freq: list = []
    trans: list = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                header[key.strip()] = (value.strip(), lineno)
            continue
        fields = line.split()
        if len(fields) != 2:
            raise DataError(f"{path}: line {lineno}: expected 2 columns, got {len(fields)}")
        try:
            f, t = float(fields[0]), float(fields[1])
        except ValueError:
            raise DataError(f"{path}: line {lineno}: non-numeric sample") from None
        if not (math.isfinite(f) and math.isfinite(t)):
            raise DataError(f"{path}: line {lineno}: non-finite sample")
        if freq and f <= freq[-1]:
            raise DataError(f"{path}: line {lineno}: frequency column not strictly increasing")
        freq.append(f)
        trans.append(t)

    kwargs = {}
    for name, kind in _HEADER_FIELDS:
        if name not in header:
            raise DataError(f"{path}: missing header field {name!r}")
        raw_value, lineno = header[name]
        try:
            kwargs[name] = kind(raw_value)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad value for {name!r}: "
                            f"{raw_value!r}") from None
    if len(freq) < 2:
        raise DataError(f"{path}: needs at least 2 data rows")

    meta = SpectrumMeta(**kwargs)
    try:
        return Spectrum(np.array(freq), np.array(trans), meta)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, FitModel):
        return obj.value
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _numbers(value) -> dict:
    """A JSON object of numbers, as a dict of floats."""
    if not isinstance(value, dict):
        raise TypeError("expected an object of numbers")
    out = {}
    for name, number in value.items():
        try:
            out[name] = json_number(number)
        except TypeError:
            raise TypeError(f"{name!r}: expected a number, got {number!r}") from None
    return out


# A fit record: each FitResult field, in file order, with the reader that
# checks its JSON type and rebuilds it.  A key missing from a record falls
# back to the field's default, and to an error for a field without one.
_FIT_RECORD = (
    ("source_id", json_text),
    ("model", FitModel.from_name),
    ("converged", json_bool),
    ("n_iter", json_integer),
    ("n_points", json_integer),
    ("chi2_reduced", json_number),
    ("param_names", tuple),
    ("params", _numbers),
    ("sigmas", _numbers),
    ("covariance", lambda value: np.array(value, dtype=float)),
    ("convergence_spec", dict),
)


def write_fit_records(results: Sequence[FitResult], path) -> None:
    """One JSON record per line: parameters, uncertainties, covariance,
    diagnostics and the convergence settings used."""
    lines = [json.dumps({key: getattr(r, key) for key, _ in _FIT_RECORD},
                        default=_json_default, allow_nan=False) for r in results]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_fit_records(path) -> list:
    results = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise DataError(f"{where}: bad fit record ({exc})") from None
        if not isinstance(rec, dict):
            raise DataError(f"{where}: bad fit record (expected a JSON object)")
        fields = {}
        for key, read in _FIT_RECORD:
            if key in rec:
                try:
                    fields[key] = read(rec[key])
                except (ValueError, TypeError, DataError) as exc:
                    raise DataError(f"{where}: bad value for {key!r} ({exc})") from None
        try:
            results.append(FitResult(**fields))
        except TypeError as exc:
            raise DataError(f"{where}: bad fit record ({exc})") from None
    if not results:
        raise DataError(f"{path}: no fit records found")
    return results


def write_regression_summary(result: ExtrapolationResult, threshold: Optional[float],
                             path) -> None:
    record = {
        "delta_d_mhz": result.delta_d_mhz,
        "delta_d_sigma_mhz": result.delta_d_sigma_mhz,
        "slope_mhz_per_amplitude": result.slope,
        "slope_sigma": result.slope_sigma,
        "chi2_reduced": result.chi2_reduced,
        "n_used": result.n_used,
        "n_rejected": result.n_rejected,
        "n_unconverged": result.n_unconverged,
        "inflation_applied": result.inflation_applied,
        "unweighted_delta_d_mhz": result.unweighted_delta_d_mhz,
        "slope_threshold_per_mhz": threshold,
    }
    atomic_write_text(path, json.dumps(record, indent=2, allow_nan=False) + "\n")


# The summary fields ``kb`` reads, with the values each accepts.
_SUMMARY_INPUTS = (("delta_d_mhz", "> 0", lambda x: 0 < x < math.inf),
                   ("delta_d_sigma_mhz", ">= 0", lambda x: 0 <= x < math.inf))


def read_regression_summary(path) -> dict:
    try:
        record = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: bad regression summary ({exc})") from None
    if not isinstance(record, dict):
        raise DataError(f"{path}: bad regression summary (expected a JSON object)")
    for key, bound, accepts in _SUMMARY_INPUTS:
        if key not in record:
            raise DataError(f"{path}: missing field {key!r}")
        try:
            accepted = accepts(json_number(record[key]))
        except TypeError:
            accepted = False
        if not accepted:
            raise DataError(f"{path}: field {key!r} must be a finite number {bound}, "
                            f"got {record[key]!r}")
    return record


def write_width_table(kept: Sequence[WidthPoint], rejected: Sequence[WidthPoint],
                      path) -> None:
    """Plot-ready table of (amplitude, width, sigma) points, one per spectrum."""
    lines = ["# columns: amplitude width_mhz width_sigma_mhz baseline_slope_per_mhz "
             "kept source_id"]
    for flag, points in ((1, kept), (0, rejected)):
        for p in points:
            lines.append(
                f"{_fmt(p.amplitude)} {_fmt(p.width_mhz)} {_fmt(p.width_sigma_mhz)} "
                f"{_fmt(p.baseline_slope)} {flag} {p.source_id}"
            )
    atomic_write_text(path, "\n".join(lines) + "\n")


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, default=_json_default)
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(path, command: str, config: dict, seed: Optional[int]) -> None:
    """Record everything needed to re-run a pipeline stage bit-identically."""
    from importlib.metadata import version as pkg_version

    from . import __version__

    manifest = {
        "command": command,
        "seed": seed,
        "config": config,
        "config_sha256": config_hash(config),
        "versions": {
            "dopplerkb": __version__,
            "numpy": np.__version__,
            "scipy": pkg_version("scipy"),
            "click": pkg_version("click"),
        },
        "constants": constants.as_dict(),
    }
    atomic_write_text(path, json.dumps(manifest, indent=2, default=_json_default,
                                       allow_nan=False) + "\n")


def write_boltzmann_record(result, path) -> None:
    record = {
        "kb_j_per_k": result.kb,
        "sigma_kb_j_per_k": result.sigma_kb,
        "combined_relative": result.combined_relative,
        "budget_relative": result.budget,
    }
    atomic_write_text(path, json.dumps(record, indent=2, allow_nan=False) + "\n")
