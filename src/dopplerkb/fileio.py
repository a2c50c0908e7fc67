"""File formats: spectrum files, fit-result records, regression summaries,
uncertainty budgets and run manifests.

Everything is text.  Floats are written with 17 significant digits so a
write/read round trip is bit-exact.  All writes go through a temp file in
the target directory followed by an atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import constants
from .errors import DataError
from .extrapolation import ExtrapolationResult, WidthPoint
from .fitter import FitModel, FitResult
from .spectra import SCHEMA_VERSION, Spectrum, SpectrumMeta

SPECTRUM_MAGIC = "# dopplerkb-spectrum"

_HEADER_FIELDS = (
    ("transition_label", str),
    ("nu0_mhz", float),
    ("temperature_k", float),
    ("temperature_sigma_k", float),
    ("pressure_pa", float),
    ("cell_length_m", float),
    ("span_mhz", float),
    ("step_mhz", float),
    ("time_constant_ms", float),
    ("snr", float),
    ("seed", int),
)


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
    lines = [f"{SPECTRUM_MAGIC} v{meta.schema_version}"]
    for name, kind in _HEADER_FIELDS:
        value = getattr(meta, name)
        lines.append(f"# {name}: {_fmt(value) if kind is float else value}")
    lines.append("# columns: frequency_offset_mhz transmission")
    for f, t in zip(spectrum.freq_offset_mhz, spectrum.transmission):
        lines.append(f"{_fmt(f)} {_fmt(t)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_header_value(name: str, kind, raw: str, path, lineno: int):
    if kind is str:
        return raw
    try:
        return kind(raw) if kind is not float else float(raw)
    except ValueError:
        raise DataError(f"{path}: line {lineno}: bad value for {name!r}: {raw!r}") from None


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
        kwargs[name] = _parse_header_value(name, kind, raw_value, path, lineno)
    if len(freq) < 2:
        raise DataError(f"{path}: needs at least 2 data rows")

    meta = SpectrumMeta(schema_version=SCHEMA_VERSION, **kwargs)
    try:
        return Spectrum(np.array(freq), np.array(trans), meta)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def write_fit_records(results: Sequence[FitResult], path) -> None:
    """One JSON record per line: parameters, uncertainties, covariance,
    diagnostics and the convergence settings used."""
    lines = []
    for r in results:
        lines.append(json.dumps({
            "source_id": r.source_id,
            "model": r.model.value,
            "converged": r.converged,
            "n_iter": r.n_iter,
            "n_points": r.n_points,
            "chi2_reduced": r.chi2_reduced,
            "param_names": list(r.param_names),
            "params": r.params,
            "sigmas": r.sigmas,
            "covariance": r.covariance.tolist(),
            "convergence_spec": r.convergence_spec,
        }, default=_json_default, allow_nan=False))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_fit_records(path) -> list:
    results = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            results.append(FitResult(
                model=FitModel.from_name(rec["model"]),
                params=rec["params"],
                sigmas=rec["sigmas"],
                covariance=np.array(rec["covariance"], dtype=float),
                param_names=tuple(rec["param_names"]),
                chi2_reduced=float(rec["chi2_reduced"]),
                n_iter=int(rec["n_iter"]),
                converged=bool(rec["converged"]),
                n_points=int(rec["n_points"]),
                source_id=rec.get("source_id", ""),
                convergence_spec=rec.get("convergence_spec", {}),
            ))
        except (KeyError, ValueError, TypeError) as exc:
            raise DataError(f"{path}: line {lineno}: bad fit record ({exc})") from None
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


def read_regression_summary(path) -> dict:
    try:
        record = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: bad regression summary ({exc})") from None
    for key in ("delta_d_mhz", "delta_d_sigma_mhz"):
        if key not in record:
            raise DataError(f"{path}: missing field {key!r}")
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
