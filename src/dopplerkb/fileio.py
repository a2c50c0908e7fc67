"""File formats: spectrum files, fit-result records, regression summaries,
uncertainty budgets and run manifests.

Everything is UTF-8 text, whatever the locale.  Floats are written with 17
significant digits so a write/read round trip is bit-exact.  All writes go
through a temp file in the target directory followed by an atomic rename;
fit records are written into it one line at a time, as each is formed, and
read back one line at a time, so a campaign's records are never held as one
text.
A spectrum body is written by one format call and read as one array of
Python-``float`` parsed fields; the lines are walked row by row only to
name the first bad sample.

Each record layout has one source that both its writer and its reader walk:
the spectrum header is the fields of ``SpectrumMeta`` (``_HEADER_FIELDS``),
a fit record is the ordered key table ``_FIT_RECORD`` of ``FitResult``'s
fields, and a regression summary is the fields of ``ExtrapolationResult``
followed by the slope threshold used.

Fit records, regression summaries and k_B records begin with the key
``schema``, the version of their layout (``STAGE_SCHEMA``).  A file written
before that key existed is version 1; a reader refuses any other version.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np

from . import constants
from .config import json_bool, json_integer, json_number, json_text
from .errors import DataError, read_lines, read_text, refused_as
from .extrapolation import ExtrapolationResult, WidthPoint
from .fitter import FitModel, FitResult
from .spectra import SCHEMA_VERSION, Spectrum, SpectrumMeta

SPECTRUM_MAGIC = "# dopplerkb-spectrum"
_COLUMNS = "frequency_offset_mhz transmission"
# v1 also held span, step and time-constant lines, ignored like other keys.
_READABLE_VERSIONS = ("v1", f"v{SCHEMA_VERSION}")

# The type of every SpectrumMeta field, by name, in field order.
_HEADER_FIELDS = get_type_hints(SpectrumMeta)

# Version 2 added "failure" to fit records; version 1 has no "schema" key.
STAGE_SCHEMA = 2
_READABLE_SCHEMAS = (1, STAGE_SCHEMA)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@contextmanager
def _atomic_text_file(path):
    """A text file to write ``path`` through: a temp file in the same
    directory, renamed onto ``path`` when the block ends and removed if it
    raises."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write whole-file atomically: temp file in the same directory, then rename."""
    with _atomic_text_file(path) as fh:
        fh.write(text)


def write_spectrum(spectrum: Spectrum, path) -> None:
    meta = spectrum.meta
    lines = [f"{SPECTRUM_MAGIC} v{SCHEMA_VERSION}"]
    for name, kind in _HEADER_FIELDS.items():
        value = getattr(meta, name)
        lines.append(f"# {name}: {_fmt(value) if kind is float else value}")
    lines.append(f"# columns: {_COLUMNS}")
    samples = np.column_stack((spectrum.freq_offset_mhz, spectrum.transmission))
    body = "%.17g %.17g\n" * spectrum.n_points % tuple(samples.ravel().tolist())
    atomic_write_text(path, "\n".join(lines) + "\n" + body)


def read_spectrum(path) -> Spectrum:
    """Parse a spectrum file; errors name the first offending line in file
    order (or both lines of a header field given twice).  Line 1 is the magic,
    whitespace and a readable version; a ``# columns:`` line must name the
    writer's columns."""
    lines = read_text(path).splitlines()
    after = lines[0][len(SPECTRUM_MAGIC):] if lines else ""
    if not lines or not lines[0].startswith(SPECTRUM_MAGIC) or after[:1].strip():
        raise DataError(f"{path}: line 1: not a dopplerkb spectrum file")
    version = after.strip()
    if version not in _READABLE_VERSIONS:
        raise DataError(f"{path}: line 1: unsupported schema version {version!r} "
                        f"(this reader takes {' and '.join(_READABLE_VERSIONS)})")

    # One pass gathers the header and the row fields; it stops at the first
    # line whose fault needs no number parsed (``fault``).
    header: dict = {}
    tokens: list = []
    fault = None
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = raw.split()
        if not fields:
            continue
        if fields[0][0] != "#":
            if len(fields) != 2:
                fault = DataError(f"{path}: line {lineno}: expected 2 columns, got {len(fields)}")
                break
            tokens += fields
            continue
        key, colon, value = raw.strip().lstrip("#").partition(":")
        key = key.strip()
        if colon and key == "columns" and value.split() != _COLUMNS.split():
            fault = DataError(f"{path}: line {lineno}: columns {value.strip()!r}, "
                              f"expected {_COLUMNS!r}")
            break
        if colon and key in _HEADER_FIELDS:
            if key in header:
                fault = DataError(f"{path}: lines {header[key][1]} and {lineno}: header "
                                  f"field {key!r} given twice")
                break
            header[key] = (value.strip(), lineno)

    # The rows before the fault parse as one array; a bad sample among them
    # comes first in the file, and only then are the lines walked to name it.
    try:
        samples = np.array(tokens, dtype=float).reshape(-1, 2)
        sound = np.isfinite(samples).all() and (np.diff(samples[:, 0]) > 0).all()
    except ValueError:
        sound = False
    if not sound:
        raise _first_bad_sample(path, lines)
    if fault is not None:
        raise fault

    kwargs = {}
    for name, kind in _HEADER_FIELDS.items():
        if name not in header:
            raise DataError(f"{path}: missing header field {name!r}")
        raw_value, lineno = header[name]
        try:
            kwargs[name] = kind(raw_value)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad value for {name!r}: "
                            f"{raw_value!r}") from None
    if len(samples) < 2:
        raise DataError(f"{path}: needs at least 2 data rows")

    freq, trans = samples.T.copy()
    return refused_as(path, lambda: Spectrum(freq, trans, SpectrumMeta(**kwargs)))


def _first_bad_sample(path, lines) -> DataError:
    """The error naming the first data row of the spectrum file ``lines``
    that is non-numeric, non-finite or not above the row before.
    ``read_spectrum`` calls it only when such a row comes before any row of
    another field count, so every row it reaches has two fields."""
    previous = -math.inf
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        try:
            f, t = float(fields[0]), float(fields[1])
        except ValueError:
            return DataError(f"{path}: line {lineno}: non-numeric sample")
        if not (math.isfinite(f) and math.isfinite(t)):
            return DataError(f"{path}: line {lineno}: non-finite sample")
        if f <= previous:
            return DataError(f"{path}: line {lineno}: frequency column not strictly increasing")
        previous = f
    raise AssertionError("the array check found a bad sample that the row walk did not")


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
        except (TypeError, ValueError):
            raise TypeError(f"{name!r}: expected a finite number, got {number!r}") from None
    return out


def _square_matrix(value) -> np.ndarray:
    """A JSON list of n lists of n numbers, as an (n, n) array."""
    if not isinstance(value, list) or not all(
            isinstance(row, list) and len(row) == len(value) for row in value):
        raise TypeError("expected a square list of lists of numbers")
    size = len(value)
    return np.array([[json_number(x) for x in row] for row in value]).reshape(size, size)


# A fit record: each FitResult field, in file order, with the reader that
# checks its JSON type and rebuilds it.  A key missing from a record falls
# back to the field's default, and to an error for a field without one; a
# key outside the table is ignored.
_FIT_RECORD = (
    ("source_id", json_text),
    ("model", FitModel.from_name),
    ("converged", json_bool),
    ("n_iter", json_integer),
    ("n_points", json_integer),
    ("chi2_reduced", json_number),
    ("params", _numbers),
    ("covariance", _square_matrix),
    ("failure", json_text),
)


def _json_object(text: str, where, what: str) -> dict:
    """The stage record ``what`` in the JSON ``text`` found at ``where``;
    text that is not a JSON object, or a record of a schema version this
    reader cannot take, is refused naming ``where``."""
    try:
        record = json.loads(text)
    except ValueError as exc:
        raise DataError(f"{where}: bad {what} ({exc})") from None
    if not isinstance(record, dict):
        raise DataError(f"{where}: bad {what} (expected a JSON object)")
    version = record.get("schema", 1)
    if type(version) is not int or version not in _READABLE_SCHEMAS:
        raise DataError(f"{where}: unsupported schema version {version!r} "
                        f"(this reader takes {' and '.join(map(str, _READABLE_SCHEMAS))})")
    return record


def write_fit_records(results: Sequence[FitResult], path) -> None:
    """One JSON record per line: parameters, covariance and diagnostics.
    Each line is written as it is formed, so the write holds one record's
    text at a time; a record that cannot be written leaves ``path`` as it
    was."""
    with _atomic_text_file(path) as fh:
        for r in results:
            fh.write(json.dumps({"schema": STAGE_SCHEMA}
                                | {key: getattr(r, key) for key, _ in _FIT_RECORD},
                                default=_json_default, allow_nan=False) + "\n")


def read_fit_records(path) -> list:
    """The fit records of ``path``, in file order, read one line at a time,
    so the read holds one record's text; the results are all held.  A
    record is refused, naming its line, for a bad value, an unknown schema
    version, or a source id that an earlier record holds (naming both
    lines)."""
    results = []
    first_line = {}  # of each source id
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        rec = _json_object(line, where, "fit record")
        fields = {}
        for key, read in _FIT_RECORD:
            if key in rec:
                try:
                    fields[key] = read(rec[key])
                except (ValueError, TypeError, DataError) as exc:
                    raise DataError(f"{where}: bad value for {key!r} ({exc})") from None
        model = fields.get("model")
        if model is not None:
            names = model.param_names
            if "params" in fields and set(fields["params"]) != set(names):
                raise DataError(f"{where}: bad value for 'params' (expected the "
                                f"{model.value} parameters {', '.join(names)})")
            if "covariance" in fields and fields["covariance"].shape != (len(names),) * 2:
                raise DataError(f"{where}: bad value for 'covariance' (expected {len(names)} "
                                f"x {len(names)}, one row per {model.value} parameter)")
        try:
            results.append(FitResult(**fields))
        except TypeError as exc:
            raise DataError(f"{where}: bad fit record ({exc})") from None
        source_id = results[-1].source_id
        if source_id and first_line.setdefault(source_id, lineno) != lineno:
            raise DataError(f"{path}: lines {first_line[source_id]} and {lineno}: source id "
                            f"{source_id!r} given twice")
    if not results:
        raise DataError(f"{path}: no fit records found")
    return results


def write_regression_summary(result: ExtrapolationResult, threshold: Optional[float],
                             path) -> None:
    record = ({"schema": STAGE_SCHEMA} | dataclasses.asdict(result)
              | {"slope_threshold_per_mhz": threshold})
    atomic_write_text(path, json.dumps(record, indent=2, allow_nan=False) + "\n")


# The summary fields ``kb`` reads, with the values each accepts.
_SUMMARY_INPUTS = (("delta_d_mhz", "> 0", lambda x: 0 < x < math.inf),
                   ("delta_d_sigma_mhz", ">= 0", lambda x: 0 <= x < math.inf))


def read_regression_summary(path) -> dict:
    record = _json_object(read_text(path), path, "regression summary")
    for key, bound, accepts in _SUMMARY_INPUTS:
        if key not in record:
            raise DataError(f"{path}: missing field {key!r}")
        try:
            accepted = accepts(json_number(record[key]))
        except (TypeError, ValueError):
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
    # hashlib maps OpenSSL (about 3.6 MB): only a process writing a manifest
    # pays for it
    import hashlib

    canonical = json.dumps(config, sort_keys=True, default=_json_default)
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(path, command: str, config: dict, seed: Optional[int]) -> None:
    """Record everything needed to re-run a pipeline stage bit-identically
    with the same numpy build on the same BLAS kernel, which the manifest
    does not name: other OpenBLAS kernels change the bits (ROADMAP.md,
    direction 21).

    ``versions`` names dopplerkb and numpy, the two packages whose code
    makes the bits; the standard library's argparse parses the command line."""
    from . import __version__

    manifest = {
        "command": command,
        "seed": seed,
        "config": config,
        "config_sha256": config_hash(config),
        "versions": {"dopplerkb": __version__, "numpy": np.__version__},
        "constants": constants.as_dict(),
    }
    atomic_write_text(path, json.dumps(manifest, indent=2, default=_json_default,
                                       allow_nan=False) + "\n")


def write_boltzmann_record(result, path) -> None:
    record = {
        "schema": STAGE_SCHEMA,
        "kb_j_per_k": result.kb,
        "sigma_kb_j_per_k": result.sigma_kb,
        "combined_relative": result.combined_relative,
        "budget_relative": result.budget,
    }
    atomic_write_text(path, json.dumps(record, indent=2, allow_nan=False) + "\n")
