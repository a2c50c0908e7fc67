"""Exception hierarchy shared across the toolkit, the two text-file reads,
whole or line by line, that turn an unreadable or undecodable file into a
``DataError``, and the one rule that names the source of a refused value.

The objects the pipeline builds (a spectrum, a transition, a width point,
a budget) refuse a bad value with a ``ValueError`` that names the value but
not where it came from.  Where a file, a config field or an option gave it,
``refused_as(name, build, ...)`` makes the build, and its ``ValueError`` or
``DataError`` becomes ``DataError(f"{name}: {exc}")``; any other exception
passes through as it was raised.

The CLI maps these onto exit codes: usage errors exit 1, ``DataError`` exits
2, ``FitError`` exits 3.  A fit that fails (a degenerate normal matrix, or a
start refused by the samples) is not raised: it comes back as that
spectrum's result, with the reason in ``FitResult.failure``, and ``fit``
raises one ``FitError`` for all the fits that did not converge, after it
has written every record.
"""

from pathlib import Path


class DopplerKBError(Exception):
    """Base class for all toolkit errors."""


class DataError(DopplerKBError):
    """Malformed files, invalid configuration, or unusable input data."""


class FitError(DopplerKBError):
    """Fits that did not converge, reported once their records are written,
    or a fault of the fitter's own linear algebra."""


def refused_as(name, build, /, *args, **kwargs):
    """``build(*args, **kwargs)``; a ``ValueError`` or ``DataError`` it
    raises is raised as a ``DataError`` naming ``name``, its source."""
    try:
        return build(*args, **kwargs)
    except (ValueError, DataError) as exc:
        raise DataError(f"{name}: {exc}") from None


def read_text(path) -> str:
    """The text of the file ``path``; one that cannot be read (missing, a
    directory, no permission) or is not UTF-8 is a ``DataError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (UnicodeDecodeError, OSError) as exc:
        raise _unreadable(path, exc) from None


def read_lines(path):
    """The lines of the file ``path``, one at a time as they are read: split
    at each line feed, each without its LF or CR LF end.  Refused as by
    ``read_text``, and a bad byte is named by its offset in the file."""
    offset = 0  # of the line being decoded
    try:
        with open(path, "rb") as fh:
            for raw in fh:
                yield raw.decode("utf-8").rstrip("\r\n")
                offset += len(raw)
    except (UnicodeDecodeError, OSError) as exc:
        raise _unreadable(path, exc, offset) from None


def _unreadable(path, exc, offset=0) -> DataError:
    """The ``DataError`` for ``exc``, raised reading ``path``, whose decoded
    bytes began at ``offset`` in the file."""
    if isinstance(exc, UnicodeDecodeError):
        return DataError(f"{path}: not a UTF-8 text file (byte {offset + exc.start}: "
                         f"{exc.reason})")
    return DataError(f"{path}: cannot read ({exc.strerror})")
