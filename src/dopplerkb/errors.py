"""Exception hierarchy shared across the toolkit, and the one text-file read
that turns an unreadable or undecodable file into a ``DataError``.

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


def read_text(path) -> str:
    """The text of the file ``path``; one that cannot be read (missing, a
    directory, no permission) or is not UTF-8 is a ``DataError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 text file (byte {exc.start}: "
                        f"{exc.reason})") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from None
