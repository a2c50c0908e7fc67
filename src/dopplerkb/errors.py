"""Exception hierarchy shared across the toolkit, and the one text-file read
that turns an unreadable or undecodable file into a ``DataError``.

The CLI maps these onto exit codes: usage errors exit 1, ``DataError`` exits
2, ``FitError`` (degenerate or unconverged fits) exits 3.
"""

from pathlib import Path


class DopplerKBError(Exception):
    """Base class for all toolkit errors."""


class DataError(DopplerKBError):
    """Malformed files, invalid configuration, or unusable input data."""


class FitError(DopplerKBError):
    """Degenerate or non-converged least-squares problems."""


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
