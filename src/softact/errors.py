"""Exception types shared across the package, and the one text-file
reader that maps undecodable bytes to them."""

from __future__ import annotations

from pathlib import Path


class ParseError(ValueError):
    """A text input (annotation CSV, embedding file, ...) is malformed.

    Messages include the 1-based line number when one is available.
    """


class FormatError(ValueError):
    """An input file (feature file, checkpoint, bundle or config JSON) has
    a bad magic, version, encoding or value, or a truncated payload."""


class TrainingDiverged(RuntimeError):
    """Training hit a non-finite value; the message names the epoch."""


def read_text(path: str | Path) -> str:
    """The file's text; bytes that are not UTF-8 are a FormatError naming
    the file (the CLI's exit code 2), not a bare UnicodeDecodeError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
