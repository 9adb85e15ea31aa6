"""Exception types shared across the package, the one text-file reader
that maps undecodable bytes to them, and the CSV record reader that maps
the csv module's errors to them."""

from __future__ import annotations

import csv
import io
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


def csv_records(text: str):
    """Yield (line number, row) for each record of CSV text, the line
    number being that of the record's last line; a malformed record (say,
    a field over the csv module's size limit) is a ParseError naming its
    line, not a bare csv.Error."""
    reader = csv.reader(io.StringIO(text))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
