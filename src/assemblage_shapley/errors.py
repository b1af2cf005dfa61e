"""Exception types shared across the package, and the one boundary that
turns a malformed input file into an :class:`IngestError` naming it."""

import csv
import json
import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator, TextIO


class AssemblageError(Exception):
    """Base class for all errors raised by this package."""


class UniverseMismatchError(ValueError, AssemblageError):
    """Two owner sets from different owner universes were combined."""


class PlanError(AssemblageError):
    """A coalition plan is malformed or does not type-check against its inputs."""


class IngestError(AssemblageError):
    """A source file could not be parsed into a table."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}"
            if line is not None:
                loc += f":{line}"
            loc = f" [{loc}]"
        super().__init__(f"{message}{loc}")
        self.path = path
        self.line = line


class SynthesisLimitError(AssemblageError):
    """A coalition tuple accumulated more minimal syntheses than the configured cap.

    Downstream Shapley cost is exponential in synthesis counts, so blowing past
    the cap aborts loudly instead of degrading silently.
    """


class CostLimitError(AssemblageError):
    """An exact computation would exceed its configured enumeration budget."""


class UndefinedMetricError(AssemblageError):
    """A metric's denominator is zero, so the metric is undefined."""


#: What a decoder raises on a value of the wrong shape: a missing key, a
#: wrong type, a bad literal, a missing attribute or a zero denominator.
MALFORMED = (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError)


def decoded(path, what: str, fn: Callable, *args) -> Any:
    """``fn(*args)``, the decoding of the file ``path``; a :data:`MALFORMED`
    exception from it is an :class:`IngestError` that calls the file ``what``
    and names it."""
    try:
        return fn(*args)
    except MALFORMED as exc:
        message = f"malformed {what}: {type(exc).__name__}: {exc}"
        raise IngestError(message, path=str(path)) from None


@contextmanager
def utf8_text(path, what: str) -> Iterator[TextIO]:
    """The file ``path`` open to read as UTF-8 text, newlines untranslated.
    A byte that is not UTF-8, met while the file is read, raises an
    :class:`IngestError` that calls the file ``what`` and names it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        message = f"{what} is not UTF-8 text: cannot decode byte {bad:#04x}: {exc.reason}"
        raise IngestError(message, path=str(path)) from None


@contextmanager
def csv_records(path, what: str) -> Iterator[Iterator[list[str]]]:
    """A ``csv.reader`` over the file ``path``, open as in :func:`utf8_text`.
    Inside, the ``csv`` module refuses no field for its length, since none is
    longer than the file; its field limit is as before once this exits. A
    ``csv.Error`` while reading is an :class:`IngestError` that calls the file
    ``what`` and names it and the line the reader had reached."""
    limit = csv.field_size_limit()
    try:
        with utf8_text(path, what) as fh:
            csv.field_size_limit(max(limit, os.fstat(fh.fileno()).st_size))
            reader = csv.reader(fh)
            try:
                yield reader
            except csv.Error as exc:
                raise IngestError(
                    f"malformed {what}: {exc}", path=str(path), line=reader.line_num
                ) from None
    finally:
        csv.field_size_limit(limit)


def read_json(path, what: str, decode: Callable[[Any], Any] | None = None) -> Any:
    """The JSON value in the file ``path``, passed through ``decode`` if given.
    Text that is not UTF-8 or not JSON, or a value ``decode`` finds malformed,
    raises an :class:`IngestError` that calls the file ``what`` and names it."""
    with utf8_text(path, what) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise IngestError(f"{what} is not JSON: {exc}", path=str(path)) from None
    return data if decode is None else decoded(path, what, decode, data)
