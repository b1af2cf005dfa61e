"""Exception types shared across the package, and the JSON file reader
that reports malformed input with them."""

import json
from typing import Any


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


def read_json(path, what: str) -> Any:
    """The JSON value in the file ``path``; text that is not JSON raises an
    :class:`IngestError` that calls the file ``what`` and names it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise IngestError(f"{what} is not JSON: {exc}", path=str(path)) from None
