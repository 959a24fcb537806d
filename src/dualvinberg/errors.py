"""Exception types shared across the package, and the deferred failures
of stacked evaluations."""

from __future__ import annotations

import numpy as np


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """A matrix that must be invertible is singular to working precision."""


class PatternError(RuntimeError):
    """A computed matrix left its structural zero pattern beyond round-off."""


class ConvergenceError(RuntimeError):
    """A numerical route failed the certificate that backs its answer."""


class InconsistencyError(RuntimeError):
    """Two independently computed routes to the same fact disagree."""


class RowFailures:
    """The failed checks of a stacked evaluation, kept in the order a loop
    of one-row calls runs them.  Rows that fail a check carry garbage into
    the later ones; raise_first raises what that loop raises first: for
    the lowest failing row, the error of its first failing check."""

    def __init__(self):
        self._checks = []

    def add(self, mask, error) -> None:
        """error(row) builds the exception of a failing row."""
        self._checks.append((np.reshape(mask, -1), error))

    def raise_first(self) -> None:
        rows = [hits[0] for mask, _ in self._checks if (hits := np.flatnonzero(mask)).size]
        if rows:
            row = min(rows)
            for mask, error in self._checks:
                if mask[row]:
                    raise error(row)


def check_rows(failures: RowFailures | None, mask, error) -> None:
    """Defer a check's failing rows to failures, or, with failures None,
    raise error(row) for its first failing row now."""
    if failures is not None:
        failures.add(mask, error)
    elif not isinstance(mask, np.ndarray):  # a bool, tested by type: np.ndim costs more
        if mask:
            raise error(0)
    elif mask.any():
        raise error(np.flatnonzero(mask)[0])
