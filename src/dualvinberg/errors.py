"""Exception types shared across the package, and the row check of
stacked evaluations.  A stacked evaluation raises at its first failing
check; where a loop of one-row calls would raise for a lower row, the
caller reruns the rows as that loop, which decides the error."""

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


def check_rows(mask, error) -> None:
    """Raise error(row) for the first failing row of mask: a bool for one
    row, a mask for a stack."""
    if not isinstance(mask, np.ndarray):  # a bool, tested by type: np.ndim costs more
        if mask:
            raise error(0)
    elif mask.any():
        raise error(np.flatnonzero(mask)[0])
