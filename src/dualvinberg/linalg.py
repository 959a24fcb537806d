"""Closed-form helpers for 3x3 matrices.

Determinants and inverses go through explicit cofactors rather than LU:
the formulas are dtype-generic (real or complex) and keep exact zeros and
small-integer arithmetic exact, which the reference values in the test
suite rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularityError

SINGULAR_TOL = 1e-12


def maxabs(m) -> float:
    """Largest entry magnitude; the scale used by all relative tolerances."""
    return float(np.max(np.abs(m)))


def det3(m: np.ndarray):
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def adjugate3(m: np.ndarray) -> np.ndarray:
    """Transposed cofactor matrix, so that m @ adjugate3(m) = det3(m) * I."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return np.array(
        [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
    )


def _singular(m, d) -> bool:
    # a NaN determinant and an overflowed float64 bound both count as singular
    return not abs(d) > SINGULAR_TOL * (1.0 + np.float64(maxabs(m)) ** 3)


def is_singular3(m) -> bool:
    """The package's one singularity rule for 3x3 matrices: |det m| <=
    1e-12 * (1 + maxabs(m)**3), a NaN determinant, or an overflowed bound."""
    return _singular(m, det3(m))


def inv3(m: np.ndarray) -> np.ndarray:
    """Inverse via adjugate over determinant; SingularityError when
    is_singular3(m)."""
    d = det3(m)
    if _singular(m, d):
        raise SingularityError("matrix is singular to working precision")
    return adjugate3(m) / d
