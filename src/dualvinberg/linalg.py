"""Closed-form helpers for 3x3 matrices.

Determinants and inverses go through explicit cofactors rather than LU:
the formulas are dtype-generic (real or complex) and keep exact zeros and
small-integer arithmetic exact, which the reference values in the test
suite rely on.  The same formulas run on stacks (..., 3, 3) through
inv3_stack, entry for entry as on one matrix, so a stacked evaluation
agrees with a loop of single ones to the bit.  semidefinite3 decides
semidefiniteness by LDL^T elimination, likewise on one matrix or a stack.

One-matrix certificates follow one arithmetic rule: every matrix product
is a numpy @, so the one-matrix and stacked routes agree to the bit, and
each product (or the matrix itself) is read once with tolist().  Every
later element read, scalar step and small reduction runs on Python
floats, which do the IEEE operations of numpy's float64 scalars, faster;
a square or cube is a product, correctly rounded in both.  An entrywise
V diag(d) is formed as numpy's broadcast V * d forms it, zero slots
included (0 * inf is NaN), and the one-matrix symplectic defect takes
the stack's operations on one matrix.  Where the two differ the numpy
answer is kept: a division by zero (semidefinite3) is guarded, and
float_maxabs keeps a NaN, which the builtin max drops unless it comes
first.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularityError

SINGULAR_TOL = 1e-12
SINGULAR_MESSAGE = "matrix is singular to working precision"


def maxabs(m) -> float:
    """Largest entry magnitude; the scale used by all relative tolerances."""
    return float(np.abs(m).max())


def float_maxabs(values) -> float:
    """maxabs of a sequence of Python floats: NaN when any value is NaN, as
    numpy's max gives."""
    top = 0.0
    for x in values:
        x = abs(x)
        if not x <= top:
            if x != x:
                return x
            top = x
    return top


def det3(m):
    """Cofactor determinant of one matrix, as an array or nested lists, or
    of an entries-first stack; entries are read as m[i][j]."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adjugate3(m) -> np.ndarray:
    """Transposed cofactor matrix, so that m @ adjugate3(m) = det3(m) * I;
    m as det3 takes it."""
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


def is_singular3(m, d=None):
    """The package's one singularity rule for 3x3 matrices: |det m| <=
    1e-12 * (1 + maxabs(m)**3), a NaN determinant, or an overflowed bound;
    given the determinant d or computing it.  One matrix, as an array or
    its rows as Python floats, gives a bool; a stack (..., 3, 3) gives a
    mask."""
    if isinstance(m, np.ndarray) and m.ndim > 2:
        if d is None:
            d = det3(entries_first(m))
        s = stack_maxabs(m)
        return ~(np.abs(d) > SINGULAR_TOL * (1.0 + s * s * s))
    if isinstance(m, np.ndarray):
        m = m.tolist()
    if d is None:
        d = det3(m)
    # a NaN entry gives a NaN determinant and an inf entry an inf bound:
    # both count as singular, whatever the builtin max makes of a NaN
    s = max(map(abs, m[0] + m[1] + m[2]))
    return not abs(d) > SINGULAR_TOL * (1.0 + s * s * s)


def inv3(m: np.ndarray) -> np.ndarray:
    """Inverse via adjugate over determinant; SingularityError when
    is_singular3(m)."""
    rows = m.tolist()
    d = det3(rows)
    if is_singular3(rows, d):
        raise SingularityError(SINGULAR_MESSAGE)
    return adjugate3(rows) / d


def semidefinite3(m, t):
    """Whether m + t*I is positive semidefinite, for a symmetric 3x3 m
    given as nested Python floats or as an entries-first stack (then one
    answer per matrix); only the lower triangle is read.

    The LDL^T elimination of m + t*I in the fixed order 1, 2, 3 accepts
    when its pivots d1 > 0, d2 > 0, d3 >= 0 are all finite.  That proves
    semidefiniteness up to the elimination's round-off, about eps times
    the scale (unpivoted Cholesky is backward stable on semidefinite
    input), so False proves nothing: a zero leading pivot, an overflowed
    intermediate or a NaN rejects.  Callers confirm a rejection with
    eigvalsh."""
    d1 = m[0][0] + t
    try:
        l10, l20 = m[1][0] / d1, m[2][0] / d1
        d2 = m[1][1] + t - m[1][0] * l10
        a21 = m[2][1] - m[2][0] * l10
        d3 = m[2][2] + t - m[2][0] * l20 - a21 * (a21 / d2)
    except ZeroDivisionError:  # a zero pivot of one matrix; a stack gets inf or NaN
        return False
    return (d1 > 0) & (d1 < math.inf) & (d2 > 0) & (d2 < math.inf) & (d3 >= 0) & (d3 < math.inf)


def stack_maxabs(m):
    """maxabs of every matrix of a stack (..., r, c); a float64 for one
    matrix.  The axes go in by position: as a keyword they cost 0.5 µs."""
    return np.abs(m).max((-2, -1))


def midpoint(a, b):
    """Entrywise (a + b)/2, or a/2 + b/2 where the sum overflows; only
    there, since halves of subnormals round."""
    h = (a + b) / 2
    if not isinstance(h, np.ndarray) or h.ndim == 0:
        return a / 2 + b / 2 if abs(h) == math.inf else h
    over = np.isinf(h)
    return np.where(over, a / 2 + b / 2, h) if over.any() else h


def entries_first(m):
    """A stack array (..., 3, 3) as the 3x3 grid of its entry stacks, so
    that det3 and adjugate3 read it as one matrix; one matrix comes back
    as it is."""
    n = m.ndim
    return m if n == 2 else np.transpose(m, (n - 2, n - 1) + tuple(range(n - 2)))


def inv3_stack(m):
    """adjugate3/det3 of one matrix or every matrix of a stack (..., 3, 3),
    and the determinants.  Raises nothing: a matrix that is_singular3
    rejects gets a garbage inverse."""
    m = np.asarray(m)
    d = det3(entries_first(m))
    adj = adjugate3(entries_first(m))
    if m.ndim > 2:
        adj = np.ascontiguousarray(np.transpose(adj, tuple(range(2, m.ndim)) + (0, 1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return adj / (d[..., None, None] if m.ndim > 2 else d), d
