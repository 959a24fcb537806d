"""Closed-form helpers for 3x3 matrices.

Determinants and inverses go through explicit cofactors rather than LU:
the formulas are dtype-generic (real or complex) and keep exact zeros and
small-integer arithmetic exact, which the reference values in the test
suite rely on.  inv3_stack gathers adjugate3's cofactors from flat rows
(..., 9); its a*adj00 + b*adj10 + c*adj20 is det3 with a sign moved
exactly into a cofactor, so it agrees with adjugate3/det3 to the bit but
for a zero determinant's sign, which is_singular3 rejects.  A stacked
is_singular3 gathers those three cofactors alone.  semidefinite3
proves semidefiniteness by LDL^T elimination on one matrix or a stack.

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
# is_semidefinite3's diagonal margin, far above eigvalsh's error p(3) eps ||m||_2 (Higham)
INDEFINITE_MARGIN = 1e-12


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
    """Cofactor determinant of one matrix, as an array or nested lists;
    entries are read as m[i][j].  Stacks take inv3_stack's kernel."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adjugate3(m) -> np.ndarray:
    """Transposed cofactor matrix of one matrix, so that m @ adjugate3(m) =
    det3(m) * I; m as det3 takes it.  The array of adjugate3_flat."""
    return np.array(adjugate3_flat(m)).reshape(3, 3)


def adjugate3_flat(m) -> list:
    """adjugate3's nine entries row by row, scalars of m's type: Python
    floats for the one-matrix factorizations, with no array round trip."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return [
        e * i - f * h, c * h - b * i, b * f - c * e,
        f * g - d * i, a * i - c * g, c * d - a * f,
        d * h - e * g, b * g - a * h, a * e - b * d,
    ]


def is_singular3(m, d=None):
    """The package's one singularity rule for 3x3 matrices: |det m| <=
    1e-12 * (1 + maxabs(m)**3), a NaN determinant, or an overflowed bound;
    given the determinant d or computing it.  One matrix, as an array or
    its rows as Python floats, gives a bool; a stack (..., 3, 3) gives a
    mask, and computes only the three cofactors of its determinant, which
    is inv3_stack's to the bit."""
    if isinstance(m, np.ndarray) and m.ndim > 2:
        if d is None:  # it warns where it overflows, as the bound does
            d = _cofactors(m.reshape(m.shape[:-2] + (9,)), _COFACTOR_TERMS[:, ::3])[1]
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
    input), so False alone proves nothing: a zero leading pivot, an
    overflowed intermediate or a NaN rejects.  is_semidefinite3 decides
    one matrix, mostly in closed form."""
    d1 = m[0][0] + t
    try:
        l10, l20 = m[1][0] / d1, m[2][0] / d1
        d2 = m[1][1] + t - m[1][0] * l10
        a21 = m[2][1] - m[2][0] * l10
        d3 = m[2][2] + t - m[2][0] * l20 - a21 * (a21 / d2)
    except ZeroDivisionError:  # a zero pivot of one matrix; a stack gets inf or NaN
        return False
    return (d1 > 0) & (d1 < math.inf) & (d2 > 0) & (d2 < math.inf) & (d3 >= 0) & (d3 < math.inf)


def is_semidefinite3(m, tol) -> bool:
    """Whether m + t*I is positive semidefinite, for t = tol * (1 + s), s =
    maxabs(m), and m one matrix as semidefinite3 takes it; a NaN t or s
    rejects.  Past semidefinite3, a diagonal entry below -INDEFINITE_MARGIN
    * (1 + s) proves a rejection (lambda_min <= m_ii) before eigvalsh."""
    s = float_maxabs(m[0] + m[1] + m[2])
    t = tol * (1.0 + s)
    if semidefinite3(m, t):  # never where s is not finite
        return True
    if not s < math.inf or min(m[0][0], m[1][1], m[2][2]) + t < -INDEFINITE_MARGIN * (1.0 + s):
        return False
    return float(np.linalg.eigvalsh(np.array(m)).min()) >= -t


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
    return np.where(over, a / 2 + b / 2, h) if np.count_nonzero(over) else h


# adjugate3's row-major entries are f[P] * f[Q] - f[R] * f[S] of flat f; rows
# P, Q, R, S.  Every third column, adj00, adj10 and adj20, gives the determinant.
_COFACTOR_TERMS = np.array([[4, 2, 1, 5, 0, 2, 3, 1, 0], [8, 7, 5, 6, 8, 3, 7, 6, 4],
                            [5, 1, 2, 3, 2, 0, 4, 0, 1], [7, 8, 4, 8, 6, 5, 6, 7, 3]])


def _cofactors(f, terms):
    """f[P] * f[Q] - f[R] * f[S] of flat rows f (..., 9) for all nine or every
    third column of terms, and a*adj00 + b*adj10 + c*adj20, left to right."""
    t = f[..., terms]
    p = t[..., ::2, :] * t[..., 1::2, :]
    c = p[..., 0, :] - p[..., 1, :]
    p = f[..., :3] * c[..., :: len(terms[0]) // 3]
    return c, p[..., 0] + p[..., 1] + p[..., 2]


def inv3_stack(m):
    """adjugate3/det3 of one matrix or every matrix of a stack (..., 3, 3),
    and the determinants.  Raises nothing: a matrix that is_singular3
    rejects gets a garbage inverse."""
    m = np.asarray(m)
    f = m.reshape(m.shape[:-2] + (9,))
    with np.errstate(all="ignore"):  # rejected rows run on with inf and NaN
        adj, d = _cofactors(f, _COFACTOR_TERMS)
        return (adj / d[..., None]).reshape(m.shape), d
