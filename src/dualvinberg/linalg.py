"""Closed-form helpers for 3x3 matrices.

Determinants and inverses go through explicit cofactors rather than LU:
the formulas are dtype-generic (real or complex) and keep exact zeros and
small-integer arithmetic exact, which the reference values in the test
suite rely on.  One table, _COFACTOR_TERMS, holds the cofactors, and two
readers read it, each from a matrix's flat row, its nine entries row by
row.  cofactors3 reads one flat row of Python floats, for the one-matrix
certificates of polar and membership; inv3_stack reads arrays, one
matrix or a stack (..., 3, 3), as flat rows (..., 9).  Both take the
determinant as a*adj00 + b*adj10 + c*adj20, left to right, so on floats
they agree to the bit.  is_singular3 takes a missing determinant from
the reader of m's representation; inv3 raises where it rejects.
semidefinite3 proves semidefiniteness by LDL^T elimination on one matrix
or a stack.

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

from .errors import SingularityError, check_rows

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


def cofactors3(f):
    """The adjugate adj (m @ adj = det * I) and the determinant of one matrix
    m given as its flat row f of Python scalars, adj a flat row too: the
    table's products and inv3_stack's sum, with no array round trip.
    Arrays take inv3_stack."""
    adj = []
    for p, q, r, s in _COFACTOR_ROWS:  # a loop costs less than a comprehension's frame
        adj.append(f[p] * f[q] - f[r] * f[s])
    return adj, f[0] * adj[0] + f[1] * adj[3] + f[2] * adj[6]


def is_singular3(m, d=None):
    """The package's one singularity rule for 3x3 matrices: |det m| <=
    1e-12 * (1 + maxabs(m)**3), a NaN determinant, or an overflowed bound;
    given the determinant d or taking it from the reader of m's
    representation.  One matrix, as an array (3, 3) or its flat row of
    Python floats, gives a bool (cofactors3); a stack (..., 3, 3) gives a
    mask (inv3_stack)."""
    stack = isinstance(m, np.ndarray) and m.ndim > 2
    if stack:
        if d is None:
            d = inv3_stack(m)[1]
        s = stack_maxabs(m)
    else:
        if isinstance(m, np.ndarray):
            m = m.reshape(9).tolist()
        if d is None:
            d = cofactors3(m)[1]
        # a NaN entry gives a NaN determinant and an inf entry an inf bound:
        # both count as singular, whatever the builtin max makes of a NaN
        s = max(map(abs, m))
    regular = abs(d) > SINGULAR_TOL * (1.0 + s * s * s)
    if stack:
        return ~regular
    return not regular


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


def is_semidefinite3(m, tol):
    """The package's one semidefinite rule: m + t*I positive semidefinite for
    t = tol * (1 + s), s = maxabs(m), a NaN t or s rejecting.  One matrix as
    nested Python floats gives a bool: past semidefinite3, a diagonal entry
    below -INDEFINITE_MARGIN * (1 + s) proves a rejection (lambda_min <= m_ii)
    before eigvalsh.  An entries-first stack (3, 3, n) gets semidefinite3's
    mask alone, False wherever the closed form proves nothing."""
    stack = isinstance(m, np.ndarray)
    if stack:
        s = np.abs(m).max((0, 1))
    else:
        s = float_maxabs(m[0] + m[1] + m[2])
    t = tol * (1.0 + s)
    accept = semidefinite3(m, t)  # never where s is not finite
    if stack or accept:
        return accept
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


# The adjugate's entries, row by row, are f[P] * f[Q] - f[R] * f[S] of a
# matrix's flat rows f; rows P, Q, R, S.  Columns 0, 3 and 6, adj00, adj10
# and adj20, give the determinant.  _COFACTOR_ROWS is the same table as one
# (P, Q, R, S) per entry, for Python floats.
_COFACTOR_TERMS = np.array([[4, 2, 1, 5, 0, 2, 3, 1, 0], [8, 7, 5, 6, 8, 3, 7, 6, 4],
                            [5, 1, 2, 3, 2, 0, 4, 0, 1], [7, 8, 4, 8, 6, 5, 6, 7, 3]])
_COFACTOR_ROWS = tuple(zip(*_COFACTOR_TERMS.tolist()))


def inv3_stack(m):
    """The inverse adj / det of one matrix or every matrix of a stack
    (..., 3, 3), and the determinants, cofactors3's to the bit.  Raises
    nothing: a matrix that is_singular3 rejects gets a garbage inverse."""
    m = np.asarray(m)
    f = m.reshape(m.shape[:-2] + (9,))
    with np.errstate(all="ignore"):  # rejected rows run on with inf and NaN
        t = f[..., _COFACTOR_TERMS]
        p = t[..., ::2, :] * t[..., 1::2, :]
        adj = p[..., 0, :] - p[..., 1, :]
        p = f[..., :3] * adj[..., ::3]
        d = p[..., 0] + p[..., 1] + p[..., 2]
        return (adj / d[..., None]).reshape(m.shape), d


def inv3(m):
    """inv3_stack's inverse of an array (..., 3, 3), with SingularityError
    for the first matrix that is_singular3 rejects, quietly where its bound
    overflows."""
    inv, d = inv3_stack(m)
    with np.errstate(over="ignore"):
        singular = is_singular3(m, d)
    check_rows(singular, lambda r: SingularityError(SINGULAR_MESSAGE))
    return inv
