"""The dual Vinberg cone and its linear automorphisms.

Points are coordinate vectors x = (x1, ..., x5) identified with patterned
symmetric 3x3 matrices via :func:`embed`:

    [x1  0  x4]
    [ 0 x2  x5]
    [x4 x5  x3]

The open cone is the set of positive definite matrices of this shape, cut
out by the nested minors x1, x1*x2 and x1*x2*x3 - x1*x5**2 - x2*x4**2.
Lower triangular matrices carrying the matching zero in slot (1,0) act
transitively on the cone by congruence A.x = A embed(x) A^T, so the cone
is homogeneous; it is the standard example of a homogeneous cone that is
not self-dual.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PatternError, check_rows
from .linalg import float_maxabs, midpoint, semidefinite3, stack_maxabs

IDENTITY_POINT = np.array([1.0, 1.0, 1.0, 0.0, 0.0])

# Scale-relative tolerance of structural (pattern) zeros, which exact
# constructors and group operations preserve.
PATTERN_TOL = 1e-12

# Default scale-relative tolerance of the spectral membership tests
# (closed cone, semigroup certificates, invariant wedge).
MEMBERSHIP_TOL = 1e-9

# Zero slots of the triangular automorphism pattern [[a1,0,0],[0,a2,0],[a4,a5,a3]].
TRIANGULAR_ZEROS = ((0, 1), (0, 2), (1, 0), (1, 2))

# Zero slots of the flat slice diag(u1, u2, 0).
FLAT_ZEROS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2))

# Flat (..., 9) slots: embed_stack writes coordinate _EMBED_COORDS[k] to _EMBED_SLOTS[k];
# pattern_parts reads the coordinates' mirror slots, and the gaps' (0,1), (1,0), (0,2), (1,2).
_EMBED_SLOTS, _EMBED_COORDS = np.array([0, 4, 8, 2, 6, 5, 7]), np.array([0, 1, 2, 3, 3, 4, 4])
_MIRRORS, _GAPS = np.array([[0, 4, 8, 2, 5], [0, 4, 8, 6, 7]]), np.array([1, 3, 2, 5])
_EYE3 = np.eye(3)  # embed(IDENTITY_POINT)


def embed(x) -> np.ndarray:
    """Patterned symmetric matrix of a coordinate vector (complex allowed)."""
    x = np.asarray(x)
    m = np.zeros((3, 3), dtype=complex if np.iscomplexobj(x) else float)
    m[0, 0] = x[0]
    m[1, 1] = x[1]
    m[2, 2] = x[2]
    m[0, 2] = m[2, 0] = x[3]
    m[1, 2] = m[2, 1] = x[4]
    return m


def embed_stack(x) -> np.ndarray:
    """embed for one coordinate vector or a stack of them (..., 5), as one
    scatter into flat rows; embed's own one-point form is twice as fast."""
    x = np.asarray(x)
    m = np.zeros(x.shape[:-1] + (9,), dtype=complex if np.iscomplexobj(x) else float)
    m[..., _EMBED_SLOTS] = x[..., _EMBED_COORDS]
    return m.reshape(x.shape[:-1] + (3, 3))


def pattern_parts(m):
    """Off-pattern mass and coordinates of one 3x3 array, or of each of a
    stack (..., 3, 3) as (...) and (..., 5); one matrix given as nested
    Python floats gets its coordinates as a list.  The mass is the max of
    |m01|, |m10| and the two mirror gaps, NaN when any of them is; mirror
    pairs are averaged by linalg.midpoint, a stack's in one call with its
    diagonal, since midpoint(a, a) is a, after two gathers of flat rows."""
    listed = isinstance(m, list)
    if listed or m.ndim == 2:
        # one matrix as Python numbers, which do the same float arithmetic faster
        m = m if listed else m.tolist()
        gaps = (m[0][1], m[1][0], m[0][2] - m[2][0], m[1][2] - m[2][1])
        x = [m[0][0], m[1][1], m[2][2], midpoint(m[0][2], m[2][0]), midpoint(m[1][2], m[2][1])]
        return float_maxabs(gaps), (x if listed else np.array(x))
    f = m.reshape(m.shape[:-2] + (9,))
    pairs, gaps = f[..., _MIRRORS], f[..., _GAPS]
    gaps[..., 2:] -= pairs[..., 1, 3:]
    return np.abs(gaps).max(-1), midpoint(pairs[..., 0, :], pairs[..., 1, :])


def read_pattern(m, atol=None):
    """unembed's reading of m (..., 3, 3), raising nothing: the
    coordinates, the off-pattern mass and the mask of what it refuses."""
    m = np.asarray(m)
    if atol is None:
        atol = PATTERN_TOL * (1.0 + stack_maxabs(m))
    off, x = pattern_parts(m)
    return x, off, (off > atol) | ~(np.isfinite(m[..., 0, 1]) & np.isfinite(m[..., 1, 0]))


def refuse_off_pattern(refused, off) -> None:
    """unembed's PatternError for the first matrix read_pattern refused."""
    message = "matrix leaves the patterned subspace by {:.3e}"
    check_rows(refused, lambda r: PatternError(message.format(np.reshape(off, -1)[r])))


def unembed(m, atol=None) -> np.ndarray:
    """Coordinates of a patterned symmetric matrix, or of each of a stack
    (..., 3, 3) with one atol per matrix.  The forbidden slot is (0,1)/(1,0)
    and the mirror pairs must match; off-pattern mass beyond ``atol``
    (default 1e-12, scale-relative) or a non-finite forbidden entry, which
    the default bound would grow with, raises PatternError for the first
    failing matrix.  Mirror pairs are averaged (pattern_parts)."""
    x, off, refused = read_pattern(m, atol)
    refuse_off_pattern(refused, off)
    return x


def embed_diag_pair(u) -> np.ndarray:
    """diag(u1, u2, 0), the flat slice of the pattern."""
    u = np.asarray(u)
    m = np.zeros((3, 3), dtype=complex if np.iscomplexobj(u) else float)
    m[0, 0] = u[0]
    m[1, 1] = u[1]
    return m


def diag_pair(m) -> np.ndarray:
    """First two diagonal entries of a matrix in the flat slice."""
    m = np.asarray(m)
    return np.array([m[0, 0], m[1, 1]])


def minors(x):
    """The three nested principal minors of embed(x): floats for one point,
    arrays for a stack (n, 5), one point's in Python floats, which warn of nothing."""
    x = np.asarray(x, dtype=float)
    x1, x2, x3, x4, x5 = x.T if x.ndim > 1 else x.tolist()
    d3 = x1 * x2 * x3 - x1 * (x5 * x5) - x2 * (x4 * x4)
    return x1, x1 * x2, d3


def open_cone_reason(x) -> str | None:
    """None when x is interior; otherwise which minor fails (strictly)."""
    d1, d2, d3 = minors(x)
    if not d1 > 0:
        return "minor 1 not positive"
    if not d2 > 0:
        return "minor 2 not positive"
    if not d3 > 0:
        return "minor 3 not positive"
    return None


def in_open_cone(x):
    """Strict positivity of all three minors, with no tolerance: a bool for
    one point, a mask for a stack (n, 5)."""
    d1, d2, d3 = minors(x)
    return (d1 > 0) & (d2 > 0) & (d3 > 0)


def _embed_rows(x):
    """embed(x) as nested rows of the five coordinates, Python floats or
    one stack per coordinate, for linalg.semidefinite3."""
    x1, x2, x3, x4, x5 = x
    return [[x1, 0.0, x4], [0.0, x2, x5], [x4, x5, x3]]


def closed_cone_reason(x, tol: float = MEMBERSHIP_TOL) -> str | None:
    """None when embed(x) is positive semidefinite within a scale-relative
    tol; otherwise why not."""
    # the coordinates as Python floats; a list needs no array round trip
    x = list(map(float, x)) if isinstance(x, list) else np.asarray(x, dtype=float).tolist()
    if not all(map(math.isfinite, x)):
        return "coordinate not finite"
    t = tol * (1.0 + max(map(abs, x)))  # maxabs(embed(x))
    if semidefinite3(_embed_rows(x), t):
        return None
    # the closed form proves membership only: eigvalsh decides and measures
    lo = float(np.linalg.eigvalsh(embed(x)).min())
    # written so that a NaN bound rejects
    if not lo >= -t:
        return f"eigenvalue {lo:.3e} below -tol"
    return None


def log_char_function(x) -> float:
    """log of the characteristic function x1**(1/2) * x2**(1/2) * d3**(-2),
    normalized to 0 at (1,1,1,0,0); DomainError, with no warning, off the
    open cone and where a minor is not finite, ValueError for a shape but
    (5,).  Under an automorphism g of the cone it drops by log|det g|,
    which makes its Hessian an invariant metric."""
    x = np.asarray(x, dtype=float)
    if x.shape != (5,):
        raise ValueError(f"expected a point of shape (5,), got shape {x.shape}")
    if (reason := open_cone_reason(x)) is not None:
        raise DomainError(f"point outside the open cone: {reason}")
    _, d2, d3 = minors(x)  # positive; inf where a coordinate is inf or a minor overflows
    if not max(d2, d3) < math.inf:
        raise DomainError("minor of the point not finite")
    return float(0.5 * (np.log(x[0]) + np.log(x[1])) - 2.0 * np.log(d3))


def triangular(params) -> np.ndarray:
    """Build [[a1,0,0],[0,a2,0],[a4,a5,a3]] from (a1, a2, a3, a4, a5), or
    each matrix of a stack of parameters (..., 5); ValueError for another
    last axis."""
    a = np.asarray(params, dtype=float)
    if a.shape[-1:] != (5,):
        raise ValueError(f"expected 5 parameters on the last axis, got shape {a.shape}")
    m = np.zeros(a.shape[:-1] + (3, 3))
    m[..., [0, 1, 2], [0, 1, 2]] = a[..., :3]
    m[..., 2, :2] = a[..., 3:]
    return m


def triangular_params(A) -> np.ndarray:
    """Parameters (a1, a2, a3, a4, a5) of a triangular-patterned matrix."""
    A = np.asarray(A, dtype=float)
    return np.array([A[0, 0], A[1, 1], A[2, 2], A[2, 0], A[2, 1]])


def is_triangular_pattern(A, atol: float | None = None) -> bool:
    A = np.asarray(A)
    if A.shape != (3, 3):
        return False
    m = A.tolist()
    if atol is None:
        atol = PATTERN_TOL * (1.0 + float_maxabs(m[0] + m[1] + m[2]))
    return all(abs(m[i][j]) <= atol for i, j in TRIANGULAR_ZEROS)


def is_flat_pattern(U, atol: float) -> bool:
    """U, an array or its rows as Python floats, equals diag(u1, u2, 0)
    within atol."""
    if isinstance(U, np.ndarray):
        U = U.tolist()
    return all(abs(U[i][j]) <= atol for i, j in FLAT_ZEROS)


def congruence_matrix(A) -> np.ndarray:
    """5x5 matrix of x -> A embed(x) A^T in coordinates.

    Defined for any 3x3 A whose congruence preserves the patterned
    subspace (PatternError otherwise); this admits the coordinate swap
    generator of the isotropy group, which is not triangular.
    """
    A = np.asarray(A, dtype=float)
    cols = [unembed(A @ embed(e) @ A.T) for e in np.eye(5)]
    return np.array(cols).T


def positive_triangular(w) -> np.ndarray:
    """triangular(exp w1, exp w2, exp w3, w4, w5), in the identity
    component, for one row w (5,) or each row of a stack (n, 5)."""
    w = np.array(w, dtype=float)
    w[..., :3] = np.exp(w[..., :3])
    return triangular(w)


def sample_positive_triangular(rng, sigma: float = 1.0) -> np.ndarray:
    """Random element of the identity component: log-normal diagonal,
    normal lower entries.  Zeroed randomness gives the identity."""
    return positive_triangular(sigma * rng.standard_normal(5))


def sample_triangular(rng, sigma: float = 1.0) -> np.ndarray:
    """Random element of the full triangular group: the first two diagonal
    entries carry random signs, a3 stays positive."""
    A = sample_positive_triangular(rng, sigma)
    A[[0, 1], [0, 1]] *= np.where(rng.random(2) < 0.5, -1.0, 1.0)
    return A


def cone_point(w) -> np.ndarray:
    """The identity point pushed by positive_triangular(w), for one row or
    each row of a stack; the congruence keeps the pattern zeros exact
    unless an entry overflows (PatternError)."""
    return unembed(push_identity(positive_triangular(w)))


def push_identity(T) -> np.ndarray:
    """T embed(IDENTITY_POINT) T^T for T (..., 3, 3)."""
    return T @ _EYE3 @ np.swapaxes(T, -1, -2)


def sample_cone(rng, sigma: float = 1.0) -> np.ndarray:
    """Random interior point: the identity pushed by a random triangular
    automorphism.  Zeroed randomness gives (1,1,1,0,0)."""
    return cone_point(sigma * rng.standard_normal(5))


def isotropy_group() -> list[np.ndarray]:
    """All eight 5x5 matrices stabilizing (1,1,1,0,0): the congruences of
    P diag(s1, s2, 1) with P the identity or the swap of the first two
    coordinates and signs s1, s2, in a deterministic order.  The swap
    composed with a flip has order four."""
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    elems = [
        congruence_matrix(P @ np.diag([s1, s2, 1.0]))
        for P in (np.eye(3), swap)
        for s1 in (1.0, -1.0)
        for s2 in (1.0, -1.0)
    ]
    return sorted(elems, key=lambda m: tuple(int(round(e)) for e in m.ravel()))
