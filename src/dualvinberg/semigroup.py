"""Compression semigroup of the cone and its infinitesimal wedge.

The semigroup consists of the tube-group elements mapping the open cone
into itself under the real fractional action.  Membership has two
equivalent descriptions, both implemented: directly through the chart
certificates (D invertible, D^T B in the closed cone, C D^T nonnegative
in the flat slice), and as the intersection of the tube group with the
larger semigroup compressing the full positive definite cone.

Interior elements also factor through the exponential of an invariant
wedge in the Lie algebra

    [[A, V], [U, -A^T]],  A triangular-patterned, V patterned, U flat,

graded -1/0/+1 by the block position, with the wedge picked out by A = 0,
V in the closed cone and U nonnegative.  On the grade +-1 part the
exponential and the logarithm reduce to scalar functions of u_i v_i and
are computed in closed form (exp_wedge, log_wedge), with numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import (
    _MIRRORS,
    MEMBERSHIP_TOL,
    _embed_rows,
    closed_cone_reason,
    cone_point,
    diag_pair,
    embed,
    embed_diag_pair,
    embed_stack,
    is_flat_pattern,
    is_triangular_pattern,
    pattern_parts,
    positive_triangular,
    sample_positive_triangular,
    unembed,
)
from .errors import ConvergenceError, DomainError, InconsistencyError, SingularityError, check_rows
from .group import (
    TUBE_GROUP_REASONS,
    TripleFactors,
    _ask,
    _chart_factors,
    _matrix6,
    _tube,
    _tube_members,
    congruence_embed,
    triple_compose,
    tube_group_reason,
)
from .linalg import (
    SINGULAR_MESSAGE,
    adjugate3_flat,
    det3,
    float_maxabs,
    inv3_stack,
    is_semidefinite3,
    is_singular3,
    maxabs,
    semidefinite3,
    stack_maxabs,
)

# Taylor coefficients 1/(2n+3)! of _s1; eight terms reach 1e-17 relative
# on |t| <= 1, beyond which the closed form loses at most a few ulps
_S1_SERIES = tuple(1.0 / math.factorial(2 * n + 3) for n in range(8))

# cross_check_membership relaxes or tightens tol by this factor before a
# disagreement of the two membership routes counts as real
CROSS_CHECK_SLACK = 50.0

# scale-relative recomposition residual above which polar_factor refuses
POLAR_RESIDUAL_TOL = 1e-8

# tau(g)^{-1} = [[D^T, B^T], [C^T, A^T]] has entry (i, j) = g[p(j), p(i)] for
# the block order p = 3, 4, 5, 0, 1, 2: one take of g's flat entries gathers it
_TAU_INVERSE = np.add.outer([3, 4, 5, 0, 1, 2], [18, 24, 30, 0, 6, 12])

# failure reasons of compression_reason, in check order
COMPRESSION_REASONS = TUBE_GROUP_REASONS + (
    "det D = 0",
    "D^T B leaves the patterned subspace",
    "D^T B outside the closed cone",
    "C D^T has a negative diagonal entry",
)


def symplectic_semigroup_reason(g, tol: float = MEMBERSHIP_TOL) -> str | None:
    """None when g compresses the full positive definite cone: symplectic,
    D invertible, and both D^T B and C D^T positive semidefinite."""
    reads = _tube(_matrix6(g).tobytes())
    if reads[0] == TUBE_GROUP_REASONS[0]:  # is_symplectic's test
        return "not symplectic"
    return _ask(reads, _psd_reason, tol)


def _psd_reason(reads, tol) -> str | None:
    """symplectic_semigroup_reason's checks after is_symplectic: a rule that
    group._ask runs on g's _tube read, shared with the cross-check."""
    _, _, _, singular, DtB, CDt, _ = reads
    if singular:
        return "det D = 0"
    for name, S in (("D^T B", DtB), ("C D^T", CDt)):
        # the bound tests here and below are written so that a NaN tol rejects
        if not is_semidefinite3(_symmetric_rows(S), tol):
            return f"{name} not positive semidefinite"
    return None


def _symmetric_rows(S) -> list:
    """(S + S^T)/2 of a 3x3 product given as nested Python floats, entry
    for entry as numpy forms it: a diagonal entry is (s + s)/2, which is
    inf where s + s overflows."""
    (a, b, c), (d, e, f), (x, y, z) = S
    p, q, r = (b + d) / 2, (c + x) / 2, (f + y) / 2
    return [[(a + a) / 2, p, q], [p, (e + e) / 2, r], [q, r, (z + z) / 2]]


def compression_reason(g, tol: float = MEMBERSHIP_TOL) -> str | None:
    """None when g compresses the patterned cone, via the chart
    certificates; otherwise the first failing one of COMPRESSION_REASONS,
    the chart verdict kept per tol on g's memoised read (group._ask)."""
    reads = _tube(_matrix6(g).tobytes())
    return reads[0] or _ask(reads, _chart_reason, tol)


def _chart_reason(reads, tol) -> str | None:
    """compression_reason's checks after the tube test (so every entry is
    finite): a rule that group._ask runs on g's _tube read."""
    _, _, _, singular, S, P, _ = reads
    if singular:
        return COMPRESSION_REASONS[7]
    S = _symmetric_rows(S)
    off, vS = pattern_parts(S)
    if off > tol * (1.0 + float_maxabs(S[0] + S[1] + S[2])):
        return COMPRESSION_REASONS[8]
    if not is_semidefinite3(_embed_rows(vS), tol):  # closed_cone_reason's test
        return COMPRESSION_REASONS[9]
    if not min(P[0][0], P[1][1]) >= -tol * (1.0 + float_maxabs(P[0] + P[1] + P[2])):
        return COMPRESSION_REASONS[10]
    return None


def compression_members(g) -> np.ndarray:
    """A mask over a stack (n, 6, 6), True only where
    compression_reason(g[i]) is None: its checks at MEMBERSHIP_TOL, ANDed
    on every row with no check order.  The closed-cone test is its closed
    form alone, so a member that the closed form cannot prove reads
    False; a caller that must decide such a row asks compression_reason."""
    g = np.asarray(g, dtype=float)
    tol = MEMBERSHIP_TOL
    B, C, D = g[:, :3, 3:], g[:, 3:, :3], g[:, 3:, 3:]
    with np.errstate(all="ignore"):  # failed rows run on with inf and NaN
        S = D.swapaxes(1, 2) @ B
        S = ((S + S.swapaxes(1, 2)) / 2).reshape(len(g), 9)
        # pattern_parts of S, symmetric to the bit: its upper slots, and mirror gaps 0, or NaN
        # where a coordinate is not finite, which the closed form rejects: its bound is not finite
        vS = S[:, _MIRRORS[0]]
        P = C @ D.swapaxes(1, 2)
        return (
            _tube_members(g, stack_maxabs(g))
            & ~is_singular3(D)
            & (np.abs(S[:, 1]) <= tol * (1.0 + np.abs(S).max(1)))
            # closed_cone_reason's bound, at maxabs(embed(vS))
            & semidefinite3(_embed_rows(vS.T), tol * (1.0 + np.abs(vS).max(axis=1)))
            & (np.minimum(P[:, 0, 0], P[:, 1, 1]) >= -tol * (1.0 + stack_maxabs(P)))
        )


def in_compression_semigroup(g, tol: float = MEMBERSHIP_TOL) -> bool:
    return compression_reason(g, tol) is None


def compression_factors(g, tol: float = MEMBERSHIP_TOL) -> TripleFactors:
    """Triple factors of g, from compression_reason's read of it, with the
    semigroup certificates re-checked on each factor (v in the closed cone,
    L triangular, u nonnegative); one failing beyond tol raises DomainError."""
    reads = _tube(_matrix6(g).tobytes())
    if (reason := reads[0] or _ask(reads, _chart_reason, tol)) is not None:
        raise DomainError(f"not in the compression semigroup: {reason}")
    f = _chart_factors(reads[2], reads[1])
    if (reason := closed_cone_reason(f.v, tol)) is not None:
        raise DomainError(f"factor v outside the closed cone: {reason}")
    if not is_triangular_pattern(f.L):
        raise DomainError("factor L off the triangular pattern")
    u = f.u.tolist()
    if not min(u) >= -tol * (1.0 + float_maxabs(u)):  # a NaN entry fails through the bound
        raise DomainError("factor u has a negative entry")
    return f


def cross_check_membership(g, tol: float = MEMBERSHIP_TOL) -> bool:
    """Two routes to membership must agree: the chart certificates, and
    symplectic-semigroup intersect tube group.

    Exactly on the membership boundary the two routes may flip within
    round-off of the shared tolerance; a disagreement is therefore only
    fatal when the direct route still disagrees after relaxing or
    tightening tol by CROSS_CHECK_SLACK.
    """
    g = np.asarray(g, dtype=float)
    # the shared tube test implies symplectic and takes no tol; once it
    # passes each route's verdict is kept on g's _tube read per tol
    if tube_group_reason(g) is not None:
        return False
    reads = _tube(g.tobytes())
    direct = _ask(reads, _chart_reason, tol) is None
    via = _ask(reads, _psd_reason, tol) is None
    if direct == via:
        return via
    # a disagreement puts g in the tube group: only the chart checks rerun
    slack = CROSS_CHECK_SLACK * tol if via else tol / CROSS_CHECK_SLACK
    if (_ask(reads, _chart_reason, slack) is None) == via:
        return via
    raise InconsistencyError(
        "chart certificates and symplectic-intersection membership disagree "
        "beyond tolerance slack"
    )


def lie_element(A, v, u) -> np.ndarray:
    """[[A, embed(v)], [diag(u1,u2,0), -A^T]] with A triangular-patterned."""
    A = np.asarray(A, dtype=float)
    if not is_triangular_pattern(A):
        raise DomainError("grade-zero part off the triangular pattern")
    X = np.zeros((6, 6))
    X[:3, :3] = A
    X[:3, 3:] = embed(np.asarray(v, dtype=float))
    X[3:, :3] = embed_diag_pair(np.asarray(u, dtype=float))
    X[3:, 3:] = -A.T
    return X


@dataclass(frozen=True)
class InvariantConeElement:
    """Generator in the invariant wedge: grade +1 part v in the closed
    cone, grade -1 part u nonnegative, no grade-zero part."""

    v: np.ndarray
    u: np.ndarray

    def matrix(self) -> np.ndarray:
        return lie_element(np.zeros((3, 3)), self.v, self.u)


def invariant_cone_reason(X, tol: float = MEMBERSHIP_TOL) -> str | None:
    X = np.asarray(X, dtype=float)
    scale = maxabs(X)
    if not scale < np.inf:  # an infinite scale would make every bound vacuous
        return "entry not finite"
    atol = tol * (1.0 + scale)
    if not max(maxabs(X[:3, :3]), maxabs(X[3:, 3:])) <= atol:
        return "grade-zero part not zero"
    off, v = pattern_parts(X[:3, 3:].tolist())  # v as Python floats, as _wedge_reason takes it
    if off > atol:
        return "translation part off pattern"
    U = X[3:, :3]
    return _wedge_reason(v, diag_pair(U), tol, scale, flat=is_flat_pattern(U, atol))


def _wedge_reason(v, u, tol, scale, flat: bool = True) -> str | None:
    """The wedge rule on a generator's coordinates (v as Python floats), at
    the scale of its matrix; flat: its dual part is in the flat slice."""
    if not scale < np.inf:  # NaN fails too
        return "entry not finite"
    if not is_semidefinite3(_embed_rows(v), tol):  # closed_cone_reason's test
        return "translation part outside the closed cone"
    if not flat:
        return "dual part not in the flat slice"
    if not min(u) >= -tol * (1.0 + scale):
        return "dual part has a negative entry"
    return None


def in_invariant_cone(X, tol: float = MEMBERSHIP_TOL) -> bool:
    return invariant_cone_reason(X, tol) is None


def _sh(t: float) -> float:
    """sinh(sqrt t)/sqrt t, continued as sin(sqrt -t)/sqrt -t for t < 0;
    1 at t = 0."""
    if t > 0:
        r = math.sqrt(t)
        try:
            return math.sinh(r) / r
        except OverflowError:
            return math.inf
    if t < 0:
        r = math.sqrt(-t)
        return math.sin(r) / r if r < math.inf else 0.0  # the limit; sin(inf) raises
    return 1.0 if t == 0 else math.nan


def _s1(t: float) -> float:
    """(_sh(t) - 1)/t = sum of t^n/(2n+3)!, from the series near 0."""
    if abs(t) > 1.0:
        return (_sh(t) - 1.0) / t
    # Horner's rule unrolled in the loop's order, from acc = 0.0 * t + c7
    c0, c1, c2, c3, c4, c5, c6, c7 = _S1_SERIES
    acc = (((0.0 * t + c7) * t + c6) * t + c5) * t + c4
    return (((acc * t + c3) * t + c2) * t + c1) * t + c0


def _wedge_diagonals(v, u) -> tuple[list, list]:
    """The diagonals of exp_wedge's Dc and Ds as Python floats: u_i c1(k_i)
    and u_i s1(k_i) with k_i = u_i v_i, and 0 in the third slot; v and u
    as sequences of Python floats."""
    dc = [0.0, 0.0, 0.0]
    ds = [0.0, 0.0, 0.0]
    for i in range(2):
        k = u[i] * v[i]
        sh = _sh(k / 4.0)
        # c1(t) = sh(t/4)^2 / 2, squared by a product, which overflows to
        # inf where a float power would raise
        dc[i] = u[i] * 0.5 * (sh * sh)
        ds[i] = u[i] * _s1(k)
    return dc, ds


def exp_wedge(X: InvariantConeElement) -> np.ndarray:
    """Closed-form exp of [[0, V], [U, 0]] with V = embed(v), U = diag(u1, u2, 0).

    With R = U^{1/2}, R V R = diag(k1, k2, 0) where k_i = u_i v_i, so every
    power of X reduces to scalar functions of k_i:

        exp(X) = [[I + V Dc, V + V Ds V], [U + U V Ds, (I + V Dc)^T]]

    with Dc = diag(u_i c1(k_i), 0), Ds = diag(u_i s1(k_i), 0),
    c1(t) = (cosh sqrt t - 1)/t and s1(t) = (sinh sqrt t / sqrt t - 1)/t.
    Valid for any v and u (k_i < 0 takes the trigonometric branch), and
    exactly unipotent when u = 0 or v = 0.  Non-finite or overflowing
    entries give inf or NaN entries, never an exception.  The array of
    _exp_rows, which polar_factor's certificate reads as floats.
    """
    v = np.asarray(X.v, dtype=float).tolist()
    u = np.asarray(X.u, dtype=float).tolist()
    return np.array(_exp_rows(v, u, *_wedge_diagonals(v, u)), dtype=float).reshape(6, 6)


def _exp_rows(v, u, dc, ds) -> list:
    """exp_wedge's 36 entries row by row as Python floats, from v, u and
    their _wedge_diagonals (linalg's arithmetic rule).  V diag(dc) and
    V diag(ds) are formed entry by entry as numpy's broadcast V * d forms
    them, zero slots included (x4 * ds[2] is a signed zero, or NaN where x4
    is not finite), and so are the sums with I.  Vds @ V and U @ (I + Vds)
    stay products: one numpy @ on the stack of the two, one typed array."""
    x1, x2, x3, x4, x5 = v
    c1, c2, c3 = dc
    s1, s2, s3 = ds
    V = [x1, 0.0, x4, 0.0, x2, x5, x4, x5, x3]  # embed(v), row by row
    top = [  # I + V diag(dc)
        1.0 + x1 * c1, 0.0 + 0.0 * c2, 0.0 + x4 * c3,
        0.0 + 0.0 * c1, 1.0 + x2 * c2, 0.0 + x5 * c3,
        0.0 + x4 * c1, 0.0 + x5 * c2, 1.0 + x3 * c3,
    ]
    b = [x1 * s1, 0.0 * s2, x4 * s3, 0.0 * s1, x2 * s2, x5 * s3, x4 * s1, x5 * s2, x3 * s3]
    I_b = [1.0 + b[0], 0.0 + b[1], 0.0 + b[2], 0.0 + b[3], 1.0 + b[4], 0.0 + b[5],
           0.0 + b[6], 0.0 + b[7], 1.0 + b[8]]  # I + V diag(ds)
    U = [u[0], 0.0, 0.0, 0.0, u[1], 0.0, 0.0, 0.0, 0.0]
    P, Q = np.matmul(*np.array(b + U + V + I_b, dtype=float).reshape(2, 2, 3, 3)).tolist()
    (p0, p1, p2), (p3, p4, p5), (p6, p7, p8) = P
    return (  # [[top, V + P], [Q, top^T]], row by row
        top[0:3] + [x1 + p0, 0.0 + p1, x4 + p2]
        + top[3:6] + [0.0 + p3, x2 + p4, x5 + p5]
        + top[6:9] + [x4 + p6, x5 + p7, x3 + p8]
        + Q[0] + top[0::3] + Q[1] + top[1::3] + Q[2] + top[2::3]
    )


def log_wedge(h) -> InvariantConeElement:
    """The generator Y = (v, u) with exp_wedge(Y) = h, for h = exp_wedge of
    a generator with u_i v_i >= 0.

    Reads only the blocks H12 = h[:3, 3:] and H21 = h[3:, :3]: with
    k_i = u_i v_i, H12[i,i] H21[i,i] = sinh^2(sqrt k_i), then
    sh_i = sinh(sqrt k_i)/sqrt k_i gives v_i = H12[i,i]/sh_i,
    u_i = H21[i,i]/sh_i, x4 = H12[2,0]/sh_1, x5 = H12[2,1]/sh_2 and
    x3 = H12[2,2] - x4^2 u_1 s1(k_1) - x5^2 u_2 s1(k_2).  Nothing here is
    certified: the caller recomposes.  A non-finite h gives NaN or inf
    entries, never an exception.  polar_factor calls the same formulas
    (_log_wedge) on the rows of tau(g)^{-1} g and keeps (v, u) as Python
    floats, with no arrays in between.
    """
    v, u = _log_wedge(np.asarray(h, dtype=float).tolist())
    return InvariantConeElement(v=np.array(v), u=np.array(u))


def _log_wedge(m) -> tuple[list, list]:
    """log_wedge on h's rows m = h.tolist(), giving (v, u) as lists of
    Python floats."""
    # H12[i, j] = m[i][3 + j], H21[i, j] = m[3 + i][j]
    v = [0.0] * 5
    u = [0.0, 0.0]
    s1 = [0.0, 0.0]
    for i in range(2):
        # round-off can push the product of a zero entry slightly negative
        root = math.sqrt(max(m[i][3 + i] * m[3 + i][i], 0.0))
        a = math.asinh(root)  # sqrt k_i, well conditioned near 0
        sh = root / a if a != 0 else 1.0  # at least 1, or NaN
        v[i] = m[i][3 + i] / sh
        u[i] = m[3 + i][i] / sh
        v[3 + i] = m[2][3 + i] / sh
        s1[i] = _s1(a * a)
    v[2] = m[2][5] - v[3] * v[3] * u[0] * s1[0] - v[4] * v[4] * u[1] * s1[1]
    return v, u


def polar_compose(A, X: InvariantConeElement) -> np.ndarray:
    """congruence_embed(A) @ exp of the wedge generator."""
    return congruence_embed(A) @ exp_wedge(X)


def polar_factor(g):
    """Split an interior semigroup element as g = congruence_embed(A) @ exp(X).

    tau(g) = S g S with S = diag(I, -I) fixes the units and negates the
    wedge, so tau(g)^{-1} g = exp(2X): log_wedge reads 2X off it in closed
    form.  The top-left block of g is A (I + V Dc) = A [[e1, 0, 0],
    [0, e2, 0], [f1, f2, 1]] with e_i >= 1 on the wedge, which does not
    involve x3, so A follows by triangular substitution, with none of the
    cancellation of g exp(-X).  The top-right block is A E12 with
    E12[2,2] = x3 + x4^2 u1 s1(k1) + x5^2 u2 s1(k2); solving it for x3
    reads x3 at the scale of g, where the entries of tau(g)^{-1} g, about
    maxabs(g)^2 in size, have lost digits.
    Certified or raised: a non-member is a DomainError; once membership
    holds, A not positive triangular (a diagonal entry not positive, or
    singular by linalg's rule), X outside the wedge (NaN included) or a
    recomposition residual above POLAR_RESIDUAL_TOL is a ConvergenceError
    that carries the measured value.  Each certificate reads the factors
    as built: the wedge rule runs on (v, u), A on its diagonal and det3,
    and the residual forms A exp(X)[:3] and A^{-T} exp(X)[3:] in one
    (2, 3, 3) @ (2, 3, 6) product.  g is read once: the memoised tube read
    (group._tube) keeps maxabs(g) and g's rows, which the unit solve reads.
    """
    g = _matrix6(g)
    reads = _tube(g.tobytes())  # compression_reason(g)'s read and chart verdict, asked once
    if (reason := reads[0] or _ask(reads, _chart_reason, MEMBERSHIP_TOL)) is not None:
        raise DomainError(f"not in the compression semigroup: {reason}")
    _, scale, m, *_ = reads
    # tau(g)^{-1} g, then scalar steps on Python floats (linalg's arithmetic rule)
    v, u = _log_wedge((g.take(_TAU_INVERSE) @ g).tolist())
    v = [x / 2 for x in v]
    u = [x / 2 for x in u]
    # Dc and Ds involve u and k_i = u_i v_i only, not x3
    dc, ds = _wedge_diagonals(v, u)
    e1, e2 = 1.0 + v[0] * dc[0], 1.0 + v[1] * dc[1]
    f1, f2 = v[3] * dc[0], v[4] * dc[1]
    a3 = m[2][2]
    try:
        a1, a2 = m[0][0] / e1, m[1][1] / e2
        a4, a5 = (m[2][0] - a3 * f1) / e1, (m[2][1] - a3 * f2) / e2
    except ZeroDivisionError:  # an e_i of 0 makes a1 or a2 numpy's inf or NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            diag = np.array([m[0][0], m[1][1], a3]) / [e1, e2, 1.0]
        raise ConvergenceError(f"polar unit factor has diagonal {diag}") from None
    rows = [[a1, 0.0, 0.0], [0.0, a2, 0.0], [a4, a5, a3]]  # triangular(a1, ..., a5)
    d = det3(rows)
    if not (a1 > 0 and a2 > 0 and a3 > 0) or is_singular3(rows, d):
        raise ConvergenceError(f"polar unit factor has diagonal {np.array([a1, a2, a3])}")
    # E12[2,2] of A^{-1} g[:3, 3:], by substitution down its last column
    corner = (m[2][5] - a4 * (m[0][5] / a1) - a5 * (m[1][5] / a2)) / a3
    v[2] = corner - v[3] * v[3] * ds[0] - v[4] * v[4] * ds[1]
    x_scale = float_maxabs(v + u)  # maxabs of X's matrix
    if (reason := _wedge_reason(v, u, MEMBERSHIP_TOL, x_scale)) is not None:
        raise ConvergenceError(
            f"recovered generator outside the wedge: {reason} "
            f"(v = {np.array(v)}, u = {np.array(u)})"
        )
    adj = adjugate3_flat(rows)  # A^{-T} is adj^T / d
    f = np.array(rows[0] + rows[1] + rows[2] + [x / d for x in adj[0::3] + adj[1::3] + adj[2::3]]
                 + _exp_rows(v, u, dc, ds), dtype=float)
    recomposed = f[:18].reshape(2, 3, 3) @ f[18:].reshape(2, 3, 6)
    residual = maxabs(recomposed.reshape(6, 6) - g) / (1.0 + scale)
    if not residual <= POLAR_RESIDUAL_TOL:  # a NaN residual fails too
        raise ConvergenceError(f"polar recomposition residual {residual:.3e}")
    return f[:9].reshape(3, 3), InvariantConeElement(v=np.array(v), u=np.array(u))


# interior_element's upper, linear and lower factors before their blocks are written
_FACTORS = np.array([1.0, 0.0, 1.0])[:, None, None] * np.eye(6)


def interior_element(L, v, u) -> np.ndarray:
    """triple_compose(v, L, exp(u)) for a unit L (..., 3, 3), a point v
    (..., 5) and normals u (..., 2); SingularityError where L is singular."""
    # congruence_embed(L) with inv3's singularity test
    Li, d = inv3_stack(L)
    check_rows(is_singular3(L, d), lambda r: SingularityError(SINGULAR_MESSAGE))
    f = np.broadcast_to(_FACTORS, L.shape[:-2] + (3, 6, 6)).copy()
    f[..., 0, :3, 3:] = embed_stack(v)
    f[..., 1, :3, :3] = L
    f[..., 1, 3:, 3:] = np.swapaxes(Li, -1, -2)
    f[..., 2, [3, 4], [0, 1]] = np.exp(u)
    return f[..., 0, :, :] @ f[..., 1, :, :] @ f[..., 2, :, :]


def sample_semigroup(rng, interior: bool = True, sigma: float = 1.0) -> np.ndarray:
    """Random semigroup element from chart factors.

    interior=True keeps v in the open cone and u strictly positive
    (interior_element of 12 normals: L, cone_point's factor and u);
    interior=False pushes v onto a random boundary orbit (congruence of a
    0/1 diagonal) and masks u entries to zero at random, so zeroed
    randomness gives the identity.
    """
    if interior:
        w = sigma * rng.standard_normal(12)
        return interior_element(positive_triangular(w[:5]), cone_point(w[5:10]), w[10:])
    A = sample_positive_triangular(rng, sigma)
    L2 = sample_positive_triangular(rng, sigma)
    eps = (rng.random(3) >= 0.5).astype(float)
    v = unembed(L2 @ np.diag(eps) @ L2.T)
    u = np.abs(sigma * rng.standard_normal(2)) * (rng.random(2) >= 0.5)
    return triple_compose(TripleFactors(v=v, L=A, u=u))


def sample_symplectic_semigroup(rng, sigma: float = 1.0) -> np.ndarray:
    """Random interior compression of the full positive definite cone:
    unipotent times well-conditioned linear times dual unipotent, with
    strictly positive definite unipotent blocks."""
    q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    A = q1 @ np.diag(np.exp(rng.uniform(-sigma, sigma, 3))) @ q2
    w1 = rng.standard_normal((3, 3)) / np.sqrt(3.0)
    w2 = rng.standard_normal((3, 3)) / np.sqrt(3.0)
    B = w1 @ w1.T + 1e-3 * np.eye(3)
    C = w2 @ w2.T + 1e-3 * np.eye(3)
    upper = np.eye(6)
    upper[:3, 3:] = B
    lower = np.eye(6)
    lower[3:, :3] = C
    return upper @ congruence_embed(A) @ lower
