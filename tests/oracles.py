"""Reference routes kept as test oracles for the package's fast ones.

exp_lie and log_group are the general-algebra matrix exponential and
principal logarithm (scipy); spd_metric_triangular whitens with two
triangular solves.  The package needs none of them: its polar
factorization runs on the closed-form exp_wedge/log_wedge and its
spd_metric on numpy alone.  search_violations_reference is the expansion
search as a loop of one-sample calls, which the stacked search must
reproduce to the bit.  symplectic_defect_blocks is the symplectic defect
as three 3x3 relations, which the one block product must reproduce, and
symplectic_defect_dual_blocks the same on the transposed side.

exp_wedge_reference is the closed-form exp_wedge as numpy array
arithmetic on embed(v): I + V * dc and V * ds by broadcasting, the two
3x3 products and four block writes; the package forms the same entries
on Python floats.

tube_read_reference is the memoised read of g (group._tube) with each
piece of work on its own: the defect from its own block product, the
pattern zeros through their slot tables, D^T B and C D^T as two products
on transposed views.  The package takes D^T B from the defect's product
and reads the slots unrolled; every field must equal it to the bit.

tube_group_reason_reference, invariant_cone_reason_reference and
polar_factor_reference are the certificates on numpy blocks and rebuilt
matrices: the tube test reading numpy scalars off the blocks, the wedge
test on the matrix of a generator, and the polar factorization through
S inverse(g) S g, a triangular-pattern test of the unit and the 6x6
product congruence_embed(A) exp(X).  The package's routes must give the
same reasons, verdicts and factors bit for bit.  inverse is the
symplectic inverse written out on the blocks, a route to tau(g)^{-1}
independent of the package's index gather, and in_positive_triangular
the identity component of the triangular group.

triple_decompose_reference is the chart factorization on numpy blocks:
D^{-1} as the array adjugate3 over det3, v read by cone.unembed of
B @ D^{-1} and u by cone.diag_pair of D^{-1} @ C; the dump references
convert each entry with float().  s1_series_reference is the series of
semigroup._s1 as a loop over its coefficients.  The package's factors,
dumps and series must equal them bit for bit.  compression_factors_reference
is the certified factorization as a chain of public calls: the chart
verdict, a decomposition that reads g afresh, then the three factor
certificates; the package factors the rows of g's memoised read.

cross_check_membership_reference is the cross-check with each route
forming its own chart products and verdict, each rule run on a fresh
read of g (group._tube's unmemoised function), where the package forms
them once for both on its one memo (MEMOS).

lambda_min is the eigvalsh reference for "m + t*I is positive
semidefinite", that is lambda_min(m) >= -t, which linalg.semidefinite3
decides in closed form; closed_cone_reason_reference and
symplectic_semigroup_reason_reference are the two semidefinite
certificates with eigvalsh deciding every input.

exact_minors and exact_cone_metric are the minors and the metric form in
rational arithmetic (fractions), on the exact value of each float input,
a dyadic rational.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import scipy.linalg

import dualvinberg as dv
from dualvinberg import group, semigroup
from dualvinberg.cone import (
    MEMBERSHIP_TOL,
    PATTERN_TOL,
    TRIANGULAR_ZEROS,
    closed_cone_reason,
    diag_pair,
    embed,
    embed_diag_pair,
    is_flat_pattern,
    is_triangular_pattern,
    triangular_params,
    unembed,
)
from dualvinberg.errors import (
    ConvergenceError,
    DomainError,
    InconsistencyError,
    PatternError,
    SingularityError,
)
from dualvinberg.group import SYMPLECTIC_TOL, TUBE_GROUP_REASONS, symplectic_defect
from dualvinberg.linalg import adjugate3, det3, float_maxabs, is_singular3, maxabs

# scale-relative off-algebra residue above which log_group refuses
LOG_PATTERN_TOL = 1e-6


class SpectrumError(DomainError):
    """An eigenvalue sits on the closed negative real axis, so the
    principal logarithm is undefined."""


def project_lie(X) -> tuple[np.ndarray, float]:
    """Nearest graded-algebra element and the off-algebra residue."""
    X = np.asarray(X, dtype=float)
    A = dv.triangular(dv.triangular_params((X[:3, :3] - X[3:, 3:].T) / 2))
    # unembed averages the mirror pairs, which is the symmetric projection
    v = dv.unembed(X[:3, 3:], atol=np.inf)
    proj = dv.lie_element(A, v, diag_pair(X[3:, :3]))
    return proj, maxabs(X - proj)


def exp_lie(X) -> np.ndarray:
    """Matrix exponential (scaling and squaring with Pade approximants).
    On nilpotent translation generators it matches the unipotent closed
    form to machine precision."""
    return scipy.linalg.expm(np.asarray(X, dtype=float))


def log_group(g) -> np.ndarray:
    """Principal logarithm projected onto the graded algebra.

    Raises SpectrumError when an eigenvalue touches the closed negative
    real axis, and PatternError when the log exists but its off-algebra
    residue exceeds LOG_PATTERN_TOL (scale-relative), meaning g is not an
    exponential from this algebra.
    """
    g = np.asarray(g, dtype=float)
    lam = np.linalg.eigvals(g)
    on_axis = (lam.real <= 0) & (np.abs(lam.imag) <= 1e-10 * (1.0 + np.abs(lam)))
    if bool(on_axis.any()):
        raise SpectrumError("eigenvalue on the closed negative real axis")
    with warnings.catch_warnings():
        # the Schur-based logm warns about its own error estimate; the
        # round trip is checked by the tests instead
        warnings.simplefilter("ignore")
        X = scipy.linalg.logm(g)
    Xr = np.real(X)
    proj, residue = project_lie(Xr)
    residue = max(residue, maxabs(np.imag(X)))
    if not residue <= LOG_PATTERN_TOL * (1.0 + maxabs(Xr)):  # NaN fails too
        raise PatternError(f"off-algebra residue {residue:.3e}")
    return proj


def spd_metric_triangular(x, v, w) -> tuple[float, float]:
    """2 tr(x^{-1} v x^{-1} w), whitened by triangular solves against the
    Cholesky factor L of x, and its Cauchy-Schwarz scale 2 |a_v| |a_w|
    (Frobenius norms of the whitened a_m = L^{-1} m L^{-T}), which bounds
    the value and sets the size of its round-off."""
    L = np.linalg.cholesky(np.asarray(x, dtype=float))

    def whiten(m):
        half = scipy.linalg.solve_triangular(L, np.asarray(m, dtype=float), lower=True)
        return scipy.linalg.solve_triangular(L, half.T, lower=True)

    av, aw = whiten(v), whiten(w)
    return float(2.0 * np.sum(av * aw.T)), float(2.0 * np.linalg.norm(av) * np.linalg.norm(aw))


def search_violations_reference(rng, n_samples: int, include_counterexample: bool = True):
    """The expansion search one sample at a time: sample_semigroup,
    sample_cone and a normalised tangent from each child, then
    contraction_ratio on the one-matrix route."""
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    violations = []
    max_ratio = -np.inf
    for i, child in enumerate(rng.spawn(n_samples)):
        if i == 0 and include_counterexample:
            rec = dv.counterexample()
        else:
            g = dv.sample_semigroup(child, interior=True)
            x = dv.sample_cone(child)
            v = child.standard_normal(5)
            v /= np.linalg.norm(v)
            rec = dv.contraction_ratio(g, x, v)
        rec = replace(rec, seed_index=i)
        max_ratio = max(max_ratio, rec.ratio)
        if rec.violated:
            violations.append(rec)
    return violations, dv.SearchSummary(
        max_ratio=float(max_ratio), violation_count=len(violations), n_samples=n_samples
    )


def blocks(g) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The blocks A, B, C, D of one 6x6 g = [[A, B], [C, D]], as views."""
    g = np.asarray(g, dtype=float)
    if g.shape != (6, 6):
        raise ValueError(f"expected a 6x6 matrix, got shape {g.shape}")
    return g[:3, :3], g[:3, 3:], g[3:, :3], g[3:, 3:]


def symplectic_defect_blocks(g) -> float:
    """The symplectic defect from three 3x3 relations: A^T C and D^T B
    symmetric, D^T A - B^T C = I.  The builtin max keeps a NaN only in
    first place, so a NaN relation after the first is dropped."""
    A, B, C, D = blocks(g)
    r1 = A.T @ C
    r2 = D.T @ B
    r3 = D.T @ A - B.T @ C - np.eye(3)
    return max(maxabs(r1 - r1.T), maxabs(r2 - r2.T), maxabs(r3))


def symplectic_defect_dual_blocks(g) -> float:
    """The dual defect from three 3x3 relations: B A^T and C D^T
    symmetric, A D^T - B C^T = I, with the same NaN rule."""
    A, B, C, D = blocks(g)
    r1 = B @ A.T
    r2 = C @ D.T
    r3 = A @ D.T - B @ C.T - np.eye(3)
    return max(maxabs(r1 - r1.T), maxabs(r2 - r2.T), maxabs(r3))


def tube_group_reason_reference(g) -> str | None:
    """The tube test on numpy blocks: is_symplectic from its own maxabs,
    then the pattern zeros and corners read as numpy scalars."""
    g = np.asarray(g, dtype=float)
    A, B, C, D = blocks(g)
    atol = PATTERN_TOL * (1.0 + maxabs(g))
    bound = float(SYMPLECTIC_TOL * (1.0 + np.float64(maxabs(g)) ** 2))
    if not (bound < np.inf and symplectic_defect(g) <= bound):
        return TUBE_GROUP_REASONS[0]
    if not is_triangular_pattern(A, atol):
        return TUBE_GROUP_REASONS[1]
    if not A[2, 2] > 0:
        return TUBE_GROUP_REASONS[2]
    if not is_triangular_pattern(D.T, atol):
        return TUBE_GROUP_REASONS[3]
    if not D[2, 2] > 0:
        return TUBE_GROUP_REASONS[4]
    if max(abs(B[0, 1]), abs(B[1, 0])) > atol:
        return TUBE_GROUP_REASONS[5]
    if not is_flat_pattern(C, atol):
        return TUBE_GROUP_REASONS[6]
    return None


def tube_read_reference(key: bytes) -> tuple:
    """group._tube's miss with each piece of work on its own: the defect
    by its own block product, the pattern slots read through their tables
    one group at a time, and D^T B and C D^T as two products on transposed
    views of D."""
    g = np.frombuffer(key).reshape(6, 6)
    scale = maxabs(g)
    atol = PATTERN_TOL * (1.0 + scale)
    m = g.tolist()
    bound = SYMPLECTIC_TOL * (1.0 + scale * scale)
    with np.errstate(all="ignore"):  # the package forms the defect quietly where it can overflow
        P = g[:3].T @ g[3:]
        defect = float(np.abs(P - P.T + group.SYMPLECTIC_FORM).max())
    if not (bound < np.inf and defect <= bound):
        return TUBE_GROUP_REASONS[0], scale, m, None, None, None, {}
    checks = (
        (TRIANGULAR_ZEROS, None),
        ((), (2, 2)),
        (group._DT_ZEROS, None),
        ((), (5, 5)),
        (group._B_ZEROS, None),
        (group._C_ZEROS, None),
    )
    reason = None
    for k, (slots, corner) in enumerate(checks):
        holds = all(abs(m[i][j]) <= atol for i, j in slots)
        if not (holds and (corner is None or m[corner[0]][corner[1]] > 0)):
            reason = TUBE_GROUP_REASONS[k + 1]
            break
    D = g[3:, 3:]
    with np.errstate(all="ignore"):
        DtB, CDt = (D.T @ g[:3, 3:]).tolist(), (g[3:, :3] @ D.T).tolist()
    return reason, scale, m, is_singular3(D.tolist()), DtB, CDt, {}


def invariant_cone_reason_reference(X, tol: float = MEMBERSHIP_TOL) -> str | None:
    """The wedge test on a generator's 6x6 matrix, every check inline."""
    X = np.asarray(X, dtype=float)
    scale = maxabs(X)
    if not scale < np.inf:
        return "entry not finite"
    atol = tol * (1.0 + scale)
    if not max(maxabs(X[:3, :3]), maxabs(X[3:, 3:])) <= atol:
        return "grade-zero part not zero"
    try:
        v = dv.unembed(X[:3, 3:], atol=atol)
    except PatternError:
        return "translation part off pattern"
    if closed_cone_reason(v, tol) is not None:
        return "translation part outside the closed cone"
    U = X[3:, :3]
    if not is_flat_pattern(U, atol):
        return "dual part not in the flat slice"
    if not min(U[0, 0], U[1, 1]) >= -atol:
        return "dual part has a negative entry"
    return None


def inverse(g) -> np.ndarray:
    """Symplectic inverse [[D^T, -B^T], [-C^T, A^T]], exact on the blocks."""
    A, B, C, D = blocks(g)
    out = np.zeros((6, 6))
    out[:3, :3] = D.T
    out[:3, 3:] = -B.T
    out[3:, :3] = -C.T
    out[3:, 3:] = A.T
    return out


def in_positive_triangular(A) -> bool:
    """The transitive identity component of the triangular group: the
    triangular pattern with all three diagonal entries positive."""
    A = np.asarray(A, dtype=float)
    return bool(is_triangular_pattern(A) and A[0, 0] > 0 and A[1, 1] > 0 and A[2, 2] > 0)


def exp_wedge_reference(v, u, dc, ds) -> np.ndarray:
    """semigroup._exp_rows on numpy arrays: V = embed(v), V diag(d) as
    the broadcast V * d, the identity from np.eye."""
    V = embed(v)
    top = np.eye(3) + V * dc
    Vds = V * ds
    E = np.empty((6, 6))
    E[:3, :3] = top
    E[:3, 3:] = V + Vds @ V
    E[3:, :3] = embed_diag_pair(u) @ (np.eye(3) + Vds)
    E[3:, 3:] = top.T
    return E


def polar_factor_reference(g):
    """polar_factor through S inverse(g) S g, the unit checked as a
    triangular matrix, the wedge on X.matrix() and the residual of the
    6x6 product congruence_embed(A) exp(X)."""
    g = np.asarray(g, dtype=float)
    if (reason := semigroup.compression_reason(g)) is not None:
        raise DomainError(f"not in the compression semigroup: {reason}")
    S = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    Y = dv.log_wedge(S @ inverse(g) @ S @ g)
    v, u = Y.v / 2, Y.u / 2
    dc, ds = semigroup._wedge_diagonals(v, u)
    e1, e2 = 1.0 + v[0] * dc[0], 1.0 + v[1] * dc[1]
    f1, f2 = v[3] * dc[0], v[4] * dc[1]
    a1, a2, a3 = g[0, 0] / e1, g[1, 1] / e2, g[2, 2]
    a4, a5 = (g[2, 0] - a3 * f1) / e1, (g[2, 1] - a3 * f2) / e2
    A = dv.triangular([a1, a2, a3, a4, a5])
    if not in_positive_triangular(A) or is_singular3(A):
        raise ConvergenceError(f"polar unit factor has diagonal {np.diag(A)}")
    corner = (g[2, 5] - a4 * (g[0, 5] / a1) - a5 * (g[1, 5] / a2)) / a3
    v[2] = corner - v[3] ** 2 * ds[0] - v[4] ** 2 * ds[1]
    X = dv.InvariantConeElement(v=v, u=u)
    if (reason := invariant_cone_reason_reference(X.matrix())) is not None:
        raise ConvergenceError(
            f"recovered generator outside the wedge: {reason} (v = {X.v}, u = {X.u})"
        )
    E = exp_wedge_reference(v, u, dc, ds)
    residual = maxabs(dv.congruence_embed(A) @ E - g) / (1.0 + maxabs(g))
    if not residual <= semigroup.POLAR_RESIDUAL_TOL:
        raise ConvergenceError(f"polar recomposition residual {residual:.3e}")
    return A, X


def triple_decompose_reference(g) -> group.TripleFactors:
    """triple_decompose on numpy blocks, with inv3's singularity test."""
    g = np.asarray(g, dtype=float)
    A, B, C, D = blocks(g)
    scale = maxabs(g)
    if not scale < np.inf:
        raise DomainError("entry not finite")
    rows = D.tolist()
    d = det3(rows)
    if is_singular3(rows, d):
        raise SingularityError("det D = 0")
    Dinv = adjugate3(rows) / d
    v = unembed(B @ Dinv, atol=group.ACTION_PATTERN_TOL * (1.0 + scale * scale))
    return group.TripleFactors(v=v, L=Dinv.T.copy(), u=diag_pair(Dinv @ C))


def compression_factors_reference(g, tol: float = MEMBERSHIP_TOL, decompose=group.triple_decompose):
    """compression_factors as compression_reason(g, tol), then decompose(g)
    and the certificates on its factors."""
    if (reason := semigroup.compression_reason(g, tol)) is not None:
        raise DomainError(f"not in the compression semigroup: {reason}")
    f = decompose(g)
    if (reason := closed_cone_reason(f.v, tol)) is not None:
        raise DomainError(f"factor v outside the closed cone: {reason}")
    if not is_triangular_pattern(f.L):
        raise DomainError("factor L off the triangular pattern")
    u = f.u.tolist()
    if not min(u) >= -tol * (1.0 + float_maxabs(u)):
        raise DomainError("factor u has a negative entry")
    return f


def dump_vector5_reference(x) -> list[float]:
    return [float(e) for e in np.asarray(x, dtype=float)]


def dump_pair_reference(u) -> list[float]:
    return [float(u[0]), float(u[1])]


def dump_triangular_reference(A) -> list[float]:
    return [float(e) for e in triangular_params(A)]


def s1_series_reference(t: float) -> float:
    acc = 0.0
    for c in reversed(semigroup._S1_SERIES):
        acc = acc * t + c
    return acc


# every memo of the one-matrix membership routes: g's reads, which hold the
# products and the chart and semidefinite verdicts per tol; a cold call clears it
MEMOS = (group._tube,)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def cross_check_membership_reference(g, tol: float = MEMBERSHIP_TOL) -> bool:
    """cross_check_membership with every chart and PSD check a standalone
    call on a fresh read of g, which forms D's singularity test, D^T B and
    C D^T itself."""
    g = np.asarray(g, dtype=float)

    def fresh(rule, tol):
        return rule(group._tube.__wrapped__(g.tobytes()), tol) is None

    tube = group.tube_group_reason(g) is None
    direct = tube and fresh(semigroup._chart_reason, tol)
    via = tube and fresh(semigroup._psd_reason, tol)
    if direct == via:
        return via
    slack = semigroup.CROSS_CHECK_SLACK * tol if via else tol / semigroup.CROSS_CHECK_SLACK
    if fresh(semigroup._chart_reason, slack) == via:
        return via
    raise InconsistencyError("the routes disagree beyond tolerance slack")


def lambda_min(m) -> float:
    """Smallest eigenvalue of a symmetric matrix by eigvalsh; m + t*I is
    positive semidefinite when lambda_min(m) >= -t."""
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=float)).min())


def closed_cone_reason_reference(x, tol: float = MEMBERSHIP_TOL) -> str | None:
    """closed_cone_reason with eigvalsh deciding every finite point."""
    m = embed(np.asarray(x, dtype=float))
    scale = maxabs(m)
    if not np.isfinite(scale):
        return "coordinate not finite"
    lo = lambda_min(m)
    if not lo >= -tol * (1.0 + scale):
        return f"eigenvalue {lo:.3e} below -tol"
    return None


def symplectic_semigroup_reason_reference(g, tol: float = MEMBERSHIP_TOL) -> str | None:
    """symplectic_semigroup_reason with eigvalsh deciding both
    semidefinite tests."""
    g = np.asarray(g, dtype=float)
    if not dv.is_symplectic(g):
        return "not symplectic"
    _, B, C, D = blocks(g)
    if is_singular3(D):
        return "det D = 0"
    for name, S in (("D^T B", D.T @ B), ("C D^T", C @ D.T)):
        S = (S + S.T) / 2
        if not lambda_min(S) >= -tol * (1.0 + maxabs(S)):
            return f"{name} not positive semidefinite"
    return None


def exact_minors(x) -> tuple[Fraction, Fraction, Fraction]:
    """The three nested minors of embed(x), exactly."""
    x1, x2, x3, x4, x5 = map(Fraction, x)
    return x1, x1 * x2, x1 * x2 * x3 - x1 * x5 * x5 - x2 * x4 * x4


def exact_cone_metric(x, v) -> Fraction:
    """cone_metric(x, v, v) exactly, for coordinates given as floats or
    fractions: -(v1^2/x1^2 + v2^2/x2^2)/2 + 2 tr((X^{-1} V)^2), with
    X^{-1} the adjugate of X = embed(x) over its determinant."""
    a, b, c, d, e = map(Fraction, x)
    v1, v2, v3, v4, v5 = map(Fraction, v)
    V = [[v1, 0, v4], [0, v2, v5], [v4, v5, v3]]
    adj = [[b * c - e * e, d * e, -b * d], [d * e, a * c - d * d, -a * e], [-b * d, -a * e, a * b]]
    det = exact_minors(x)[2]
    M = [[sum(adj[i][k] * V[k][j] for k in range(3)) / det for j in range(3)] for i in range(3)]
    trace = sum(M[i][k] * M[k][i] for i in range(3) for k in range(3))
    return -(v1 * v1 / (a * a) + v2 * v2 / (b * b)) / 2 + 2 * trace


def exact_gram(x) -> list[list[Fraction]]:
    """The 5 x 5 Gram matrix of the metric at x on the coordinate basis,
    exactly, by polarisation: (u|w) = ((u+w|u+w) - (u-w|u-w)) / 4."""
    basis = [[int(i == j) for j in range(5)] for i in range(5)]

    def form(u, w, sign):
        return exact_cone_metric(x, [a + sign * b for a, b in zip(u, w)])

    return [[(form(u, w, 1) - form(u, w, -1)) / 4 for w in basis] for u in basis]


def ldl_pivots(m) -> list[Fraction]:
    """The pivots of the LDL^T factorization of a symmetric matrix with
    exact entries, by elimination without row exchanges; every pivot but
    the last must be nonzero."""
    m = [list(row) for row in m]
    pivots = []
    for k in range(len(m)):
        pivots.append(m[k][k])
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            for j in range(k + 1, len(m)):
                m[i][j] -= f * m[k][j]
    return pivots
