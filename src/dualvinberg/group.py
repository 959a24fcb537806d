"""Tube-domain automorphisms realized inside the real symplectic group.

A real 6x6 matrix g = [[A, B], [C, D]] acts on complex symmetric 3x3
arguments by the fractional linear map

    g.z = (A z + B)(C z + D)^{-1}.

The symplectic condition makes the result symmetric; the subgroup
preserving the patterned tube domain (imaginary part in the open cone) is
cut out by block patterns on A, B, C, D.  On the dense chart where D is
invertible every element factors uniquely as

    translation(v) @ congruence_embed(L) @ [[I, 0], [U, I]]

with v in the patterned subspace, L triangular and U = diag(u1, u2, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cone import (
    FLAT_ZEROS,
    PATTERN_TOL,
    TRIANGULAR_ZEROS,
    embed,
    embed_diag_pair,
    in_open_cone,
    is_flat_pattern,
    pattern_parts,
    refuse_off_pattern,
    unembed,
)
from .errors import DomainError, PatternError, SingularityError, check_rows
from .linalg import (
    SINGULAR_MESSAGE,
    adjugate3_flat,
    det3,
    float_maxabs,
    inv3,
    inv3_stack,
    is_singular3,
    maxabs,
    stack_maxabs,
)

SYMPLECTIC_FORM = np.block(
    [[np.zeros((3, 3)), -np.eye(3)], [np.eye(3), np.zeros((3, 3))]]
)
SYMPLECTIC_FORM.flags.writeable = False  # symplectic_defect subtracts it

SYMPLECTIC_TOL = 1e-10
# pattern tolerance of computed action results, which carry round-off
ACTION_PATTERN_TOL = 1e-9

# failure reasons of tube_group_reason, in check order; the first five are
# the linear-part checks that tube_group_alt_reason shares
TUBE_GROUP_REASONS = (
    "not symplectic",
    "A off pattern",
    "A[3,3] not positive",
    "D off pattern",
    "D[3,3] not positive",
    "B off pattern",
    "C off pattern",
)


def _matrix6(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (6, 6):
        raise ValueError(f"expected a 6x6 matrix, got shape {g.shape}")
    return g


def symplectic_defect(g):
    """Largest violation of the block relations A^T C, D^T B symmetric and
    D^T A - B^T C = I, read off the one block product
    P = [A B]^T [C D] = [[A^T C, A^T D], [B^T C, B^T D]]: g^T J g = J for
    J = SYMPLECTIC_FORM is P - P^T = -J.  NaN when any relation is NaN.
    A float for one g (6, 6), an (n,) array for a stack (n, 6, 6), equal
    row by row to the bit; one g's is _block_defect's, as the tube read's.
    The transposed side, g J g^T = J, is symplectic_defect(g.T)."""
    g = np.asarray(g, dtype=float)
    if g.shape == (6, 6):
        return _block_defect(g)[1]
    if g.shape[-2:] != (6, 6) or g.ndim != 3:
        raise ValueError(f"expected a 6x6 matrix or a stack of them, got shape {g.shape}")
    P = g[..., :3, :].swapaxes(-1, -2) @ g[..., 3:, :]
    return stack_maxabs(P - P.swapaxes(-1, -2) + SYMPLECTIC_FORM)


def is_symplectic(g) -> bool:
    """Block test at tolerance SYMPLECTIC_TOL * (1 + maxabs(g)**2), False when
    that overflows; equivalent to g J g^T = J for the standard form J.  The
    first check of the memoised tube test on one 6x6 matrix."""
    return _tube(_matrix6(g).tobytes())[0] != TUBE_GROUP_REASONS[0]


# pattern zeros of the tube test as (row, column) slots of g, besides A's
# TRIANGULAR_ZEROS: D^T triangular, B[0,1] and B[1,0], C in the flat slice
_DT_ZEROS = tuple((3 + j, 3 + i) for i, j in TRIANGULAR_ZEROS)
_B_ZEROS = ((0, 4), (1, 3))
_C_ZEROS = tuple((3 + i, j) for i, j in FLAT_ZEROS)
# flat slots of g that the stacked tube test reads: 17 zeros, A[2,2] and D[2,2]
_TUBE_ZEROS = TRIANGULAR_ZEROS + _DT_ZEROS + _B_ZEROS + _C_ZEROS
_TUBE_SLOTS = np.array([6 * i + j for i, j in _TUBE_ZEROS] + [14, 35])


def _block_defect(g) -> tuple:
    """P = [A B]^T [C D] of one 6x6 g and its defect, as a stack's row."""
    P = g[:3].T @ g[3:]
    return P, float(np.abs(P - P.T + SYMPLECTIC_FORM).max())


def tube_group_reason(g) -> str | None:
    """None when g lies in the tube automorphism group; otherwise the first
    failing block constraint."""
    return _tube(_matrix6(g).tobytes())[0]


@lru_cache(maxsize=1)
def _tube(key: bytes) -> tuple:
    """The one memo of the one-matrix routes: for the 6x6 float64 g whose
    C-order bytes are key, (tube_group_reason(g), maxabs(g), g.tolist(),
    then for a symplectic g whether D is singular (linalg.is_singular3),
    D^T B and C D^T as nested Python floats, each None otherwise, and a
    dict of the verdicts _ask keeps).  It reads the read-only array rebuilt
    from key, so it depends on the bytes alone, and keeps the last read
    only, which no reader edits.  D^T B is the defect's block B^T D
    transposed, formed quietly where 6 * maxabs(g)**2, a bound of every
    entry of P and P - P^T, overflows; C D^T is its own product (README).
    The slots of _TUBE_ZEROS are read unrolled, in check order; the first
    five checks are the linear part both descriptions share."""
    g = np.frombuffer(key).reshape(6, 6)
    scale = maxabs(g)
    m = g.tolist()
    bound = SYMPLECTIC_TOL * (1.0 + scale * scale)
    P, defect = _quietly(not 6.0 * scale * scale < np.inf, _block_defect, g)
    if not (bound < np.inf and defect <= bound):
        return TUBE_GROUP_REASONS[0], scale, m, None, None, None, {}
    atol = PATTERN_TOL * (1.0 + scale)
    ((_, g01, g02, _, g04, _), (g10, _, g12, g13, _, _), (_, _, g22, _, _, _),
     (_, g31, g32, _, g34, _), (g40, _, g42, g43, _, _), (g50, g51, g52, g53, g54, g55)) = m
    if not (abs(g01) <= atol and abs(g02) <= atol and abs(g10) <= atol and abs(g12) <= atol):
        reason = TUBE_GROUP_REASONS[1]
    elif not g22 > 0:
        reason = TUBE_GROUP_REASONS[2]
    elif not (abs(g43) <= atol and abs(g53) <= atol and abs(g34) <= atol and abs(g54) <= atol):
        reason = TUBE_GROUP_REASONS[3]
    elif not g55 > 0:
        reason = TUBE_GROUP_REASONS[4]
    elif not (abs(g04) <= atol and abs(g13) <= atol):
        reason = TUBE_GROUP_REASONS[5]
    elif not (abs(g31) <= atol and abs(g32) <= atol and abs(g40) <= atol and abs(g42) <= atol
              and abs(g50) <= atol and abs(g51) <= atol and abs(g52) <= atol):
        reason = TUBE_GROUP_REASONS[6]
    else:
        reason = None
    singular = is_singular3([row[3:] for row in m[3:]])
    return reason, scale, m, singular, P[3:, 3:].T.tolist(), (g[3:, :3] @ g[3:, 3:].T).tolist(), {}


def _quietly(quiet: bool, fn, *args):
    """fn(*args), numpy's float warnings silenced where quiet: where a scale
    bound overflows, or where the caller raises on what overflowed."""
    if not quiet:
        return fn(*args)
    with np.errstate(all="ignore"):
        return fn(*args)


def _ask(reads, rule, tol):
    """rule(reads, tol), run once per (rule, tol) and kept on g's _tube read."""
    answer = reads[6].get((rule, tol), reads)  # no rule answers with the read itself
    if answer is reads:
        answer = reads[6][rule, tol] = rule(reads, tol)
    return answer


def _tube_members(g, scale):
    """The tube test on a stack (n, 6, 6) given its maxabs: a mask, True
    where tube_group_reason(g[i]) is None.  Every check runs on every row:
    the symplectic bound, the 17 pattern zeros in one gather and the two
    corners, gathered by flat index."""
    t = g.reshape(len(g), 36)[:, _TUBE_SLOTS]
    atol = PATTERN_TOL * (1.0 + scale)
    zeros, corners = np.abs(t[:, :17]) <= atol[:, None], t[:, 17:] > 0
    bound = SYMPLECTIC_TOL * (1.0 + scale * scale)
    return (bound < np.inf) & (symplectic_defect(g) <= bound) & zeros.all(1) & corners.all(1)


def in_tube_group(g) -> bool:
    return tube_group_reason(g) is None


def tube_group_alt_reason(g) -> str | None:
    """Same group through product constraints: A and D^T patterned with
    positive corner, D^T B in the patterned subspace, C D^T in the flat
    slice, read from the memoised _tube(g.tobytes()), which holds both
    products of a symplectic g, D singular or not.  It agrees with
    tube_group_reason except in a band: the products are bounded by
    PATTERN_TOL * (1 + maxabs(g)**2), the slots of B and C there by
    PATTERN_TOL * (1 + maxabs(g)), so a small off-pattern B or C entry can
    fail there and pass here (B[0,1] = 5e-11 at maxabs(g) = 4 is "B off
    pattern" there and a member here)."""
    reason, scale, _, _, S, P, _ = _tube(_matrix6(g).tobytes())
    if reason in TUBE_GROUP_REASONS[:5]:
        return reason
    atol2 = PATTERN_TOL * (1.0 + scale * scale)
    # maxabs(S - S^T); a diagonal gap is NaN where S overflows
    gap = float_maxabs([S[i][j] - S[j][i] for i in range(3) for j in range(3)])
    if max(gap, abs(S[0][1]), abs(S[1][0])) > atol2:
        return "D^T B leaves the patterned subspace"
    if not is_flat_pattern(P, atol2):
        return "C D^T not in the flat slice"
    return None


def in_tube_group_alt(g) -> bool:
    return tube_group_alt_reason(g) is None


def translation(v) -> np.ndarray:
    """z -> z + v for v in the patterned subspace."""
    g = np.eye(6)
    g[:3, 3:] = embed(np.asarray(v, dtype=float))
    return g


def dual_translation(u) -> np.ndarray:
    """The inversion conjugate of a flat translation: [[I, 0], [-U, I]]
    with U = diag(u1, u2, 0)."""
    g = np.eye(6)
    g[3:, :3] = -embed_diag_pair(np.asarray(u, dtype=float))
    return g


def congruence_embed(A) -> np.ndarray:
    """blockdiag(A, A^{-T}), the linear map z -> A z A^T inside the
    symplectic group.  A must be invertible; it need not be triangular,
    but only triangular A land in the tube group."""
    A = np.asarray(A, dtype=float)
    g = np.zeros((6, 6))
    g[:3, :3] = A
    g[3:, 3:] = inv3(A).T
    return g


def inversion() -> np.ndarray:
    """The order-four rational symmetry fixing the base point i*I.

    It inverts the first two coordinates, z1 -> -1/z1, z2 -> -1/z2, and
    conjugates flat translations into dual ones.
    """
    g = np.zeros((6, 6))
    g[:3, :3] = np.diag([0.0, 0.0, 1.0])
    g[:3, 3:] = np.diag([-1.0, -1.0, 0.0])
    g[3:, :3] = np.diag([1.0, 1.0, 0.0])
    g[3:, 3:] = np.diag([0.0, 0.0, 1.0])
    return g


def isotropy_rotation(theta: float, phi: float) -> np.ndarray:
    """Stabilizer of the base point: plane rotations by theta and phi in
    the first two coordinate pairs (angles taken mod 2 pi)."""
    c = np.diag([np.cos(theta), np.cos(phi), 1.0])
    s = np.diag([np.sin(theta), np.sin(phi), 0.0])
    g = np.zeros((6, 6))
    g[:3, :3] = c
    g[:3, 3:] = -s
    g[3:, :3] = s
    g[3:, 3:] = c
    return g


def mobius(g, Z) -> tuple[np.ndarray, np.ndarray]:
    """The fractional-linear kernel: (A Z + B)(C Z + D)^{-1} and
    (C Z + D)^{-1} for one g (6, 6) and Z (3, 3), real or complex, or row
    by row for stacks (n, 6, 6) and (n, 3, 3).

    SingularityError for the first row where C Z + D is singular
    (linalg.is_singular3's rule).
    """
    g = np.asarray(g, dtype=float)
    if g.shape[-2:] != (6, 6):
        raise ValueError(f"expected 6x6 matrices, got shape {g.shape}")
    A, B, C, D = g[..., :3, :3], g[..., :3, 3:], g[..., 3:, :3], g[..., 3:, 3:]
    M = C @ Z + D
    Mi, d = inv3_stack(M)
    check_rows(is_singular3(M, d), lambda r: SingularityError(SINGULAR_MESSAGE))
    return (A @ Z + B) @ Mi, Mi


def unembed_action(W) -> np.ndarray:
    """Coordinates of a computed action result or pushforward, one 3x3
    matrix or a stack (n, 3, 3) giving (n, 5), which carries round-off:
    cone.unembed at pattern tolerance ACTION_PATTERN_TOL, scale-relative."""
    return unembed(W, ACTION_PATTERN_TOL * (1.0 + stack_maxabs(W)))


def act(g, z) -> np.ndarray:
    """Fractional linear action on a tube point (imaginary part interior).

    The result is again a tube point; its pattern zeros are exact for
    exactly patterned g.
    """
    z = np.asarray(z, dtype=complex)
    if not in_open_cone(z.imag):
        raise DomainError("imaginary part outside the open cone")
    W, _ = mobius(g, embed(z))
    return unembed_action(W)


def act_real(g, x) -> np.ndarray:
    """Real form of the action, defined wherever C embed(x) + D is
    invertible."""
    W, _ = mobius(g, embed(np.asarray(x, dtype=float)))
    return unembed_action(W)


def triple_decomposition_reason(g) -> str | None:
    """None on the dense chart, where triple_decompose(g) finds factors;
    otherwise the message of its DomainError: an entry not finite, D
    singular by linalg.is_singular3, or, only where its bound
    8 maxabs(g)**3 / |det D| overflows, a chart factor not finite.  B D^{-1}
    off the pattern (its PatternError) is no reason."""
    try:
        triple_decompose(g)
    except DomainError as exc:
        return str(exc)
    except PatternError:
        pass
    return None


@dataclass(frozen=True)
class TripleFactors:
    """Factors of g = translation(v) @ congruence_embed(L) @ [[I,0],[U,I]]."""

    v: np.ndarray
    L: np.ndarray
    u: np.ndarray


def triple_decompose(g) -> TripleFactors:
    """Unique chart factors: v = B D^{-1}, L = D^{-T} (equal to
    A - B D^{-1} C), u = diagonal pair of D^{-1} C.  DomainError on a
    non-finite entry or factor, SingularityError when det D = 0.  It reads
    g on its own, with no tube read, and _chart_factors factors it."""
    m = _matrix6(g).tolist()
    scale = float_maxabs(m[0] + m[1] + m[2] + m[3] + m[4] + m[5])
    if not scale < math.inf:  # NaN fails too
        raise DomainError("entry not finite")
    return _chart_factors(m, scale)


def _chart_factors(m, scale) -> TripleFactors:
    """triple_decompose on g's rows m as Python floats, left as they are, and
    their finite maxabs; B D^{-1} and D^{-1} C are one stacked @ (linalg)."""
    D = [row[3:] for row in m[3:]]
    d = det3(D)
    if is_singular3(D, d):
        raise SingularityError("det D = 0")
    Dinv = [x / d for x in adjugate3_flat(D)]  # inv3(D), with D's one singularity test
    f = m[0][3:] + m[1][3:] + m[2][3:] + Dinv + Dinv + m[3][:3] + m[4][:3] + m[5][:3]
    # 6 maxabs(g)**3 / |det D| bounds both products; 8 leaves room for round-off
    quiet = not 8.0 * scale * scale * scale / abs(d) < math.inf
    BD, DC = _quietly(quiet, np.matmul, *np.array(f, dtype=float).reshape(2, 2, 3, 3)).tolist()
    off, v = pattern_parts(BD)  # unembed's rule: off beyond atol or a forbidden entry not finite
    finite = math.isfinite(BD[0][1]) and math.isfinite(BD[1][0])
    refuse_off_pattern(off > ACTION_PATTERN_TOL * (1.0 + scale * scale) or not finite, off)
    # only where the bound overflows can a factor (D^-1 included) be inf or NaN
    if quiet and not float_maxabs(v + Dinv + [DC[0][0], DC[1][1]]) < math.inf:
        raise DomainError("chart factor not finite")
    L = np.array(Dinv[0::3] + Dinv[1::3] + Dinv[2::3], dtype=float).reshape(3, 3)
    return TripleFactors(np.array(v, dtype=float), L, np.array([DC[0][0], DC[1][1]], dtype=float))


def triple_compose(f: TripleFactors) -> np.ndarray:
    """Multiply the three chart factors back together."""
    lower = np.eye(6)
    lower[3:, :3] = embed_diag_pair(f.u)
    return translation(f.v) @ congruence_embed(f.L) @ lower
