"""Canonical Hessian metric and the failure of semigroup contractivity.

The metric on the patterned cone is the Hessian of the log of the
characteristic function,

    (v|w)_x = -1/2 (v1 w1 / x1^2 + v2 w2 / x2^2) + 2 tr(X^{-1} V X^{-1} W),

invariant under the cone's automorphisms.  The analogous metric on the
full positive definite cone is 2 tr(x^{-1} v x^{-1} w); the symplectic
compressions never expand that one, but the patterned semigroup does
expand its own metric, and this module carries a frozen witness plus a
random search around it.  The ratio chain (cone_metric, contraction_ratios)
takes one point or a stack of them; the search evaluates a whole sweep in
one stacked pass, row for row the arithmetic of the one-point calls.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .cone import (
    IDENTITY_POINT,
    embed,
    in_open_cone,
    log_char_function,
    positive_triangular,
    push_identity,
    read_pattern,
    refuse_off_pattern,
)
from .errors import DomainError, PatternError, check_rows
from .group import TripleFactors, act_real, mobius, translation, triple_compose, unembed_action
from .linalg import inv3_stack
from .semigroup import (
    compression_members,
    compression_reason,
    symplectic_semigroup_reason,
)

# a ratio counts as a violation strictly beyond this slack over 1
VIOLATION_THRESHOLD = 1e-12


def cone_metric(x, v, w):
    """The invariant bilinear form at an interior point x: a float for one
    point, an array row by row for stacks (n, 5); v and w take x's shape, or
    ValueError.  DomainError, quietly, for x outside the open cone, then where
    det X (the third minor) or the form is not finite: inv(X) divides by inf."""
    x, v, w = (np.asarray(a, dtype=float) for a in (x, v, w))
    if not (x.shape == v.shape == w.shape and x.shape[-1:] == (5,) and x.ndim <= 2):
        raise ValueError(f"shapes {x.shape}, {v.shape}, {w.shape}, not (5,) or (n, 5) each")
    with np.errstate(all="ignore"):  # a row that warns fails a check, which raises
        return _form(x, v, w)


def _form(x, v, w):
    check_rows(
        np.logical_not(in_open_cone(x)),
        lambda r: DomainError("base point outside the open cone"),
    )
    # positive minors certify invertibility, so no singularity threshold
    Xi, d = inv3_stack(embed(x))
    (x1, x2), (v1, v2), (w1, w2) = x.T[:2], v.T[:2], w.T[:2]
    first = -0.5 * (v1 * w1 / (x1 * x1) + v2 * w2 / (x2 * x2))
    V = embed(v)  # once where w is v, as the ratio pass calls it
    Q = Xi @ V @ Xi @ (V if w is v else embed(w))
    # the trace as np.trace sums it: from 0, along the diagonal
    form = first + 2.0 * (0.0 + Q[..., 0, 0] + Q[..., 1, 1] + Q[..., 2, 2])
    check_rows(
        ~(np.isfinite(d) & np.isfinite(form)),
        lambda r: DomainError("metric form or base point minor not finite"),
    )
    return float(form) if x.ndim == 1 else form


def spd_metric(x, v, w) -> float:
    """2 tr(x^{-1} v x^{-1} w) on the full positive definite cone,
    computed through a Cholesky factor for stability."""
    x = np.asarray(x, dtype=float)
    try:
        L = np.linalg.cholesky(x)
    except np.linalg.LinAlgError as exc:
        raise DomainError("base point not positive definite") from exc

    def whiten(m):
        half = np.linalg.solve(L, np.asarray(m, dtype=float))
        return np.linalg.solve(L, half.T)

    return float(2.0 * np.sum(whiten(v) * whiten(w).T))


def cone_metric_fd(x, v, w, h: float = 1e-4) -> float:
    """Central second difference of log char along (v, w); all four
    stencil points must stay in the open cone."""
    x, v, w = (np.asarray(a, dtype=float) for a in (x, v, w))
    f = log_char_function
    return (
        f(x + h * (v + w)) - f(x + h * (v - w)) - f(x - h * (v - w)) + f(x - h * (v + w))
    ) / (4.0 * h * h)


def action_jacobian(g, x, v) -> np.ndarray:
    """Pushforward of the real fractional action:
    V -> M^{-T} V M^{-1} with M = C embed(x) + D."""
    _, Mi = mobius(g, embed(np.asarray(x, dtype=float)))
    return unembed_action(Mi.T @ embed(np.asarray(v, dtype=float)) @ Mi)


def action_jacobian_fd(g, x, v, h: float = 1e-4) -> np.ndarray:
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    return (act_real(g, x + h * v) - act_real(g, x - h * v)) / (2.0 * h)


@dataclass(frozen=True)
class ContractionRecord:
    """One probe of the metric stretch of g at x along v."""

    g: np.ndarray
    x: np.ndarray
    v: np.ndarray
    ratio: float
    violated: bool
    seed_index: int = 0


def contraction_ratios(g, x, v):
    """(Jv|Jv) at g.x over (v|v) at x for a semigroup element g: a float for
    one (g, x, v), an array row by row for stacks (n, 6, 6), (n, 5), (n, 5);
    ValueError for other shapes.

    Every row runs every check of the one-row path: g in the compression
    semigroup (compression_reason, or for a stack the mask
    compression_members), x in the open cone, v nonzero, C X + D
    invertible, the image and then the pushforward on the pattern, the
    image in the open cone, and the forms and minors at x, then at the
    image, finite.  A stack runs as one pass when the mask certifies
    every row.  Otherwise, or when the pass raises (at its first failing
    check, where a lower row may fail a later one), it returns the loop of
    one-row calls, which raises for the lowest failing row or admits a
    member that only eigvalsh accepts.
    """
    g, x, v = (np.asarray(a, dtype=float) for a in (g, x, v))
    if g.shape[-2:] != (6, 6) or g.ndim > 3 or not x.shape == v.shape == g.shape[:-2] + (5,):
        raise ValueError(f"shapes {g.shape}, {x.shape}, {v.shape}, not (n, 6, 6), (n, 5), (n, 5)")
    if g.ndim == 2:
        if (reason := compression_reason(g)) is not None:
            raise DomainError(f"not in the compression semigroup: {reason}")
        return _stretch(g, x, v)
    if compression_members(g).all():
        try:
            return _stretch(g, x, v)
        except (DomainError, PatternError):
            pass
    return np.array([contraction_ratios(*row) for row in zip(g, x, v)])


def _stretch(g, x, v):
    """contraction_ratios past the semigroup check, as one pass over a
    stack; one row runs as a stack of one.  The last check is the
    division's: a tangent whose form at x underflows to zero raises."""
    if one := g.ndim == 2:
        g, x, v = g[None], x[None], v[None]
    n = len(x)
    with np.errstate(all="ignore"):  # a failing row computes garbage until its check raises
        check_rows(~in_open_cone(x), lambda r: DomainError("base point outside the open cone"))
        check_rows(~v.any(-1), lambda r: DomainError("zero tangent vector"))
        check_rows(~np.isfinite(v).all(-1), lambda r: DomainError("tangent vector not finite"))
        # one kernel call gives both the image point and the pushforward
        W, Mi = mobius(g, embed(x))
        yjv = unembed_action(np.concatenate((W, np.swapaxes(Mi, -1, -2) @ embed(v) @ Mi)))
        tangents = np.concatenate((v, yjv[n:]))
        form = _form(np.concatenate((x, yjv[:n])), tangents, tangents)
        check_rows(form[:n] == 0, lambda r: DomainError("tangent form underflows to zero"))
        ratios = form[n:] / form[:n]
    return float(ratios[0]) if one else ratios


def contraction_ratio(g, x, v) -> ContractionRecord:
    """One probe of contraction_ratios as a record; a ratio beyond
    1 + VIOLATION_THRESHOLD is a violation.  The ratio is invariant under
    scaling v."""
    g, x, v = (np.asarray(a, dtype=float) for a in (g, x, v))
    ratio = contraction_ratios(g, x, v)
    return ContractionRecord(
        g=g, x=x, v=v, ratio=ratio, violated=bool(ratio > 1.0 + VIOLATION_THRESHOLD)
    )


def contraction_ratio_spd(g, x, v) -> float:
    """Same stretch for the full positive definite cone and its metric;
    never exceeds 1 for a symplectic compression."""
    g, x, v = (np.asarray(a, dtype=float) for a in (g, x, v))
    if (reason := symplectic_semigroup_reason(g)) is not None:
        raise DomainError(f"not in the symplectic semigroup: {reason}")
    y, Mi = mobius(g, x)
    y = (y + y.T) / 2
    jv = Mi.T @ v @ Mi
    return spd_metric(y, jv, jv) / spd_metric(x, v, v)


_WITNESS = (translation([1.0, 1.0, 1.01, -1.0, 0.0]), IDENTITY_POINT.copy(),
            np.array([1.0, 0.0, 1.0, 1.0, 0.0]))


def counterexample() -> ContractionRecord:
    """The frozen expanding configuration.

    Translating by (1, 1, 1.01, -1, 0) is a semigroup element (the shift
    lies in the closed cone), yet at the identity it stretches the tangent
    (1, 0, 1, 1, 0): the form value moves from exactly 7.5 to
    -1/8 + 2 (6.01/3.02)^2, a ratio of about 1.0394.
    """
    return contraction_ratio(*(a.copy() for a in _WITNESS))


@dataclass(frozen=True)
class SearchSummary:
    max_ratio: float
    violation_count: int
    n_samples: int


# One sample's normals, as sample_semigroup(rng, interior=True),
# sample_cone(rng) and the tangent draw them: 12, 5 and 5.
_DRAWS = 22

# rows per stacked pass of the search
_BLOCK = 4096

# one sample's parameters of L and of the triangular factors of v and x
_TRIANGULAR_DRAWS = np.array([[0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [12, 13, 14, 15, 16]])


def _sample_rows(z):
    """g, x and the unit tangent v of one row of normals (22,) or of every
    row of a stack (n, 22), as sample_semigroup, sample_cone and the
    tangent normalisation build them one at a time, to the bit.  One row
    raises in their order (v off pattern, L singular, x off pattern)."""
    with np.errstate(all="ignore"):  # a failing row computes garbage until its check raises
        T = positive_triangular(z[..., _TRIANGULAR_DRAWS])
        vx, off, refused = read_pattern(push_identity(T[..., 1:, :, :]))
        refuse_off_pattern(refused[..., 0], off[..., 0])
        g = triple_compose(TripleFactors(vx[..., 0, :], T[..., 0, :, :], np.exp(z[..., 10:12])))
        refuse_off_pattern(refused[..., 1], off[..., 1])
        t = z[..., 17:22]
        # the BLAS dot of np.linalg.norm, row by row (a reduction along the
        # axis sums in another order); a witness row of zeros gives NaN here
        return g, vx[..., 1, :], t / np.sqrt(t[..., None, :] @ t[..., :, None])[..., 0]


def search_violations(rng, n_samples: int) -> tuple[list[ContractionRecord], SearchSummary]:
    """Random sweep for metric expansion over the patterned cone.

    Row 0 is the frozen counterexample (its child draws nothing).  Sample
    i >= 1 draws an interior semigroup element, an interior base point and
    a unit tangent from the i-th child generator of rng; the children are
    derived, not spawned, so a rerun on rng repeats the sweep.  The sweep
    is certified and measured in stacked passes of up to _BLOCK rows; a
    failing sample raises what the one-sample calls raise.  Returns the
    violating records, which own their arrays, and the sweep summary.
    """
    n_samples = operator.index(n_samples)
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    from .streams import child_normals  # here: the package import skips numpy.random
    violations: list[ContractionRecord] = []
    max_ratio = -np.inf
    # blocks of rows bound the memory of long sweeps; a failing block
    # raises before any later one, as the loop would
    for start in range(0, n_samples, _BLOCK):
        z = np.zeros((min(_BLOCK, n_samples - start), _DRAWS))
        sampled = max(start, 1)  # the first sampled row
        child_normals(rng, sampled, out=z[sampled - start :])
        try:
            g, x, v = _sample_rows(z)
        except (DomainError, PatternError):
            # the block reruns as the one-sample loop, which decides the error
            for i in range(sampled, start + len(z)):
                contraction_ratios(*_sample_rows(z[i - start]))
            raise
        if start == 0:
            g[0], x[0], v[0] = _WITNESS
        # with every row sampled, this raises what the loop raises
        ratios = contraction_ratios(g, x, v)
        violations += [
            ContractionRecord(
                g=g[i].copy(), x=x[i].copy(), v=v[i].copy(), ratio=float(ratios[i]),
                violated=True, seed_index=start + int(i),
            )
            for i in np.flatnonzero(ratios > 1.0 + VIOLATION_THRESHOLD)
        ]
        # the builtin max of a loop over the ratios, which passes NaN over
        max_ratio = float(np.fmax.reduce(ratios, initial=max_ratio))
    return violations, SearchSummary(
        max_ratio=max_ratio, violation_count=len(violations), n_samples=n_samples
    )
