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
    MEMBERSHIP_TOL,
    cone_point,
    embed,
    embed_stack,
    in_open_cone,
    log_char_function,
)
from .errors import DomainError, PatternError, check_rows
from .group import act_real, mobius, translation, unembed_action
from .linalg import inv3_stack
from .semigroup import (
    compression_codes,
    compression_reason,
    interior_element,
    symplectic_semigroup_reason,
)

# a ratio counts as a violation strictly beyond this slack over 1
VIOLATION_THRESHOLD = 1e-12


def cone_metric(x, v, w):
    """The invariant bilinear form at an interior point x: a float for one
    point, an array row by row for stacks (n, 5).  DomainError for a base
    point outside the open cone, then for one whose determinant (the third
    minor) or form is not finite: inv(X) would divide by inf."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    check_rows(
        np.logical_not(in_open_cone(x)),
        lambda r: DomainError("base point outside the open cone"),
    )
    # positive minors certify invertibility, so no singularity threshold
    Xi, d = inv3_stack(embed_stack(x))
    (x1, x2), (v1, v2), (w1, w2) = x.T[:2], v.T[:2], w.T[:2]
    first = -0.5 * (v1 * w1 / (x1 * x1) + v2 * w2 / (x2 * x2))
    second = 2.0 * np.trace(Xi @ embed_stack(v) @ Xi @ embed_stack(w), axis1=-2, axis2=-1)
    form = first + second
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

    av = whiten(v)
    aw = whiten(w)
    return float(2.0 * np.sum(av * aw.T))


def cone_metric_fd(x, v, w, h: float = 1e-4) -> float:
    """Central second difference of log char along (v, w); all four
    stencil points must stay in the open cone."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
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
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
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


def contraction_ratios(g, x, v, tol: float = MEMBERSHIP_TOL):
    """(Jv|Jv) at g.x over (v|v) at x for a semigroup element g: a float for
    one (g, x, v), an array row by row for stacks (n, 6, 6), (n, 5), (n, 5).

    Every row runs every check of the one-row path: g in the compression
    semigroup (one matrix takes the early-exit compression_reason, a stack
    compression_codes), x in the open cone, v nonzero, C X + D
    invertible, the image and the pushforward on the pattern, and the image
    in the open cone.  A stack raises at its first failing check, and a
    lower row may fail a later one: a failing stack reruns its rows as a
    loop of one-row calls, which raises what that loop raises first.
    """
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if g.ndim == 2:
        if (reason := compression_reason(g, tol)) is not None:
            raise DomainError(f"not in the compression semigroup: {reason}")
        return _stretch(g, x, v)
    try:
        if compression_codes(g, tol).any():
            raise DomainError("not in the compression semigroup")
        return _stretch(g, x, v)
    except (DomainError, PatternError):
        # the one-row calls name the failing row and check
        for row in zip(g, x, v):
            contraction_ratios(*row, tol)
        raise


def _stretch(g, x, v):
    """contraction_ratios past the semigroup check."""
    with np.errstate(all="ignore"):  # a failing row computes garbage until its check raises
        before = cone_metric(x, v, v)
        check_rows(~np.any(v, axis=-1), lambda r: DomainError("zero tangent vector"))
        # one kernel call gives both the image point and the pushforward
        W, Mi = mobius(g, embed_stack(x))
        y = unembed_action(W)
        jv = unembed_action(np.swapaxes(Mi, -1, -2) @ embed_stack(v) @ Mi)
        after = cone_metric(y, jv, jv)
    return after / before


def contraction_ratio(g, x, v, tol: float = MEMBERSHIP_TOL) -> ContractionRecord:
    """One probe of contraction_ratios as a record; a ratio beyond
    1 + VIOLATION_THRESHOLD is a violation.  The ratio is invariant under
    scaling v."""
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    ratio = contraction_ratios(g, x, v, tol)
    return ContractionRecord(
        g=g, x=x, v=v, ratio=ratio, violated=bool(ratio > 1.0 + VIOLATION_THRESHOLD)
    )


def contraction_ratio_spd(g, x, v, tol: float = MEMBERSHIP_TOL) -> float:
    """Same stretch for the full positive definite cone and its metric;
    never exceeds 1 for a symplectic compression."""
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if (reason := symplectic_semigroup_reason(g, tol)) is not None:
        raise DomainError(f"not in the symplectic semigroup: {reason}")
    y, Mi = mobius(g, x)
    y = (y + y.T) / 2
    jv = Mi.T @ v @ Mi
    return spd_metric(y, jv, jv) / spd_metric(x, v, v)


def _witness() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    g = translation([1.0, 1.0, 1.01, -1.0, 0.0])
    return g, IDENTITY_POINT.copy(), np.array([1.0, 0.0, 1.0, 1.0, 0.0])


def counterexample() -> ContractionRecord:
    """The frozen expanding configuration.

    Translating by (1, 1, 1.01, -1, 0) is a semigroup element (the shift
    lies in the closed cone), yet at the identity it stretches the tangent
    (1, 0, 1, 1, 0): the form value moves from exactly 7.5 to
    -1/8 + 2 (6.01/3.02)^2, a ratio of about 1.0394.
    """
    return contraction_ratio(*_witness())


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


def _sample_rows(z):
    """g, x and the unit tangent v of one row of normals (22,) or of every
    row of a stack (n, 22), as sample_semigroup, sample_cone and the
    tangent normalisation build them one sample at a time, to the bit."""
    g = interior_element(z[..., :12])
    x = cone_point(z[..., 12:17])
    t = z[..., 17:22]
    # the BLAS dot of np.linalg.norm, row by row (a reduction along the
    # axis sums in another order); a witness row of zeros gives NaN here
    with np.errstate(invalid="ignore"):
        return g, x, t / np.sqrt(t[..., None, :] @ t[..., :, None])[..., 0]


def search_violations(
    rng, n_samples: int, include_counterexample: bool = True
) -> tuple[list[ContractionRecord], SearchSummary]:
    """Random sweep for metric expansion over the patterned cone.

    Sample i draws an interior semigroup element, an interior base point and
    a unit tangent from the i-th child generator of rng; the children are
    derived, not spawned, so a rerun on rng repeats the sweep.  Row 0 is the
    frozen counterexample unless disabled (its child draws nothing).  The
    sweep is certified and measured in stacked passes of up to _BLOCK rows;
    a failing sample raises what the one-sample calls raise.  Returns the
    violating records, which own their arrays, and the sweep summary.
    """
    n_samples = operator.index(n_samples)
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    from .streams import child_normals  # here: the package import skips numpy.random
    first = 1 if include_counterexample else 0
    violations: list[ContractionRecord] = []
    max_ratio = -np.inf
    # blocks of rows bound the memory of long sweeps; a failing block
    # raises before any later one, as the loop would
    for start in range(0, n_samples, _BLOCK):
        z = np.zeros((min(_BLOCK, n_samples - start), _DRAWS))
        child_normals(rng, max(start, first), out=z[max(first - start, 0) :])
        try:
            g, x, v = _sample_rows(z)
        except (DomainError, PatternError):
            # the block reruns as the one-sample loop, which decides the error
            for i in range(max(start, first), start + len(z)):
                contraction_ratios(*_sample_rows(z[i - start]))
            raise
        if start < first:
            g[0], x[0], v[0] = _witness()
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
