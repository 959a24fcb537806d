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

from dataclasses import dataclass

import numpy as np

from .cone import (
    IDENTITY_POINT,
    MEMBERSHIP_TOL,
    embed,
    embed_stack,
    in_open_cone,
    log_char_function,
)
from .errors import DomainError, RowFailures, SingularityError, check_rows
from .group import act_real, mobius, translation, unembed_action
from .linalg import SINGULAR_MESSAGE, inv3_stack, is_singular3
from .semigroup import (
    COMPRESSION_REASONS,
    compression_codes,
    compression_reason,
    symplectic_semigroup_reason,
)

# a ratio counts as a violation strictly beyond this slack over 1
VIOLATION_THRESHOLD = 1e-12


def cone_metric(x, v, w, failures=None):
    """The invariant bilinear form at an interior point x: a float for one
    point, an array row by row for stacks (n, 5).  DomainError for a base
    point outside the open cone, deferred to a RowFailures sink when one
    is given."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    check_rows(
        failures,
        np.logical_not(in_open_cone(x)),
        lambda r: DomainError("base point outside the open cone"),
    )
    # positive minors certify invertibility, so no singularity threshold
    Xi, _ = inv3_stack(embed_stack(x))
    (x1, x2), (v1, v2), (w1, w2) = x.T[:2], v.T[:2], w.T[:2]
    first = -0.5 * (v1 * w1 / (x1 * x1) + v2 * w2 / (x2 * x2))
    second = 2.0 * np.trace(Xi @ embed_stack(v) @ Xi @ embed_stack(w), axis1=-2, axis2=-1)
    form = first + second
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


def contraction_ratios(g, x, v, tol: float = MEMBERSHIP_TOL, failures=None):
    """(Jv|Jv) at g.x over (v|v) at x for a semigroup element g: a float for
    one (g, x, v), an array row by row for stacks (n, 6, 6), (n, 5), (n, 5).

    Every row runs every check of the one-row path: g in the compression
    semigroup (one matrix takes the early-exit compression_reason, a stack
    compression_codes), x in the open cone, v nonzero, C X + D
    invertible, the image and the pushforward on the pattern, and the image
    in the open cone.  A failing stack raises what a loop of one-row calls
    raises first; a RowFailures sink passed in holds checks the caller ran
    on the same rows before these.
    """
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if g.ndim == 2:
        # one row raises at its first failing check, as the loop would
        if (reason := compression_reason(g, tol)) is not None:
            raise DomainError(f"not in the compression semigroup: {reason}")
    else:
        failures = RowFailures() if failures is None else failures
        codes = compression_codes(g, tol)
        failures.add(
            codes != 0,
            lambda r: DomainError(
                f"not in the compression semigroup: {COMPRESSION_REASONS[codes[r] - 1]}"
            ),
        )
    with np.errstate(all="ignore"):  # failed rows run on until raise_first
        before = cone_metric(x, v, v, failures)
        check_rows(failures, ~np.any(v, axis=-1), lambda r: DomainError("zero tangent vector"))
        # one kernel call gives both the image point and the pushforward
        W, Mi = mobius(g, embed_stack(x), failures)
        y = unembed_action(W, failures)
        jv = unembed_action(np.swapaxes(Mi, -1, -2) @ embed_stack(v) @ Mi, failures)
        after = cone_metric(y, jv, jv, failures)
    if failures is not None:
        failures.raise_first()
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


# One sample's 22 standard normals, in the order sample_semigroup(rng,
# interior=True), sample_cone(rng) and the tangent draw them one call at a
# time: 3+2 for the unit, 3+2 for v, 2 for u, 3+2 for x, 5 for the tangent.
_DRAWS = 22

# rows per stacked pass of the search
_BLOCK = 4096


def _positive_triangular_rows(z) -> np.ndarray:
    """sample_positive_triangular(rng, 1.0) on each row of normals (n, 5)."""
    T = np.zeros((len(z), 3, 3))
    T[:, [0, 1, 2], [0, 1, 2]] = np.exp(z[:, :3])
    T[:, 2, :2] = z[:, 3:]
    return T


def _cone_rows(z, failures: RowFailures) -> np.ndarray:
    """sample_cone(rng, 1.0) on each row of normals (n, 5); the congruence of
    a triangular unit keeps its pattern zeros exact unless an entry
    overflows."""
    T = _positive_triangular_rows(z)
    return unembed_action(T @ np.eye(3) @ np.swapaxes(T, 1, 2), failures)


def _sample_rows(z, failures: RowFailures):
    """g, x and the unit tangent v of every row of normals (n, 22), as
    sample_semigroup, sample_cone and the tangent normalisation build
    them from the same draws one sample at a time, to the bit."""
    n = len(z)
    L = _positive_triangular_rows(z[:, 0:5])
    upper = np.tile(np.eye(6), (n, 1, 1))
    upper[:, :3, 3:] = embed_stack(_cone_rows(z[:, 5:10], failures))
    Li, d = inv3_stack(L)
    check_rows(
        failures,
        is_singular3(L, d),
        lambda r: SingularityError(SINGULAR_MESSAGE),
    )
    linear = np.zeros((n, 6, 6))
    linear[:, :3, :3] = L
    linear[:, 3:, 3:] = np.swapaxes(Li, 1, 2)
    lower = np.tile(np.eye(6), (n, 1, 1))
    lower[:, [3, 4], [0, 1]] = np.exp(z[:, 10:12])
    g = upper @ linear @ lower
    x = _cone_rows(z[:, 12:17], failures)
    t = z[:, 17:22]
    # the BLAS dot of np.linalg.norm, row by row (a reduction along the
    # axis sums in another order); a witness row of zeros gives NaN here
    with np.errstate(invalid="ignore"):
        return g, x, t / np.sqrt(t[:, None, :] @ t[:, :, None])[:, 0]


def search_violations(
    rng, n_samples: int, include_counterexample: bool = True
) -> tuple[list[ContractionRecord], SearchSummary]:
    """Random sweep for metric expansion over the patterned cone.

    Sample i draws an interior semigroup element, an interior base point
    and a unit tangent from the i-th child generator of rng, so records
    are reproducible per seed.  Row 0 is the frozen counterexample unless
    disabled (its child draws nothing).  The sweep is certified and
    measured in stacked passes of up to _BLOCK rows, and a failing sample
    raises what the one-sample calls raise.  Returns the violating
    records, which own their arrays, and the sweep summary.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    children = rng.spawn(n_samples)
    first = 1 if include_counterexample else 0
    violations: list[ContractionRecord] = []
    max_ratio = -np.inf
    # blocks of rows bound the memory of long sweeps; a failing block
    # raises before any later one, as the loop would
    for start in range(0, n_samples, _BLOCK):
        z = np.zeros((min(_BLOCK, n_samples - start), _DRAWS))
        for i in range(max(start, first), start + len(z)):
            z[i - start] = children[i].standard_normal(_DRAWS)
        failures = RowFailures()
        g, x, v = _sample_rows(z, failures)
        if start < first:
            g[0], x[0], v[0] = _witness()
        ratios = contraction_ratios(g, x, v, failures=failures)
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
