"""Canonical Hessian metric and the failure of semigroup contractivity.

The metric on the patterned cone is the Hessian of the log of the
characteristic function,

    (v|w)_x = -1/2 (v1 w1 / x1^2 + v2 w2 / x2^2) + 2 tr(X^{-1} V X^{-1} W),

invariant under the cone's automorphisms.  The analogous metric on the
full positive definite cone is 2 tr(x^{-1} v x^{-1} w); the symplectic
compressions never expand that one, but the patterned semigroup does
expand its own metric, and this module carries a frozen witness plus a
random search around it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cone import (
    IDENTITY_POINT,
    MEMBERSHIP_TOL,
    embed,
    in_open_cone,
    log_char_function,
    sample_cone,
)
from .errors import DomainError
from .group import act_real, mobius, translation, unembed_action
from .linalg import adjugate3, det3
from .semigroup import (
    compression_reason,
    sample_semigroup,
    symplectic_semigroup_reason,
)

# a ratio counts as a violation strictly beyond this slack over 1
VIOLATION_THRESHOLD = 1e-12


def cone_metric(x, v, w) -> float:
    """The invariant bilinear form at an interior point x."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if not in_open_cone(x):
        raise DomainError("base point outside the open cone")
    # positive minors certify invertibility, so no singularity threshold
    X = embed(x)
    Xi = adjugate3(X) / det3(X)
    first = -0.5 * (v[0] * w[0] / x[0] ** 2 + v[1] * w[1] / x[1] ** 2)
    second = 2.0 * np.trace(Xi @ embed(v) @ Xi @ embed(w))
    return float(first + second)


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


def contraction_ratio(g, x, v, tol: float = MEMBERSHIP_TOL) -> ContractionRecord:
    """(Jv|Jv) at g.x over (v|v) at x for a semigroup element g.

    The ratio is invariant under scaling v; a value beyond
    1 + VIOLATION_THRESHOLD is recorded as a violation.
    """
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if (reason := compression_reason(g, tol)) is not None:
        raise DomainError(f"not in the compression semigroup: {reason}")
    if not in_open_cone(x):
        raise DomainError("base point outside the open cone")
    if not np.any(v):
        raise DomainError("zero tangent vector")
    # one kernel call gives both the image point and the pushforward
    W, Mi = mobius(g, embed(x))
    y = unembed_action(W)
    jv = unembed_action(Mi.T @ embed(v) @ Mi)
    ratio = cone_metric(y, jv, jv) / cone_metric(x, v, v)
    return ContractionRecord(
        g=g, x=x, v=v, ratio=float(ratio),
        violated=bool(ratio > 1.0 + VIOLATION_THRESHOLD),
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


def counterexample() -> ContractionRecord:
    """The frozen expanding configuration.

    Translating by (1, 1, 1.01, -1, 0) is a semigroup element (the shift
    lies in the closed cone), yet at the identity it stretches the tangent
    (1, 0, 1, 1, 0): the form value moves from exactly 7.5 to
    -1/8 + 2 (6.01/3.02)^2, a ratio of about 1.0394.
    """
    g = translation([1.0, 1.0, 1.01, -1.0, 0.0])
    x = IDENTITY_POINT.copy()
    v = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    return contraction_ratio(g, x, v)


@dataclass(frozen=True)
class SearchSummary:
    max_ratio: float
    violation_count: int
    n_samples: int


def search_violations(
    rng, n_samples: int, include_counterexample: bool = True
) -> tuple[list[ContractionRecord], SearchSummary]:
    """Random sweep for metric expansion over the patterned cone.

    Each sample draws an interior semigroup element, an interior base
    point and a unit tangent from its own child generator, so records are
    reproducible per seed independent of evaluation order.  Sample 0 is
    the frozen counterexample unless disabled.  Returns the violating
    records and the sweep summary.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    violations: list[ContractionRecord] = []
    max_ratio = -np.inf
    for i, child in enumerate(rng.spawn(n_samples)):
        if i == 0 and include_counterexample:
            rec = counterexample()
        else:
            g = sample_semigroup(child, interior=True)
            x = sample_cone(child)
            v = child.standard_normal(5)
            v /= np.linalg.norm(v)
            rec = contraction_ratio(g, x, v)
        rec = replace(rec, seed_index=i)
        max_ratio = max(max_ratio, rec.ratio)
        if rec.violated:
            violations.append(rec)
    return violations, SearchSummary(
        max_ratio=float(max_ratio),
        violation_count=len(violations),
        n_samples=n_samples,
    )
