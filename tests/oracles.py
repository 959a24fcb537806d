"""Reference routes kept as test oracles for the package's fast ones.

exp_lie and log_group are the general-algebra matrix exponential and
principal logarithm (scipy); spd_metric_triangular whitens with two
triangular solves.  The package needs none of them: its polar
factorization runs on the closed-form exp_wedge/log_wedge and its
spd_metric on numpy alone.  search_violations_reference is the expansion
search as a loop of one-sample calls, which the stacked search must
reproduce to the bit.  symplectic_defect_blocks is the symplectic defect
as three 3x3 relations, which the one block product must reproduce.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import scipy.linalg

import dualvinberg as dv
from dualvinberg.cone import diag_pair
from dualvinberg.errors import DomainError, PatternError
from dualvinberg.linalg import maxabs

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


def symplectic_defect_blocks(g) -> float:
    """The symplectic defect from three 3x3 relations: A^T C and D^T B
    symmetric, D^T A - B^T C = I.  The builtin max keeps a NaN only in
    first place, so a NaN relation after the first is dropped."""
    A, B, C, D = dv.blocks(g)
    r1 = A.T @ C
    r2 = D.T @ B
    r3 = D.T @ A - B.T @ C - np.eye(3)
    return max(maxabs(r1 - r1.T), maxabs(r2 - r2.T), maxabs(r3))
