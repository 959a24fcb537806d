"""The closed-form semidefinite rules of linalg and the certificates that
call them: semidefinite3 accepts, is_semidefinite3 rejects on a diagonal
entry far below -t, and eigvalsh decides the rest (and measures
closed_cone_reason's rejections), so every answer is the eigvalsh
reference's except accepts within round-off of the boundary
lambda_min = -t."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dualvinberg as dv
from dualvinberg import semigroup
from dualvinberg.cone import MEMBERSHIP_TOL, closed_cone_reason, embed
from dualvinberg.linalg import INDEFINITE_MARGIN, is_semidefinite3, maxabs, semidefinite3
from dualvinberg.semigroup import compression_reason, symplectic_semigroup_reason

from conftest import count_calls
from oracles import (
    blocks,
    closed_cone_reason_reference,
    lambda_min,
    symplectic_semigroup_reason_reference,
)

BIG = 1.7976931348623157e308  # the largest float64
TOLS = (0.0, 1e-12, MEMBERSHIP_TOL, -1e-12, np.nan)

# an accept the eigvalsh reference refuses lies within this much of -t,
# relative to 1 + scale: the elimination's round-off plus eigvalsh's
BAND = 1e-14

hostile = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, BIG, 5e-324, -5e-324, 0.0, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


@st.composite
def semidefinite_boundary(draw, coords, top):
    """L diag(eps) L^T for eps in {0, 1}^3, a singular semidefinite matrix
    that round-off puts on either side of the boundary, scaled by 10^k
    with |k| <= top:
    its coordinates, or the matrix turned by a rotation; with a hostile
    entry now and then."""
    a = draw(hnp.arrays(np.float64, 5, elements=st.floats(-3.0, 3.0, width=64)))
    L = dv.triangular(np.concatenate((np.exp(a[:3]), a[3:])))
    eps = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=3, max_size=3)))
    S = L @ np.diag(eps) @ L.T * 10.0 ** draw(st.integers(-top, top))
    if coords:
        x = dv.unembed(S, atol=np.inf)
    else:
        turn = draw(hnp.arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0, width=64)))
        rot = np.linalg.qr(turn + 3.0 * np.eye(3))[0]
        x = rot @ S @ rot.T
    if draw(st.integers(0, 3)) == 0:
        x.flat[draw(st.integers(0, x.size - 1))] = draw(hostile)
    return x


def _within_band(m, t, scale):
    return lambda_min(m) >= -t - BAND * (1.0 + scale)


def test_the_rule_on_one_matrix_and_on_a_stack():
    rng = np.random.default_rng(510)
    W = rng.standard_normal((400, 3, 3))
    W = W @ W.swapaxes(1, 2) - rng.uniform(0.0, 1.0, (400, 1, 1)) * np.eye(3)
    t = rng.choice([0.0, 1e-9, 0.5], 400)
    W[:5], t[:7] = 0.0, 0.0  # a zero leading pivot: False on one matrix, inf or NaN in a stack
    W[5, 0, 0] = np.nan
    W[6, 2, 0] = W[6, 0, 2] = BIG
    with np.errstate(all="ignore"):
        stacked = semidefinite3(W.transpose(1, 2, 0), t)  # the entries-first stack
        single = [semidefinite3(w.tolist(), s) for w, s in zip(W, t)]
    assert stacked.tolist() == single
    assert not any(single[:7])
    # an accepted matrix is semidefinite up to round-off
    for w, s, ok in zip(W, t, single):
        if ok:
            assert _within_band(w, s, maxabs(w))
    assert 0 < sum(single) < 400


@pytest.mark.parametrize(
    "m, t, want",
    [
        (np.eye(3), 0.0, True),
        (np.zeros((3, 3)), 0.0, False),  # semidefinite, but a zero pivot proves nothing
        (np.zeros((3, 3)), 1e-300, True),
        (np.diag([1.0, 1.0, -1.0]), 1.0, True),
        (np.diag([1.0, 1.0, -1.0]), 0.5, False),
        (np.diag([BIG, 1.0, 1.0]), BIG, False),  # d1 = inf would drop the x4 term
        (np.array([[1e-300, 0, 1e10], [0, 1, 0], [1e10, 0, 1]]), 0.0, False),  # l20 = inf
        (np.diag([1.0, np.nan, 1.0]), 0.0, False),
        (np.eye(3), np.nan, False),
    ],
)
def test_the_rule_on_frozen_cases(m, t, want):
    assert semidefinite3(m.tolist(), t) is want


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(hnp.arrays(np.float64, (3, 3), elements=hostile), semidefinite_boundary(False, 300)),
    st.sampled_from([0.0, 1e-4, 0.999, 1.001, 2.0, 1e3, 1e4]),
    st.sampled_from(TOLS),
)
def test_a_diagonal_rejection_is_an_eigvalsh_rejection(m, shift, tol):
    # m moved down past -t by shift margins, relative to 1 + maxabs(m), so
    # that the diagonal rule fires on a zero diagonal entry of a boundary
    # matrix now and then just past its margin
    with np.errstate(all="ignore"):
        m = (m + m.T) / 2
        s = maxabs(m)
        m = m - (tol * (1.0 + s) + shift * INDEFINITE_MARGIN * (1.0 + s)) * np.eye(3)
        s = maxabs(m)
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=np.linalg.eigvalsh) as eigvalsh:
            verdict = is_semidefinite3(m.tolist(), tol)
        if not verdict and not eigvalsh.called and s < np.inf:
            # the rule proved m + t*I indefinite
            assert lambda_min(m) + tol * (1.0 + s) < 0
            assert not semidefinite3(m.tolist(), tol * (1.0 + s))


def test_a_rejection_keeps_the_eigvalsh_reason():
    # the overflowing case falls through to eigvalsh, which measures it
    x = [BIG, 0.0, 1.0, BIG, 0.0]
    assert closed_cone_reason(x, 0.0) == "eigenvalue -1.111e+308 below -tol"
    assert closed_cone_reason(x, 0.0) == closed_cone_reason_reference(x, 0.0)
    assert closed_cone_reason(-dv.IDENTITY_POINT) == "eigenvalue -1.000e+00 below -tol"


def test_the_boundary_at_tol_zero():
    # exactly singular and semidefinite: eigvalsh reads -6.0e-35, the
    # elimination's last pivot is exactly 0
    x = [0.2, 1.0, 0.2, 0.2, 0.0]
    assert closed_cone_reason(x, 0.0) is None
    assert closed_cone_reason_reference(x, 0.0) == "eigenvalue -6.012e-35 below -tol"
    # a zero leading pivot: the rule refuses, eigvalsh accepts
    assert not semidefinite3(embed([0.0, 1.0, 1.0, 0.0, 0.0]).tolist(), 0.0)
    assert closed_cone_reason([0.0, 1.0, 1.0, 0.0, 0.0], 0.0) is None


def test_the_declared_accepts_at_tol_zero():
    # at tol 0 the rule accepts singular points that eigvalsh reads a few
    # ulps below 0; every other answer is the reference's
    rng = np.random.default_rng(512)
    new = 0
    for _ in range(2000):
        L = dv.sample_positive_triangular(rng, 1.0)
        x = dv.unembed(L @ np.diag((rng.random(3) >= 0.5).astype(float)) @ L.T)
        got, want = closed_cone_reason(x, 0.0), closed_cone_reason_reference(x, 0.0)
        if got != want:
            assert got is None and _within_band(embed(x), 0.0, maxabs(x))
            new += 1
    assert new > 0


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(hnp.arrays(np.float64, 5, elements=hostile), semidefinite_boundary(True, 300)),
    st.sampled_from(TOLS),
)
def test_closed_cone_reason_against_eigvalsh(x, tol):
    with np.errstate(all="ignore"):
        got = closed_cone_reason(x, tol)
        want = closed_cone_reason_reference(x, tol)
        if got != want:  # only a new accept, at the boundary
            assert got is None and want.startswith("eigenvalue")
        if got is None:
            scale = maxabs(x)
            assert _within_band(embed(x), tol * (1.0 + scale), scale)


def _lift(S, T):
    """[[I, S], [0, I]] [[I, 0], [T, I]] = [[I + S T, S], [T, I]]: D^T B = S
    and C D^T = T."""
    g = np.eye(6)
    g[:3, :3] += S @ T
    g[:3, 3:] = S
    g[3:, :3] = T
    return g


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(hnp.arrays(np.float64, (3, 3), elements=hostile), semidefinite_boundary(False, 60)),
    st.one_of(st.just(np.zeros((3, 3))), semidefinite_boundary(False, 60)),
    st.booleans(),
    st.sampled_from(TOLS),
)
def test_symplectic_semigroup_reason_against_eigvalsh(S, T, swap, tol):
    with np.errstate(all="ignore"):
        S = (S + S.T) / 2
        g = _lift(T, S) if swap else _lift(S, T)
        got = symplectic_semigroup_reason(g, tol)
        want = symplectic_semigroup_reason_reference(g, tol)
        if got != want:  # a new accept at the boundary of one test
            assert want.endswith("not positive semidefinite")
            assert got is None or (got, want) == (
                "C D^T not positive semidefinite",
                "D^T B not positive semidefinite",
            )
        if got is None:
            _, B, C, D = blocks(g)
            for P in (D.T @ B, C @ D.T):
                P = (P + P.T) / 2
                scale = maxabs(P)
                assert _within_band(P, tol * (1.0 + scale), scale)


def _criterion_6_family(n):
    """Interior polar subjects as criterion 6 draws them: unit times exp of
    an interior wedge generator of norm at most 1."""
    rng = np.random.default_rng(1006)
    for _ in range(n):
        A = dv.sample_positive_triangular(rng, 0.7)
        v = dv.sample_cone(rng, 0.7)
        u = np.exp(0.7 * rng.standard_normal(2))
        nrm = max(float(np.linalg.norm(dv.lie_element(np.zeros((3, 3)), v, u))), 1.0)
        yield dv.polar_compose(A, dv.InvariantConeElement(v=v / nrm, u=u / nrm))


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    return count_calls(monkeypatch, np.linalg, "eigvalsh")


def test_members_never_reach_eigvalsh(eigvalsh_calls):
    for g in _criterion_6_family(100):
        semigroup.polar_factor(g)
    rng = np.random.default_rng(511)
    members = [np.eye(6), dv.translation([1.0, 1.0, 1.0, 1.0, 0.0])]
    for interior in (True, False):
        for sigma in (0.3, 1.0):
            members += [dv.sample_semigroup(rng, interior, sigma) for _ in range(25)]
    for g in members:
        assert compression_reason(g) is None
        assert symplectic_semigroup_reason(g) is None
    # the stacked certificate runs no eigvalsh, not even an empty one, on members
    assert semigroup.compression_members(np.array(members)).all()
    assert eigvalsh_calls == []
    # a negative diagonal proves a rejection with no eigvalsh call
    assert compression_reason(dv.translation(-dv.IDENTITY_POINT)) == "D^T B outside the closed cone"
    assert eigvalsh_calls == []
    # a rejection that no diagonal proves (eigenvalue -1) is decided by eigvalsh, once
    assert compression_reason(dv.translation([1.0, 1.0, 1.0, 2.0, 0.0])) == "D^T B outside the closed cone"
    assert eigvalsh_calls == [(3, 3)]
