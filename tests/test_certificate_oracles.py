"""The one-matrix certificates against their block and matrix routes in
tests/oracles.py: the tube test on Python floats, the wedge rule on a
generator's coordinates and polar_factor's factors, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dualvinberg as dv
from dualvinberg import semigroup
from dualvinberg.cone import MEMBERSHIP_TOL, embed
from dualvinberg.errors import SingularityError
from dualvinberg.group import (
    TUBE_GROUP_REASONS,
    symplectic_defect,
    tube_group_alt_reason,
    tube_group_reason,
)
from dualvinberg.linalg import maxabs
from dualvinberg.semigroup import InvariantConeElement, invariant_cone_reason

from conftest import (
    generator_product,
    overflowing_defect_matrix,
    sample_chart_element,
    slack_subject,
)
from oracles import (
    cross_check_membership_reference,
    exp_wedge_reference,
    invariant_cone_reason_reference,
    polar_factor_reference,
    tube_group_reason_reference,
)

TOLS = (1e-9, 0.0, 1e-3, np.nan)

# NaN, +-inf and +-1e308 drawn often, then every float64
hostile = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)

# the above with subnormals and signed zeros drawn often too
hostile_edges = st.one_of(
    st.sampled_from([5e-324, -5e-324, 2.2e-308, -0.0, 1.7976931348623157e308]),
    hostile,
)


def nan_as_one(a) -> bytes:
    """The bytes of a float array with every NaN as numpy's NaN: the NaN
    sign and payload are not kept (README, Numerical notes)."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def membership_corpus():
    """Members at sigma up to 4, the membership benchmark's non-member
    kinds, chart elements, generator products and Gaussian matrices."""
    rng = np.random.default_rng(808)
    dual_corner = np.eye(6)
    dual_corner[5, 2] = 1.0  # C[2,2], symplectic but off the flat slice
    mats = [np.eye(6), dv.inversion(), overflowing_defect_matrix(), 1e200 * np.eye(6), dual_corner]
    for sigma in (0.5, 1.0, 2.5, 4.0):
        for interior in (True, False):
            for _ in range(30):
                try:
                    mats.append(dv.sample_semigroup(rng, interior=interior, sigma=sigma))
                except SingularityError:  # a unit the singularity rule rejects
                    pass
    for _ in range(30):
        mats.append(dv.translation(-dv.sample_cone(rng)))
        u = np.exp(rng.standard_normal(2)) * [-1.0, 1.0]
        f = dv.TripleFactors(v=dv.sample_cone(rng), L=dv.sample_positive_triangular(rng), u=u)
        mats.append(dv.triple_compose(f))
        mats.append(dv.sample_symplectic_semigroup(rng))
        off_chart = dv.translation(dv.sample_cone(rng)) @ dv.congruence_embed(
            dv.sample_positive_triangular(rng)
        )
        mats.append(off_chart @ dv.inversion())
        broken = dv.sample_semigroup(rng, interior=True)
        broken[:3, :3] *= 1.0 + min(1e-6 * (1.0 + maxabs(broken) ** 2), 1.0)
        mats.append(broken)
        mats.append(sample_chart_element(rng))
        mats.append(generator_product(rng))
        mats.append(rng.standard_normal((6, 6)))
    return mats


def assert_tube_agrees(g):
    with np.errstate(all="ignore"):
        expected = tube_group_reason_reference(g)
        assert tube_group_reason(g) == expected
        if expected is not None:
            assert semigroup.compression_reason(g) == expected
        if expected in TUBE_GROUP_REASONS[:5]:
            assert tube_group_alt_reason(g) == expected
    return expected


def test_tube_test_agrees_with_the_block_route():
    reasons = set()
    for g in membership_corpus():
        reasons.add(assert_tube_agrees(g))
    assert reasons >= {None, "not symplectic", "A off pattern", "C off pattern"}


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, (6, 6), elements=hostile))
def test_tube_test_agrees_with_the_block_route_on_hostile_floats(g):
    assert_tube_agrees(g)


def assert_wedge_rule_agrees(v, u, tol):
    """The rule polar_factor runs on its recovered (v, u) against the
    matrix route.  A NaN tol rejects on both, at the first check each
    has: the matrix route's grade-zero part, which (v, u) do not carry."""
    X = InvariantConeElement(v=v, u=u).matrix()
    with np.errstate(all="ignore"):
        got = semigroup._wedge_reason(v, u, tol, maxabs(np.concatenate((v, u))))
        expected = invariant_cone_reason_reference(X, tol)
    if np.isnan(tol):
        assert got is not None and expected is not None
    else:
        assert got == expected
    return expected


def test_wedge_rule_agrees_with_the_matrix_route():
    rng = np.random.default_rng(809)
    seen = set()
    for _ in range(2000):
        v = dv.sample_cone(rng, 1.5) * rng.choice([1.0, -1.0, 1e-12], p=[0.6, 0.2, 0.2])
        v[rng.integers(5)] += rng.choice([0.0, 1e-9, -1e-9, -1e-6])
        u = np.exp(rng.standard_normal(2)) * rng.choice([1.0, 0.0, -1e-10, -1e-8], 2)
        for tol in TOLS[:3]:
            seen.add(assert_wedge_rule_agrees(v, u, tol))
    assert seen == {
        None,
        "translation part outside the closed cone",
        "dual part has a negative entry",
    }


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(np.float64, 5, elements=hostile),
    hnp.arrays(np.float64, 2, elements=hostile),
    st.sampled_from(TOLS),
)
def test_wedge_rule_agrees_with_the_matrix_route_on_hostile_floats(v, u, tol):
    assert_wedge_rule_agrees(v, u, tol)


def test_a_mirror_pair_near_the_float_limit_reads_back():
    # x4 + x4 overflows; the mirror average of embed(v) must not
    v = np.array([1e308, 0.0, 1e308, 1e308, 0.0])
    assert np.array_equal(dv.unembed(embed(v)), v)
    X = InvariantConeElement(v=v, u=np.zeros(2))
    assert invariant_cone_reason(X.matrix()) is None
    assert semigroup._wedge_reason(v, X.u, MEMBERSHIP_TOL, 1e308) is None
    # halves of a subnormal round; where the sum is finite it is kept
    v = np.array([0.0, 0.0, 0.0, 5e-324, -1.5e-323])
    assert np.array_equal(dv.unembed(embed(v)), v)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, (6, 6), elements=hostile), st.sampled_from(TOLS))
def test_invariant_cone_reason_agrees_with_the_matrix_route_on_hostile_floats(X, tol):
    with np.errstate(all="ignore"):
        assert invariant_cone_reason(X, tol) == invariant_cone_reason_reference(X, tol)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, (6, 6), elements=hostile_edges))
def test_one_matrix_symplectic_defect_is_the_stacked_row_bit_for_bit(g):
    with np.errstate(all="ignore"):
        one = symplectic_defect(g)
        row = symplectic_defect(g[None])[0]
    assert type(one) is float
    assert np.float64(one).tobytes() == row.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(np.float64, 5, elements=hostile_edges),
    hnp.arrays(np.float64, 2, elements=hostile_edges),
)
def test_exp_wedge_entries_equal_the_array_formula(v, u):
    v, u = v.tolist(), u.tolist()
    with np.errstate(all="ignore"):
        dc, ds = semigroup._wedge_diagonals(v, u)
        got = semigroup._exp_wedge(v, u, dc, ds)
        want = exp_wedge_reference(v, u, dc, ds)
    assert got.shape == (6, 6) and got.flags.c_contiguous
    assert nan_as_one(got) == nan_as_one(want)


def test_exp_wedge_entries_equal_the_array_formula_on_zero_slots():
    # the zero slots of V times an inf, NaN or negative diagonal: NaN or -0.0
    rng = np.random.default_rng(810)
    for special in (np.inf, -np.inf, np.nan, -1.0, -0.0, 1e308):
        for _ in range(50):
            v = (rng.standard_normal(5) * rng.choice([1.0, 1e150, 1e-300], 5)).tolist()
            u = rng.standard_normal(2).tolist()
            v[rng.integers(5)] = special
            with np.errstate(all="ignore"):
                dc, ds = semigroup._wedge_diagonals(v, u)
                got = semigroup._exp_wedge(v, u, dc, ds)
                want = exp_wedge_reference(v, u, dc, ds)
            assert nan_as_one(got) == nan_as_one(want)


def crossed(check, g, tol):
    try:
        with np.errstate(all="ignore"):
            return check(g, tol)
    except dv.InconsistencyError as exc:
        return type(exc).__name__


def test_shared_chart_products_give_the_separate_verdicts():
    seen = set()
    for g in membership_corpus() + [slack_subject()]:
        for tol in TOLS:
            got = crossed(dv.cross_check_membership, g, tol)
            assert got == crossed(cross_check_membership_reference, g, tol)
            seen.add(got)
            with np.errstate(all="ignore"):
                if tube_group_reason(g) is None:
                    products = semigroup._chart_products(g)
                    for reason in (semigroup._chart_reason, semigroup._psd_reason):
                        assert reason(g, tol, products) == reason(g, tol)
    assert seen >= {True, False}
    assert crossed(dv.cross_check_membership, slack_subject(), MEMBERSHIP_TOL) is True


def test_invariant_cone_reason_keeps_its_check_order():
    # v outside the closed cone and U off the flat slice: the cone comes first
    X = InvariantConeElement(v=-dv.IDENTITY_POINT, u=np.array([-1.0, 1.0])).matrix()
    X[4, 2] = 0.5
    assert invariant_cone_reason(X) == "translation part outside the closed cone"
    X[:3, 3:] = embed(dv.IDENTITY_POINT)
    assert invariant_cone_reason(X) == "dual part not in the flat slice"
    assert invariant_cone_reason_reference(X) == "dual part not in the flat slice"


def outcome(factor, g):
    """Factor bytes (signed zeros included), or the exception raised."""
    try:
        with np.errstate(all="ignore"):
            A, X = factor(g)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc).__name__, str(exc)
    return "factors", A.tobytes(), np.asarray(X.v).tobytes(), np.asarray(X.u).tobytes()


def criterion_6_family():
    """The elements criterion 6 factors or tests: rng 1006, 1000 interior
    and boundary compositions, then 200 interior ones capped at norm 1."""
    rng = np.random.default_rng(1006)
    for i in range(1000):
        A = dv.sample_positive_triangular(rng, 0.7)
        if i % 2 == 0:
            v = dv.sample_cone(rng, 0.7)
            u = np.exp(0.7 * rng.standard_normal(2))
        else:
            L2 = dv.sample_positive_triangular(rng, 0.7)
            eps = (rng.random(3) >= 0.5).astype(float)
            v = dv.unembed(L2 @ np.diag(eps) @ L2.T)
            u = np.abs(0.7 * rng.standard_normal(2)) * (rng.random(2) >= 0.5)
        yield dv.polar_compose(A, InvariantConeElement(v=v, u=u))
    for _ in range(200):
        A = dv.sample_positive_triangular(rng, 0.7)
        v = dv.sample_cone(rng, 0.7)
        X = InvariantConeElement(v=v, u=np.exp(0.7 * rng.standard_normal(2)))
        nrm = float(np.linalg.norm(X.matrix()))
        if nrm > 1.0:
            X = InvariantConeElement(v=X.v / nrm, u=X.u / nrm)
        yield dv.polar_compose(A, X)


def sigma_probe():
    """The 1000 uncapped draws at sigma = 1.5 of rng 9."""
    rng = np.random.default_rng(9)
    for _ in range(1000):
        A = dv.sample_positive_triangular(rng, 1.5)
        v = dv.sample_cone(rng, 1.5)
        X = InvariantConeElement(v=v, u=np.exp(1.5 * rng.standard_normal(2)))
        with np.errstate(all="ignore"):
            yield dv.polar_compose(A, X)


def reason_subjects():
    """One non-member per entry of COMPRESSION_REASONS, in check order: the
    tube subjects of the CLI pins, the chart ones, and a B[0,1] inside the
    slot bound that D[0,0] = 1e4 carries out of the patterned subspace."""
    def edited(edits):
        g = np.eye(6)
        for slot, x in edits.items():
            g[slot] = x
        return g

    off_pattern = dv.congruence_embed(np.diag([1e-4, 1.0, 1.0])) @ dv.translation(dv.IDENTITY_POINT)
    off_pattern[0, 4] = 9e-9
    u = np.array([-1.0, 1.0])
    return [
        2 * np.eye(6),
        dv.congruence_embed(np.array([[1.0, 1, 0], [0, 1, 0], [0, 0, 1]])),
        dv.congruence_embed(np.diag([1.0, 1, -1])),
        edited({(0, 4): 1, (1, 3): 1, (3, 0): 1, (3, 4): 1}),
        edited({(2, 5): -2, (5, 2): 1, (5, 5): -1}),
        edited({(0, 4): 1, (1, 3): 1}),
        edited({(5, 2): 1}),
        dv.translation(dv.IDENTITY_POINT) @ dv.inversion(),
        off_pattern,
        dv.translation(-dv.IDENTITY_POINT),
        dv.triple_compose(dv.TripleFactors(v=dv.IDENTITY_POINT, L=np.eye(3), u=u)),
    ]


def test_polar_factor_equals_the_matrix_route_bit_for_bit():
    kinds = {}
    messages = set()
    subjects = list(criterion_6_family()) + list(sigma_probe()) + membership_corpus()
    for g in subjects + reason_subjects():
        got = outcome(dv.polar_factor, g)
        assert got == outcome(polar_factor_reference, g)
        kinds[got[0]] = kinds.get(got[0], 0) + 1
        if got[0] == "DomainError":
            messages.add(got[1])
    assert kinds["factors"] >= 2000
    # every membership check, in polar's own run of them, names its reason
    assert messages >= {f"not in the compression semigroup: {r}" for r in semigroup.COMPRESSION_REASONS}


def test_polar_failures_equal_the_matrix_route():
    # a residual failure: B[0,2] of a member moved by 1e-3, within the
    # symplectic bound at scale 1e4 but 5e-8 off in relative residual
    g = dv.translation([1e4, 1.0, 1e4, 10.0, 0.0])
    g[0, 5] += 1e-3
    # the loud-failure subject of the unit check: sigma = 4, rng 9, draw 152
    rng = np.random.default_rng(9)
    with np.errstate(all="ignore"):
        for _ in range(152):
            try:
                h = dv.sample_semigroup(rng, interior=True, sigma=4.0)
            except SingularityError:
                h = None
    for m, message in ((g, "recomposition residual 5.000e-08"), (h, "polar unit factor")):
        got = outcome(dv.polar_factor, m)
        assert got == outcome(polar_factor_reference, m)
        assert got[0] == "ConvergenceError" and message in got[1]


def overflow_subjects():
    """Polar subjects where a Python float's ** or / would raise where a
    float64 scalar gives inf or NaN: the sigma = 1.5 draws of rng 9 scaled
    by 1e100, 1e154 and 1e200 or with one entry at 1e154 or 1e308, and
    translations whose x4 squares past the float range in log_wedge
    (tau(g)^{-1} g doubles B)."""
    rng = np.random.default_rng(9)
    probe = list(sigma_probe())[:60]
    for g in probe:
        for s in (1e100, 1e154, 1e200):
            yield g * s
        for big in (1e154, 1e308):
            h = g.copy()
            h[rng.integers(6), rng.integers(6)] = big
            yield h
    for x in (1e154, 1.3e154, 1e150):
        yield dv.translation([x, 1.0, x, x, 0.0])


def test_polar_factor_equals_the_matrix_route_on_overflow_subjects():
    kinds = {}
    for g in overflow_subjects():
        got = outcome(dv.polar_factor, g)
        assert got == outcome(polar_factor_reference, g)
        kinds[got[0]] = kinds.get(got[0], 0) + 1
    assert set(kinds) == {"factors", "ConvergenceError", "DomainError"}


def test_a_zero_wedge_diagonal_gives_the_float64_unit_diagonal(monkeypatch):
    # e1 = 1 + v1 Dc[0] is exactly 0 at u1 = 1 and this v1, where a Python
    # float division raises and numpy's gives a1 = inf: the unit check
    # rejects it with numpy's diagonal in both routes
    v1 = -2.46740110027234
    assert 1.0 + v1 * semigroup._wedge_diagonals([v1, 1.0], [1.0, 1.0])[0][0] == 0.0
    Y = InvariantConeElement(v=np.array([2 * v1, 2.0, 2.0, 0.0, 0.0]), u=np.array([2.0, 2.0]))
    monkeypatch.setattr(semigroup, "_log_wedge", lambda m: (Y.v.tolist(), Y.u.tolist()))
    monkeypatch.setattr(dv, "log_wedge", lambda h: Y)
    g = dv.translation(dv.IDENTITY_POINT)
    got = outcome(dv.polar_factor, g)
    assert got == outcome(polar_factor_reference, g)
    assert got[0] == "ConvergenceError"
    assert got[1].startswith("polar unit factor has diagonal [       inf ")


def test_tube_routes_part_in_the_product_tolerance_band():
    # The alt route bounds D^T B and C D^T by PATTERN_TOL (1 + maxabs(g)^2),
    # looser than the slot bound PATTERN_TOL (1 + maxabs(g)) on B and C:
    # at maxabs(g) = 4 an off-pattern entry of 5e-11 is rejected by the
    # slot test and admitted by the product test.  Pinned as it stands;
    # the scale-invariant rules of ROADMAP item 1 are to close the band.
    g = dv.translation([1.0, 1.0, 1.0, 0.0, 0.0]) @ dv.congruence_embed(4.0 * np.eye(3))
    for slot, reason in (((0, 4), "B off pattern"), ((3, 1), "C off pattern")):
        h = g.copy()
        h[slot] = 5e-11
        assert tube_group_reason(h) == reason
        assert tube_group_alt_reason(h) is None


def test_chart_and_psd_routes_part_in_the_product_tolerance_band():
    # The chart route reads only the diagonal of C D^T, while the PSD
    # route sees an off-flat C entry the tube test's slot bound
    # PATTERN_TOL (1 + 1e4) admits: a zero diagonal entry beside 5e-9
    # gives an eigenvalue of -2.5e-9, below -1e-9.  Pinned as it stands;
    # the scale-invariant rules of ROADMAP item 1 are to close the band.
    g = dv.congruence_embed(np.diag([1.0, 1.0, 1e4]))
    g[5, 1] = 5e-9
    assert semigroup.compression_reason(g) is None
    assert semigroup.symplectic_semigroup_reason(g) == "C D^T not positive semidefinite"
    with pytest.raises(dv.InconsistencyError):
        dv.cross_check_membership(g)
