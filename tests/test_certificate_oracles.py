"""The one-matrix certificates against their block and matrix routes in
tests/oracles.py: the tube test on Python floats, the wedge rule on a
generator's coordinates and polar_factor's factors, bit for bit; and every
one-matrix route against itself with its memoised reads of g cleared."""

import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dualvinberg as dv
from dualvinberg import group, semigroup, serialize
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
    same_bits,
    sample_chart_element,
    slack_subject,
)
from oracles import (
    MEMOS,
    clear_memos,
    compression_factors_reference,
    cross_check_membership_reference,
    dump_pair_reference,
    dump_triangular_reference,
    dump_vector5_reference,
    exp_wedge_reference,
    invariant_cone_reason_reference,
    polar_factor_reference,
    s1_series_reference,
    triple_decompose_reference,
    tube_group_reason_reference,
    tube_read_reference,
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
        got = semigroup._exp_rows(v, u, dc, ds)
        want = exp_wedge_reference(v, u, dc, ds)
    assert len(got) == 36 and all(type(x) is float for x in got)
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
                got = semigroup._exp_rows(v, u, dc, ds)
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
                    # the memoised products and verdicts, warm, against ones formed afresh
                    for reason in (semigroup._chart_reason, semigroup._psd_reason):
                        warm = group._ask(group._tube(g.tobytes()), reason, tol)
                        assert reason(group._tube.__wrapped__(g.tobytes()), tol) == warm
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


def outcome(route, g, *args):
    """A route's reason or verdict, its factors' bytes (signed zeros and NaN
    payloads included), or the exception it raised."""
    try:
        with np.errstate(all="ignore"):
            got = route(g, *args)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc).__name__, str(exc)
    if isinstance(got, dv.TripleFactors):
        return "triple", got.v.tobytes(), got.L.tobytes(), got.u.tobytes()
    if isinstance(got, tuple):  # polar_factor's (A, X)
        A, X = got
        return "factors", A.tobytes(), np.asarray(X.v).tobytes(), np.asarray(X.u).tobytes()
    return got


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


def chart_outcome(route, dumps, g):
    """route(g)'s factors (dtype, shape, layout and bytes of v, L and u) and
    their wire lists by the dumps (entry types and bytes), or the type and
    text of its exception."""
    try:
        with np.errstate(all="ignore"):
            f = route(g)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc).__name__, str(exc)
    factors = [(a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes()) for a in (f.v, f.L, f.u)]
    wire = [dump(a) for dump, a in zip(dumps, (f.v, f.L, f.u))]
    return "triple", factors, [(tuple(map(type, w)), np.array(w).tobytes()) for w in wire]


def chart_corpus():
    """The membership corpus, 500 Gaussian matrices, members with one or two
    entries set to hostile floats, and members whose D is near singular,
    from a rank-one D plus noise at scales 1 down to 1e-14."""
    rng = np.random.default_rng(2626)
    mats = membership_corpus() + [rng.standard_normal((6, 6)) for _ in range(500)]
    spoilers = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, 5e-324, 1e155, -3e157)
    for _ in range(400):
        g = dv.sample_semigroup(rng, sigma=float(rng.choice([0.5, 1.0, 2.5])))
        for _ in range(rng.integers(1, 3)):
            g[tuple(rng.integers(6, size=2))] = spoilers[rng.integers(len(spoilers))]
        mats.append(g)
    for _ in range(200):
        g = dv.sample_semigroup(rng)
        noise = 10.0 ** -rng.uniform(0.0, 14.0) * rng.standard_normal((3, 3))
        g[3:, 3:] = np.outer(rng.standard_normal(3), rng.standard_normal(3)) + noise
        mats.append(g)
    return mats


def test_chart_factors_and_dumps_equal_the_array_route_bit_for_bit():
    dumps = (serialize.dump_vector5, serialize.dump_triangular, serialize.dump_pair)
    reference_dumps = (dump_vector5_reference, dump_triangular_reference, dump_pair_reference)
    certified_reference = partial(compression_factors_reference, decompose=triple_decompose_reference)
    kinds = {}
    for g in chart_corpus():
        got = chart_outcome(dv.triple_decompose, dumps, g)
        assert got == chart_outcome(triple_decompose_reference, reference_dumps, g)
        kinds[got[0]] = kinds.get(got[0], 0) + 1
        certified = chart_outcome(dv.compression_factors, dumps, g)
        assert certified == chart_outcome(certified_reference, reference_dumps, g)
    assert set(kinds) == {"triple", "DomainError", "SingularityError", "PatternError"}


def factor_bits(route, g, tol):
    """route(g, tol)'s factors as dtype, shape and uint64 bits, or the type
    and text of its exception."""
    try:
        f = route(g, tol)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc).__name__, str(exc)
    return [(a.dtype.str, a.shape, a.view(np.uint64).tobytes()) for a in (f.v, f.L, f.u)]


def assert_factors_are_the_chain(g):
    """compression_factors from a cold memo, then warm, is the chain of
    compression_reason, a fresh triple_decompose and the factor
    certificates, at the default tol and at 0."""
    for tol in (MEMBERSHIP_TOL, 0.0):
        clear_memos()
        cold = factor_bits(dv.compression_factors, g, tol)
        assert cold == factor_bits(compression_factors_reference, g, tol)
        assert factor_bits(dv.compression_factors, g, tol) == cold
    return cold[0] if isinstance(cold, tuple) else "factors"


def test_compression_factors_are_the_chain_bit_for_bit():
    kinds = {}
    for g in memo_corpus() + chart_corpus():
        kind = assert_factors_are_the_chain(g)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"factors", "DomainError"} and kinds["factors"] > 400


@st.composite
def spoilt_members(draw):
    """A sampled member with up to two entries set to hostile floats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = dv.sample_semigroup(rng, draw(st.booleans()), draw(st.sampled_from([0.3, 0.7])))
    for _ in range(draw(st.integers(0, 2))):
        g[draw(st.integers(0, 5)), draw(st.integers(0, 5))] = draw(hostile_edges)
    return g


@settings(max_examples=300, deadline=None)
@given(st.one_of(hnp.arrays(np.float64, (6, 6), elements=hostile_edges), spoilt_members()))
def test_compression_factors_are_the_chain_on_hostile_floats(g):
    with np.errstate(all="ignore"):
        assert_factors_are_the_chain(g)


def field_bits(x):
    """A field of a tube read as its type and, for floats and nested lists
    of them, the uint64 view of its bits: signed zeros and NaN payloads
    count."""
    if isinstance(x, (float, list)):
        a = np.array(x, dtype=float)
        return type(x), a.shape, a.view(np.uint64).tobytes()
    return type(x), x


def assert_read_is_the_reference(g):
    key = np.ascontiguousarray(g, dtype=float).tobytes()
    got, want = group._tube.__wrapped__(key), tube_read_reference(key)
    assert list(map(field_bits, got)) == list(map(field_bits, want))
    return got[0]


def test_tube_read_is_the_reference_read_bit_for_bit():
    # D^T B comes from the defect's block product, the pattern zeros are
    # read unrolled: every field of a miss is the separate products' and
    # the slot tables'
    reasons = set()
    for g in memo_corpus() + chart_corpus():
        reasons.add(assert_read_is_the_reference(g))
    # README's overflow subjects: the defect formed quietly, not symplectic and symplectic
    assert assert_read_is_the_reference(1.2e154 * np.ones((6, 6))) == "not symplectic"
    assert assert_read_is_the_reference(np.diag([1e154, 1, 1, 1e-154, 1, 1])) is None
    assert reasons == {None, *TUBE_GROUP_REASONS}


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, (6, 6), elements=hostile_edges))
def test_tube_read_is_the_reference_read_on_hostile_floats(g):
    assert_read_is_the_reference(g)


def test_each_pattern_slot_of_the_tube_read_is_checked():
    # one slot of I off its pattern by 5e-11: inside the symplectic bound
    # 2e-10, beyond the pattern tolerance 2e-12, so the read names the
    # slot's block, as the block route does
    blocks = ("A",) * 4 + ("D",) * 4 + ("B",) * 2 + ("C",) * 7
    assert len(group._TUBE_ZEROS) == len(blocks)
    for slot, block in zip(group._TUBE_ZEROS, blocks):
        g = np.eye(6)
        g[slot] = 5e-11
        assert assert_read_is_the_reference(g) == f"{block} off pattern"
        assert tube_group_reason_reference(g) == f"{block} off pattern"


def test_s1_series_is_the_loop_bit_for_bit():
    # the unrolled Horner expression on |t| <= 1: signed zeros, NaN,
    # subnormals, both ends and a grid and random draws in between
    rng = np.random.default_rng(26)
    ts = [0.0, -0.0, np.nan, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]
    ts += np.linspace(-1.0, 1.0, 20001).tolist() + rng.uniform(-1.0, 1.0, 20000).tolist()
    ts += (rng.standard_normal(1000) * 1e-160).tolist()
    got = [semigroup._s1(t) for t in ts]
    assert all(type(x) is float for x in got)
    assert same_bits(got, [s1_series_reference(t) for t in ts])


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


# The memoised read of g (group._tube), with the products and the chart
# and semidefinite verdicts (per tol) kept on it, keeps the answers for
# the last matrix asked about: every one-matrix route must answer the same from
# cold memos, from warm ones and from ones warmed by the same bytes in
# another memory layout, or by a tol of the same value and another type or
# sign, which shares the verdict's entry.

MEMO_TOLS = TOLS + (-0.0, -1e-12, 0, np.float64(1e-9))


def test_clear_memos_clears_every_memo_of_the_membership_routes():
    found = {f for module in (group, semigroup) for f in vars(module).values() if hasattr(f, "cache_clear")}
    assert found == set(MEMOS)


def one_matrix_routes():
    yield tube_group_reason, ()
    yield tube_group_alt_reason, ()
    yield dv.is_symplectic, ()
    yield dv.polar_factor, ()
    for route in (
        semigroup.compression_reason,
        semigroup.symplectic_semigroup_reason,
        dv.cross_check_membership,
        dv.compression_factors,
    ):
        yield route, ()
        for tol in MEMO_TOLS:
            yield route, (tol,)


def warm(g, args=()):
    """Fill the memos from g's C-contiguous copy, as far as g's routes read,
    at the default tol and at every other tol equal in value to args'."""
    g = np.ascontiguousarray(g)
    tols = [()] + [(t,) for t in MEMO_TOLS if args and t == args[0] and t is not args[0]]
    for route in (semigroup.compression_reason, semigroup.symplectic_semigroup_reason):
        for other in tols:
            outcome(route, g, *other)


def cold_answers(g):
    answers = []
    for route, args in one_matrix_routes():
        clear_memos()
        answers.append(outcome(route, g, *args))
    return answers


def layouts(g):
    """g as a C array, a Fortran copy, a transposed view and a strided view."""
    return (
        np.ascontiguousarray(g),
        np.asfortranarray(g),
        np.ascontiguousarray(g.T).T,
        np.repeat(g, 2, axis=1)[:, ::2],
    )


def assert_memo_sound(g, every_layout=True):
    want = cold_answers(g)
    for h in layouts(g) if every_layout else layouts(g)[:1]:
        assert cold_answers(h) == want
        for (route, args), cold in zip(one_matrix_routes(), want):
            warm(g, args)
            assert outcome(route, h, *args) == cold
            assert outcome(route, h, *args) == cold  # its own entry, hit at once
    return want


def memo_corpus():
    """The membership corpus, one subject per compression reason, samplers,
    and the subjects where polar's residual check fails and where the
    cross-check's routes disagree."""
    rng = np.random.default_rng(2424)
    residual = dv.translation([1e4, 1.0, 1e4, 10.0, 0.0])
    residual[0, 5] += 1e-3
    parting = dv.congruence_embed(np.diag([1.0, 1.0, 1e4]))
    parting[5, 1] = 5e-9
    mats = membership_corpus() + reason_subjects() + [slack_subject(), residual, parting]
    for _ in range(10):
        mats += [generator_product(rng), sample_chart_element(rng)]
        mats += [dv.sample_symplectic_semigroup(rng)]
        mats += [dv.sample_semigroup(rng, interior=True), dv.sample_semigroup(rng, interior=False)]
    return mats


def test_every_one_matrix_route_answers_alike_from_cold_and_warm_memos():
    seen = set()
    for i, g in enumerate(memo_corpus()):
        answers = assert_memo_sound(g, every_layout=i % 4 == 0)
        seen.add(answers[0])
        seen.update(a[0] for a in answers if isinstance(a, tuple))
    want = {None, "not symplectic", "triple", "factors", "DomainError", "ConvergenceError"}
    assert seen >= want | {"InconsistencyError"}


def test_memos_are_sound_on_signed_zeros_nan_payloads_and_extreme_entries():
    member = dv.sample_semigroup(np.random.default_rng(3), interior=False)
    payload = np.frombuffer(np.uint64(0x7FF8_0000_0000_0ABC).tobytes())[0]
    for slot in ((0, 1), (1, 0), (2, 2), (4, 5)):
        for x in (0.0, -0.0, payload, -payload, np.inf, -np.inf, 1e300, -1e300, 1e-300):
            h = member.copy()
            h[slot] = x
            assert_memo_sound(h)
    assert_memo_sound(1e300 * np.eye(6))
    assert_memo_sound(1e-300 * np.eye(6))


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, (6, 6), elements=hostile_edges))
def test_memos_are_sound_on_hostile_floats(g):
    assert_memo_sound(g)


def test_an_array_mutated_in_place_gets_the_answer_for_its_new_bytes():
    g = dv.translation([1.0, 1.0, 1.01, -1.0, 0.0])
    assert semigroup.compression_reason(g) is None
    g[0, 4] = g[1, 3] = 0.5  # B symmetric, so still symplectic, but off its pattern
    assert dv.is_symplectic(g)
    assert semigroup.compression_reason(g) == tube_group_reason(g) == "B off pattern"
    assert dv.cross_check_membership(g) is False
    with pytest.raises(dv.DomainError, match="B off pattern$"):
        dv.compression_factors(g)
    g[0, 4] = g[1, 3] = 0.0
    assert dv.cross_check_membership(g) is True
    g[5, 5] = 2.0  # the last entry: D^T A is no longer I
    assert semigroup.compression_reason(g) == "not symplectic"
    assert semigroup.symplectic_semigroup_reason(g) == "not symplectic"
    g[5, 5] = 1.0
    g[:3, 3:] *= -1.0  # a chart failure: D^T B = -B leaves the closed cone
    assert semigroup.compression_reason(g) == "D^T B outside the closed cone"
    assert semigroup.symplectic_semigroup_reason(g) == "D^T B not positive semidefinite"
    g[:3, 3:] *= -1.0
    g[0, 1] = -0.0  # new bytes, the same answers
    assert [outcome(route, g, *args) for route, args in one_matrix_routes()] == cold_answers(g)


def test_no_one_matrix_route_warns_on_non_finite_or_overflowing_entries():
    # no errstate here: a warning is an error.  The one-matrix tube test
    # forms the symplectic defect only under a finite bound, and every
    # route stops at "not symplectic" before it forms anything else
    rng = np.random.default_rng(7)
    spoilers = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, 5e-324, 1e155, -3e157)
    routes = [route for route, args in one_matrix_routes() if not args]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3000):
            g = dv.sample_semigroup(rng)
            for _ in range(rng.integers(1, 3)):
                g[tuple(rng.integers(6, size=2))] = spoilers[rng.integers(len(spoilers))]
            for route in routes:
                clear_memos()
                try:
                    route(g)
                except (dv.DomainError, dv.ConvergenceError, dv.InconsistencyError):
                    pass


def test_no_route_edits_a_memoised_read():
    # the reads hold nested lists: an edit by one reader would be the next
    # caller's answer, so after every route has read them the rows, the
    # products and every kept verdict must still equal a fresh read's
    for g in memo_corpus()[::7]:
        for route, args in one_matrix_routes():
            outcome(route, g, *args)
        key = g.tobytes()
        read, fresh = group._tube(key), group._tube.__wrapped__(key)
        assert repr(read[:6]) == repr(fresh[:6])
        # every route keeps a symplectic g's verdicts on its read, and only such a g's
        assert bool(read[6]) == (read[0] != "not symplectic")
        with np.errstate(all="ignore"):
            for (rule, tol), answer in read[6].items():
                assert repr(answer) == repr(rule(fresh, tol)), rule
