import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dualvinberg as dv
from dualvinberg.cone import (
    IDENTITY_POINT,
    closed_cone_reason,
    diag_pair,
    embed,
    embed_diag_pair,
    embed_stack,
    is_triangular_pattern,
    open_cone_reason,
    pattern_parts,
    read_pattern,
    unembed,
)
from dualvinberg.errors import DomainError, PatternError

from conftest import ZeroRandomness, same_bits
from oracles import in_positive_triangular

TOL = 1e-10

coords = hnp.arrays(
    np.float64, 5, elements=st.floats(-1e6, 1e6, allow_nan=False, width=64)
)


@settings(max_examples=200, deadline=None)
@given(coords)
def test_embed_unembed_round_trip(x):
    m = embed(x)
    assert np.array_equal(m, m.T)
    assert m[0, 1] == 0.0
    assert np.array_equal(unembed(m), x)


def test_unembed_rejects_off_pattern():
    m = np.eye(3)
    m[0, 1] = 1e-6
    with pytest.raises(PatternError):
        unembed(m)
    m = np.zeros((3, 3))
    m[0, 2] = 1.0  # mirror entry missing
    with pytest.raises(PatternError):
        unembed(m)


@pytest.mark.parametrize("slot", [(0, 1), (1, 0)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_unembed_rejects_a_non_finite_forbidden_entry(slot, value):
    # the default bound grows with the entry it bounds, to inf or NaN
    m = np.eye(3)
    m[slot] = value
    with pytest.raises(PatternError):
        unembed(m)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("slots", [[(0, 0)], [(2, 2)], [(0, 2)], [(1, 2), (2, 1)]])
def test_unembed_keeps_the_coordinates_of_a_non_finite_pattern_entry(value, slots):
    m = embed([1.0, 2.0, 3.0, 0.5, -0.5])
    for slot in slots:
        m[slot] = value
    want = [m[0, 0], m[1, 1], m[2, 2], (m[0, 2] + m[2, 0]) / 2, (m[1, 2] + m[2, 1]) / 2]
    assert np.array_equal(unembed(m), want, equal_nan=True)


# zeros of both signs, subnormals, +-1e+-300, inf and NaN drawn often,
# then every float64
hostile = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PatternError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(-300, 300),
    st.dictionaries(st.integers(0, 4 * 36 - 1), hostile, max_size=12),
)
def test_stacked_pattern_reads_are_the_one_matrix_reads_row_by_row(seed, exponent, spoils):
    # four 6x6 matrices at scale 10**exponent whose diagonal blocks are
    # patterned and off-diagonal ones not, some entries hostile floats; read
    # as (n, 3, 3) and (n, 2, 3, 3) stacks, contiguous and strided
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 6, 6)) * 10.0**exponent
    g[:, :3, :3], g[:, 3:, 3:] = embed_stack(rng.standard_normal((2, 4, 5)) * 10.0**exponent)
    g.reshape(-1)[list(spoils)] = list(spoils.values())
    halves = g.reshape(4, 2, 3, 6)
    for W in (g[:, :3, :3].copy(), g[:, 3:, 3:], g[:, :3, 3:], halves[..., 3:].copy(), halves[..., :3]):
        with np.errstate(all="ignore"):
            off, x = pattern_parts(W)
            _, _, refused = read_pattern(W)
            rows = [W[i] for i in np.ndindex(W.shape[:-2])]
            assert same_bits(off, np.reshape([pattern_parts(m)[0] for m in rows], W.shape[:-2]))
            assert same_bits(x, np.reshape([pattern_parts(m)[1] for m in rows], W.shape[:-2] + (5,)))
            # unembed raises the first refused matrix's error, or reads every one
            want = [_outcome(unembed, m) for m in rows]
            errors = [w for w in want if isinstance(w, str)]
            assert refused.reshape(-1).tolist() == [isinstance(w, str) for w in want]
            got = _outcome(unembed, W)
            assert got == errors[0] if errors else same_bits(got, x)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.sampled_from([(5,), (1, 5), (4, 5), (3, 2, 5)]), elements=hostile))
def test_embed_stack_is_embed_row_by_row(x):
    strided = np.zeros(x.shape[:-1] + (10,))
    strided[..., ::2] = x
    z = np.zeros(x.shape, dtype=complex)
    z.real, z.imag = x, x[..., ::-1]
    for y in (x, strided[..., ::2], z):
        got = embed_stack(y)
        assert got.shape == y.shape[:-1] + (3, 3)
        assert all(same_bits(got[i], embed(y[i])) for i in np.ndindex(y.shape[:-1]))


def test_diag_pair_embedding():
    u = np.array([2.0, -3.0])
    assert np.array_equal(embed_diag_pair(u), np.diag([2.0, -3.0, 0.0]))
    assert np.array_equal(diag_pair(embed_diag_pair(u)), u)


def test_minors_frozen_example():
    assert np.allclose(dv.minors([2, 2, 2.01, -1, 0]), (2.0, 4.0, 6.04), rtol=1e-15)


def test_minors_match_leading_determinants():
    rng = np.random.default_rng(1)
    for _ in range(300):
        x = 2.0 * rng.standard_normal(5)
        m = embed(x)
        d1, d2, d3 = dv.minors(x)
        assert np.isclose(d1, m[0, 0], rtol=1e-12, atol=1e-12)
        assert np.isclose(d2, np.linalg.det(m[:2, :2]), rtol=1e-12, atol=1e-12)
        assert np.isclose(d3, np.linalg.det(m), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "x,expected",
    [
        ([1, 1, 1, 0, 0], True),
        ([2, 2, 2.01, -1, 0], True),
        ([1, 1, 0.9, 0.5, 0.5], True),
        ([1, 1, 1, 1, 0], False),  # third minor exactly zero
        ([-1, -1, 1, 0, 0], False),  # second minor positive, first not
        ([0, 1, 1, 0, 0], False),
    ],
)
def test_open_cone_frozen_cases(x, expected):
    assert dv.in_open_cone(x) is expected


def test_open_cone_reasons_name_the_failing_minor():
    assert open_cone_reason([-1, 1, 1, 0, 0]) == "minor 1 not positive"
    assert open_cone_reason([1, -1, 1, 0, 0]) == "minor 2 not positive"
    assert open_cone_reason([1, 1, 1, 1, 0]) == "minor 3 not positive"
    assert open_cone_reason([1, 1, 1, 0, 0]) is None


def test_open_cone_matches_positive_definiteness():
    rng = np.random.default_rng(2)
    points = [rng.standard_normal(5) for _ in range(400)]
    points += [dv.sample_cone(rng) for _ in range(400)]
    for x in points:
        pd = bool(np.linalg.eigvalsh(embed(x)).min() > 0)
        assert dv.in_open_cone(x) == pd


def test_closed_cone_frozen_cases():
    # minors nonnegative but an eigenvalue is (1 - sqrt(5))/2 < 0
    assert closed_cone_reason([1, 0, 1, 0, 1]) is not None
    assert closed_cone_reason([1, 1, 1, 1, 0]) is None
    assert closed_cone_reason(np.zeros(5)) is None
    assert closed_cone_reason(IDENTITY_POINT) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", range(5))
def test_closed_cone_rejects_non_finite_coordinates(slot, bad):
    x = IDENTITY_POINT.copy()
    x[slot] = bad
    assert closed_cone_reason(x) == "coordinate not finite"


def test_closed_cone_rejects_a_nan_tolerance():
    assert closed_cone_reason(IDENTITY_POINT, tol=np.nan) is not None


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        5,
        elements=st.one_of(
            st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, 0.0, -0.0, 1.0]),
            st.floats(allow_nan=True, allow_infinity=True, width=64),
        ),
    ),
    st.sampled_from([1e-9, 0.0, 1e-3, -1e-12, np.nan]),
)
def test_closed_cone_reason_reads_a_list_as_it_reads_an_array(x, tol):
    # the certificates hand their coordinates over as lists of Python floats
    with np.errstate(all="ignore"):
        assert closed_cone_reason(x.tolist(), tol) == closed_cone_reason(x, tol)
        y = np.abs(x) * [1.0, 1.0, 1.0, 0.0, 0.0]  # diagonal points, members when finite
        assert closed_cone_reason(y.tolist(), tol) == closed_cone_reason(y, tol)


def test_open_cone_implies_closed():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = dv.sample_cone(rng)
        assert dv.in_open_cone(x) and closed_cone_reason(x) is None


def test_char_function_frozen_values():
    assert dv.log_char_function(IDENTITY_POINT) == 0.0
    assert np.isclose(dv.log_char_function([4, 1, 1, 0, 0]), np.log(0.125), rtol=1e-14)
    with pytest.raises(DomainError):
        dv.log_char_function([1, 1, 1, 1, 0])


def test_char_function_transforms_by_inverse_determinant():
    # the congruence by A scales coordinates with determinant a1^3 a2^3 a3^4
    rng = np.random.default_rng(6)
    for _ in range(300):
        x = dv.sample_cone(rng, 0.75)
        A = dv.sample_triangular(rng, 0.75)
        a1, a2, a3 = np.diag(A)
        lhs = dv.log_char_function(unembed(A @ embed(x) @ A.T))
        rhs = dv.log_char_function(x) - np.log(abs(a1**3 * a2**3 * a3**4))
        assert np.isclose(lhs, rhs, rtol=0, atol=TOL)


def test_log_char_matches_log_of_char():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = dv.sample_cone(rng, 0.5)
        char = np.sqrt(x[0] * x[1]) * dv.minors(x)[2] ** -2.0
        assert np.isclose(dv.log_char_function(x), np.log(char), atol=1e-12)


def test_congruence_diagonal_formula():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = np.exp(rng.standard_normal(3))
        x = rng.standard_normal(5)
        got = dv.congruence_matrix(np.diag(a)) @ x
        want = [
            a[0] ** 2 * x[0],
            a[1] ** 2 * x[1],
            a[2] ** 2 * x[2],
            a[0] * a[2] * x[3],
            a[1] * a[2] * x[4],
        ]
        assert np.allclose(got, want, rtol=1e-14)


def test_congruence_unipotent_frozen_example():
    A = dv.triangular([1, 1, 1, 1, 0])
    assert np.array_equal(dv.congruence_matrix(A) @ IDENTITY_POINT, [1, 1, 2, 1, 0])


def test_congruence_matrix_represents_the_action():
    rng = np.random.default_rng(9)
    for _ in range(100):
        A = dv.sample_triangular(rng)
        x = rng.standard_normal(5)
        want = unembed(A @ embed(x) @ A.T)
        assert np.allclose(dv.congruence_matrix(A) @ x, want, rtol=1e-12, atol=1e-12)


def test_congruence_matrix_rejects_pattern_breaking_action():
    A = np.eye(3)
    A[0, 1] = 1.0  # congruence by this leaves the patterned subspace
    with pytest.raises(PatternError):
        dv.congruence_matrix(A)


def test_congruence_preserves_cone():
    rng = np.random.default_rng(11)
    for _ in range(200):
        A = dv.sample_triangular(rng)
        x = dv.sample_cone(rng)
        assert dv.in_open_cone(dv.congruence_matrix(A) @ x)


def test_triangular_params_round_trip():
    params = np.array([1.5, -2.0, 0.5, 3.0, -1.0])
    A = dv.triangular(params)
    assert np.array_equal(dv.triangular_params(A), params)
    assert is_triangular_pattern(A)
    assert not in_positive_triangular(A)
    assert in_positive_triangular(dv.triangular([1, 2, 3, -4, 5]))


def test_sample_cone_deterministic_and_interior():
    a = dv.sample_cone(np.random.default_rng(123))
    b = dv.sample_cone(np.random.default_rng(123))
    assert np.array_equal(a, b)
    rng = np.random.default_rng(12)
    assert all(dv.in_open_cone(dv.sample_cone(rng)) for _ in range(200))


def test_sample_cone_degenerate_randomness_gives_identity():
    assert np.array_equal(dv.sample_cone(ZeroRandomness()), IDENTITY_POINT)


def test_isotropy_group_structure():
    group = dv.isotropy_group()
    assert len(group) == 8
    keys = {tuple(np.rint(m).astype(int).ravel()) for m in group}
    assert len(keys) == 8
    for a in group:
        assert np.array_equal(a @ IDENTITY_POINT, IDENTITY_POINT)
        assert np.array_equal(a @ a.T, np.eye(5))  # signed coordinate permutations
        for b in group:
            assert tuple(np.rint(a @ b).astype(int).ravel()) in keys
    orders = []
    for a in group:
        p, k = np.eye(5), 0
        while True:
            p, k = p @ a, k + 1
            if np.array_equal(p, np.eye(5)):
                break
        orders.append(k)
    assert max(orders) == 4


def test_isotropy_group_preserves_cone():
    group = dv.isotropy_group()
    rng = np.random.default_rng(13)
    for _ in range(1000):
        x = dv.sample_cone(rng)
        for a in group:
            assert dv.in_open_cone(a @ x)
