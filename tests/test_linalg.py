import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dualvinberg as dv
from dualvinberg.errors import SingularityError
from dualvinberg.linalg import (
    SINGULAR_TOL,
    SINGULAR_MESSAGE,
    cofactors3,
    float_maxabs,
    inv3_stack,
    is_singular3,
    maxabs,
    midpoint,
)
from dualvinberg.group import triple_decomposition_reason
from dualvinberg.semigroup import symplectic_semigroup_reason

from conftest import same_bits

# NaN, +-inf, +-1e308, the smallest subnormal and both zeros drawn often,
# then every float64
hostile = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


def same_float(a, b) -> bool:
    """Equal bits, with every NaN taken as one value: IEEE leaves the sign
    of a NaN result open."""
    return (a != a and b != b) or np.float64(a).tobytes() == np.float64(b).tobytes()


def test_det_and_adjugate_match_lapack():
    # the adjugate identity m @ adj = det(m) I: cofactors3's adj, and
    # d * inv3_stack's inverse
    m = np.random.default_rng(0).standard_normal((200, 3, 3))
    inv, d = inv3_stack(m)
    assert np.allclose(d, np.linalg.det(m), rtol=1e-12, atol=1e-12)
    assert np.allclose(m @ (d[:, None, None] * inv), d[:, None, None] * np.eye(3), atol=1e-12)
    for k in range(len(m)):
        adj, det = cofactors3(m[k].ravel().tolist())
        assert np.isclose(det, np.linalg.det(m[k]), rtol=1e-12, atol=1e-12)
        assert np.allclose(m[k] @ np.reshape(adj, (3, 3)), det * np.eye(3), atol=1e-12)
        one, dk = inv3_stack(m[k])
        assert np.allclose(m[k] @ (dk * one), det * np.eye(3), atol=1e-12)


def test_complex_dtype_supported():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    inv, d = inv3_stack(m)
    assert inv.dtype == d.dtype == complex
    assert np.allclose(d, np.linalg.det(m))
    assert np.allclose(inv @ m, np.eye(3), atol=1e-12)
    adj, det = cofactors3(m[0].ravel().tolist())  # a flat row of Python complex numbers
    assert isinstance(det, complex) and np.isclose(det, np.linalg.det(m[0]))
    assert np.allclose(np.reshape(adj, (3, 3)) @ m[0], det * np.eye(3), atol=1e-12)
    assert np.allclose(inv3_stack(m[0])[0] @ m[0], np.eye(3), atol=1e-12)


def test_identity_is_exact():
    inv, d = inv3_stack(np.eye(3))
    assert np.array_equal(inv, np.eye(3)) and d == 1.0
    eye = np.eye(3).ravel().tolist()
    assert cofactors3(eye) == (eye, 1.0)
    assert np.array_equal(dv.congruence_embed(np.eye(3)), np.eye(6))
    assert np.array_equal(dv.congruence_embed(np.stack([np.eye(3)] * 2)), np.stack([np.eye(6)] * 2))


def test_singular_raises():
    m = np.ones((3, 3))
    assert is_singular3(m, inv3_stack(m)[1])
    with pytest.raises(SingularityError, match=f"^{SINGULAR_MESSAGE}$"):
        dv.congruence_embed(m)
    # a stack raises for its singular matrix, wherever it stands
    with pytest.raises(SingularityError, match=f"^{SINGULAR_MESSAGE}$"):
        dv.congruence_embed(np.stack([np.eye(3), m]))


def test_nan_counts_as_singular():
    m = np.full((3, 3), np.nan)
    assert is_singular3(m)
    assert is_singular3(m, inv3_stack(m)[1])
    assert is_singular3(np.stack([np.eye(3), m])).tolist() == [False, True]
    with pytest.raises(SingularityError):
        dv.congruence_embed(m)


@pytest.mark.parametrize("factor", [0.5, 1.0, 1.0 + 1e-6, 2.0])
def test_one_singularity_rule_decides_every_route(factor):
    # D = diag(1, 1, t) has det t and maxabs 1, so the rule's boundary
    # |det| <= SINGULAR_TOL * (1 + 1) sits at factor 1
    t = factor * 2.0 * SINGULAR_TOL
    D = np.diag([1.0, 1.0, t])
    g = np.zeros((6, 6))
    g[:3, :3] = np.diag([1.0, 1.0, 1.0 / t])
    g[3:, 3:] = D
    singular = factor <= 1.0
    assert is_singular3(D) == singular
    assert is_singular3(D[None]).tolist() == [singular]
    assert triple_decomposition_reason(g) == ("det D = 0" if singular else None)
    assert symplectic_semigroup_reason(g) == ("det D = 0" if singular else None)
    inv, d = inv3_stack(D)
    assert is_singular3(D, d) == singular
    if singular:
        with pytest.raises(SingularityError):
            dv.congruence_embed(D)
        with pytest.raises(SingularityError):
            dv.act_real(g, dv.IDENTITY_POINT)
    else:
        assert np.array_equal(inv, np.diag([1.0, 1.0, 1.0 / t]))
        assert np.array_equal(dv.congruence_embed(D)[3:, 3:], np.diag([1.0, 1.0, 1.0 / t]))
        assert dv.in_open_cone(dv.act_real(g, dv.IDENTITY_POINT))


def test_an_overflowing_bound_counts_as_singular():
    # maxabs(m)**3 = 1e330 overflows float64; the rule must answer, not raise
    m = 1e110 * np.eye(3)
    with np.errstate(over="ignore"):
        assert is_singular3(m)
        assert is_singular3(m, inv3_stack(m)[1])
        assert is_singular3(m[None]).tolist() == [True]
    # congruence_embed decides it quietly, for one matrix and for a stack
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (m, m[None]):
            with pytest.raises(SingularityError):
                dv.congruence_embed(a)


@settings(max_examples=300, deadline=None)
@given(st.lists(hostile, min_size=1, max_size=40))
def test_float_maxabs_equals_the_numpy_reduction(values):
    # a NaN in any slot must reach the bound, where the builtin max drops
    # one that is not first
    assert same_float(float_maxabs(values), maxabs(np.array(values)))


@settings(max_examples=200, deadline=None)
@given(st.lists(hostile, min_size=9, max_size=9))
def test_is_singular3_reads_rows_as_it_reads_the_array(values):
    m = np.array(values).reshape(3, 3)
    with np.errstate(all="ignore"):
        assert is_singular3(m.ravel().tolist()) == is_singular3(m)


@settings(max_examples=100, deadline=None)
@given(st.lists(hostile, min_size=18, max_size=18))
def test_is_singular3_of_a_stack_is_the_rule_matrix_by_matrix(values):
    m = np.array(values).reshape(2, 3, 3)
    with np.errstate(all="ignore"):
        assert is_singular3(m).tolist() == [is_singular3(x) for x in m]


# zeros of both signs, subnormals, entries whose products underflow or
# overflow, inf and NaN, small integers (exact zero determinants), then
# every float64
kernel_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-150, -1e-150, 1e150, -1e150, np.inf, -np.inf, np.nan]),
    st.integers(-2, 2).map(float),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


def assert_kernel_is_the_one_matrix_route(m):
    """inv3_stack and is_singular3 on m (..., 3, 3) against cofactors3 and
    the rule on each matrix's flat row of Python floats."""
    with np.errstate(all="ignore"):
        inv, d = inv3_stack(m)
        masks = np.asarray(is_singular3(m)), np.asarray(is_singular3(m, d))
        for i in np.ndindex(m.shape[:-2]):
            f = m[i].ravel().tolist()
            adj, det = cofactors3(f)
            singular = is_singular3(f)
            # the rule, det +-0 included, and one determinant, its zero's sign included
            assert [mask[i] for mask in masks] == [singular, singular]
            assert same_float(np.asarray(d)[i], det)
            if not singular:
                assert all(map(same_float, inv[i].ravel().tolist(), [x / det for x in adj]))


S = 5e102  # S**3 is finite, and the determinant -4 S**3 of this sign pattern overflows


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(-110, 110),
    st.dictionaries(st.integers(0, 3 * 36 - 1), kernel_floats, max_size=16),
)
@example(0, 0, {6 * r + c: [[S, S, -S], [S, -S, S], [-S, S, S]][r][c] for r in range(3) for c in range(3)})
@example(0, 0, {6 * r + c: [[1.0, 0.0, 0.0], [0.0, -0.0, 0.0], [0.0, 0.0, 1.0]][r][c] for r in range(3) for c in range(3)})
def test_the_cofactor_kernel_is_adjugate_over_det_where_the_rule_admits(seed, exponent, spoils):
    # three 6x6 matrices of normals at scale 10**exponent, some entries
    # replaced by hostile floats; both sides of the rule occur
    g = np.random.default_rng(seed).standard_normal(3 * 36) * 10.0**exponent
    g[list(spoils)] = list(spoils.values())
    g = g.reshape(3, 6, 6)
    assert_kernel_is_the_one_matrix_route(g[0, :3, :3])  # one array
    assert_kernel_is_the_one_matrix_route(g[:, :3, :3].copy())  # a contiguous stack
    assert_kernel_is_the_one_matrix_route(g[:, 3:, 3:])  # strided views
    assert_kernel_is_the_one_matrix_route(g.reshape(3, 2, 3, 6)[..., 3:])  # (n, 2, 3, 3)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.sampled_from([(7,), (4, 5), (3, 2, 5)]), elements=kernel_floats))
def test_midpoint_of_an_entry_with_itself_is_the_entry(a):
    # pattern_parts averages a stack's diagonal with itself
    with np.errstate(all="ignore"):
        assert same_bits(midpoint(a, a), a)
        assert same_bits(midpoint(a[..., ::2], a[..., ::2]), a[..., ::2])


def test_the_cofactor_kernel_on_random_stacks():
    rng = np.random.default_rng(20)
    m = rng.standard_normal((2000, 3, 3)) * np.exp(rng.uniform(-300, 300, (2000, 1, 1)))
    assert_kernel_is_the_one_matrix_route(m)
    assert_kernel_is_the_one_matrix_route(m.reshape(40, 50, 3, 3))
