import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualvinberg as dv
from dualvinberg.errors import SingularityError
from dualvinberg.linalg import (
    SINGULAR_TOL,
    adjugate3,
    det3,
    float_maxabs,
    inv3,
    is_singular3,
    maxabs,
)
from dualvinberg.group import triple_decomposition_reason
from dualvinberg.semigroup import symplectic_semigroup_reason

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
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = rng.standard_normal((3, 3))
        assert np.isclose(det3(m), np.linalg.det(m), rtol=1e-12, atol=1e-12)
        assert np.allclose(m @ adjugate3(m), det3(m) * np.eye(3), atol=1e-12)


def test_complex_dtype_supported():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.isclose(det3(m), np.linalg.det(m))
    assert np.allclose(inv3(m) @ m, np.eye(3), atol=1e-12)


def test_identity_is_exact():
    assert np.array_equal(inv3(np.eye(3)), np.eye(3))


def test_singular_raises():
    m = np.ones((3, 3))
    with pytest.raises(SingularityError):
        inv3(m)


def test_nan_counts_as_singular():
    m = np.full((3, 3), np.nan)
    assert is_singular3(m)
    with pytest.raises(SingularityError):
        inv3(m)


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
    if singular:
        with pytest.raises(SingularityError):
            inv3(D)
        with pytest.raises(SingularityError):
            dv.act_real(g, dv.IDENTITY_POINT)
    else:
        assert np.array_equal(inv3(D), np.diag([1.0, 1.0, 1.0 / t]))
        assert dv.in_open_cone(dv.act_real(g, dv.IDENTITY_POINT))


def test_an_overflowing_bound_counts_as_singular():
    # maxabs(m)**3 = 1e330 overflows float64; the rule must answer, not raise
    m = 1e110 * np.eye(3)
    with np.errstate(over="ignore"):
        assert is_singular3(m)
        with pytest.raises(SingularityError):
            inv3(m)


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
        assert is_singular3(m.tolist()) == is_singular3(m)


@settings(max_examples=100, deadline=None)
@given(st.lists(hostile, min_size=18, max_size=18))
def test_is_singular3_of_a_stack_is_the_rule_matrix_by_matrix(values):
    m = np.array(values).reshape(2, 3, 3)
    with np.errstate(all="ignore"):
        assert is_singular3(m).tolist() == [is_singular3(x) for x in m]
