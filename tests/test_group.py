import warnings

import numpy as np
import pytest

import dualvinberg as dv
from dualvinberg.errors import DomainError, PatternError, SingularityError
from dualvinberg.group import (
    SYMPLECTIC_FORM,
    TripleFactors,
    symplectic_defect,
    triple_decomposition_reason,
    tube_group_alt_reason,
    tube_group_reason,
)
from dualvinberg.linalg import maxabs
from dualvinberg.semigroup import symplectic_semigroup_reason

from conftest import (
    generator_product,
    overflowing_defect_matrix,
    sample_chart_element,
    sample_tube_point,
)
from oracles import blocks, inverse, symplectic_defect_blocks, symplectic_defect_dual_blocks


def rel_err(a, b) -> float:
    return maxabs(np.asarray(a) - np.asarray(b)) / (1.0 + maxabs(b))


def E(i, j):
    m = np.zeros((3, 3))
    m[i, j] = 1.0
    return m


def test_the_chart_routes_reject_a_wrong_shape():
    for route in (dv.triple_decompose, triple_decomposition_reason):
        with pytest.raises(ValueError):
            route(np.eye(5))


def test_the_action_names_a_wrong_shape():
    for g, shape in ((np.eye(5), r"\(5, 5\)"), (np.eye(5)[None], r"\(1, 5, 5\)")):
        with pytest.raises(ValueError, match=rf"^expected 6x6 matrices, got shape {shape}$"):
            dv.group.mobius(g, np.eye(3))
        with pytest.raises(ValueError, match=rf"got shape {shape}$"):
            dv.act_real(g, dv.IDENTITY_POINT)


def test_symplectic_defect_matches_form_residual():
    rng = np.random.default_rng(20)
    J = SYMPLECTIC_FORM
    for _ in range(100):
        g = generator_product(rng)
        form = maxabs(g @ J @ g.T - J)
        scale = 1.0 + maxabs(g) ** 2
        assert symplectic_defect(g) <= 1e-12 * scale
        assert symplectic_defect(g.T) <= 1e-12 * scale
        assert form <= 1e-11 * scale
        assert dv.is_symplectic(g)
    for _ in range(100):
        g = rng.standard_normal((6, 6))
        assert (symplectic_defect(g) < 1e-6) == (maxabs(g @ J @ g.T - J) < 1e-5)
        assert not dv.is_symplectic(g)


def test_overflow_sized_entries_get_answers_not_exceptions():
    # maxabs(g)**2 = 1e400 overflows float64: the symplectic bound is then
    # not finite and nothing is certified symplectic
    big = 1e200 * np.eye(6)
    with np.errstate(over="ignore", invalid="ignore"):
        assert dv.is_symplectic(big) is False
        assert tube_group_reason(big) == "not symplectic"
        assert tube_group_alt_reason(big) == "not symplectic"
        v = np.array([1e200, 1.0, 1.0, 0.0, 0.0])
        assert np.array_equal(dv.triple_decompose(dv.translation(v)).v, v)


def test_block_product_reproduces_the_three_block_relations_bit_for_bit():
    # entries spread over e^+-12, so sums of products cancel and round
    rng = np.random.default_rng(30)
    for _ in range(10_000):
        g = rng.standard_normal((6, 6)) * np.exp(rng.uniform(-12.0, 12.0, (6, 6)))
        A, B, C, D = blocks(g)
        P = g[:3].T @ g[3:]
        assert np.array_equal(P[:3, :3], A.T @ C)
        assert np.array_equal(P[3:, :3], B.T @ C)
        assert np.array_equal(P[:3, 3:], (D.T @ A).T)
        assert np.array_equal(P[3:, 3:], (D.T @ B).T)
        old = symplectic_defect_blocks(g)
        assert np.isnan(old) or symplectic_defect(g) == old
    for g in [generator_product(rng) for _ in range(200)] + [dv.inversion(), np.eye(6)]:
        assert symplectic_defect(g) == symplectic_defect_blocks(g)


def test_dual_block_product_reproduces_the_three_dual_relations():
    # the dual relations of g are the relations of g.T
    rng = np.random.default_rng(32)
    for _ in range(3000):
        g = rng.standard_normal((6, 6)) * np.exp(rng.uniform(-12.0, 12.0, (6, 6)))
        old = symplectic_defect_dual_blocks(g)
        assert np.isnan(old) or symplectic_defect(g.T) == old
    for g in [generator_product(rng) for _ in range(200)] + [dv.inversion(), np.eye(6)]:
        assert symplectic_defect(g.T) == symplectic_defect_dual_blocks(g)


def test_a_nan_dual_relation_is_kept():
    # On the overflow matrix A = C = 0, so every dual relation is finite
    # and the broken one, A D^T - B C^T = I, is exactly 1 off.  On its
    # transpose C D^T is inf on both sides of its diagonal; the
    # three-relation max dropped that NaN and read 1.0.
    g = overflowing_defect_matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        assert symplectic_defect(g.T) == symplectic_defect_dual_blocks(g) == 1.0
        assert symplectic_defect_dual_blocks(g.T) == 1.0
        assert np.isnan(symplectic_defect(g))


def test_a_nan_block_relation_is_not_symplectic():
    # D^T B is inf on both sides of its diagonal; the three-relation form
    # dropped its NaN antisymmetric part and certified g symplectic
    g = overflowing_defect_matrix()
    assert np.isfinite(g).all()
    with np.errstate(over="ignore", invalid="ignore"):
        assert symplectic_defect_blocks(g) == 1.0
        assert np.isnan(symplectic_defect(g))
        assert dv.is_symplectic(g) is False
        assert tube_group_reason(g) == "not symplectic"
        assert tube_group_alt_reason(g) == "not symplectic"
        assert symplectic_semigroup_reason(g) == "not symplectic"


def test_an_overflowing_symplectic_defect_raises_no_warning():
    # no errstate here: a warning is an error.  Where 6 maxabs(g)^2 is not
    # finite the products of the defect, or P - P^T, can overflow; the tube
    # test then forms it quietly and an inf or NaN defect rejects
    s = 6.3e153  # 3 s^2 is finite, 6 s^2 is not: only P - P^T overflows
    only_subtract = np.zeros((6, 6))
    only_subtract[:3, :2] = s
    only_subtract[3:, 0], only_subtract[3:, 1] = -s, s  # P[0,1] = 3 s^2 = -P[1,0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (1.2e154 * np.ones((6, 6)), only_subtract):
            assert dv.is_symplectic(g) is False
            assert tube_group_reason(g) == "not symplectic"
        # past the same scale, the defect is still formed: this g is symplectic
        g = np.diag([1e154, 1.0, 1.0, 1e-154, 1.0, 1.0])
        assert dv.is_symplectic(g) is True
        assert tube_group_reason(g) is None


def test_generators_lie_in_tube_group():
    rng = np.random.default_rng(21)
    members = [
        dv.translation([1.0, 2.0, 3.0, -1.0, 0.5]),
        dv.dual_translation([0.3, -0.7]),
        dv.inversion(),
        dv.isotropy_rotation(0.3, 2.1),
        dv.congruence_embed(dv.triangular([2.0, -1.0, 0.5, 1.0, -3.0])),
    ]
    members += [generator_product(rng) for _ in range(200)]
    for g in members:
        assert tube_group_reason(g) is None
        assert dv.in_tube_group_alt(g)
        assert dv.in_tube_group(inverse(g))


def test_group_inverse_round_trip():
    rng = np.random.default_rng(22)
    for _ in range(100):
        g = generator_product(rng)
        scale = 1.0 + maxabs(g) ** 2
        assert maxabs(g @ inverse(g) - np.eye(6)) <= 1e-11 * scale
        assert maxabs(inverse(g) @ g - np.eye(6)) <= 1e-11 * scale


def _violators():
    I3 = np.eye(3)

    def assemble(A, B, C, D):
        return np.block([[A, B], [C, D]])

    yield np.arange(36, dtype=float).reshape(6, 6), "not symplectic"
    yield dv.congruence_embed(I3 + 0.3 * E(0, 1)), "A off pattern"
    yield dv.congruence_embed(np.diag([1.0, 1.0, -1.0])), "A[3,3] not positive"
    yield assemble(I3, E(0, 2) + E(2, 0), E(1, 2) + E(2, 1), I3 + E(1, 0)), "D off pattern"
    yield assemble(I3, E(2, 2), -2.0 * E(2, 2), np.diag([1.0, 1.0, -1.0])), "D[3,3] not positive"
    yield assemble(I3, E(0, 1) + E(1, 0), np.zeros((3, 3)), I3), "B off pattern"
    yield assemble(I3, np.zeros((3, 3)), E(0, 1) + E(1, 0), I3), "C off pattern"
    yield assemble(I3, np.zeros((3, 3)), E(2, 2), I3), "C off pattern"


def test_tube_group_violators_report_first_failing_constraint():
    for g, reason in _violators():
        assert tube_group_reason(g) == reason
        assert not dv.in_tube_group(g)
        assert not dv.in_tube_group_alt(g)


def test_isotropy_rotation_at_right_angles_is_the_inversion():
    assert maxabs(dv.inversion() - dv.isotropy_rotation(np.pi / 2, np.pi / 2)) <= 1e-16


def test_inversion_is_order_four():
    s = dv.inversion()
    s2 = s @ s
    assert np.array_equal(s2, dv.congruence_embed(np.diag([-1.0, -1.0, 1.0])))
    assert np.array_equal(s2 @ s2, np.eye(6))


def test_inversion_conjugates_flat_translations_to_dual_ones():
    s = dv.inversion()
    for u in ([1.0, 2.0], [-0.5, 0.25]):
        t = dv.translation([u[0], u[1], 0.0, 0.0, 0.0])
        assert np.array_equal(s @ t @ s, dv.dual_translation(u) @ s @ s)


def test_rotations_compose_by_adding_angles():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a, b, c, d = rng.uniform(0, 2 * np.pi, 4)
        lhs = dv.isotropy_rotation(a, b) @ dv.isotropy_rotation(c, d)
        rhs = dv.isotropy_rotation(a + c, b + d)
        assert maxabs(lhs - rhs) <= 1e-14


def test_base_point_is_fixed_by_the_stabilizer():
    z0 = 1j * dv.IDENTITY_POINT
    for g in (dv.inversion(), dv.isotropy_rotation(0.7, -1.3), dv.isotropy_rotation(np.pi, 0.0)):
        assert maxabs(dv.act(g, z0) - z0) <= 1e-14


def test_translation_acts_by_adding_exactly():
    rng = np.random.default_rng(24)
    for _ in range(50):
        v = rng.standard_normal(5)
        z = sample_tube_point(rng)
        assert np.array_equal(dv.act(dv.translation(v), z), z + v)


def test_action_is_a_left_action():
    rng = np.random.default_rng(25)
    for _ in range(200):
        g = generator_product(rng)
        h = generator_product(rng)
        z = sample_tube_point(rng)
        w = dv.act(h, z)
        assert dv.in_open_cone(w.imag)  # the tube domain is preserved
        assert rel_err(dv.act(g, w), dv.act(g @ h, z)) <= 1e-8


def test_action_squared_inversion_flips_off_diagonal_signs():
    rng = np.random.default_rng(26)
    s2 = dv.inversion() @ dv.inversion()
    for _ in range(20):
        z = sample_tube_point(rng)
        expected = z * np.array([1, 1, 1, -1, -1])
        assert maxabs(dv.act(s2, z) - expected) <= 1e-14


def test_act_requires_interior_imaginary_part():
    with pytest.raises(DomainError):
        dv.act(np.eye(6), np.array([1.0, 1.0, 1.0, 0.0, 0.0]))  # real point


def test_act_real_frozen_inversion_image():
    got = dv.act_real(dv.inversion(), [1.0, 2.0, 3.0, 1.0, 1.0])
    assert np.allclose(got, [-1.0, -0.5, 1.5, 1.0, 0.5], rtol=0, atol=1e-15)


def test_act_real_raises_on_singular_denominator():
    with pytest.raises(SingularityError):
        dv.act_real(dv.inversion(), [0.0, 1.0, 1.0, 0.0, 0.0])


def test_act_real_rejects_an_image_with_a_non_finite_forbidden_entry():
    g = dv.translation([1, 1, 1, 0, 0])
    g[0, 4] = np.inf  # B[0, 1]: the image carries inf and NaN off the pattern
    with np.errstate(invalid="ignore"), pytest.raises(PatternError):
        dv.act_real(g, dv.IDENTITY_POINT)


@pytest.mark.parametrize("slot", [(0, 0), (0, 3), (3, 0), (5, 5)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_leave_the_chart(slot, value):
    # a NaN outside D never reaches the singularity rule; finiteness is
    # checked on every entry
    g = np.eye(6)
    g[slot] = value
    assert triple_decomposition_reason(g) == "entry not finite"
    with pytest.raises(DomainError, match="entry not finite"):
        dv.triple_decompose(g)


def test_chart_membership_and_rotation_chart_boundary():
    assert triple_decomposition_reason(dv.translation([1, 2, 3, 4, 5])) is None
    assert triple_decomposition_reason(dv.inversion()) == "det D = 0"
    assert triple_decomposition_reason(dv.isotropy_rotation(np.pi / 2, 0.0)) == "det D = 0"
    with pytest.raises(SingularityError):
        dv.triple_decompose(dv.inversion())


def overflowing_chart_element(b=0.0, c=0.0):
    """[[I, embed(b (1, 1, 1, 1, 0))], [diag(c, c, 0), I/2]]: every entry
    finite and D regular, so on the chart, with B D^-1 = 2B and D^-1 C = 2C."""
    g = np.eye(6)
    g[3:, 3:] /= 2
    g[:3, 3:] = dv.embed(b * np.array([1.0, 1.0, 1.0, 1.0, 0.0]))
    g[3:5, :2] = c * np.eye(2)
    return g


def test_overflowing_chart_factors_are_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (overflowing_chart_element(b=1e308), overflowing_chart_element(c=1e308)):
            assert triple_decomposition_reason(g) == "chart factor not finite"
            with pytest.raises(DomainError, match="^chart factor not finite$"):
                dv.triple_decompose(g)
        # past the overflow bound 8 maxabs(g)**3 / |det D| but finite: the same factors
        f = dv.triple_decompose(overflowing_chart_element(b=2.5e307, c=-2.5e307))
    assert np.array_equal(f.v, [5e307, 5e307, 5e307, 5e307, 0.0])
    assert np.array_equal(f.L, 2 * np.eye(3))
    assert np.array_equal(f.u, [-5e307, -5e307])


def test_the_chart_reason_is_the_decomposition_error():
    # the reason says what triple_decompose raises: a factor that overflows
    # only where 8 maxabs(g)**3 / |det D| does, and None past that bound
    # where the factors stay finite
    subjects = [overflowing_chart_element(b=1e308), overflowing_chart_element(c=-1e308),
                overflowing_chart_element(b=2.5e307, c=-2.5e307), overflowing_chart_element(b=1e300)]
    subjects += [np.eye(6), dv.inversion(), np.full((6, 6), np.inf), 1e200 * np.eye(6)]
    subjects += [generator_product(np.random.default_rng(i)) for i in range(20)]
    for g in subjects:
        try:
            dv.triple_decompose(g)
            want = None
        except DomainError as exc:
            want = str(exc)
        except PatternError:
            want = None
        assert triple_decomposition_reason(g) == want
    got = [triple_decomposition_reason(g) for g in subjects[:4]]
    assert got == ["chart factor not finite", "chart factor not finite", None, None]


def test_triple_factors_of_generators_are_exact():
    v = np.array([1.0, -2.0, 0.5, 3.0, 0.25])
    f = dv.triple_decompose(dv.translation(v))
    assert np.array_equal(f.v, v)
    assert np.array_equal(f.L, np.eye(3))
    assert np.array_equal(f.u, [0.0, 0.0])

    L = dv.triangular([2.0, -1.0, 0.5, 1.0, -3.0])
    f = dv.triple_decompose(dv.congruence_embed(L))
    assert maxabs(f.v) == 0.0
    assert maxabs(f.L - L) <= 1e-15
    assert np.array_equal(f.u, [0.0, 0.0])

    u = np.array([0.75, -0.25])
    f = dv.triple_decompose(dv.dual_translation(u))
    assert np.array_equal(f.u, -u)  # the lower factor carries +diag(u)


def test_quarter_turn_rotation_has_frozen_chart_factors():
    f = dv.triple_decompose(dv.isotropy_rotation(np.pi / 4, np.pi / 4))
    assert np.allclose(f.v, [-1.0, -1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-15)
    assert np.allclose(f.L, np.diag([np.sqrt(2.0), np.sqrt(2.0), 1.0]), rtol=0, atol=1e-15)
    assert np.allclose(f.u, [1.0, 1.0], rtol=0, atol=1e-15)


def test_triple_decomposition_round_trips():
    rng = np.random.default_rng(27)
    for _ in range(300):
        g = sample_chart_element(rng)
        f = dv.triple_decompose(g)
        assert rel_err(dv.triple_compose(f), g) <= 1e-10


def test_triple_factors_are_unique_on_the_chart():
    rng = np.random.default_rng(28)
    for _ in range(200):
        f = TripleFactors(
            v=rng.standard_normal(5),
            L=dv.sample_triangular(rng, 0.7),
            u=rng.standard_normal(2),
        )
        f2 = dv.triple_decompose(dv.triple_compose(f))
        assert rel_err(f2.v, f.v) <= 1e-10
        assert rel_err(f2.L, f.L) <= 1e-10
        assert rel_err(f2.u, f.u) <= 1e-10


def test_rotations_factor_through_the_chart_after_a_grid_shift():
    # every stabilizer rotation is a shifted rotation times a chart element,
    # with the shift drawn from a fixed eight-point grid that keeps the
    # shifted rotation away from the chart boundary
    grid = np.pi / 8 + np.arange(8) * np.pi / 4
    rng = np.random.default_rng(29)
    angles = [(0.0, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2), (np.pi, np.pi / 3)]
    angles += [tuple(rng.uniform(0, 2 * np.pi, 2)) for _ in range(30)]
    for theta, phi in angles:
        alpha = max(grid, key=lambda a: abs(np.cos(theta + a) * np.cos(phi + a)))
        shifted = dv.isotropy_rotation(theta + alpha, phi + alpha)
        assert triple_decomposition_reason(shifted) is None
        recomposed = dv.triple_compose(dv.triple_decompose(shifted))
        witness = dv.isotropy_rotation(-alpha, -alpha) @ recomposed
        assert maxabs(witness - dv.isotropy_rotation(theta, phi)) <= 1e-12
