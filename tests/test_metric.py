import math
import re
from fractions import Fraction

import numpy as np
import pytest

import dualvinberg as dv
from dualvinberg.errors import DomainError
from dualvinberg.linalg import maxabs

from oracles import exact_cone_metric, exact_gram, exact_minors, ldl_pivots, spd_metric_triangular

IDENTITY = dv.IDENTITY_POINT


def rel_err(a, b) -> float:
    return maxabs(np.asarray(a) - np.asarray(b)) / (1.0 + maxabs(b))


def random_spd(rng):
    w = rng.standard_normal((3, 3))
    return w @ w.T + 0.1 * np.eye(3)


def random_sym(rng):
    w = rng.standard_normal((3, 3))
    return (w + w.T) / 2


def test_metric_frozen_values_at_the_identity():
    v = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    assert dv.cone_metric(IDENTITY, v, v) == 7.5
    assert dv.cone_metric(IDENTITY, IDENTITY, IDENTITY) == 5.0
    assert dv.spd_metric(np.eye(3), np.eye(3), np.eye(3)) == 6.0


def test_cone_metric_requires_interior_base_point():
    with pytest.raises(DomainError):
        dv.cone_metric([1, 1, 1, 1, 0], IDENTITY, IDENTITY)


def test_cone_metric_refuses_an_interior_point_whose_determinant_overflows():
    # minors 1e200, 1e200 and inf: in_open_cone accepts the point, and
    # inv(X) divides an infinite adjugate entry by an infinite determinant
    x = np.array([1e200, 1.0, 1e250, 0.0, 0.0])
    e1 = np.eye(5)[0]
    with np.errstate(all="ignore"):
        assert dv.in_open_cone(x)
        with pytest.raises(DomainError, match="not finite"):
            dv.cone_metric(x, e1, e1)
        with pytest.raises(DomainError, match="not finite"):
            dv.contraction_ratio(np.eye(6), x, e1)
        # a finite but wrong form: the determinant 1e450 overflows, the adjugate does not
        with pytest.raises(DomainError, match="not finite"):
            dv.cone_metric([1e150, 1e150, 1e150, 0.0, 0.0], e1, e1)
        # a stack raises for its first such row, after every row passed the open cone
        with pytest.raises(DomainError, match="not finite"):
            dv.cone_metric(np.array([IDENTITY, x]), np.array([e1, e1]), np.array([e1, e1]))
        # a tangent whose form overflows
        with pytest.raises(DomainError, match="not finite"):
            dv.cone_metric(IDENTITY, 1e200 * e1, 1e200 * e1)
    assert dv.cone_metric(np.array([IDENTITY, IDENTITY]), np.array([e1, e1]), np.array([e1, e1])).tolist() == [1.5, 1.5]


def test_the_metric_functions_refuse_non_finite_and_overflowing_input_without_a_warning():
    # the suite turns a RuntimeWarning into an error, and no errstate is entered here
    e1 = np.eye(5)[0]
    with pytest.raises(DomainError, match="minor 3 not positive"):
        dv.log_char_function([np.inf, 1.0, 1.0, 0.0, 0.0])
    for x in ([1e200, 1e200, 1e200, 0.0, 0.0], [1.0, 1.0, np.inf, 0.0, 0.0], [1e200, 1.0, 1e250, 0.0, 0.0]):
        with pytest.raises(DomainError, match="^minor of the point not finite$"):
            dv.log_char_function(x)
    for v in ([np.inf, 0, 0, 0, 0], 1e200 * np.array([1.0, 1.0, 1.0, 1.0, 0.0]), [0, 0, np.nan, 0, 0]):
        with pytest.raises(DomainError, match="not finite"):
            dv.cone_metric(IDENTITY, v, v)
    with pytest.raises(DomainError, match="open cone"):
        dv.cone_metric([np.inf, 1.0, 1.0, 0.0, 0.0], e1, e1)
    with pytest.raises(DomainError, match="not finite"):
        dv.cone_metric([1e200, 1.0, 1e250, 0.0, 0.0], e1, e1)
    # a stack raises for its first such row, quietly too
    V = np.array([e1, [np.inf, 0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(DomainError, match="^metric form or base point minor not finite$"):
        dv.cone_metric(np.array([IDENTITY, IDENTITY]), V, V)


def test_the_metric_functions_name_the_shapes_they_take():
    e1 = np.eye(5)[0]
    for x, v in ((IDENTITY, np.ones(4)), (np.ones(4), np.ones(4)), (np.array([IDENTITY] * 2), e1),
                 (IDENTITY[None, None], e1[None, None]), (IDENTITY, np.array([e1, e1]))):
        with pytest.raises(ValueError, match=r"not \(5,\) or \(n, 5\) each$"):
            dv.cone_metric(x, v, v)
    for x in (np.ones((2, 5)), np.ones(4), 1.0):
        with pytest.raises(ValueError, match=r"^expected a point of shape \(5,\), got shape "):
            dv.log_char_function(x)


def test_the_metric_functions_raise_only_domain_errors_on_hostile_floats():
    # x near e and a random v, one slot of x or v set to a hostile float:
    # a finite answer or a DomainError, and never a warning
    rng = np.random.default_rng(7)
    spoilers = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, 5e-324, 1e155, -3e157)
    answered = refused = 0
    for _ in range(1000):
        x = IDENTITY + 0.1 * rng.standard_normal(5)
        v = rng.standard_normal(5)
        (x if rng.integers(2) else v)[rng.integers(5)] = spoilers[rng.integers(len(spoilers))]
        for f in (lambda: dv.cone_metric(x, v, v), lambda: dv.log_char_function(x)):
            try:
                assert math.isfinite(f())
                answered += 1
            except DomainError:
                refused += 1
    assert answered and refused


def test_the_ratio_pass_checks_the_forms_last():
    # the base point's form and minor are checked after every other check
    # of the pass, so the same point with a zero tangent reports the tangent
    g = dv.translation([1.0, 1.0, 1.01, -1.0, 0.0])
    x = np.array([1e200, 1.0, 1e250, 0.0, 0.0])
    with np.errstate(all="ignore"):
        with pytest.raises(DomainError, match="^zero tangent vector$"):
            dv.contraction_ratio(g, x, np.zeros(5))
        with pytest.raises(DomainError, match="^metric form or base point minor not finite$"):
            dv.contraction_ratio(g, x, np.eye(5)[0])


def test_an_underflowing_tangent_raises_a_domain_error_on_both_routes():
    # the form of v = 1e-300 e1 at x, 3/2 v1^2, underflows to 0; a sampled
    # tangent is a unit vector and cannot reach this
    g = dv.translation([1.0, 1.0, 1.01, -1.0, 0.0])
    v = np.array([1e-300, 0.0, 0.0, 0.0, 0.0])
    assert dv.cone_metric(IDENTITY, v, v) == 0.0
    with pytest.raises(DomainError, match="^tangent form underflows to zero$"):
        dv.contraction_ratio(g, IDENTITY, v)
    # a stack raises for its lowest failing row, with no warning from the division
    with pytest.raises(DomainError, match="^tangent form underflows to zero$"):
        dv.contraction_ratios(np.stack([g, g, g]), np.stack([IDENTITY] * 3), np.stack([np.eye(5)[0], v, v]))


def test_a_non_finite_tangent_raises_a_domain_error_on_both_routes():
    # +-inf and NaN in each slot of v, 15 probes, at x = e and the first
    # interior member of rng 7; the check follows the zero-tangent check
    g = dv.sample_semigroup(np.random.default_rng(7))
    base = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
    assert dv.contraction_ratio(g, IDENTITY, base).ratio > 0.0
    for slot in range(5):
        for bad in (np.inf, -np.inf, np.nan):
            v = base.copy()
            v[slot] = bad
            with pytest.raises(DomainError, match="^tangent vector not finite$"):
                dv.contraction_ratio(g, IDENTITY, v)
            # the stacked pass, then the loop of one-row calls, for the lowest failing row
            with pytest.raises(DomainError, match="^tangent vector not finite$"):
                dv.contraction_ratios(np.stack([g, g]), np.stack([IDENTITY] * 2), np.stack([base, v]))


@pytest.mark.parametrize(
    "g_shape, x_shape, v_shape",
    [((3, 6, 6), (2, 5), (2, 5)), ((1, 6, 6), (1, 5), (1, 4)), ((6, 6), (5,), (1, 5))],
)
def test_contraction_ratios_names_mismatched_shapes(g_shape, x_shape, v_shape):
    # these reached numpy's broadcasting error inside mobius, or an IndexError
    g = np.broadcast_to(dv.translation([1.0, 1.0, 1.01, -1.0, 0.0]), g_shape)
    x = np.broadcast_to(IDENTITY, x_shape[:-1] + (5,))
    v = np.ones(v_shape)
    shapes = f"shapes {g_shape}, {x_shape}, {v_shape}, not (n, 6, 6), (n, 5), (n, 5)"
    with pytest.raises(ValueError, match=f"^{re.escape(shapes)}$"):
        dv.contraction_ratios(g, x, v)


def test_cone_metric_is_symmetric_and_bilinear():
    rng = np.random.default_rng(60)
    for _ in range(100):
        x = dv.sample_cone(rng, 0.7)
        v, w, w2 = rng.standard_normal((3, 5))
        a, b = rng.standard_normal(2)
        scale = 1.0 + abs(dv.cone_metric(x, v, v)) + abs(dv.cone_metric(x, w, w))
        assert abs(dv.cone_metric(x, v, w) - dv.cone_metric(x, w, v)) <= 1e-12 * scale
        lhs = dv.cone_metric(x, v, a * w + b * w2)
        rhs = a * dv.cone_metric(x, v, w) + b * dv.cone_metric(x, v, w2)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_cone_metric_is_positive_definite():
    rng = np.random.default_rng(61)
    for _ in range(300):
        x = dv.sample_cone(rng, 0.7)
        v = rng.standard_normal(5)
        assert dv.cone_metric(x, v, v) > 0.0


def test_cone_metric_invariant_under_linear_automorphisms():
    rng = np.random.default_rng(62)
    for _ in range(200):
        A = dv.sample_triangular(rng, 0.5)
        x = dv.sample_cone(rng, 0.7)
        v = rng.standard_normal(5)
        rec = dv.contraction_ratio(dv.congruence_embed(A), x, v)
        assert abs(rec.ratio - 1.0) <= 1e-10


def test_cone_metric_invariant_under_the_isotropy_group():
    rng = np.random.default_rng(63)
    for m in dv.isotropy_group():
        for _ in range(20):
            v, w = rng.standard_normal((2, 5))
            lhs = dv.cone_metric(IDENTITY, m @ v, m @ w)
            rhs = dv.cone_metric(IDENTITY, v, w)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_cone_metric_matches_finite_differences():
    rng = np.random.default_rng(64)
    for _ in range(100):
        x = dv.sample_cone(rng, 0.3)
        v, w = 0.3 * rng.standard_normal((2, 5))
        exact = dv.cone_metric(x, v, w)
        approx = dv.cone_metric_fd(x, v, w)
        norm = np.sqrt(dv.cone_metric(x, v, v) * dv.cone_metric(x, w, w))
        assert abs(approx - exact) <= 1e-5 * (1.0 + norm)


def test_cone_metric_fd_propagates_stencil_domain_errors():
    x = np.array([1.0, 1.0, 1.000001, 1.0, 0.0])
    v = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        dv.cone_metric_fd(x, v, v, h=1e-2)


def test_spd_metric_matches_direct_trace_formula():
    rng = np.random.default_rng(65)
    for _ in range(200):
        x = random_spd(rng)
        v = random_sym(rng)
        w = random_sym(rng)
        xi = np.linalg.inv(x)
        direct = 2.0 * np.trace(xi @ v @ xi @ w)
        assert np.isclose(dv.spd_metric(x, v, w), direct, rtol=1e-10, atol=1e-12)


def test_spd_metric_matches_the_triangular_solve_oracle():
    rng = np.random.default_rng(67)
    for _ in range(10_000):
        x, v, w = random_spd(rng), random_sym(rng), random_sym(rng)
        expected, scale = spd_metric_triangular(x, v, w)
        assert abs(dv.spd_metric(x, v, w) - expected) <= 1e-13 * scale


def test_spd_metric_requires_positive_definite_base():
    with pytest.raises(DomainError):
        dv.spd_metric(np.diag([1.0, -1.0, 1.0]), np.eye(3), np.eye(3))


def test_action_jacobian_is_exact_for_translations():
    rng = np.random.default_rng(66)
    for _ in range(50):
        v = rng.standard_normal(5)
        x = dv.sample_cone(rng)
        got = dv.action_jacobian(dv.translation(rng.standard_normal(5)), x, v)
        assert np.array_equal(got, v)


def test_action_jacobian_is_linear_in_the_tangent():
    rng = np.random.default_rng(67)
    for _ in range(50):
        g = dv.sample_semigroup(rng, interior=True, sigma=0.7)
        x = dv.sample_cone(rng, 0.7)
        v1, v2 = rng.standard_normal((2, 5))
        a, b = rng.standard_normal(2)
        lhs = dv.action_jacobian(g, x, a * v1 + b * v2)
        rhs = a * dv.action_jacobian(g, x, v1) + b * dv.action_jacobian(g, x, v2)
        assert rel_err(lhs, rhs) <= 1e-12


def test_action_jacobian_matches_finite_differences():
    rng = np.random.default_rng(68)
    for _ in range(100):
        g = dv.sample_semigroup(rng, interior=True, sigma=0.7)
        x = dv.sample_cone(rng, 0.7)
        v = rng.standard_normal(5)
        exact = dv.action_jacobian(g, x, v)
        approx = dv.action_jacobian_fd(g, x, v)
        assert rel_err(approx, exact) <= 1e-6


def test_contraction_ratio_guards():
    g = dv.translation([1.0, 1.0, 1.01, -1.0, 0.0])
    with pytest.raises(DomainError):
        dv.contraction_ratio(dv.translation(-IDENTITY), IDENTITY, IDENTITY)
    with pytest.raises(DomainError):
        dv.contraction_ratio(g, [1, 1, 1, 1, 0], IDENTITY)
    with pytest.raises(DomainError):
        dv.contraction_ratio(g, IDENTITY, np.zeros(5))


def test_contraction_ratio_is_scale_invariant_in_the_tangent():
    rng = np.random.default_rng(69)
    for _ in range(50):
        g = dv.sample_semigroup(rng, interior=True, sigma=0.7)
        x = dv.sample_cone(rng, 0.7)
        v = rng.standard_normal(5)
        r1 = dv.contraction_ratio(g, x, v).ratio
        r2 = dv.contraction_ratio(g, x, 3.7 * v).ratio
        assert np.isclose(r1, r2, rtol=1e-12)


def test_counterexample_is_the_frozen_expanding_witness():
    rec = dv.counterexample()
    assert np.array_equal(rec.g, dv.translation([1.0, 1.0, 1.01, -1.0, 0.0]))
    assert np.array_equal(rec.x, IDENTITY)
    assert np.array_equal(rec.v, [1.0, 0.0, 1.0, 1.0, 0.0])
    assert rec.violated
    assert rec.ratio == 1.039430288145257
    assert rec.seed_index == 0


def test_counterexample_after_value_matches_the_hand_formula():
    rec = dv.counterexample()
    y = dv.act_real(rec.g, rec.x)
    jv = dv.action_jacobian(rec.g, rec.x, rec.v)
    after = dv.cone_metric(y, jv, jv)
    assert abs(after - (-0.125 + 2.0 * (6.01 / 3.02) ** 2)) <= 1e-9


def test_counterexample_expands_in_exact_arithmetic():
    # the witness is the translation by t, which maps x to x + t with
    # Jacobian I; on the exact values of the floats the claim needs no
    # tolerance
    rec = dv.counterexample()
    t = [1.0, 1.0, 1.01, -1.0, 0.0]
    assert np.array_equal(rec.g, dv.translation(t))
    # D = I, so D^T B = embed(t): positive minors put t in the open cone
    # and the translation in the compression semigroup
    minors = exact_minors(t)
    assert minors == (1, 1, Fraction(45035996273705, 4503599627370496))
    assert all(d > 0 for d in minors)
    before = exact_cone_metric(rec.x, rec.v)
    assert before == Fraction(15, 2)
    y = [Fraction(a) + Fraction(b) for a, b in zip(rec.x, t)]
    ratio = exact_cone_metric(y, rec.v) / before
    assert ratio > 1
    assert abs(Fraction(rec.ratio) - ratio) <= 2 * Fraction(math.ulp(rec.ratio))


def test_the_witness_stretch_lies_between_1_0528_and_1_0529_exactly():
    # the largest stretch of the translation at e over all tangents is the
    # top eigenvalue of the pencil (G_{e+t}, G_e), its Jacobian being I.
    # G_e is positive definite, so by Sylvester's law of inertia it lies
    # below lam when every LDL^T pivot of G_{e+t} - lam G_e is negative,
    # and above lam when one is positive
    rec = dv.counterexample()
    t = [1.0, 1.0, 1.01, -1.0, 0.0]
    g_e = exact_gram(rec.x)
    diagonal = (Fraction(3, 2), Fraction(3, 2), 2, 4, 4)
    assert g_e == [[d if i == j else 0 for j in range(5)] for i, d in enumerate(diagonal)]
    g_et = exact_gram([Fraction(a) + Fraction(b) for a, b in zip(rec.x, t)])

    def pivots(lam):
        return ldl_pivots([[a - lam * b for a, b in zip(r, s)] for r, s in zip(g_et, g_e)])

    assert all(p < 0 for p in pivots(Fraction("1.0529")))
    below = pivots(Fraction("1.0528"))
    assert all(p < 0 for p in below[:3])
    assert Fraction("2.0e-5") < below[3] < Fraction("2.1e-5")
    # the sampled tangent's ratio stays below the top of the pencil
    assert rec.ratio < 1.0528


def test_spd_contraction_frozen_quarter():
    g = np.eye(6)
    g[:3, 3:] = np.eye(3)
    r = dv.contraction_ratio_spd(g, np.eye(3), np.eye(3))
    assert np.isclose(r, 0.25, rtol=1e-12)


def test_spd_contraction_never_expands():
    rng = np.random.default_rng(70)
    for _ in range(500):
        g = dv.sample_symplectic_semigroup(rng)
        r = dv.contraction_ratio_spd(g, random_spd(rng), random_sym(rng))
        assert r <= 1.0 + 1e-9


def test_spd_contraction_rejects_non_members():
    with pytest.raises(DomainError):
        dv.contraction_ratio_spd(dv.translation(-IDENTITY), np.eye(3), np.eye(3))


def test_search_is_deterministic_and_flags_only_violations():
    recs1, s1 = dv.search_violations(np.random.default_rng(5), 50)
    recs2, s2 = dv.search_violations(np.random.default_rng(5), 50)
    assert s1 == s2
    assert [r.ratio for r in recs1] == [r.ratio for r in recs2]
    assert all(np.array_equal(a.g, b.g) for a, b in zip(recs1, recs2))
    assert s1.n_samples == 50
    assert s1.violation_count == len(recs1)
    assert s1.max_ratio >= max((r.ratio for r in recs1), default=-np.inf)
    for r in recs1:
        assert r.violated and r.ratio > 1.0 + 1e-12
        assert 0 <= r.seed_index < 50
    assert [r.seed_index for r in recs1] == sorted(r.seed_index for r in recs1)


def test_search_includes_the_frozen_witness_first():
    recs, summary = dv.search_violations(np.random.default_rng(0), 10)
    assert summary.violation_count >= 1
    assert recs[0].seed_index == 0
    assert np.isclose(recs[0].ratio, dv.counterexample().ratio, rtol=0, atol=0)
    # only row 0: a sampled violator (row 919 of seed 119) is drawn, not the witness
    recs, _ = dv.search_violations(np.random.default_rng(119), 1000)
    assert [r.seed_index for r in recs] == [0, 919]
    assert not np.array_equal(recs[1].g, dv.counterexample().g)


def test_search_survives_ill_conditioned_interior_images():
    # sample 20 of this sweep maps x to an interior point with condition
    # number 1.45e6 whose determinant sits below is_singular3's cubic-scale
    # threshold; the positive minors certify it invertible all the same
    _, summary = dv.search_violations(np.random.default_rng((10, 874)), 32)
    assert summary.n_samples == 32
    child = np.random.default_rng((10, 874)).spawn(32)[20]
    g = dv.sample_semigroup(child, interior=True)
    x = dv.sample_cone(child)
    v = child.standard_normal(5)
    v /= np.linalg.norm(v)
    rec = dv.contraction_ratio(g, x, v)
    y = dv.act_real(g, x)
    jv = dv.action_jacobian_fd(g, x, v)
    fd = dv.cone_metric_fd(y, jv, jv) / dv.cone_metric_fd(x, v, v)
    assert abs(fd - rec.ratio) <= 1e-4 * abs(rec.ratio)


def test_search_rejects_empty_sweeps():
    with pytest.raises(ValueError):
        dv.search_violations(np.random.default_rng(0), 0)
