import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dualvinberg as dv
from dualvinberg import group, semigroup
from dualvinberg.cone import MEMBERSHIP_TOL, closed_cone_reason, embed
from dualvinberg.errors import (
    ConvergenceError,
    DomainError,
    PatternError,
    SingularityError,
)
from dualvinberg.linalg import maxabs
from dualvinberg.semigroup import (
    InvariantConeElement,
    compression_reason,
    invariant_cone_reason,
    symplectic_semigroup_reason,
)

from conftest import ZeroRandomness, sample_chart_element, slack_subject
from oracles import (
    SpectrumError,
    clear_memos,
    exp_lie,
    in_positive_triangular,
    inverse,
    log_group,
    project_lie,
)

IDENTITY = dv.IDENTITY_POINT


def rel_err(a, b) -> float:
    return maxabs(np.asarray(a) - np.asarray(b)) / (1.0 + maxabs(b))


def test_membership_frozen_cases():
    assert compression_reason(dv.translation([1, 1, 1.01, -1, 0])) is None
    assert compression_reason(dv.translation([1, 1, 1, 1, 0])) is None  # boundary shift
    assert compression_reason(np.eye(6)) is None
    assert compression_reason(dv.congruence_embed(dv.triangular([2, -1, 0.5, 1, -3]))) is None
    assert compression_reason(dv.dual_translation([-0.5, -2.0])) is None
    assert compression_reason(dv.translation(-IDENTITY)) == "D^T B outside the closed cone"
    assert compression_reason(dv.dual_translation([0.1, 0.0])) == "C D^T has a negative diagonal entry"
    assert compression_reason(dv.inversion()) == "det D = 0"
    assert compression_reason(np.arange(36, dtype=float).reshape(6, 6)) == "not symplectic"


def test_symplectic_semigroup_frozen_cases():
    assert symplectic_semigroup_reason(np.eye(6)) is None
    assert symplectic_semigroup_reason(dv.translation([1, 1, 1.01, -1, 0])) is None
    assert symplectic_semigroup_reason(dv.inversion()) == "det D = 0"
    assert symplectic_semigroup_reason(dv.translation(-IDENTITY)) == "D^T B not positive semidefinite"
    assert symplectic_semigroup_reason(dv.dual_translation([0.1, 0.0])) == "C D^T not positive semidefinite"
    assert symplectic_semigroup_reason(np.arange(36, dtype=float).reshape(6, 6)) == "not symplectic"


_NAN = float("nan")
_WEDGE_MEMBER = InvariantConeElement(v=IDENTITY, u=np.array([0.5, 0.25])).matrix()


def test_nan_tol_rejects_a_non_member_of_the_symplectic_semigroup():
    # D^T B = -I: a NaN tol gives NaN pivots, which the closed form refuses,
    # and eigvalsh's -1 meets no NaN bound
    assert symplectic_semigroup_reason(dv.translation(-IDENTITY), _NAN) is not None


@pytest.mark.parametrize(
    "reason_fn, member, expected",
    [
        (symplectic_semigroup_reason, dv.translation(IDENTITY), "D^T B not positive semidefinite"),
        # the C D^T test sits behind the closed-cone test, which a NaN tol fails first
        (compression_reason, dv.dual_translation([-0.5, -2.0]), "D^T B outside the closed cone"),
        (invariant_cone_reason, _WEDGE_MEMBER, "grade-zero part not zero"),
    ],
)
def test_nan_tol_rejects_members_at_each_bound_test(reason_fn, member, expected):
    assert reason_fn(member) is None
    assert reason_fn(member, _NAN) == expected


def test_compression_factors_refuses_a_nan_tol():
    g = dv.dual_translation([-0.5, -2.0])
    assert dv.compression_factors(g).u.min() > 0.0
    with pytest.raises(DomainError):
        dv.compression_factors(g, _NAN)


@pytest.mark.parametrize("entry", [(3, 0), (4, 1), (0, 0), (5, 5)])
@pytest.mark.parametrize("value", [-np.inf, np.inf, np.nan])
def test_invariant_cone_rejects_non_finite_entries(entry, value):
    X = _WEDGE_MEMBER.copy()
    X[entry] = value
    assert invariant_cone_reason(X) == "entry not finite"


def test_sampled_elements_are_members():
    rng = np.random.default_rng(40)
    for i in range(200):
        g = dv.sample_semigroup(rng, interior=(i % 2 == 0), sigma=0.8)
        assert dv.in_compression_semigroup(g)
        assert symplectic_semigroup_reason(g) is None
        assert dv.in_tube_group(g)


def test_semigroup_closed_under_products():
    rng = np.random.default_rng(41)
    for i in range(200):
        g = dv.sample_semigroup(rng, interior=(i % 2 == 0), sigma=0.7)
        h = dv.sample_semigroup(rng, interior=(i % 3 == 0), sigma=0.7)
        assert dv.in_compression_semigroup(g @ h)


def test_members_compress_the_cone():
    rng = np.random.default_rng(42)
    for _ in range(100):
        g = dv.sample_semigroup(rng, interior=True, sigma=0.7)
        x = dv.sample_cone(rng, 0.7)
        assert dv.in_open_cone(dv.act_real(g, x))


def test_compression_factors_certificates():
    rng = np.random.default_rng(43)
    for i in range(100):
        g = dv.sample_semigroup(rng, interior=(i % 2 == 0), sigma=0.8)
        f = dv.compression_factors(g)
        assert closed_cone_reason(f.v) is None
        assert in_positive_triangular(f.L)
        assert f.u.min() >= -1e-12
        assert rel_err(dv.triple_compose(f), g) <= 1e-10


def test_compression_factors_rejects_non_members():
    with pytest.raises(DomainError):
        dv.compression_factors(dv.translation(-IDENTITY))
    with pytest.raises(DomainError):
        dv.compression_factors(dv.inversion())


def test_cross_check_agrees_on_clean_cases():
    rng = np.random.default_rng(44)
    for i in range(200):
        g = dv.sample_semigroup(rng, interior=(i % 2 == 0), sigma=0.8)
        assert dv.cross_check_membership(g) is True
    for g in (dv.translation(-IDENTITY), dv.dual_translation([0.1, 0.0]), dv.inversion()):
        assert dv.cross_check_membership(g) is False
    for _ in range(100):
        h = sample_chart_element(rng)
        assert dv.cross_check_membership(h) == dv.in_compression_semigroup(h)


def test_cross_check_tolerates_boundary_roundoff():
    for delta in (0.0, 1e-13, -1e-13, 1e-6, -1e-6):
        g = dv.translation([1.0, 1.0, 1.0 + delta, 1.0, 0.0])
        verdict = dv.cross_check_membership(g)
        assert verdict == (delta >= -1e-9)


def test_cross_check_runs_the_tube_test_and_is_symplectic_once(monkeypatch):
    calls = {"tube_group_reason": 0, "_block_defect": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return wrapper

    # the tube test forms the symplectic defect in group, through its one
    # home _block_defect, the other routes find the tube test in semigroup;
    # the defect is the work of is_symplectic
    monkeypatch.setattr(semigroup, "tube_group_reason", counted(semigroup.tube_group_reason))
    monkeypatch.setattr(group, "_block_defect", counted(group._block_defect))
    # the chart test rejects it at tol and accepts it at
    # CROSS_CHECK_SLACK * tol, the PSD test accepts it
    slack = slack_subject()
    member = dv.translation([1, 1, 1.01, -1, 0])
    cases = (member, dv.translation(-IDENTITY), np.arange(36.0).reshape(6, 6), slack)
    for g in cases:
        clear_memos()  # a matrix read by an earlier test would be a hit
        calls.update(tube_group_reason=0, _block_defect=0)
        verdict = dv.cross_check_membership(g)
        assert calls == {"tube_group_reason": 1, "_block_defect": 1}
        # once compression_reason has read g, the other routes read its memo
        clear_memos()
        semigroup.compression_reason(g)
        others = (dv.cross_check_membership, group.tube_group_alt_reason, symplectic_semigroup_reason)
        for route in others:
            calls.update(_block_defect=0)
            route(g)
            assert calls["_block_defect"] == 0
        direct = dv.in_compression_semigroup(g)
        via = symplectic_semigroup_reason(g) is None and dv.in_tube_group(g)
        assert verdict == via == (g is member or g is slack)
        if g is slack:
            assert not direct
            assert dv.in_compression_semigroup(g, semigroup.CROSS_CHECK_SLACK * MEMBERSHIP_TOL)
        else:
            assert direct == via


def test_the_membership_sequence_decides_each_verdict_once_per_matrix_and_tol(monkeypatch):
    # the benchmark's op: compression_reason, both tube routes,
    # symplectic_semigroup_reason, the cross-check, then the factors of a
    # member; g's read misses once per g, each rule runs once per (g, tol),
    # and the slack rerun keeps tol's verdict
    runs = {"_chart_reason": 0, "_psd_reason": 0}

    def counted(rule):
        def wrapper(reads, tol):
            runs[rule.__name__] += 1
            return rule(reads, tol)

        return wrapper

    for name in runs:
        monkeypatch.setattr(semigroup, name, counted(getattr(semigroup, name)))
    member = dv.translation([1, 1, 1.01, -1, 0])
    off_pattern = dv.congruence_embed(dv.triangular([1, 1, 1, 0.5, 0]).T)
    cases = [  # g, tol and the misses of _tube, then the runs of _chart_reason and _psd_reason
        (g, tol, misses)
        for tol in (MEMBERSHIP_TOL, 1e-3)
        for g, misses in (
            (member, (1, 1, 1)),
            (dv.translation(-IDENTITY), (1, 1, 1)),  # a chart failure
            (off_pattern, (1, 0, 1)),
            (np.arange(36.0).reshape(6, 6), (1, 0, 0)),  # not symplectic
        )
    ]
    cases.append((slack_subject(), MEMBERSHIP_TOL, (1, 2, 1)))  # the slack rerun's entry
    for i, (g, tol, misses) in enumerate(cases):
        clear_memos()
        runs.update(_chart_reason=0, _psd_reason=0)
        for _ in range(2):  # the second pass is all hits
            reason = compression_reason(g, tol)
            group.tube_group_reason(g)
            group.tube_group_alt_reason(g)
            symplectic_semigroup_reason(g, tol)
            dv.cross_check_membership(g, tol)
            if reason is None:
                dv.compression_factors(g, tol)
        got = (group._tube.cache_info().misses, runs["_chart_reason"], runs["_psd_reason"])
        assert got == misses, i


def test_lie_element_round_trip_and_pattern_guard():
    A = dv.triangular([0.3, -0.7, 0.2, 1.5, -2.0])
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    u = np.array([-1.0, 0.5])
    X = dv.lie_element(A, v, u)
    assert np.array_equal(X[:3, :3], A)
    assert np.array_equal(X[:3, 3:], embed(v))
    assert np.array_equal(X[3:, :3], np.diag([u[0], u[1], 0.0]))
    assert np.array_equal(X[3:, 3:], -A.T)
    with pytest.raises(DomainError):
        dv.lie_element(np.eye(3) + 0.1 * np.eye(3, k=1), v, u)


def test_algebra_closed_under_bracket():
    rng = np.random.default_rng(45)
    for _ in range(100):
        X = dv.lie_element(dv.triangular(rng.standard_normal(5)), rng.standard_normal(5), rng.standard_normal(2))
        Y = dv.lie_element(dv.triangular(rng.standard_normal(5)), rng.standard_normal(5), rng.standard_normal(2))
        bracket = X @ Y - Y @ X
        proj, residue = project_lie(bracket)
        assert residue <= 1e-12 * (1.0 + maxabs(bracket))
        assert maxabs(proj - bracket) <= 1e-12 * (1.0 + maxabs(bracket))


def test_project_lie_is_idempotent():
    rng = np.random.default_rng(46)
    for _ in range(50):
        M = rng.standard_normal((6, 6))
        proj, residue = project_lie(M)
        assert residue >= 0.0
        proj2, residue2 = project_lie(proj)
        assert residue2 <= 1e-14
        assert maxabs(proj2 - proj) <= 1e-14


def test_grading_splits_into_ad_eigenspaces():
    rng = np.random.default_rng(47)
    E = np.diag([0.5, 0.5, 0.5, -0.5, -0.5, -0.5])  # the grading element
    for _ in range(50):
        X = dv.lie_element(dv.triangular(rng.standard_normal(5)), rng.standard_normal(5), rng.standard_normal(2))
        # the grade -1, 0 and +1 parts: the lower-left block, the
        # block-diagonal part and the upper-right block
        minus, zero, plus = np.zeros((6, 6)), X.copy(), np.zeros((6, 6))
        minus[3:, :3], plus[:3, 3:] = X[3:, :3], X[:3, 3:]
        zero[3:, :3] = zero[:3, 3:] = 0.0
        assert maxabs(E @ minus - minus @ E + minus) == 0.0
        assert maxabs(E @ zero - zero @ E) == 0.0
        assert maxabs(E @ plus - plus @ E - plus) == 0.0


def test_invariant_cone_reasons():
    rng = np.random.default_rng(48)
    good = InvariantConeElement(v=dv.sample_cone(rng), u=np.array([0.5, 0.0]))
    assert invariant_cone_reason(good.matrix()) is None
    assert dv.in_invariant_cone(good.matrix())

    bad = dv.lie_element(np.eye(3), IDENTITY, [1.0, 1.0])
    assert invariant_cone_reason(bad) == "grade-zero part not zero"

    X = np.zeros((6, 6))
    X[0, 4] = 1.0  # forbidden slot of the translation block
    assert invariant_cone_reason(X) == "translation part off pattern"

    assert (
        invariant_cone_reason(InvariantConeElement(v=-IDENTITY, u=np.zeros(2)).matrix())
        == "translation part outside the closed cone"
    )

    X = InvariantConeElement(v=IDENTITY, u=np.zeros(2)).matrix()
    X[3, 1] = 1.0  # off the flat diagonal slice
    assert invariant_cone_reason(X) == "dual part not in the flat slice"

    X = InvariantConeElement(v=IDENTITY, u=np.array([-1.0, 0.0])).matrix()
    assert invariant_cone_reason(X) == "dual part has a negative entry"


def test_exp_log_round_trip_on_the_algebra():
    rng = np.random.default_rng(49)
    for _ in range(100):
        X = dv.lie_element(
            dv.triangular(0.4 * rng.standard_normal(5)),
            0.4 * rng.standard_normal(5),
            0.4 * rng.standard_normal(2),
        )
        g = exp_lie(X)
        assert dv.is_symplectic(g)
        assert rel_err(log_group(g), X) <= 1e-8


def test_exp_of_wedge_lands_in_the_semigroup():
    rng = np.random.default_rng(50)
    for _ in range(100):
        X = InvariantConeElement(
            v=dv.sample_cone(rng, 0.6), u=np.exp(0.6 * rng.standard_normal(2))
        )
        assert dv.in_invariant_cone(X.matrix())
        assert dv.in_compression_semigroup(exp_lie(X.matrix()))


def test_exp_of_nilpotent_translations_matches_the_unipotent_form():
    v = np.array([1.0, 2.0, 3.0, -4.0, 0.5])
    X = dv.lie_element(np.zeros((3, 3)), v, np.zeros(2))
    assert maxabs(exp_lie(X) - dv.translation(v)) <= 1e-14 * (1.0 + maxabs(v))


def test_log_group_spectrum_guard():
    with pytest.raises(SpectrumError):
        log_group(dv.congruence_embed(np.diag([-1.0, -1.0, 1.0])))


def test_log_group_off_algebra_guard():
    N = np.zeros((6, 6))
    N[0, 1] = 1.0  # nilpotent, but its grade-zero part is off the pattern
    g = scipy.linalg.expm(N)
    with pytest.raises(PatternError):
        log_group(g)


def test_polar_factor_frozen_generators():
    A, X = dv.polar_factor(dv.translation(IDENTITY))
    assert maxabs(A - np.eye(3)) <= 1e-12
    assert np.allclose(X.v, IDENTITY, atol=1e-12)
    assert np.allclose(X.u, [0.0, 0.0], atol=1e-12)

    u = np.array([0.75, 0.25])
    lower = np.eye(6)
    lower[3:, :3] = np.diag([u[0], u[1], 0.0])
    A, X = dv.polar_factor(lower)
    assert maxabs(A - np.eye(3)) <= 1e-12
    assert np.allclose(X.v, np.zeros(5), atol=1e-12)
    assert np.allclose(X.u, u, atol=1e-12)


def test_polar_factor_recovers_composed_interior_pairs():
    rng = np.random.default_rng(51)
    for _ in range(50):
        A = dv.sample_positive_triangular(rng, 0.5)
        v = dv.sample_cone(rng, 0.4)
        u = np.exp(0.4 * rng.standard_normal(2))
        nrm = np.linalg.norm(dv.InvariantConeElement(v=v, u=u).matrix())
        if nrm > 1.0:
            v, u = v / nrm, u / nrm
        g = dv.polar_compose(A, dv.InvariantConeElement(v=v, u=u))
        A2, X2 = dv.polar_factor(g)
        assert in_positive_triangular(A2)
        assert dv.in_invariant_cone(X2.matrix(), 1e-9)
        assert rel_err(dv.polar_compose(A2, X2), g) <= 1e-8


def test_polar_factor_round_trips_chart_samples_near_the_unit():
    rng = np.random.default_rng(53)
    for _ in range(30):
        g = dv.sample_semigroup(rng, interior=True, sigma=0.2)
        A, X = dv.polar_factor(g)
        assert in_positive_triangular(A)
        assert dv.in_invariant_cone(X.matrix(), 1e-9)
        assert rel_err(dv.polar_compose(A, X), g) <= 1e-8


def assert_certified_polar_pair(g, A, X):
    assert in_positive_triangular(A)
    assert dv.in_invariant_cone(X.matrix())
    assert rel_err(dv.polar_compose(A, X), g) <= 1e-8


def test_polar_factor_factors_the_element_the_grade_zero_sweep_stalled_on():
    # the third sigma = 0.6 draw of rng 51 made the earlier fixed-point
    # sweep stall; the closed form factors it
    rng = np.random.default_rng(51)
    for _ in range(3):
        g = dv.sample_semigroup(rng, interior=True, sigma=0.6)
    A, X = dv.polar_factor(g)
    assert_certified_polar_pair(g, A, X)


@pytest.mark.parametrize("sigma", [0.6, 1.0])
def test_polar_factor_certifies_every_chart_sample(sigma):
    rng = np.random.default_rng(54)
    for _ in range(40):
        g = dv.sample_semigroup(rng, interior=True, sigma=sigma)
        A, X = dv.polar_factor(g)
        assert_certified_polar_pair(g, A, X)


def test_polar_factor_certifies_the_norm_31_member():
    # unit times the exponential of a wedge generator of norm 31; the
    # earlier 6x6 principal log missed its residual certificate (4.5e-6)
    rng = np.random.default_rng(111)
    A = dv.sample_positive_triangular(rng, 0.7)
    X = InvariantConeElement(v=dv.sample_cone(rng, 0.7), u=np.exp(0.7 * rng.standard_normal(2)))
    g = dv.polar_compose(A, X)
    A2, X2 = dv.polar_factor(g)
    assert_certified_polar_pair(g, A2, X2)
    assert rel_err(X2.matrix(), X.matrix()) <= 1e-8


def uncapped_pair(rng, sigma):
    """A unit and an interior wedge generator, with no norm cap."""
    A = dv.sample_positive_triangular(rng, sigma)
    X = InvariantConeElement(v=dv.sample_cone(rng, sigma), u=np.exp(sigma * rng.standard_normal(2)))
    return A, X


def uncapped_draw(rng, sigma):
    """The polar composition of an uncapped_pair."""
    return dv.polar_compose(*uncapped_pair(rng, sigma))


def uncapped_probe():
    """(sigma, g) for 1000 uncapped draws, 200 per sigma, rng 9."""
    rng = np.random.default_rng(9)
    for sigma in (0.3, 0.5, 0.7, 1.0, 1.5):
        for _ in range(200):
            yield sigma, uncapped_draw(rng, sigma)


def test_polar_factor_rejects_non_members_and_fails_its_certificate_loudly():
    with pytest.raises(DomainError):
        dv.polar_factor(dv.translation(-IDENTITY))
    # Found by searching rng 9 for a member that does not factor: every
    # member among 1000 uncapped_draw per sigma in (2.5, 3, 3.5, 4, 5)
    # factors, and so does every member among 1000 sample_semigroup draws
    # per sigma in (1.5, 2, 2.5, 3), interior and boundary.  The first
    # failure is the 152nd interior chart draw at sigma = 4 (draws whose
    # own unit is judged singular count, and are skipped): entries of g up
    # to 2.6e13, and a recovered unit with diagonal (1.8e6, 1.1e2, 6.4e-3)
    # that is_singular3 calls singular.
    rng = np.random.default_rng(9)
    with np.errstate(all="ignore"):
        for _ in range(152):
            try:
                g = dv.sample_semigroup(rng, interior=True, sigma=4.0)
            except SingularityError:
                g = None
    assert dv.in_compression_semigroup(g)
    with pytest.raises(ConvergenceError, match="polar unit factor has diagonal"):
        dv.polar_factor(g)


def test_polar_factor_reads_the_generator_to_its_forward_error():
    # x3 is read at the scale of g: on the sigma = 1.5 probe every member
    # returns the generator it was built from within 1e-8 (1 + maxabs X0);
    # reading it off tau(g)^{-1} g, whose entries are about maxabs(g)^2, was
    # off by up to 3.2e-3
    rng = np.random.default_rng(9)
    factored = 0
    for _ in range(1000):
        A0, X0 = uncapped_pair(rng, 1.5)
        g = dv.polar_compose(A0, X0)
        with np.errstate(over="ignore"):  # the cubic singularity scale of the largest g
            member = dv.in_compression_semigroup(g)
        if member:
            _, X = dv.polar_factor(g)
            err = max(maxabs(X.v - X0.v), maxabs(X.u - X0.u))
            assert err <= 1e-8 * (1.0 + maxabs(X0.matrix()))
            factored += 1
    assert factored == 885


def test_polar_factor_residual_certificate_fires_on_a_wrong_generator(monkeypatch):
    # a generator still in the wedge but 0.1 % off must fail the
    # recomposition certificate instead of being returned
    A = dv.triangular([1.2, 0.8, 1.1, 0.3, -0.2])
    g = dv.polar_compose(A, InvariantConeElement(v=np.array([1.0, 0.5, 2.0, 0.3, 0.2]), u=np.array([0.4, 0.7])))
    exact = semigroup._log_wedge

    def perturbed(m):
        v, u = exact(m)
        return [1.001 * x for x in v], u

    monkeypatch.setattr(semigroup, "_log_wedge", perturbed)
    with pytest.raises(ConvergenceError, match="recomposition residual"):
        dv.polar_factor(g)


def test_every_member_of_the_uncapped_probe_factors():
    # once membership holds, polar_factor returns a certified pair; the
    # unit factor g exp(-X) lost 22 of these members to cancellation
    factored = 0
    for _, g in uncapped_probe():
        if dv.in_compression_semigroup(g):
            assert_certified_polar_pair(g, *dv.polar_factor(g))
            factored += 1
    assert factored == 967  # the other 33 are non-members (det D = 0)


def test_polar_factor_reads_the_principal_log_of_the_involution_quotient():
    # oracle: X equals log_group(tau(g)^{-1} g) / 2 on criterion 6's family
    rng = np.random.default_rng(56)
    S = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    for _ in range(50):
        A = dv.sample_positive_triangular(rng, 0.7)
        v = dv.sample_cone(rng, 0.7)
        u = np.exp(0.7 * rng.standard_normal(2))
        nrm = np.linalg.norm(InvariantConeElement(v=v, u=u).matrix())
        if nrm > 1.0:
            v, u = v / nrm, u / nrm
        g = dv.polar_compose(A, InvariantConeElement(v=v, u=u))
        _, X = dv.polar_factor(g)
        assert maxabs(X.matrix() - log_group(S @ inverse(g) @ S @ g) / 2) <= 1e-10


def wedge_oracle_cases():
    rng = np.random.default_rng(57)
    boundary = [np.array([0.0, 1.0, 1.0, 0.0, 0.5]), np.array([1.0, 0.0, 2.0, 1.0, 0.0]),
                np.array([0.0, 0.0, 1.0, 0.0, 0.0]), np.array([1.0, 1.0, 2.0, 1.0, 1.0])]
    for norm in (1e-8, 1e-5, 1e-2, 0.3, 1.0, 3.0, 10.0, 30.0):
        for k in range(8):
            v = dv.sample_cone(rng, 0.7) if k < 4 else boundary[k - 4]
            u = np.exp(0.7 * rng.standard_normal(2))
            if k % 4 == 1:
                u[0] = 0.0
            elif k % 4 == 2:
                u[1] = 0.0
            elif k % 4 == 3:
                u = -u  # k_i < 0: the trigonometric branch
            X = InvariantConeElement(v=v, u=u)
            s = norm / np.linalg.norm(X.matrix())
            yield InvariantConeElement(v=s * v, u=s * u)


def test_exp_wedge_matches_scipy_expm():
    for X in wedge_oracle_cases():
        M = X.matrix()
        expected = scipy.linalg.expm(M)
        bound = 1e-12 * (1.0 + np.linalg.norm(M) ** 2)
        assert maxabs(dv.exp_wedge(X) - expected) / maxabs(expected) <= bound


def test_exp_wedge_is_exactly_unipotent_off_one_grade():
    v = np.array([1.0, 2.0, 3.0, -4.0, 0.5])
    u = np.array([0.75, 0.25])
    assert np.array_equal(dv.exp_wedge(InvariantConeElement(v=v, u=np.zeros(2))), dv.translation(v))
    lower = np.eye(6)
    lower[3:, :3] = np.diag([0.75, 0.25, 0.0])
    assert np.array_equal(dv.exp_wedge(InvariantConeElement(v=np.zeros(5), u=u)), lower)


def test_log_wedge_inverts_exp_wedge():
    for X in wedge_oracle_cases():
        if X.u.min() < 0 or np.linalg.norm(X.matrix()) > 10:
            continue
        Y = dv.log_wedge(dv.exp_wedge(X))
        assert rel_err(Y.matrix(), X.matrix()) <= 1e-10


def test_wedge_exp_and_log_answer_non_finite_values_without_raising():
    with np.errstate(all="ignore"):
        E = dv.exp_wedge(InvariantConeElement(v=1e6 * IDENTITY, u=np.array([1e6, 1e6])))
        Y = dv.log_wedge(np.full((6, 6), np.nan))
    assert not np.isfinite(E).all()
    assert np.isnan(Y.v).all() and np.isnan(Y.u).all()


def test_exp_wedge_squares_an_overflowing_sinh_to_inf():
    # sinh(sqrt(k)/2) is finite at k = 800^2 but its square is not
    with np.errstate(all="ignore"):
        E = dv.exp_wedge(InvariantConeElement(v=np.array([800.0, 1, 1, 0, 0]), u=np.array([800.0, 1])))
    assert np.isinf(E[0, 0])


# every float64, with NaN, +-inf and overflow-sized values drawn often
hostile = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, 5, elements=hostile), hnp.arrays(np.float64, 2, elements=hostile))
def test_exp_wedge_never_raises(v, u):
    with np.errstate(all="ignore"):
        E = dv.exp_wedge(InvariantConeElement(v=v, u=u))
    assert E.shape == (6, 6)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, (6, 6), elements=hostile))
def test_log_wedge_never_raises(h):
    with np.errstate(all="ignore"):
        Y = dv.log_wedge(h)
    assert Y.v.shape == (5,) and Y.u.shape == (2,)


def test_degenerate_boundary_sampler_returns_identity():
    g = dv.sample_semigroup(ZeroRandomness(), interior=False)
    assert np.array_equal(g, np.eye(6))


def test_sampler_determinism():
    a = dv.sample_semigroup(np.random.default_rng(7), interior=False)
    b = dv.sample_semigroup(np.random.default_rng(7), interior=False)
    assert np.array_equal(a, b)


def test_symplectic_semigroup_sampler():
    rng = np.random.default_rng(53)
    for _ in range(100):
        g = dv.sample_symplectic_semigroup(rng)
        assert symplectic_semigroup_reason(g) is None
        assert not dv.in_tube_group(g)  # generic compressions leave the tube group
