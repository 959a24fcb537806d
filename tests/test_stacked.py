"""Stacked routes against their one-row forms: the certificate, the ratio
kernel and the expansion search must agree with a loop of single calls to
the bit, failures included."""

import numpy as np
import pytest

import dualvinberg as dv
from dualvinberg import metric, streams
from dualvinberg.cone import MEMBERSHIP_TOL, embed, pattern_parts
from dualvinberg.errors import PatternError
from dualvinberg.group import symplectic_defect, unembed_action
from dualvinberg.semigroup import COMPRESSION_REASONS, compression_codes, compression_reason

from conftest import generator_product, overflowing_defect_matrix, sample_chart_element
from oracles import search_violations_reference

I3 = np.eye(3)


def E(i, j):
    m = np.zeros((3, 3))
    m[i, j] = 1.0
    return m


def assemble(A, B, C, D):
    return np.block([[A, B], [C, D]])


def _named_subjects():
    """One matrix for every reason of COMPRESSION_REASONS, in order, and
    two members."""
    yield np.arange(36, dtype=float).reshape(6, 6)
    yield dv.congruence_embed(I3 + 0.3 * E(0, 1))
    yield dv.congruence_embed(np.diag([1.0, 1.0, -1.0]))
    yield assemble(I3, E(0, 2) + E(2, 0), E(1, 2) + E(2, 1), I3 + E(1, 0))
    yield assemble(I3, E(2, 2), -2.0 * E(2, 2), np.diag([1.0, 1.0, -1.0]))
    yield assemble(I3, E(0, 1) + E(1, 0), np.zeros((3, 3)), I3)
    yield assemble(I3, np.zeros((3, 3)), E(0, 1) + E(1, 0), I3)
    yield dv.inversion()
    # B passes its pattern test at the scale 1e4 of g, while D^T B = B0
    # carries its 5e-9 off-pattern mass at scale 1
    shift = np.eye(6)
    shift[:3, 3:] = I3 + 5e-9 * (E(0, 1) + E(1, 0))
    yield dv.congruence_embed(np.diag([1.0, 1.0, 1e4])) @ shift
    yield dv.translation(-dv.IDENTITY_POINT)
    yield dv.dual_translation([0.1, 0.0])
    yield np.eye(6)
    yield dv.translation([1.0, 1.0, 1.0, 1.0, 0.0])  # a boundary shift


def _certificate_corpus():
    rng = np.random.default_rng(80)
    rows = list(_named_subjects())
    rows += [dv.sample_semigroup(rng, interior=True, sigma=s) for s in (0.3, 1.0, 2.0) for _ in range(15)]
    rows += [dv.sample_semigroup(rng, interior=False, sigma=s) for s in (0.3, 1.0) for _ in range(15)]
    rows += [sample_chart_element(rng) for _ in range(30)]
    rows += [generator_product(rng, length=4) for _ in range(30)]
    members = [r for r in rows if compression_reason(r) is None]
    for value in (np.nan, np.inf, -np.inf, 1e308, -1e308):
        for _ in range(6):
            g = members[rng.integers(len(members))].copy()
            g[rng.integers(6), rng.integers(6)] = value
            rows.append(g)
    for scale in (1e100, 1e154, 1e160, 1e200):
        rows.append(scale * members[rng.integers(len(members))])
    # boundary shifts that a tol-0 closed-cone test sees on either side of
    # its closed form: exactly singular ([0.2, 1, 0.2, 0.2, 0]), a zero
    # leading pivot that eigvalsh accepts, and singular sums of squares
    rows += [dv.translation(v) for v in ([0.2, 1.0, 0.2, 0.2, 0.0], [0.0, 1.0, 1.0, 0.0, 0.0])]
    for _ in range(20):
        L = dv.sample_positive_triangular(rng, 1.0)
        eps = (rng.random(3) >= 0.5).astype(float)
        rows.append(dv.translation(dv.unembed(L @ np.diag(eps) @ L.T)))
    # an overflowing pivot: x4/x1 = inf, and x4 * (x4/x1) = inf.  D^T B
    # cannot reach 1.797e308 once g is symplectic and D passes the
    # singularity rule (maxabs(D) < 5.7e102, maxabs(B) < 1.4e154)
    rows += [dv.translation([1e-300, 1.0, 1.0, 1e10, 0.0])]
    rows += [dv.translation([1e-10, 1.0, 1.0, 1e154, 0.0])]
    rows.append(overflowing_defect_matrix())  # a NaN block relation: not symplectic
    return np.array(rows)


@pytest.mark.parametrize("tol", [MEMBERSHIP_TOL, 0.0, 1e-3, np.nan])
def test_compression_codes_match_compression_reason_row_by_row(tol):
    G = _certificate_corpus()
    with np.errstate(all="ignore"):
        codes = compression_codes(G, tol)
        reasons = [compression_reason(g, tol) for g in G]
    assert [None if c == 0 else COMPRESSION_REASONS[c - 1] for c in codes] == reasons
    assert reasons[-1] == "not symplectic"
    if tol == MEMBERSHIP_TOL:
        # every reason and both kinds of member are covered
        assert set(codes) == set(range(len(COMPRESSION_REASONS) + 1))
        assert list(codes[: len(COMPRESSION_REASONS)]) == list(range(1, len(COMPRESSION_REASONS) + 1))


def test_symplectic_defect_of_a_stack_equals_the_loop():
    G = _certificate_corpus()
    with np.errstate(all="ignore"):
        got = symplectic_defect(G)
        want = np.array([symplectic_defect(g) for g in G])
    assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        symplectic_defect(G[None])


def _pattern_corpus():
    """A mirror pair whose sum overflows, subnormal mirror pairs, then the
    3x3 blocks of the certificate corpus, patterned or not, NaN, inf and
    1e308 entries included."""
    G = _certificate_corpus()
    W = [embed(np.array([1e308, 0.0, -1e308, 1e308, -1.7e308]))[None]]
    W.append(embed(np.array([0.0, 5e-324, 0.0, 5e-324, -1.5e-323]))[None])
    W += [G[:, :3, :3], G[:, :3, 3:], G[:, 3:, :3], G[:, 3:, 3:]]
    return np.concatenate(W)


def test_pattern_parts_of_a_stack_equal_the_loop():
    W = _pattern_corpus()
    with np.errstate(all="ignore"):
        off, x = pattern_parts(W)
        loop = [pattern_parts(w) for w in W]
    assert off.tobytes() == np.array([o for o, _ in loop]).tobytes()
    assert x.tobytes() == np.array([c for _, c in loop]).tobytes()
    assert np.array_equal(x[0], [1e308, 0.0, -1e308, 1e308, -1.7e308])
    assert np.array_equal(x[1], [0.0, 5e-324, 0.0, 5e-324, -1.5e-323])


def test_unembed_action_fails_a_row_with_a_non_finite_forbidden_entry():
    W = np.stack([I3, I3, I3, I3])
    W[1, 1, 0] = np.inf  # the bound grows to inf with it
    W[2, 0, 1] = np.nan
    W[3, 0, 2] = np.inf  # a mirror pair keeps its coordinates
    with pytest.raises(PatternError, match="by inf"):
        unembed_action(W)
    with pytest.raises(PatternError, match="by nan"):
        unembed_action(W[2])
    assert np.array_equal(unembed_action(W[[0, 3]]), [[1.0, 1, 1, 0, 0], [1.0, 1, 1, np.inf, 0]])


def test_a_stacked_unembed_action_raises_what_the_loop_raises():
    W = _pattern_corpus()
    with np.errstate(all="ignore"):
        ok = [_first_error(unembed_action, w) is None for w in W]
        want = _first_error(lambda: [unembed_action(w) for w in W])
        assert want[0] is PatternError and ok.index(False) > 0
        assert _first_error(unembed_action, W) == want
        got = unembed_action(W[ok])
        assert got.tobytes() == np.array([unembed_action(w) for w in W[ok]]).tobytes()


def _assert_same_sweep(got, want):
    (recs, summary), (ref_recs, ref_summary) = got, want
    assert summary == ref_summary
    assert len(recs) == len(ref_recs)
    for r, q in zip(recs, ref_recs):
        assert r.seed_index == q.seed_index and r.ratio == q.ratio and r.violated == q.violated
        for a, b in ((r.g, q.g), (r.x, q.x), (r.v, q.v)):
            assert np.array_equal(a, b)
            assert a.base is None  # the record owns its arrays


@pytest.mark.parametrize("seed", [*range(50), (10, 874)])
def test_stacked_search_equals_the_one_sample_loop(seed):
    for include in (True, False):
        got = dv.search_violations(np.random.default_rng(seed), 32, include)
        want = search_violations_reference(np.random.default_rng(seed), 32, include)
        _assert_same_sweep(got, want)


@pytest.mark.parametrize("include", [True, False])
def test_blocks_of_a_long_sweep_do_not_change_it(include, monkeypatch):
    # seed 119 holds a sampled violator at row 919, here in block 14
    monkeypatch.setattr(metric, "_BLOCK", 64)
    got = dv.search_violations(np.random.default_rng(119), 1000, include)
    want = search_violations_reference(np.random.default_rng(119), 1000, include)
    _assert_same_sweep(got, want)
    assert 919 in [r.seed_index for r in got[0]]


def test_stacked_ratios_equal_single_calls_on_every_row():
    rng = np.random.default_rng(81)
    g = np.array([dv.sample_semigroup(rng, interior=i % 2 == 0, sigma=0.8) for i in range(40)])
    x = np.array([dv.sample_cone(rng, 0.8) for _ in range(40)])
    v = rng.standard_normal((40, 5))
    ratios = dv.contraction_ratios(g, x, v)
    assert list(ratios) == [dv.contraction_ratio(*row).ratio for row in zip(g, x, v)]


def _spawned_normals(rng, n):
    return np.array([c.standard_normal(22) for c in rng.spawn(n)])


def _derived_normals(rng, start, stop):
    out = np.empty((stop - start, 22))
    streams.child_normals(rng, start, out)
    return out


_PARENTS = {
    "int": lambda: np.random.default_rng(0),
    "tuple": lambda: np.random.default_rng((2026, 7)),
    "list": lambda: np.random.default_rng([1, 2, 3, 4, 5, 6]),
    "beyond 64 bits": lambda: np.random.default_rng(2**70),
    "spawned child": lambda: np.random.default_rng(9).spawn(3)[2],
    "grandchild": lambda: np.random.default_rng(9).spawn(3)[2].spawn(2)[1],
    "uint32 array": lambda: np.random.default_rng(np.array([5, 2**32 - 1], dtype=np.uint32)),
    "strings": lambda: np.random.default_rng(np.random.SeedSequence(["0x10", "010", 2**40])),
    "pool of 8": lambda: np.random.default_rng(np.random.SeedSequence(3, pool_size=8)),
    "MT19937": lambda: np.random.Generator(np.random.MT19937(7)),
    "Philox": lambda: np.random.Generator(np.random.Philox(7)),
    "SFC64": lambda: np.random.Generator(np.random.SFC64(7)),
    "PCG64DXSM": lambda: np.random.Generator(np.random.PCG64DXSM(7)),
}


@pytest.mark.parametrize("parent", list(_PARENTS))
def test_derived_child_draws_equal_the_spawned_ones(parent):
    make = _PARENTS[parent]
    want = _spawned_normals(make(), 40)
    assert _derived_normals(make(), 0, 40).tobytes() == want.tobytes()
    assert _derived_normals(make(), 13, 40).tobytes() == want[13:].tobytes()


def test_derived_child_draws_from_os_entropy():
    ss = np.random.SeedSequence()
    want = _spawned_normals(np.random.default_rng(np.random.SeedSequence(ss.entropy)), 20)
    assert _derived_normals(np.random.default_rng(ss), 0, 20).tobytes() == want.tobytes()


def test_derived_children_number_on_from_the_spawn_count_and_leave_it():
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    rng.spawn(5)
    twin.spawn(5)
    got = _derived_normals(rng, 0, 20)
    assert rng.bit_generator.seed_seq.n_children_spawned == 5
    assert got.tobytes() == _spawned_normals(twin, 20).tobytes()
    # a sweep reads the count and leaves it, so a rerun repeats the sweep
    first = dv.search_violations(rng, 40)
    assert rng.bit_generator.seed_seq.n_children_spawned == 5
    _assert_same_sweep(dv.search_violations(rng, 40), first)


def test_derived_children_stop_at_numpy_s_one_word_index():
    ss = np.random.SeedSequence(1, n_children_spawned=2**32 - 1)
    last = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(2**32 - 1,)))
    got = _derived_normals(np.random.default_rng(ss), 0, 1)
    assert got.tobytes() == last.standard_normal(22).tobytes()
    with pytest.raises(OverflowError):
        dv.search_violations(np.random.default_rng(ss), 2, include_counterexample=False)


class _FixedState(np.random.bit_generator.ISeedSequence):
    """A seed sequence that cannot spawn."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.arange(1, n_words + 1, dtype=dtype)


def test_a_generator_that_cannot_spawn_raises_what_spawning_raises():
    rng = np.random.Generator(np.random.PCG64(_FixedState()))
    with pytest.raises(TypeError, match="does not implement spawning"):
        rng.spawn(2)
    with pytest.raises(TypeError, match="does not implement spawning"):
        dv.search_violations(rng, 2)


@pytest.mark.parametrize("n", [2.5, 2.0, "3", None])
def test_search_refuses_a_sample_count_that_is_not_an_integer(n):
    with pytest.raises(TypeError):
        dv.search_violations(np.random.default_rng(0), n)


@pytest.mark.parametrize("n", [0, -3, np.int64(0), False])
def test_search_refuses_a_sample_count_below_one(n):
    with pytest.raises(ValueError, match="n_samples must be positive"):
        dv.search_violations(np.random.default_rng(0), n)


@pytest.mark.parametrize("n, want", [(np.int64(3), 3), (np.uint8(3), 3), (True, 1)])
def test_the_summary_counts_samples_as_a_python_int(n, want):
    _, summary = dv.search_violations(np.random.default_rng(0), n)
    assert type(summary.n_samples) is int
    assert summary.n_samples == want


class _Scripted:
    """A generator stub whose children replay fixed rows of 22 normals."""

    def __init__(self, rows):
        self.rows = rows

    def spawn(self, n):
        return [_ScriptedChild(row) for row in self.rows[:n]]


class _ScriptedChild:
    def __init__(self, row):
        self.row, self.k = row, 0

    def standard_normal(self, n):
        self.k += n
        return self.row[self.k - n : self.k].copy()


def _first_error(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    return None


def _stack(rng, n=8):
    g = np.array([dv.sample_semigroup(rng, interior=True) for _ in range(n)])
    x = np.array([dv.sample_cone(rng) for _ in range(n)])
    v = rng.standard_normal((n, 5))
    return g, x, v


def _loop(g, x, v):
    for row in zip(g, x, v):
        dv.contraction_ratio(*row)


@pytest.mark.parametrize(
    "spoil",
    [
        [(3, "g", dv.translation(-dv.IDENTITY_POINT))],
        [(5, "g", dv.inversion())],
        [(2, "x", [1.0, 1.0, 1.0, 1.0, 0.0])],
        [(6, "v", np.zeros(5))],
        [(4, "g", np.full((6, 6), np.nan))],
        [(1, "x", [np.inf, 1.0, 1.0, 0.0, 0.0])],
        # the lower row fails a later check, the higher one an earlier one
        [(2, "v", np.zeros(5)), (5, "g", dv.inversion())],
        [(5, "v", np.zeros(5)), (2, "x", [1.0, -1.0, 1.0, 0.0, 0.0])],
        # one row failing two checks reports the first of them
        [(3, "x", [-1.0, 1.0, 1.0, 0.0, 0.0]), (3, "v", np.zeros(5))],
        # an interior base point whose determinant overflows
        [(2, "x", [1e200, 1.0, 1e250, 0.0, 0.0])],
        [(2, "x", [1e200, 1.0, 1e250, 0.0, 0.0]), (5, "v", np.zeros(5))],
    ],
)
def test_a_stack_with_bad_rows_raises_what_the_loop_raises(spoil):
    g, x, v = _stack(np.random.default_rng(82))
    rows = {"g": g, "x": x, "v": v}
    for i, name, value in spoil:
        rows[name][i] = value
    want = _first_error(_loop, g, x, v)
    assert want is not None
    assert _first_error(dv.contraction_ratios, g, x, v) == want


@pytest.mark.parametrize("block", [4096, 3])
def test_a_sweep_with_failing_draws_raises_what_the_loop_raises(block, monkeypatch):
    monkeypatch.setattr(metric, "_BLOCK", block)
    # the reference spawns the scripted children; the sweep's draw step
    # reads the same rows
    def scripted_normals(rng, start, out):
        out[:] = rng.rows[start : start + len(out)]

    monkeypatch.setattr(streams, "child_normals", scripted_normals)
    rng = np.random.default_rng(83)
    rows = rng.standard_normal((8, 22))
    singular = rows[4].copy()
    singular[0:3] = -400.0  # the unit underflows to det 0: congruence_embed refuses
    overflow = rows[2].copy()
    overflow[12:15] = 800.0  # the base point overflows to inf and NaN
    for bad in ({4: singular}, {2: overflow}, {2: overflow, 4: singular}, {2: singular, 4: overflow}):
        script = rows.copy()
        for i, row in bad.items():
            script[i] = row
        with np.errstate(all="ignore"):
            want = _first_error(search_violations_reference, _Scripted(script), 8)
            got = _first_error(dv.search_violations, _Scripted(script), 8)
        assert want is not None
        assert got == want


def test_a_sampled_failing_sweep_ends_as_the_loop_ends():
    # row 27 of the sweep of rng (1002, 1301) meets a singular C X + D;
    # the outcomes are compared, whatever they are
    def outcome(search):
        return _first_error(search, np.random.default_rng((1002, 1301)), 32)

    want = outcome(search_violations_reference)
    assert outcome(dv.search_violations) == want
    if want is None:
        _assert_same_sweep(
            dv.search_violations(np.random.default_rng((1002, 1301)), 32),
            search_violations_reference(np.random.default_rng((1002, 1301)), 32),
        )


def test_a_stacked_mobius_raises_for_a_singular_row():
    g = np.array([np.eye(6), dv.inversion(), np.eye(6)])
    Z = np.zeros((3, 3, 3))
    with pytest.raises(dv.SingularityError, match="singular to working precision"):
        dv.group.mobius(g, Z)
    W, Mi = dv.group.mobius(g[[0, 2]], np.stack([I3, 2.0 * I3]))
    assert np.array_equal(W, np.stack([I3, 2.0 * I3]))
    assert np.array_equal(Mi, np.stack([I3, I3]))


def test_the_witness_is_row_zero_of_every_sweep():
    recs, summary = dv.search_violations(np.random.default_rng(3), 5)
    assert recs[0].seed_index == 0
    assert recs[0].ratio == metric.counterexample().ratio == 1.039430288145257
    assert summary.max_ratio >= recs[0].ratio
