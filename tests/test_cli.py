import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dualvinberg as dv
from dualvinberg import serialize
from dualvinberg.cli import main
from dualvinberg.cone import closed_cone_reason

from conftest import (
    load_polar,
    load_semigroup_factors,
    load_triple_factors,
    overflowing_defect_matrix,
)
from oracles import in_positive_triangular


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_check_cone_interior(tmp_path, capsys):
    path = write_json(tmp_path, "x.json", [1, 1, 1, 0, 0])
    code, out, err = run_cli(capsys, "check", "--what", "cone", path)
    assert code == 0
    assert json.loads(out) == {"what": "cone", "result": True}
    assert err == ""


def test_check_cone_boundary_reports_reason(tmp_path, capsys):
    path = write_json(tmp_path, "x.json", [1, 1, 1, 1, 0])
    code, out, _ = run_cli(capsys, "check", "--what", "cone", path)
    assert code == 0
    assert json.loads(out) == {
        "what": "cone",
        "result": False,
        "reason": "minor 3 not positive",
    }


def test_check_closed_cone_honors_tol(tmp_path, capsys):
    path = write_json(tmp_path, "x.json", [1, 1, 1 - 1e-6, 1, 0])
    code, out, _ = run_cli(capsys, "check", "--what", "closed-cone", path)
    assert code == 0 and json.loads(out)["result"] is False
    code, out, _ = run_cli(
        capsys, "check", "--what", "closed-cone", "--tol", "1e-3", path
    )
    assert code == 0 and json.loads(out)["result"] is True


@pytest.mark.parametrize("text", ["[NaN, 1, 1, 0, 0]", "[Infinity, 1, 1, 0, 0]"])
def test_check_closed_cone_rejects_non_finite_input(tmp_path, capsys, text):
    path = tmp_path / "x.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "check", "--what", "closed-cone", str(path))
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "what": "closed-cone",
        "result": False,
        "reason": "coordinate not finite",
    }


def test_check_matrix_predicates_from_stdin(monkeypatch, capsys):
    g = dv.translation([1.0, 1.0, 1.01, -1.0, 0.0])
    for what in ("symplectic", "G", "upsilon", "gamma", "gamma-sp"):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(serialize.dump_matrix6(g)))
        )
        code, out, _ = run_cli(capsys, "check", "--what", what)
        assert code == 0
        assert json.loads(out) == {"what": what, "result": True}


def test_check_reports_membership_failure_reasons(monkeypatch, capsys):
    cases = [
        (dv.inversion(), "upsilon", "det D = 0"),
        (dv.translation(-dv.IDENTITY_POINT), "gamma", "D^T B outside the closed cone"),
        (np.arange(36.0).reshape(6, 6), "symplectic", "not symplectic"),
    ]
    for g, what, reason in cases:
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(serialize.dump_matrix6(g)))
        )
        code, out, _ = run_cli(capsys, "check", "--what", what)
        assert code == 0
        assert json.loads(out) == {"what": what, "result": False, "reason": reason}


def test_decompose_triple_payload(tmp_path, capsys):
    g = dv.triple_compose(
        dv.TripleFactors(
            v=np.array([0.5, -1.0, 2.0, 0.0, 1.0]),
            L=dv.triangular([1.5, -0.5, 2.0, 1.0, 0.0]),
            u=np.array([0.25, -0.75]),
        )
    )
    path = write_json(tmp_path, "g.json", serialize.dump_matrix6(g))
    code, out, err = run_cli(capsys, "decompose", "--mode", "triple", path)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["mode"] == "triple"
    f = load_triple_factors(payload)
    assert np.allclose(dv.triple_compose(f), g, rtol=0, atol=1e-12)
    assert payload["residual"] <= 1e-12


def test_decompose_gamma_requires_membership(tmp_path, capsys):
    path = write_json(
        tmp_path, "g.json", serialize.dump_matrix6(dv.translation(-dv.IDENTITY_POINT))
    )
    code, out, err = run_cli(capsys, "decompose", "--mode", "gamma", path)
    assert code == 1
    assert out == ""
    diag = json.loads(err)
    assert diag["status"] == "domain_error"
    assert "closed cone" in diag["error"]


def test_decompose_gamma_payload(tmp_path, capsys):
    g = dv.sample_semigroup(np.random.default_rng(3), interior=True, sigma=0.7)
    path = write_json(tmp_path, "g.json", serialize.dump_matrix6(g))
    code, out, _ = run_cli(capsys, "decompose", "--mode", "gamma", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "gamma"
    f = load_semigroup_factors(payload)
    assert closed_cone_reason(f.v) is None
    assert in_positive_triangular(f.L)
    assert payload["residual"] <= 1e-10


def test_polar_subcommand_matches_decompose_mode(tmp_path, capsys):
    g = dv.sample_semigroup(np.random.default_rng(4), interior=True, sigma=0.6)
    path = write_json(tmp_path, "g.json", serialize.dump_matrix6(g))
    code1, out1, _ = run_cli(capsys, "decompose", "--mode", "polar", path)
    code2, out2, _ = run_cli(capsys, "polar", path)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    A, X = load_polar(payload)
    assert np.allclose(dv.polar_compose(A, X), g, rtol=0, atol=1e-8 * (1 + np.abs(g).max()))
    assert payload["residual"] <= 1e-8


def test_polar_rejects_non_members(tmp_path, capsys):
    path = write_json(tmp_path, "g.json", serialize.dump_matrix6(dv.inversion()))
    code, out, err = run_cli(capsys, "polar", path)
    assert code == 1 and out == ""
    assert json.loads(err)["status"] == "domain_error"


def test_polar_exits_three_when_its_certificate_fails(tmp_path, capsys):
    # a member whose factors, read in closed form, recompose only to 5e-8
    g = dv.translation([1e4, 1, 1e4, 10, 0])
    g[0, 5] += 1e-3
    path = write_json(tmp_path, "g.json", serialize.dump_matrix6(g))
    code, out, err = run_cli(capsys, "polar", path)
    assert code == 3 and out == ""
    assert err == (
        '{"status": "convergence_error", "error": "polar recomposition residual 5.000e-08"}\n'
    )


def test_polar_takes_no_tol_and_decompose_documents_its_scope(capsys):
    assert run_cli(capsys, "polar", "--tol", "1e-3")[0] == 2
    code, out, _ = run_cli(capsys, "decompose", "--help")
    assert code == 0 and "acts on --mode gamma only" in " ".join(out.split())


def test_nan_outside_d_is_off_the_chart(tmp_path, capsys):
    g = np.eye(6)
    g[0, 0] = np.nan
    path = write_json(tmp_path, "g.json", serialize.dump_matrix6(g))
    code, out, _ = run_cli(capsys, "check", "--what", "upsilon", path)
    assert code == 0
    assert json.loads(out) == {"what": "upsilon", "result": False, "reason": "entry not finite"}
    code, out, err = run_cli(capsys, "decompose", "--mode", "triple", path)
    assert code == 1 and out == ""
    assert json.loads(err)["status"] == "domain_error"


def _reject_constant(name):
    raise AssertionError(f"non-strict JSON constant {name} on stdout")


def _hostile_matrices():
    for slot in ((0, 0), (0, 3), (3, 0), (5, 5)):
        for value in (np.nan, np.inf, -np.inf):
            g = np.eye(6)
            g[slot] = value
            yield g
    # finite, but B D^{-1} overflows to inf
    g = np.eye(6)
    g[:3, 3:] = np.diag([1e307, 1.0, 1.0])
    g[3:, 3:] = 1e-3 * np.eye(3)
    yield g
    yield 1e200 * np.eye(6)


def test_no_stdout_carries_nan_or_infinity(tmp_path, capsys):
    argvs = [["check", "--what", w] for w in ("symplectic", "G", "upsilon", "gamma", "gamma-sp")]
    argvs += [["decompose", "--mode", m] for m in ("triple", "gamma", "polar")] + [["polar"]]
    for i, g in enumerate(_hostile_matrices()):
        # json.dumps writes NaN/Infinity for non-finite floats, as the CLI input may
        path = tmp_path / f"g{i}.json"
        path.write_text(json.dumps(serialize.dump_matrix6(g)), encoding="utf-8")
        for argv in argvs:
            code, out, _ = run_cli(capsys, *argv, str(path))
            assert code in (0, 1), argv
            assert "NaN" not in out and "Infinity" not in out, (argv, out)
            if out:
                json.loads(out, parse_constant=_reject_constant)
    for text in ("[NaN, 1, 1, 0, 0]", "[1, -Infinity, 1, 0, 0]", "[1, 1, 1, 1e308, 1e308]"):
        path = tmp_path / "x.json"
        path.write_text(text, encoding="utf-8")
        for what in ("cone", "closed-cone"):
            code, out, _ = run_cli(capsys, "check", "--what", what, str(path))
            assert code == 0
            json.loads(out, parse_constant=_reject_constant)


def test_counterexample_payload(capsys):
    code, out, err = run_cli(capsys, "counterexample")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["before"] == 7.5
    assert abs(payload["after"] - (-0.125 + 2.0 * (6.01 / 3.02) ** 2)) <= 1e-9
    assert payload["violated"] is True
    assert np.isclose(payload["ratio"], 1.039430288145257, rtol=1e-12)


def test_search_writes_deterministic_csv(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code, out1, _ = run_cli(
        capsys, "search", "--seed", "5", "--samples", "40", "--out", str(out_a)
    )
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "search", "--seed", "5", "--samples", "40", "--out", str(out_b)
    )
    assert code == 0
    assert out1 == out2
    assert out_a.read_bytes() == out_b.read_bytes()

    summary = json.loads(out1)
    assert summary["n_samples"] == 40
    assert summary["violation_count"] >= 1  # the frozen witness rides at index 0
    assert summary["max_ratio"] >= 1.0394

    records, expected_summary = dv.search_violations(np.random.default_rng(5), 40)
    assert summary == serialize.dump_summary(expected_summary)
    buf = io.StringIO()
    serialize.write_records_csv(buf, records)
    assert out_a.read_text(encoding="utf-8") == buf.getvalue()


def test_search_output_is_pinned_for_a_sweep_with_a_sampled_violator(tmp_path, capsys):
    # seed 119 is the first seed >= 0 whose 1000-sample sweep holds a random
    # violator (row 919), so the pin covers a sampled row and the witness
    out = tmp_path / "s.csv"
    code, stdout, _ = run_cli(capsys, "search", "--seed", "119", "--samples", "1000", "--out", str(out))
    assert code == 0
    assert stdout == '{"max_ratio": 1.039430288145257, "violation_count": 2, "n_samples": 1000}\n'
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "a1ab520906ae13058f9c1bc0ad22e4e47270dcb9b28b45d6118a3feeedf23da1"


def test_search_without_out_only_prints_summary(tmp_path, capsys):
    code, out, err = run_cli(capsys, "search", "--samples", "3")
    assert code == 0 and err == ""
    assert set(json.loads(out)) == {"max_ratio", "violation_count", "n_samples"}
    assert list(tmp_path.iterdir()) == []


def test_parse_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "check", "--what", "cone", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error:")

    code, out, err = run_cli(capsys, "check", "--what", "cone", str(tmp_path / "missing.json"))
    assert code == 2 and out == ""
    assert err.startswith("error:")

    short = write_json(tmp_path, "short.json", [1, 2, 3])
    code, out, err = run_cli(capsys, "check", "--what", "cone", short)
    assert code == 2 and out == ""
    assert "expected an array of 5 numbers" in err


@pytest.mark.parametrize("text", ['["1", true, "1e0", 0, 0]', "[1, 1, 1, 0, 1" + "0" * 400 + "]"])
def test_non_numeric_or_overflowing_entries_exit_two(tmp_path, capsys, text):
    path = tmp_path / "x.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "check", "--what", "cone", str(path))
    assert code == 2 and out == ""
    assert err == "error: vector: expected an array of 5 numbers\n"


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_negative_or_non_finite_tol_exits_two(tmp_path, capsys, tol):
    vec = write_json(tmp_path, "x.json", [1, 1, 1, 0, 0])
    mat = write_json(tmp_path, "g.json", serialize.dump_matrix6(dv.translation([-1, -1, -1, 0, 0])))
    for argv in (
        ("check", "--what", "closed-cone", "--tol", tol, vec),
        ("check", "--what", "gamma-sp", "--tol", tol, mat),
        ("decompose", "--mode", "gamma", "--tol", tol, mat),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "--tol: expected a finite tolerance >= 0" in err


def test_check_symplectic_rejects_an_overflowing_block_relation(tmp_path, capsys):
    path = write_json(tmp_path, "g.json", serialize.dump_matrix6(overflowing_defect_matrix()))
    code, out, err = run_cli(capsys, "check", "--what", "symplectic", path)
    assert (code, err) == (0, "")
    assert out == '{"what": "symplectic", "result": false, "reason": "not symplectic"}\n'


def test_overflow_sized_matrix_is_a_domain_error(tmp_path, capsys):
    path = write_json(tmp_path, "g.json", serialize.dump_matrix6(1e200 * np.eye(6)))
    for argv in (("decompose", "--mode", "polar", path), ("decompose", "--mode", "triple", path)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["status"] == "domain_error"


def test_overflowing_chart_factors_are_a_domain_error(tmp_path, capsys):
    # every entry finite and D = I/2 regular, but B D^-1 = 2B overflows
    g = np.eye(6)
    g[3:, 3:] /= 2
    g[:3, 3:] = dv.embed(1e308 * np.array([1.0, 1.0, 1.0, 1.0, 0.0]))
    path = write_json(tmp_path, "g.json", serialize.dump_matrix6(g))
    code, out, err = run_cli(capsys, "decompose", "--mode", "triple", path)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"status": "domain_error", "error": "chart factor not finite"}


def test_the_chart_check_refuses_what_the_triple_decomposition_refuses(tmp_path, capsys):
    g = np.eye(6)
    g[3:, 3:] /= 2
    g[:3, 3:] = dv.embed(1e308 * np.array([1.0, 1.0, 1.0, 1.0, 0.0]))
    path = write_json(tmp_path, "g.json", serialize.dump_matrix6(g))
    code, out, _ = run_cli(capsys, "check", "--what", "upsilon", path)
    assert code == 0
    assert json.loads(out) == {"what": "upsilon", "result": False, "reason": "chart factor not finite"}


def test_argparse_failures_exit_two(capsys):
    assert run_cli(capsys, "check", "--what", "nonsense")[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_search_rejects_nonpositive_samples(capsys):
    code, out, err = run_cli(capsys, "search", "--samples", "0")
    assert code == 2 and out == ""
    assert err.startswith("error:")


_SCIPY_PROBE = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # from here on, any import of scipy raises ImportError
import numpy as np
import dualvinberg
from dualvinberg.cli import main

vec, mat, out = sys.argv[1:4]
runs = {
    "check": [["check", "--what", w, vec] for w in ("cone", "closed-cone")]
    + [["check", "--what", w, mat] for w in ("symplectic", "G", "upsilon", "gamma", "gamma-sp")],
    "decompose": [["decompose", "--mode", m, mat] for m in ("triple", "gamma", "polar")],
    "polar": [["polar", mat]],
    "counterexample": [["counterexample"]],
    "search": [["search", "--samples", "20", "--out", out]],
}
loaded = {"import": "scipy.linalg" in sys.modules}
for name, argvs in runs.items():
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    loaded[name] = "scipy.linalg" in sys.modules
x = dualvinberg.embed(dualvinberg.IDENTITY_POINT)
assert dualvinberg.spd_metric(x, np.ones((3, 3)), np.ones((3, 3))) == 18.0
loaded["spd_metric"] = "scipy.linalg" in sys.modules
g = dualvinberg.sample_symplectic_semigroup(np.random.default_rng(0))
assert dualvinberg.contraction_ratio_spd(g, x, np.eye(3)) <= 1.0
loaded["contraction_ratio_spd"] = "scipy.linalg" in sys.modules
print(json.dumps(loaded))
"""


def test_package_and_every_command_run_with_scipy_blocked(tmp_path):
    vec = write_json(tmp_path, "x.json", [1, 1, 1, 0, 0])
    mat = write_json(
        tmp_path, "g.json", serialize.dump_matrix6(dv.translation([1.0, 1.0, 1.01, -1.0, 0.0]))
    )
    src = os.path.dirname(os.path.dirname(dv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, vec, mat, str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == {
        "import": False,
        "check": False,
        "decompose": False,
        "polar": False,
        "counterexample": False,
        "search": False,
        "spd_metric": False,
        "contraction_ratio_spd": False,
    }


# NaN, +-inf and +-1e308 drawn often, then every float64
_hostile = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)
# members and the identity, so that hostile entries also reach the
# factorizations behind the membership tests
_BASES = (
    np.zeros((6, 6)),
    np.eye(6),
    dv.translation([1.0, 1.0, 1.01, -1.0, 0.0]),
    dv.sample_semigroup(np.random.default_rng(3), interior=True, sigma=0.7),
)


@st.composite
def hostile_matrices(draw):
    if draw(st.booleans()):
        return draw(hnp.arrays(np.float64, 36, elements=_hostile))
    g = _BASES[draw(st.integers(0, len(_BASES) - 1))].ravel().copy()
    for k, value in draw(st.dictionaries(st.integers(0, 35), _hostile, max_size=4)).items():
        g[k] = value
    return g


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=150, deadline=None)
@given(hostile_matrices())
def test_every_matrix_command_answers_hostile_floats_with_a_documented_exit(g):
    with tempfile.TemporaryDirectory() as tmp:
        mat = os.path.join(tmp, "g.json")
        vec = os.path.join(tmp, "x.json")
        with open(mat, "w", encoding="utf-8") as f:
            json.dump(g.tolist(), f)
        with open(vec, "w", encoding="utf-8") as f:
            json.dump(g[:5].tolist(), f)
        runs = [["check", "--what", w, vec] for w in ("cone", "closed-cone")]
        matrix_checks = ("symplectic", "G", "upsilon", "gamma", "gamma-sp")
        runs += [["check", "--what", w, mat] for w in matrix_checks]
        runs += [["decompose", "--mode", m, mat] for m in ("triple", "gamma", "polar")]
        runs += [["polar", mat]]
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 3), (argv, code, err.getvalue())
            if out.getvalue():
                json.loads(out.getvalue(), parse_constant=_reject_constant)
            assert (code == 0) == bool(out.getvalue()), argv
