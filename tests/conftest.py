"""Shared helpers for the test suite (plain functions, no fixtures):
samplers, and readers of the factor payloads the CLI writes."""

from __future__ import annotations

import numpy as np

import dualvinberg as dv
from dualvinberg.group import TripleFactors
from dualvinberg.semigroup import InvariantConeElement
from dualvinberg.serialize import _as_floats, load_vector5


def sample_chart_element(rng, sigma: float = 0.7) -> np.ndarray:
    """Generic tube-group element on the dense chart: random chart factors
    with a signed linear part.  Not usually a semigroup member."""
    f = TripleFactors(
        v=sigma * rng.standard_normal(5),
        L=dv.sample_triangular(rng, sigma),
        u=sigma * rng.standard_normal(2),
    )
    return dv.triple_compose(f)


def sample_tube_point(rng, sigma: float = 0.8) -> np.ndarray:
    """Random point with imaginary part in the open cone."""
    return sigma * rng.standard_normal(5) + 1j * dv.sample_cone(rng, sigma)


def generator_product(rng, length: int = 3) -> np.ndarray:
    """Product of random generators; includes elements off the dense chart."""
    g = np.eye(6)
    for _ in range(length):
        pick = rng.integers(5)
        if pick == 0:
            g = g @ dv.translation(0.7 * rng.standard_normal(5))
        elif pick == 1:
            g = g @ dv.dual_translation(0.7 * rng.standard_normal(2))
        elif pick == 2:
            g = g @ dv.congruence_embed(dv.sample_triangular(rng, 0.7))
        elif pick == 3:
            g = g @ dv.inversion()
        else:
            g = g @ dv.isotropy_rotation(*rng.uniform(0, 2 * np.pi, 2))
    return g


def overflowing_defect_matrix() -> np.ndarray:
    """[[0, s B'], [0, s D']] with s = 1.3e154, D' = ones and B' = ones but
    B'[2,2] = 0.5: D^T B overflows to inf on both sides of its diagonal, so
    its antisymmetric part is NaN, where the true one is 8.4e307 against a
    symplectic bound of 1.7e298.  Every entry is finite."""
    s = 1.3e154
    B = np.ones((3, 3))
    B[2, 2] = 0.5
    g = np.zeros((6, 6))
    g[:3, 3:] = s * B
    g[3:, 3:] = s * np.ones((3, 3))
    return g


def slack_subject() -> np.ndarray:
    """A tube-group member on which the two membership routes part at the
    default tol: B passes its pattern test at the scale 1e4 of g, while
    D^T B carries 5e-9 off-pattern mass at scale 1, so the chart test
    rejects it at tol and accepts it at CROSS_CHECK_SLACK * tol, and the
    PSD test accepts it."""
    shift = np.eye(6)
    off = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    shift[:3, 3:] = np.eye(3) + 5e-9 * off
    return dv.congruence_embed(np.diag([1.0, 1.0, 1e4])) @ shift


class ZeroRandomness:
    """Stub generator whose draws are all zero, for degenerate-sampler tests."""

    def standard_normal(self, n):
        return np.zeros(n)

    def random(self, n):
        return np.zeros(n)


def load_pair(obj) -> np.ndarray:
    return _as_floats(obj, 2, "pair")


def load_triangular(obj) -> np.ndarray:
    """The triangular matrix of its 5 parameters a1..a5."""
    return dv.triangular(_as_floats(obj, 5, "triangular parameters"))


def load_triple_factors(obj) -> TripleFactors:
    """TripleFactors of a `decompose --mode triple` payload."""
    if not isinstance(obj, dict):
        raise ValueError("triple factors: expected an object with v/L/u")
    return TripleFactors(
        v=load_vector5(obj.get("v")),
        L=load_triangular(obj.get("L")),
        u=load_pair(obj.get("u")),
    )


def load_semigroup_factors(obj) -> TripleFactors:
    """TripleFactors of a `decompose --mode gamma` payload, whose linear
    part travels under the key "A"."""
    if not isinstance(obj, dict):
        raise ValueError("semigroup factors: expected an object with v/A/u")
    return TripleFactors(
        v=load_vector5(obj.get("v")),
        L=load_triangular(obj.get("A")),
        u=load_pair(obj.get("u")),
    )


def load_polar(obj) -> tuple[np.ndarray, InvariantConeElement]:
    """(A, X) of a `polar` payload."""
    if not isinstance(obj, dict) or not isinstance(obj.get("X"), dict):
        raise ValueError("polar factors: expected an object with A and X{v,u}")
    X = InvariantConeElement(
        v=load_vector5(obj["X"].get("v")), u=load_pair(obj["X"].get("u"))
    )
    return load_triangular(obj.get("A")), X
