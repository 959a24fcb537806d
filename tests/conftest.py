"""Shared sampling helpers for the test suite (plain functions, no fixtures)."""

from __future__ import annotations

import numpy as np

import dualvinberg as dv
from dualvinberg.group import TripleFactors


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


class ZeroRandomness:
    """Stub generator whose draws are all zero, for degenerate-sampler tests."""

    def standard_normal(self, n):
        return np.zeros(n)

    def random(self, n):
        return np.zeros(n)
