"""The three workloads: inputs from a seed, the timed operation, the checks.

Each workload drives the library only through its public functions.
`inputs()` is an endless deterministic stream for one seed; `op` is the
part that is timed; `check` decides whether an op's output is correct
against facts fixed by how the input was built, never against a verdict
computed by the code under test.  `units_per_op` is what `ops_per_s`
counts: samples for `search`, factorizations for `polar`, queries for
`membership`.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from dualvinberg import cone, group, metric, semigroup, serialize
from dualvinberg.errors import InconsistencyError

# ratio of the frozen expanding configuration, sample 0 of every sweep
WITNESS_RATIO = 1.039430288145257


def _maxabs(m) -> float:
    return float(np.max(np.abs(m)))


def _rel(a, b) -> float:
    return _maxabs(np.asarray(a) - np.asarray(b)) / (1.0 + _maxabs(b))


class Search:
    """`metric.search_violations` over a 32-sample sweep with the witness
    injected, then `serialize.write_records_csv` of its records to a file,
    as `dualvinberg search --out` does.  Op k sweeps with the generator
    seeded by (seed, k).  Short sweeps give enough ops per run for a p99."""

    name = "search"
    SAMPLES = 32
    units_per_op = SAMPLES

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.csv_path = os.path.join(out_dir, "search.csv")

    def inputs(self):
        k = 0
        while True:
            yield k
            k += 1

    def op(self, k):
        records, summary = metric.search_violations(
            np.random.default_rng((self.seed, k)), self.SAMPLES
        )
        with open(self.csv_path, "w", encoding="utf-8", newline="") as f:
            serialize.write_records_csv(f, records)
        return records, summary

    def check(self, k, out) -> bool:
        """The witness row is exact and the summary agrees with the records.
        A random sample may out-expand the witness (about one 32-sample
        sweep in 500); such a ratio must be confirmed by the
        finite-difference oracles."""
        records, summary = out
        if summary.n_samples != self.SAMPLES or summary.violation_count != len(records):
            return False
        if not records or records[0].seed_index != 0 or records[0].ratio != WITNESS_RATIO:
            return False
        if not all(r.violated for r in records):
            return False
        if summary.max_ratio != max(r.ratio for r in records):
            return False
        return all(_fd_ratio_agrees(r) for r in records if r.ratio > WITNESS_RATIO)

    def csv_digest(self) -> str:
        with open(self.csv_path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()


def _fd_ratio_agrees(r, rtol: float = 1e-4) -> bool:
    y = group.act_real(r.g, r.x)
    jv = metric.action_jacobian_fd(r.g, r.x, r.v)
    fd = metric.cone_metric_fd(y, jv, jv) / metric.cone_metric_fd(r.x, r.v, r.v)
    return abs(fd - r.ratio) <= rtol * abs(r.ratio)


def _contract_polar_element(rng) -> np.ndarray:
    """Criterion 6's interior family: a positive triangular unit times the
    exponential of an interior wedge generator scaled to norm <= 1."""
    A = cone.sample_positive_triangular(rng, 0.7)
    v = cone.sample_cone(rng, 0.7)
    u = np.exp(0.7 * rng.standard_normal(2))
    nrm = float(np.linalg.norm(semigroup.InvariantConeElement(v=v, u=u).matrix()))
    if nrm > 1.0:
        v, u = v / nrm, u / nrm
    return semigroup.polar_compose(A, semigroup.InvariantConeElement(v=v, u=u))


class Polar:
    """`semigroup.polar_factor` on criterion 6's interior family, where the
    factorization is expected to succeed.  The traced run also factors a
    fixed probe of `STALL_PROBE` elements of `sample_semigroup(sigma=0.6)`,
    on which the current sweep can stall; it feeds only the
    `convergence_errors` counter and is not part of the timed ops."""

    name = "polar"
    STALL_PROBE = 24
    units_per_op = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def inputs(self):
        rng = np.random.default_rng((self.seed, 0))
        while True:
            yield _contract_polar_element(rng)

    def stall_probe(self):
        rng = np.random.default_rng((self.seed, 1))
        return [
            semigroup.sample_semigroup(rng, interior=True, sigma=0.6)
            for _ in range(self.STALL_PROBE)
        ]

    def op(self, g):
        return semigroup.polar_factor(g)

    def check(self, g, out) -> bool:
        A, X = out
        return _rel(semigroup.polar_compose(A, X), g) <= 1e-8 and semigroup.in_invariant_cone(
            X.matrix()
        )


def _negative_dual(rng) -> np.ndarray:
    # C D^T = L^{-T} U L^{-1} has (0,0) entry u1 / a1^2 < 0
    u = np.exp(rng.standard_normal(2))
    u[0] = -u[0]
    f = group.TripleFactors(
        v=cone.sample_cone(rng), L=cone.sample_positive_triangular(rng), u=u
    )
    return group.triple_compose(f)


def _off_chart(rng) -> np.ndarray:
    # D = L^{-T} diag(0, 0, 1) is singular, and every semigroup element has D invertible
    return (
        group.translation(cone.sample_cone(rng))
        @ group.congruence_embed(cone.sample_positive_triangular(rng))
        @ group.inversion()
    )


def _symplectic_broken(rng) -> np.ndarray:
    # For a member, D^T A = I + (PSD)(U >= 0) has a diagonal entry >= 1, so
    # scaling A by 1 + d leaves a defect >= d, far above is_symplectic's
    # tolerance 1e-10 (1 + maxabs(g)**2).
    g = semigroup.sample_semigroup(rng, interior=True)
    d = min(1e-6 * (1.0 + _maxabs(g) ** 2), 1.0)
    g[:3, :3] *= 1.0 + d
    return g


# (kind, is a member) in a fixed schedule: seven members, each non-member
# kind once.  Members take 0.75-1.1 ms and non-members 0.2-0.7 ms.  With
# exactly half members op_ms_p50 would fall in the gap between the two and
# jump across it from run to run; with 7 of 12 it lies among the members.
MEMBERSHIP_SCHEDULE = (
    ("interior", True),
    ("negated_translation", False),
    ("boundary", True),
    ("negative_dual", False),
    ("interior", True),
    ("symplectic_compression", False),
    ("boundary", True),
    ("off_chart", False),
    ("interior", True),
    ("symplectic_broken", False),
    ("boundary", True),
    ("interior", True),
)


_BUILDERS = {
    "interior": lambda rng: semigroup.sample_semigroup(rng, interior=True),
    "boundary": lambda rng: semigroup.sample_semigroup(rng, interior=False),
    "negated_translation": lambda rng: group.translation(-cone.sample_cone(rng)),
    "negative_dual": _negative_dual,
    "symplectic_compression": lambda rng: semigroup.sample_symplectic_semigroup(rng),
    "off_chart": _off_chart,
    "symplectic_broken": _symplectic_broken,
}


class Membership:
    """A stream of JSON-encoded 6x6 matrices, each loaded and run through
    the five membership routes; members are then factored and their
    factors dumped.  Labels come from the construction."""

    name = "membership"
    units_per_op = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def inputs(self):
        rng = np.random.default_rng((self.seed, 0))
        while True:
            for kind, member in MEMBERSHIP_SCHEDULE:
                g = _BUILDERS[kind](rng)
                yield json.dumps([float(e) for e in g.ravel()]), member

    def op(self, query):
        text, _ = query
        g = serialize.load_matrix6(json.loads(text))
        reason = semigroup.compression_reason(g)
        tube = group.tube_group_reason(g)
        tube_alt = group.tube_group_alt_reason(g)
        semigroup.symplectic_semigroup_reason(g)
        try:
            crossed = semigroup.cross_check_membership(g)
        except InconsistencyError:  # the two routes must never disagree: check() fails it
            crossed = None
        wire = None
        if reason is None:
            wire = json.dumps(serialize.dump_semigroup_factors(semigroup.compression_factors(g)))
        return g, reason, tube, tube_alt, crossed, wire

    def check(self, query, out) -> bool:
        _, member = query
        g, reason, tube, tube_alt, crossed, wire = out
        if (reason is None) != member or crossed != member:
            return False
        if (tube is None) != (tube_alt is None):
            return False
        if not member:
            return wire is None
        return _rel(_recompose(json.loads(wire)), g) <= 1e-10


def _recompose(wire: dict) -> np.ndarray:
    """translation(v) @ blockdiag(A, A^{-T}) @ [[I, 0], [U, I]] in plain
    numpy, from the dumped factors, independent of the library."""
    x1, x2, x3, x4, x5 = wire["v"]
    a1, a2, a3, a4, a5 = wire["A"]
    V = np.array([[x1, 0.0, x4], [0.0, x2, x5], [x4, x5, x3]])
    A = np.array([[a1, 0.0, 0.0], [0.0, a2, 0.0], [a4, a5, a3]])
    U = np.diag([wire["u"][0], wire["u"][1], 0.0])
    I, Z = np.eye(3), np.zeros((3, 3))
    upper = np.block([[I, V], [Z, I]])
    linear = np.block([[A, Z], [Z, np.linalg.inv(A).T]])
    lower = np.block([[I, Z], [U, I]])
    return upper @ linear @ lower


WORKLOADS = {w.name: w for w in (Search, Polar, Membership)}
