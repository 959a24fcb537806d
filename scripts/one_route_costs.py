"""One-route cost of the membership routes and the chart factorization,
in µs per call.

Each route is asked once about each of 2000 distinct interior members,
sample_semigroup(rng, interior=True, sigma=0.7) with rng 3, so every call
reads a new matrix: the access pattern of a caller that asks one question
per matrix, which the memo of the one-matrix routes does not help.  Each
pass times every route over all members; the best pass per route is
printed.  Compare two trees in alternating processes, e.g.

    PYTHONPATH=src python scripts/one_route_costs.py 8
"""

import sys
import time

import numpy as np

import dualvinberg as dv
from dualvinberg import group, semigroup

ROUTES = {
    "tube_group_reason": group.tube_group_reason,
    "symplectic_semigroup_reason": semigroup.symplectic_semigroup_reason,
    "tube_group_alt_reason": group.tube_group_alt_reason,
    "cross_check_membership": dv.cross_check_membership,
    "compression_reason": semigroup.compression_reason,
    "polar_factor": dv.polar_factor,
    "compression_factors": semigroup.compression_factors,
    "triple_decompose": group.triple_decompose,
}


def main(passes: int) -> None:
    rng = np.random.default_rng(3)
    members = [dv.sample_semigroup(rng, interior=True, sigma=0.7) for _ in range(2000)]
    best = dict.fromkeys(ROUTES, float("inf"))
    for _ in range(passes):
        for name, route in ROUTES.items():
            start = time.perf_counter()
            for g in members:
                route(g)
            best[name] = min(best[name], (time.perf_counter() - start) / len(members) * 1e6)
    print(" ".join(f"{name}={us:.2f}" for name, us in best.items()))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
