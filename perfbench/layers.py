"""Per-layer metrics derived from one traced phase.

`self_us` is mean self time per call in microseconds, `calls_per_op` is
calls per unit of work (per sample on `search`, per factorization on
`polar`, per query on `membership`), and `<module>.self_share` is the
module's summed self time over the traced op time.  Times here are raw,
not scaled to reference speed, and include the wrappers' own cost:
`trace.overhead_share` is the untraced over the traced `ops_per_s` of the
same run, minus 1.  A function that was never called reports
0.  The cold-start metrics and `failed_share` come from `run.py`.
"""

from __future__ import annotations

import numpy as np

from tracer import MODULES

SELF_US = (
    "metric.contraction_ratio",
    "metric.action_jacobian",
    "metric.cone_metric",
    "semigroup.log_group",
    "scipy.logm",
    "semigroup.compression_reason",
    "semigroup.symplectic_semigroup_reason",
    "semigroup.compression_factors",
    "group.is_symplectic",
    "group.tube_group_reason",
    "group.tube_group_alt_reason",
    "group.triple_decompose",
    "group.triple_compose",
    "group.act_real",
    "cone.unembed",
    "cone.closed_cone_reason",
    "cone.sample_cone",
    "serialize.load_matrix6",
    "serialize.dump_semigroup_factors",
    "serialize.write_records_csv",
)

CALLS_PER_OP = (
    "metric.cone_metric",
    "scipy.logm",
    "scipy.expm",
    "semigroup.compression_reason",
    "group.is_symplectic",
    "group.inverse",
    "cone.unembed",
    "cone.embed",
    "cone.in_open_cone",
    "linalg.maxabs",
    "linalg.det3",
    "linalg.adjugate3",
    "linalg.inv3",
)


def per_layer(tracer, traced: dict, plain_ops_per_s: float, stalls: int) -> dict:
    stats = {
        name: (calls, ns) for name, calls, ns in zip(tracer.names, tracer.calls, tracer.self_ns)
    }
    units = max(traced["units"], 1)
    wall_ns = traced["op_s"] * 1e9

    def calls(name):
        return stats.get(name, (0, 0))[0]

    def self_ns(name):
        return stats.get(name, (0, 0))[1]

    def self_us(name):
        return self_ns(name) / calls(name) / 1e3 if calls(name) else 0.0

    out = {}
    for module in (*MODULES, "scipy"):
        prefix = module + "."
        out[f"{module}.self_share"] = (
            sum(ns for name, (_, ns) in stats.items() if name.startswith(prefix)) / wall_ns
        )
    out["metric.search_violations.self_us_per_sample"] = (
        self_ns("metric.search_violations") / units / 1e3 if calls("metric.search_violations") else 0.0
    )
    for name in SELF_US:
        out[f"{name}.self_us"] = self_us(name)
    for name in CALLS_PER_OP:
        out[f"{name}.calls_per_op"] = calls(name) / units

    sweeps = tracer.children_per_parent("semigroup.log_group", "semigroup.polar_factor")
    out["semigroup.polar_factor.sweeps_mean"] = float(sweeps.mean()) if len(sweeps) else 0.0
    out["semigroup.polar_factor.sweeps_max"] = float(sweeps.max()) if len(sweeps) else 0.0
    out["semigroup.polar_factor.convergence_errors"] = stalls + tracer.errors.get(
        ("semigroup.polar_factor", "ConvergenceError"), 0
    )
    reruns = tracer.children_per_parent(
        "semigroup.in_compression_semigroup", "semigroup.cross_check_membership"
    )
    out["semigroup.cross_check_membership.slack_share"] = (
        float(np.mean(reruns > 1)) if len(reruns) else 0.0
    )
    out["trace.overhead_share"] = plain_ops_per_s / traced["ops_per_s"] - 1.0
    return out
