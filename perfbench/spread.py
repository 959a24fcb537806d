"""Repeat the benchmark over seeds and record medians, quartiles and spreads.

    python3 perfbench/spread.py --seeds 21-30 [--workloads search,polar] \
        [--trace-seed 21] [--out perfbench/baseline.json]

Run from the repository root.  Runs every workload once per seed with
--trace 0, one run after another, then once with --trace 1 on
--trace-seed.  For each end-to-end metric it records the values, their
median and quartiles (`statistics.quantiles(n=4)`) and the spread, the
quartile distance over the median, beside the metric's bound; for the
traced run, every per-layer metric.  A spread above a third of the bound
is flagged, since two such sets of runs are compared against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="21-30")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace-seed", type=int, default=21)
    p.add_argument("--out", default="perfbench/baseline.json")
    args = p.parse_args()

    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs, values = [], {}
        for seed in seed_list(args.seeds):
            info, result = run(workload, seed, spec["run_seconds"], 0)
            report["machine"] = {k: info[k] for k in ("python", "numpy", "scipy", "nproc")}
            runs.append(
                {"seed": seed, **{k: result[k] for k in ("correct", "attempted", "failed")},
                 "latency_samples": info["latency_samples"], "raw": info["raw"],
                 "calibration_ms": info["calibration_ms"]}
            )
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, result["correct"], flush=True)
        end_to_end = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            end_to_end[m["name"]] = {
                "unit": m["unit"], "bound": m["bound"], "median": q2, "q1": q1, "q3": q3,
                "spread": spread, "spread_over_third_of_bound": spread > m["bound"] / 3,
                "values": v,
            }
            print(f"  {m['name']:14s} median {q2:.5g}  spread {spread:.4f}  bound {m['bound']}", flush=True)
        info, traced = run(workload, args.trace_seed, spec["run_seconds"], 1)
        report["workloads"][workload] = {
            "runs": runs,
            "end_to_end": end_to_end,
            "traced": {
                "seed": args.trace_seed,
                "correct": traced["correct"],
                "spans": info["spans"],
                "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            },
        }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
