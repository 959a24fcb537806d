"""Benchmark of the dualvinberg package: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload search|polar|membership --seed N \
        --seconds S --trace 0|1

Workloads (closed loop, one client, one op in flight):
  search      32-sample expansion sweeps with the witness injected, each
              followed by the CSV write of its records (the CLI's
              `search --out`); metric, certificate and sampling layers.
  polar       Ol'shanskii polar factorization of criterion 6's interior
              family; almost all time in the log sweep and scipy's logm.
  membership  JSON matrices, seven members to five non-members of five
              kinds, through every membership route, with factor dumps
              for members; the certificate layer and its early exits.

Every worker is a fresh process with one BLAS thread, started one at a
time.  With --trace 0 the run sets up five fresh workers (the median is
`setup_s`); the last two measure.  The first runs the workload for S/2
seconds, longer if needed for 1000 successful ops so that `op_ms_p99` has
ten samples beyond it; the second runs the same inputs, as many as the
first did.  Each op time is scaled to a reference machine speed by a
calibration kernel run beside the ops (`speed.py`).  `ops_per_s` and
`op_ms_p50` take the mean of each input's two scaled times.  The tail
percentiles `op_ms_p90` and `op_ms_p99` take the lower of the two: on a
shared host, short bursts of load from other processes set the tail of a
single pass, and they rarely hit one input in both workers, while a cost
the library has on an input, GC pauses included, recurs in both, since
the two processes run the same ops in the same order.  (The lower time is
not used for the median: the kernel follows the host's fast and slow
spells only roughly, and the lower time leans towards whichever pass ran
in a fast spell.)  The raw (unscaled) figures, formed the same way, are
printed beside them in the run details, on the line before the result.
Set-up time is not scaled.  Ops are counted in samples on `search`,
factorizations on `polar` and queries on `membership`; latencies are
over inputs that succeeded in both workers, and `attempted` and `failed`
count the ops of both.  With --trace 1 it times package import and the
CLI's cold start in fresh processes, then runs the workload S/2 seconds
untraced and S/2 seconds with every library function wrapped
(`tracer.py`) and reports the per-layer metrics named in BENCHMARK.json.

Results, run details (versions, cpu count, seed, sample counts) and span
dumps go to perfbench/.out/.  The last stdout line is the JSON result.
`correct` is false when an output fails its check or a run-level check
(the same CSV bytes for one seed in every fresh worker, the CLI's
cold-start payload) fails; an op that raises counts as failed without
making the run incorrect.
Exits 2, printing no result, when the package source is missing, a worker
fails or a metric is missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

from worker import OK, summarize

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, ".out")
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "dualvinberg")

SETUP_WORKERS = 5  # fresh set-ups per run; the last two also measure
PASSES = ("a", "b")  # the two measuring workers, which run the same inputs
COLD_PROBES = 5  # fresh processes per cold-start metric in a traced run
DEADLINE_S = 170.0  # the whole run, workers included
WITNESS_RATIO = 1.039430288145257

IMPORT_PROBE = (
    "import json, sys, time\n"
    "t = time.perf_counter()\n"
    "import dualvinberg\n"
    "s = time.perf_counter() - t\n"
    "print(json.dumps({'import_s': s, 'scipy_linalg_loaded': 'scipy.linalg' in sys.modules}))\n"
)


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self):
        self.start = time.perf_counter()
        self.env = worker_env()

    def run(self, argv) -> subprocess.CompletedProcess:
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        if remaining <= 0:
            raise BenchError("out of time before starting a process")
        try:
            return subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {' '.join(argv[:4])}") from exc

    def json_of(self, argv) -> dict:
        proc = self.run(argv)
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            raise BenchError(f"exit {proc.returncode}: {' '.join(argv[:4])}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def worker(self, args, mode: str, seconds: float = 0.0, ops=None, ops_file=None) -> dict:
        argv = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--mode", mode, "--seconds", str(seconds), "--out", OUT,
        ]
        if ops is not None:
            argv += ["--ops", str(ops)]
        if ops_file is not None:
            argv += ["--ops-file", ops_file]
        return self.json_of(argv)

    def cli_cold_start(self) -> tuple[float, bool]:
        t0 = time.perf_counter()
        proc = self.run([sys.executable, "-m", "dualvinberg.cli", "counterexample"])
        wall = time.perf_counter() - t0
        try:
            payload = json.loads(proc.stdout)
            ok = payload["ratio"] == WITNESS_RATIO and payload["violated"] is True
        except (ValueError, KeyError, TypeError):
            ok = False
        return wall, ok and proc.returncode == 0


def measure(runner, args) -> tuple[dict, dict, dict, bool]:
    setups = [runner.worker(args, "setup") for _ in range(SETUP_WORKERS - len(PASSES))]
    files = [os.path.join(OUT, f"ops-{args.workload}-{tag}.npz") for tag in PASSES]
    first = runner.worker(args, "measure", args.seconds / 2, ops_file=files[0])
    second = runner.worker(args, "measure", ops=first["attempted"], ops_file=files[1])
    passes = [first, second]
    setups += passes
    correct = not any(s["warmup_wrong"] for s in setups) and not any(p["wrong"] for p in passes)
    if args.workload == "search":
        correct = correct and len({s.get("csv_sha256") for s in setups}) == 1
    a, b = (np.load(f) for f in files)
    ok = (a["status"] == OK) & (b["status"] == OK)
    units = first["units_per_op"]
    mean = summarize((a["raw"] + b["raw"]) / 2, (a["scaled"] + b["scaled"]) / 2, ok, units)
    low = summarize(np.minimum(a["raw"], b["raw"]), np.minimum(a["scaled"], b["scaled"]), ok, units)
    main = {
        "attempted": first["attempted"] + second["attempted"],
        "failed": first["failed"] + second["failed"],
    }
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "ops_per_s": mean["ops_per_s"],
        "success_share": 1.0 - main["failed"] / main["attempted"],
        "op_ms_p50": mean["op_ms_p50"],
        "op_ms_p90": low["op_ms_p90"],
        "op_ms_p99": low["op_ms_p99"],
    }
    raw = {k: mean["raw"][k] for k in ("ops_per_s", "op_ms_p50")}
    raw.update({k: low["raw"][k] for k in ("op_ms_p90", "op_ms_p99")})
    details = {
        "setup_s_each": [s["setup_s"] for s in setups],
        "raw": raw,
        "calibration_ms": [p["calibration_ms"] for p in passes],
        "latency_samples": mean["latency_samples"],
        "units": mean["units"],
        "errors": first["errors"] + second["errors"],
    }
    return main, metrics, details, correct


def trace(runner, args) -> tuple[dict, dict, dict, bool]:
    imports, colds = [], []
    for _ in range(COLD_PROBES):
        imports.append(runner.json_of([sys.executable, "-c", IMPORT_PROBE]))
        colds.append(runner.cli_cold_start())
    main = runner.worker(args, "trace", args.seconds)
    correct = main["wrong"] == 0 and not main["warmup_wrong"] and all(ok for _, ok in colds)
    metrics = {
        "import.dualvinberg_s": statistics.median(p["import_s"] for p in imports),
        "import.scipy_linalg_loaded": statistics.median(
            float(p["scipy_linalg_loaded"]) for p in imports
        ),
        "cli.cold_start_s": statistics.median(wall for wall, _ in colds),
        "failed_share": main["failed"] / main["attempted"],
        **main["per_layer"],
    }
    details = {"spans": main["spans"], "errors": main["errors"]}
    return main, metrics, details, correct


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
            raise BenchError("no package source at src/dualvinberg; run from the repository root")
        os.makedirs(OUT, exist_ok=True)
        runner = Runner()
        # byte-compile once, so no set-up below pays for it
        if runner.run([sys.executable, "-m", "compileall", "-q", PACKAGE]).returncode != 0:
            raise BenchError("could not byte-compile the package")
        main_result, values, details, correct = (trace if args.trace else measure)(runner, args)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    run_info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        **details,
    }
    result = {
        "correct": bool(correct),
        "attempted": int(main_result["attempted"]),
        "failed": int(main_result["failed"]),
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted
        },
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as f:
        json.dump({"run": run_info, **result}, f, indent=1)
    print(json.dumps({"run": run_info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
