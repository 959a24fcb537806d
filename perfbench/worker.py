"""One benchmark worker: a fresh single-threaded process per use.

    python3 perfbench/worker.py --workload W --seed N --mode M --out DIR \
        [--seconds S] [--ops K] [--ops-file PATH]

Modes:
  setup    import the package and run the first warm-up op, then exit;
  measure  set up, then run closed-loop ops (one op in flight) for S
           seconds, or exactly K ops with --ops, and save each op's raw
           and scaled time and status to PATH;
  trace    set up, run S/2 seconds untraced and S/2 seconds traced (less
           once the tracer holds its maximum of spans), and derive the
           per-layer metrics from the trace.

`run.py` starts it with PYTHONPATH pointing at the package source and the
BLAS thread variables set to 1.  The last stdout line is a JSON object.
numpy is imported only after the timed package import, which loads it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

MIN_TAIL_SAMPLES = 1000  # op_ms_p99 needs ten samples beyond it
MAX_STRETCH = 2.5  # measure at most this many times --seconds to reach it
WINDOW_S = 1.0  # op time per window; ops_per_s is the median window rate
CALIBRATE_EVERY_NS = 10_000_000  # op time between two calibration samples
# Op records are written in place into buffers touched at start-up, so the
# worker's peak memory does not grow with the number of ops a run completes
# (9 bytes per op; 2.4 MB up to this many ops, doubled only beyond it).
OP_CAPACITY = 1 << 18
OK, RAISED, WRONG = 0, 1, 2


def _timed(fn, arg):
    t0 = time.perf_counter_ns()
    try:
        return fn(arg), None, time.perf_counter_ns() - t0
    except Exception as exc:  # any exception is a failed op, reported below
        return None, exc, time.perf_counter_ns() - t0


class OpLog:
    """Per-op time (ns) and status, calibration samples (index of the next
    op, ns) taken between ops, and the first error messages."""

    def __init__(self):
        import numpy as np

        self.n = 0
        self.ns = np.full(OP_CAPACITY, -1, dtype=np.int64)
        self.status = np.full(OP_CAPACITY, -1, dtype=np.int8)
        self.cals: list[tuple[int, int]] = []
        self.errors: list[str] = []

    def add(self, ns: int, status: int) -> None:
        if self.n == len(self.ns):
            import numpy as np

            self.ns = np.concatenate([self.ns, np.full(self.n, -1, dtype=np.int64)])
            self.status = np.concatenate([self.status, np.full(self.n, -1, dtype=np.int8)])
        self.ns[self.n] = ns
        self.status[self.n] = status
        self.n += 1

    def arrays(self):
        """Raw ns, ns scaled to reference speed (speed.py), and status."""
        from speed import scale

        ns = self.ns[: self.n]
        return ns, scale(ns, self.cals), self.status[: self.n]


def run_loop(wl, stream, seconds, min_ok=0, tracer=None, n_ops=None) -> OpLog:
    """Closed loop, one client: the next op starts when the previous one and
    its check are done.  Runs for `seconds` (longer, up to MAX_STRETCH
    times, until `min_ok` ops succeeded), or exactly `n_ops` ops when
    given.  A failed op either raised (RAISED) or gave an output that
    failed its check (WRONG).  A traced loop also ends once the tracer
    holds its maximum number of spans."""
    from speed import calibrate

    log = OpLog()
    log.cals.append((0, calibrate()))
    op = wl.op if tracer is None else (lambda inp: tracer.call_op(log.n, wl.op, inp))
    start = time.perf_counter()
    soft_end, hard_end = start + seconds, start + MAX_STRETCH * seconds
    n_ok = since_cal = 0
    while True:
        if n_ops is not None:
            if log.n == n_ops:
                break
        else:
            now = time.perf_counter()
            if now >= hard_end or (now >= soft_end and n_ok >= min_ok):
                break
        if tracer is not None and tracer.full:
            break
        inp = next(stream)
        out, exc, ns = _timed(op, inp)
        status = RAISED if exc is not None else OK if wl.check(inp, out) else WRONG
        if status != OK and len(log.errors) < 5:
            log.errors.append(f"{type(exc).__name__}: {exc}" if exc else "output failed its check")
        n_ok += status == OK
        log.add(ns, status)
        since_cal += ns
        if since_cal >= CALIBRATE_EVERY_NS:
            log.cals.append((log.n, calibrate()))
            since_cal = 0
    if log.cals[-1][0] < log.n:
        log.cals.append((log.n, calibrate()))
    return log


def _windows(ns):
    """Index ranges of consecutive ops holding about WINDOW_S of op time."""
    bounds, acc, i0 = [], 0, 0
    for i, t in enumerate(ns.tolist()):
        acc += t
        if acc >= WINDOW_S * 1e9:
            bounds.append((i0, i + 1))
            acc, i0 = 0, i + 1
    if i0 < len(ns):  # the remainder joins the last window
        bounds[-1:] = [(bounds[-1][0] if bounds else i0, len(ns))]
    return bounds


def summarize(raw, scaled, ok, units_per_op: int) -> dict:
    """Throughput and latency from per-op times: scaled to reference speed
    (see speed.py), with the raw figures alongside.  Latencies are over
    successful ops only."""
    import numpy as np

    raw = np.asarray(raw, dtype=float)
    units = ok * float(units_per_op)
    rates, raw_rates = [], []
    for i0, i1 in _windows(raw):
        rates.append(units[i0:i1].sum() / scaled[i0:i1].sum() * 1e9)
        raw_rates.append(units[i0:i1].sum() / raw[i0:i1].sum() * 1e9)
    pct = (50, 90, 99)
    lat = np.percentile(scaled[ok] * 1e-6, pct) if ok.any() else np.zeros(3)
    raw_lat = np.percentile(raw[ok] * 1e-6, pct) if ok.any() else np.zeros(3)
    return {
        "units": int(units.sum()),
        "op_s": float(raw.sum() * 1e-9),
        "ops_per_s": float(np.median(rates)),
        **{f"op_ms_p{p}": float(v) for p, v in zip(pct, lat)},
        "latency_samples": int(ok.sum()),
        "raw": {
            "ops_per_s": float(np.median(raw_rates)),
            **{f"op_ms_p{p}": float(v) for p, v in zip(pct, raw_lat)},
        },
    }


def _counts(status, errors) -> dict:
    return {
        "attempted": int(len(status)),
        "failed": int((status != OK).sum()),
        "wrong": int((status == WRONG).sum()),
        "errors": errors,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--ops", type=int)
    p.add_argument("--ops-file")
    p.add_argument("--out", required=True)
    args = p.parse_args()

    t0 = time.perf_counter()
    import dualvinberg  # noqa: F401  (timed: package import is part of set-up)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.out)
    stream = wl.inputs()
    first = next(stream)
    out, exc, _ = _timed(wl.op, first)
    result = {
        "setup_s": time.perf_counter() - t0,
        "warmup_wrong": exc is None and not wl.check(first, out),
        "units_per_op": wl.units_per_op,
    }
    import numpy as np

    if exc is not None:
        result["errors"] = [f"{type(exc).__name__}: {exc}"]
    if args.workload == "search" and exc is None:
        result["csv_sha256"] = wl.csv_digest()

    if args.mode == "measure":
        log = run_loop(wl, stream, args.seconds, min_ok=MIN_TAIL_SAMPLES, n_ops=args.ops)
        result["peak_rss_mb"] = _peak_rss_mb()  # before any array below
        raw, scaled, status = log.arrays()
        np.savez(args.ops_file, raw=raw, scaled=scaled, status=status)
        result["calibration_ms"] = float(np.median([c for _, c in log.cals]) * 1e-6)
        result.update(_counts(status, log.errors))
    elif args.mode == "trace":
        from layers import per_layer
        from tracer import Tracer

        plain = run_loop(wl, stream, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(wl, stream, args.seconds / 2, tracer=tracer)
        finally:
            tracer.restore()
        stalls = 0
        if args.workload == "polar":
            from dualvinberg.errors import ConvergenceError

            for g in wl.stall_probe():
                try:
                    wl.op(g)
                except ConvergenceError:
                    stalls += 1
        tracer.save(os.path.join(args.out, f"trace-{args.workload}.npz"))
        summaries = []
        for log in (plain, traced):
            raw, scaled, status = log.arrays()
            summaries.append(summarize(raw, scaled, status == OK, wl.units_per_op))
        status = np.concatenate([plain.arrays()[2], traced.arrays()[2]])
        result.update(
            **_counts(status, plain.errors + traced.errors),
            spans=len(tracer.span_name),
            per_layer=per_layer(tracer, summaries[1], summaries[0]["ops_per_s"], stalls),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
