"""Machine-speed calibration, so that op timings from a shared host compare.

On a shared two-core host the same op runs up to 1.7x slower for seconds
at a time when other tenants load the machine, and that state varies from
run to run far more than any bound worth enforcing.  A fixed calibration
kernel (small numpy products, pure-Python arithmetic and one LAPACK call,
the mix the library's ops are made of) slows down with it: over 2 s
windows its time tracks a `search` op's to a coefficient of variation of
2-3 %, against 12-20 % for the raw op time.  The kernel runs between ops
whenever 10 ms of op time have passed, and each op is scaled to a
reference speed at which the kernel takes `REFERENCE_MS`:

    reported = measured * REFERENCE_MS / (mean kernel time just before and after)

Bracketing each op, rather than whole seconds, also follows the short
slow spells that otherwise set the p99 latency.

The kernel never calls the library, but it runs in the library's process,
so it is not wholly independent of it.  The cyclic garbage collector is
off while it runs, so collections owed to the library's allocations fall
in the library's ops, never in the kernel, and the size of the library's
heap does not change the kernel's time.  Process-wide state the two still
share, such as numpy's and BLAS's settings and the CPU caches, can move
the kernel: a change to the library that alters such state moves the
scaled figures by the same factor as the kernel.  The raw figures are
therefore printed beside the scaled ones (`run.py`'s run details), and a
change in the median `calibration_ms` between two commits on one host
points at such an effect.

Set-up time is not scaled: it is the median of several fresh workers.
"""

from __future__ import annotations

import gc
import time

REFERENCE_MS = 1.0


def calibrate() -> int:
    """Run the op kernel once with the cyclic collector off; returns its
    wall time in ns."""
    import numpy as np

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        m = np.arange(36.0).reshape(6, 6) / 36.0 + np.eye(6)
        s = 0.0
        for _ in range(75):
            s += float(np.max(np.abs(m @ m.T)))
            s += sum(k * k for k in range(40))
        s += float(np.abs(np.linalg.eigvals(m)).max())
        elapsed = time.perf_counter_ns() - t0
    finally:
        if was_enabled:
            gc.enable()
    if s != s:  # keep the result live
        raise ArithmeticError("calibration produced NaN")
    return elapsed


def scale(ns, cals):
    """Op times `ns` scaled to reference speed; `cals` holds (index of the
    next op, kernel ns) pairs, the first before op 0 and the last after the
    last op."""
    import numpy as np

    at = np.array([i for i, _ in cals])
    kernel = np.array([c for _, c in cals], dtype=float)
    before = np.searchsorted(at, np.arange(len(ns)), side="right") - 1
    return ns * (REFERENCE_MS * 1e6) / ((kernel[before] + kernel[before + 1]) / 2)
