"""Command line front end.

Payload JSON goes to stdout with exit code 0; failures go to stderr as a
JSON status with a nonzero exit code.  Inputs are JSON documents read
from a file path argument or stdin ("-").
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cone, group, metric, semigroup, serialize
from .errors import ConvergenceError, DomainError, PatternError
from .linalg import maxabs

_EXIT = {"domain_error": 1, "convergence_error": 3}
_PARSE_EXIT = 2

# what -> (input kind, reason function of (value, tol))
_CHECKS = {
    "cone": ("vector", lambda x, tol: cone.open_cone_reason(x)),
    "closed-cone": ("vector", lambda x, tol: cone.closed_cone_reason(x, tol)),
    "symplectic": (
        "matrix",
        lambda g, tol: None if group.is_symplectic(g) else "not symplectic",
    ),
    "G": ("matrix", lambda g, tol: group.tube_group_reason(g)),
    "upsilon": ("matrix", lambda g, tol: group.triple_decomposition_reason(g)),
    "gamma": ("matrix", lambda g, tol: semigroup.compression_reason(g, tol)),
    "gamma-sp": (
        "matrix",
        lambda g, tol: semigroup.symplectic_semigroup_reason(g, tol),
    ),
}


def tolerance(text: str) -> float:
    tol = float(text)
    if not 0.0 <= tol < np.inf:
        raise argparse.ArgumentTypeError(f"expected a finite tolerance >= 0, got {text!r}")
    return tol


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _relative_residual(recomposed, g) -> float:
    return float(maxabs(recomposed - g) / (1.0 + maxabs(g)))


def _cmd_check(args) -> dict:
    kind, reason_fn = _CHECKS[args.what]
    obj = _read_json(args.input)
    value = serialize.load_vector5(obj) if kind == "vector" else serialize.load_matrix6(obj)
    reason = reason_fn(value, args.tol)
    payload = {"what": args.what, "result": reason is None}
    if reason is not None:
        payload["reason"] = reason
    return payload


def _cmd_decompose(args) -> dict:
    g = serialize.load_matrix6(_read_json(args.input))
    if args.mode == "triple":
        f = group.triple_decompose(g)
        payload = {"mode": "triple", **serialize.dump_triple_factors(f)}
        payload["residual"] = _relative_residual(group.triple_compose(f), g)
    elif args.mode == "gamma":
        f = semigroup.compression_factors(g, args.tol)
        payload = {"mode": "gamma", **serialize.dump_semigroup_factors(f)}
        payload["residual"] = _relative_residual(group.triple_compose(f), g)
    else:
        A, X = semigroup.polar_factor(g)
        payload = {"mode": "polar", **serialize.dump_polar(A, X)}
        payload["residual"] = _relative_residual(semigroup.polar_compose(A, X), g)
    return payload


def _cmd_counterexample(args) -> dict:
    rec = metric.counterexample()
    before = metric.cone_metric(rec.x, rec.v, rec.v)
    jv = metric.action_jacobian(rec.g, rec.x, rec.v)
    after = metric.cone_metric(group.act_real(rec.g, rec.x), jv, jv)
    return {"before": before, "after": after, "ratio": rec.ratio, "violated": rec.violated}


def _cmd_search(args) -> dict:
    rng = np.random.default_rng(args.seed)
    records, summary = metric.search_violations(rng, args.samples)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            serialize.write_records_csv(f, records)
    return serialize.dump_summary(summary)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dualvinberg",
        description="membership checks, factorizations and the expansion search",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_tol(sp, text):
        sp.add_argument("--tol", type=tolerance, default=cone.MEMBERSHIP_TOL, help=text)

    def add_input(sp):
        sp.add_argument("input", nargs="?", default="-", help="JSON file path, or - for stdin")

    sp = sub.add_parser("check", help="membership predicates with failure reasons")
    sp.add_argument("--what", required=True, choices=sorted(_CHECKS))
    add_tol(sp, "membership tolerance")
    add_input(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("decompose", help="chart, semigroup or polar factors")
    sp.add_argument(
        "--mode", default="triple", choices=("triple", "gamma", "polar")
    )
    add_tol(sp, "membership tolerance; acts on --mode gamma only")
    add_input(sp)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("polar", help="shorthand for decompose --mode polar")
    add_input(sp)
    sp.set_defaults(func=_cmd_decompose, mode="polar")

    sp = sub.add_parser("counterexample", help="the frozen expansion witness")
    sp.set_defaults(func=_cmd_counterexample)

    sp = sub.add_parser("search", help="random expansion sweep; CSV via --out")
    sp.add_argument("--seed", type=int, default=0, help="unsigned 64-bit seed")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--out", default=None, help="write violation records CSV here")
    sp.set_defaults(func=_cmd_search)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # the certificates decide on inf/NaN results; warnings would garble stderr
        with np.errstate(all="ignore"):
            text = _strict_json(args.func(args))
    except ConvergenceError as exc:
        return _fail("convergence_error", exc)
    except (DomainError, PatternError) as exc:
        # DomainError covers singular and spectrum failures as subclasses
        return _fail("domain_error", exc)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _PARSE_EXIT
    print(text)
    return 0


def _strict_json(payload) -> str:
    """The payload as strict JSON: a number that overflowed to inf or
    became NaN is a domain error, never `Infinity`/`NaN` on stdout."""
    try:
        return json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        raise DomainError("result has a non-finite entry") from exc


def _fail(status: str, exc: Exception) -> int:
    print(json.dumps({"status": status, "error": str(exc)}), file=sys.stderr)
    return _EXIT[status]


if __name__ == "__main__":
    sys.exit(main())
