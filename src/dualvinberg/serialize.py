"""JSON and CSV wire formats.

Vectors are plain JSON arrays (5 numbers; triangular matrices travel as
their 5 parameters a1..a5), 6x6 matrices are row-major arrays of 36
numbers, factor records are small objects.  Floats serialize through
Python's shortest round-trip repr, so dump/load is lossless.  The CSV
rows embed their JSON as json.dumps(obj, separators=(",", ":")) does.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable

import numpy as np

from .cone import triangular_params
from .group import TripleFactors
from .metric import ContractionRecord, SearchSummary
from .semigroup import InvariantConeElement

CSV_COLUMNS = ("seed_index", "ratio", "violated", "g_json", "x_json", "v_json")

_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _as_floats(obj, n: int, what: str) -> np.ndarray:
    """n JSON numbers, the ints and floats json.loads gives, as floats: a
    string or a boolean is not a number, and an integer beyond the float
    range is refused."""
    message = f"{what}: expected an array of {n} numbers"
    if not isinstance(obj, (list, tuple)) or len(obj) != n:
        raise ValueError(message)
    if not set(map(type, obj)) <= {int, float}:  # bool is not int here
        raise ValueError(message)
    try:
        return np.array(obj, dtype=float)
    except OverflowError as exc:
        raise ValueError(message) from exc


def load_vector5(obj) -> np.ndarray:
    return _as_floats(obj, 5, "vector")


def dump_vector5(x) -> list[float]:
    return np.asarray(x, dtype=float).tolist()


def dump_pair(u) -> list[float]:
    return np.asarray(u, dtype=float)[:2].tolist()


def load_matrix6(obj) -> np.ndarray:
    return _as_floats(obj, 36, "matrix").reshape(6, 6)


def dump_matrix6(g) -> list[float]:
    return np.asarray(g, dtype=float).ravel().tolist()


def dump_triangular(A) -> list[float]:
    return triangular_params(A).tolist()


def dump_triple_factors(f: TripleFactors) -> dict:
    return {"v": dump_vector5(f.v), "L": dump_triangular(f.L), "u": dump_pair(f.u)}


def dump_semigroup_factors(f: TripleFactors) -> dict:
    """Certified factors; the linear part travels under the key "A"."""
    return {"v": dump_vector5(f.v), "A": dump_triangular(f.L), "u": dump_pair(f.u)}


def dump_polar(A, X: InvariantConeElement) -> dict:
    return {
        "A": dump_triangular(A),
        "X": {"v": dump_vector5(X.v), "u": dump_pair(X.u)},
    }


def dump_summary(s: SearchSummary) -> dict:
    return {
        "max_ratio": float(s.max_ratio),
        "violation_count": int(s.violation_count),
        "n_samples": int(s.n_samples),
    }


def write_records_csv(fileobj, records: Iterable[ContractionRecord]) -> None:
    """One row per record; matrices and vectors ride along as embedded
    JSON strings so a row is self-contained."""
    w = csv.writer(fileobj, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    w.writerows(
        (r.seed_index, repr(float(r.ratio)), "true" if r.violated else "false",
         _compact_json(dump_matrix6(r.g)), _compact_json(dump_vector5(r.x)),
         _compact_json(dump_vector5(r.v)))
        for r in records
    )
