import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualvinberg as dv
from dualvinberg import serialize
from dualvinberg.metric import ContractionRecord

from conftest import (
    load_pair,
    load_polar,
    load_semigroup_factors,
    load_triangular,
    load_triple_factors,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite, min_size=5, max_size=5))
def test_vector5_json_round_trip_is_lossless(values):
    wire = json.loads(json.dumps(serialize.dump_vector5(values)))
    assert np.array_equal(serialize.load_vector5(wire), np.array(values))


@settings(max_examples=100, deadline=None)
@given(st.lists(finite, min_size=36, max_size=36))
def test_matrix6_json_round_trip_is_lossless(values):
    g = np.array(values).reshape(6, 6)
    wire = json.loads(json.dumps(serialize.dump_matrix6(g)))
    assert np.array_equal(serialize.load_matrix6(wire), g)


@settings(max_examples=100, deadline=None)
@given(st.lists(finite, min_size=5, max_size=5))
def test_triangular_round_trip(params):
    wire = serialize.dump_triangular(load_triangular(params))
    assert wire == [float(p) for p in params]


def test_pair_round_trip():
    assert np.array_equal(load_pair(serialize.dump_pair(np.array([1.5, -2.5]))), [1.5, -2.5])


@pytest.mark.parametrize(
    "loader,bad",
    [
        (serialize.load_vector5, [1, 2, 3]),
        (serialize.load_vector5, "not a list"),
        (serialize.load_vector5, [1, 2, 3, 4, "x"]),
        (serialize.load_matrix6, list(range(35))),
        (load_pair, [1.0]),
        (load_triangular, {"a": 1}),
        (load_triple_factors, {"v": [0] * 5, "L": [1, 1, 1, 0, 0]}),
        (load_polar, {"A": [1, 1, 1, 0, 0], "X": [0] * 7}),
        (load_triple_factors, [1, 2, 3]),
        (load_semigroup_factors, {"v": [0] * 5}),
        (load_polar, {"A": [1, 1, 1, 0, 0]}),
        # JSON strings and booleans are not numbers
        (serialize.load_vector5, ["1", True, "1e0", 0, 0]),
        (serialize.load_vector5, [1, 1, 1, 0, "0"]),
        (serialize.load_vector5, [1, 1, 1, 0, False]),
        # an integer literal beyond the float range
        (serialize.load_vector5, [1, 1, 1, 0, 10**400]),
    ],
)
def test_loaders_reject_malformed_input(loader, bad):
    with pytest.raises(ValueError):
        loader(bad)


def test_factor_records_round_trip():
    rng = np.random.default_rng(80)
    f = dv.triple_decompose(dv.sample_semigroup(rng, interior=True))
    f2 = load_triple_factors(json.loads(json.dumps(serialize.dump_triple_factors(f))))
    assert np.array_equal(f2.v, f.v)
    assert np.array_equal(f2.L, f.L)
    assert np.array_equal(f2.u, f.u)

    sf = dv.compression_factors(dv.sample_semigroup(rng, interior=True))
    sf2 = load_semigroup_factors(json.loads(json.dumps(serialize.dump_semigroup_factors(sf))))
    assert np.array_equal(sf2.v, sf.v)
    assert np.array_equal(sf2.L, sf.L)
    assert np.array_equal(sf2.u, sf.u)

    A, X = dv.polar_factor(dv.sample_semigroup(rng, interior=True, sigma=0.6))
    A2, X2 = load_polar(json.loads(json.dumps(serialize.dump_polar(A, X))))
    assert np.array_equal(A2, A)
    assert np.array_equal(X2.v, X.v)
    assert np.array_equal(X2.u, X.u)


def test_dump_summary_shape():
    _, summary = dv.search_violations(np.random.default_rng(0), 3)
    wire = serialize.dump_summary(summary)
    assert set(wire) == {"max_ratio", "violation_count", "n_samples"}
    assert wire["n_samples"] == 3
    assert isinstance(wire["max_ratio"], float)
    assert isinstance(wire["violation_count"], int)


def test_records_csv_layout_and_round_trip():
    rec = dv.counterexample()
    buf = io.StringIO()
    serialize.write_records_csv(buf, [rec])
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == "seed_index,ratio,violated,g_json,x_json,v_json"
    assert text.endswith("\n")

    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 2
    row = rows[1]
    assert row[0] == "0"
    assert float(row[1]) == rec.ratio  # repr round trip is exact
    assert row[2] == "true"
    assert np.array_equal(serialize.load_matrix6(json.loads(row[3])), rec.g)
    assert np.array_equal(serialize.load_vector5(json.loads(row[4])), rec.x)
    assert np.array_equal(serialize.load_vector5(json.loads(row[5])), rec.v)


def test_records_csv_false_flag_and_seed_column():
    rec = ContractionRecord(
        g=np.eye(6),
        x=dv.IDENTITY_POINT,
        v=np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
        ratio=1.0,
        violated=False,
        seed_index=7,
    )
    buf = io.StringIO()
    serialize.write_records_csv(buf, [rec])
    row = buf.getvalue().split("\n")[1]
    assert row.startswith("7,1.0,false,")
