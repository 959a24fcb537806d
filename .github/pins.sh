#!/usr/bin/env bash
# CLI pins shared by the tier1 jobs: each block prints what it ran and
# stops the script on the first output that differs from its pin.
# Run from the repository root with the package installed:
#
#     bash .github/pins.sh
#
# Leaves t.json, o.json, c.json, r.json, m.json, g.json, p.json, e.json, e.out, e.err and s.csv
# in the current directory.
set -eo pipefail

echo "::group::Counterexample smoke run"
out="$(dualvinberg counterexample)"
echo "$out"
test "$out" = '{"before": 7.5, "after": 7.795727161089427, "ratio": 1.039430288145257, "violated": true}'
echo "::endgroup::"

echo "::group::Search determinism pin"
# seed 119 is the first seed >= 0 whose 1000-sample sweep holds a
# random violator (row 919), so the pin covers a sampled row too
out="$(dualvinberg search --seed 119 --samples 1000 --out s.csv)"
echo "$out"
test "$out" = '{"max_ratio": 1.039430288145257, "violation_count": 2, "n_samples": 1000}'
echo "a1ab520906ae13058f9c1bc0ad22e4e47270dcb9b28b45d6118a3feeedf23da1  s.csv" | sha256sum -c -
echo "::endgroup::"

echo "::group::Benchmark-shaped search pin"
# the CSV bytes of 200 sweeps of 32 samples at default_rng((2026, k)), the
# benchmark op's shape, where every sweep runs only the stacked pass
out="$(python -c "
import hashlib, io, numpy as np, dualvinberg as dv
from dualvinberg import serialize
h = hashlib.sha256()
for k in range(200):
    f = io.StringIO()
    serialize.write_records_csv(f, dv.search_violations(np.random.default_rng((2026, k)), 32)[0])
    h.update(f.getvalue().encode())
print(h.hexdigest())
")"
echo "$out"
test "$out" = a882b4bdd7e76c21172f5463f432fa2d1f495b645a209c54c3b0884f8448dfd4
echo "::endgroup::"

echo "::group::Derived child streams pin"
# the search derives each sample's child seed with numpy's SeedSequence
# algorithm instead of spawning it; a numpy release that changes that
# algorithm moves these maxima (int, full-width, tuple and spawned seeds)
out="$(python -c "
import numpy as np, dualvinberg as dv
rngs = (np.random.default_rng(0), np.random.default_rng(2**64 - 1), np.random.default_rng((7, 11)),
        np.random.default_rng(5).spawn(2)[1])
print([dv.search_violations(rng, 2000, include_counterexample=False)[1].max_ratio for rng in rngs])
")"
echo "$out"
test "$out" = '[0.8743966720864171, 0.8878961940397084, 0.941162143995864, 0.9189356604327709]'
echo "::endgroup::"

echo "::group::Sampler pin"
# every sampler at three spreads: the float64 bytes of 1500 draws
out="$(python -c "
import hashlib, numpy as np, dualvinberg as dv
rng, h = np.random.default_rng(2027), hashlib.sha256()
for s in (0.3, 1, 2.5):
    for _ in range(100):
        for a in (dv.sample_semigroup(rng, True, s), dv.sample_semigroup(rng, False, s), dv.sample_cone(rng, s),
                  dv.sample_positive_triangular(rng, s), dv.sample_triangular(rng, s)):
            h.update(np.asarray(a, dtype=np.float64).tobytes())
print(h.hexdigest())
")"
echo "$out"
test "$out" = e40c29f927493dd7274ac8faac74da26b87b6a37f6f99757c5661fb70eec3dd9
echo "::endgroup::"

echo "::group::Membership smoke run"
python -c "import json, dualvinberg as dv; from dualvinberg import serialize; print(json.dumps(serialize.dump_matrix6(dv.translation([1, 1, 1, 0, 0]))))" > t.json
for what in symplectic G gamma gamma-sp; do
  out="$(dualvinberg check --what "$what" t.json)"
  echo "$out"
  test "$out" = "{\"what\": \"$what\", \"result\": true}"
done
# D^T B overflows to inf on both sides of its diagonal; the NaN relation rejects
python -c "import json, numpy as np; g = np.zeros((6, 6)); g[:3, 3:] = g[3:, 3:] = 1.3e154; g[2, 5] /= 2; print(json.dumps(g.ravel().tolist()))" > o.json
out="$(dualvinberg check --what symplectic o.json)"
echo "$out"
test "$out" = '{"what": "symplectic", "result": false, "reason": "not symplectic"}'
echo "::endgroup::"

echo "::group::Closed-cone pins"
# the closed-form semidefinite rule: an overflowing pivot never accepts,
# and eigvalsh measures the rejection
echo '[1.7976931348623157e308, 0, 1, 1.7976931348623157e308, 0]' > c.json
out="$(dualvinberg check --what closed-cone --tol 0 c.json)"
echo "$out"
test "$out" = '{"what": "closed-cone", "result": false, "reason": "eigenvalue -1.111e+308 below -tol"}'
# exactly singular and semidefinite: the last pivot is 0, where eigvalsh reads -6.0e-35
echo '[0.2, 1, 0.2, 0.2, 0]' > c.json
out="$(dualvinberg check --what closed-cone --tol 0 c.json)"
echo "$out"
test "$out" = '{"what": "closed-cone", "result": true}'
echo "::endgroup::"

echo "::group::Chart-reason pins"
# one non-member per late chart check: each route names the check that fails
pin_reasons() {
  python -c "import json, numpy as np, dualvinberg as dv; from dualvinberg import serialize; print(json.dumps(serialize.dump_matrix6($1)))" > r.json
  out="$(dualvinberg check --what gamma r.json)"
  echo "$out"
  test "$out" = "{\"what\": \"gamma\", \"result\": false, \"reason\": \"$2\"}"
  out="$(dualvinberg check --what gamma-sp r.json)"
  echo "$out"
  test "$out" = "{\"what\": \"gamma-sp\", \"result\": false, \"reason\": \"$3\"}"
}
pin_reasons "dv.translation([-1, -1, -1, 0, 0])" \
  "D^T B outside the closed cone" "D^T B not positive semidefinite"
pin_reasons "dv.triple_compose(dv.TripleFactors(v=np.array([1.0, 1, 1, 0, 0]), L=np.eye(3), u=np.array([-1.0, 1])))" \
  "C D^T has a negative diagonal entry" "C D^T not positive semidefinite"
pin_reasons "dv.translation([1, 1, 1, 0, 0]) @ dv.inversion()" "det D = 0" "det D = 0"
echo "::endgroup::"

echo "::group::Tube-reason pins"
# one non-member per entry of TUBE_GROUP_REASONS, in check order: the
# identity with the listed entries of g set, or a named matrix
pin_tube() {
  python -c "
import json, numpy as np, dualvinberg as dv
from dualvinberg import serialize
g = $1
if isinstance(g, dict):
    edits, g = g, np.eye(6)
    for slot, x in edits.items():
        g[slot] = x
print(json.dumps(serialize.dump_matrix6(g)))
" > r.json
  out="$(dualvinberg check --what G r.json)"
  echo "$out"
  test "$out" = "{\"what\": \"G\", \"result\": false, \"reason\": \"$2\"}"
}
pin_tube "2 * np.eye(6)" "not symplectic"
pin_tube "dv.congruence_embed(np.array([[1.0, 1, 0], [0, 1, 0], [0, 0, 1]]))" "A off pattern"
pin_tube "dv.congruence_embed(np.diag([1.0, 1, -1]))" "A[3,3] not positive"
# [[I, 0], [C, I]] [[I, B], [0, I]] with C = E00, B = E01 + E10: D = I + E01
pin_tube "{(0, 4): 1, (1, 3): 1, (3, 0): 1, (3, 4): 1}" "D off pattern"
# the same with C = E22, B = -2 E22: D = I - 2 E22
pin_tube "{(2, 5): -2, (5, 2): 1, (5, 5): -1}" "D[3,3] not positive"
pin_tube "{(0, 4): 1, (1, 3): 1}" "B off pattern"
pin_tube "{(5, 2): 1}" "C off pattern"
echo "::endgroup::"

echo "::group::Gamma payload pin"
# a fixed member from its chart factors: v interior, L positive triangular, u > 0
python -c "import json, numpy as np, dualvinberg as dv; from dualvinberg import serialize; g = dv.triple_compose(dv.TripleFactors(v=np.array([1.0, 2, 3, 0.5, -0.5]), L=dv.triangular([1.5, 0.7, 1.2, 0.3, -0.4]), u=np.array([0.4, 0.9]))); print(json.dumps(serialize.dump_matrix6(g)))" > m.json
out="$(dualvinberg decompose --mode gamma m.json)"
echo "$out"
test "$out" = '{"mode": "gamma", "v": [1.0, 2.0, 3.0000000000000004, 0.5, -0.5], "A": [1.5000000000000002, 0.7000000000000001, 1.2000000000000004, 0.3000000000000001, -0.40000000000000024], "u": [0.4000000000000001, 0.9], "residual": 1.0396737354349295e-16}'
echo "::endgroup::"

echo "::group::Polar smoke run"
python -c "import json, dualvinberg as dv; from dualvinberg import serialize; print(json.dumps(serialize.dump_matrix6(dv.translation([1, 1, 1, 0, 0]))))" > g.json
out="$(dualvinberg polar g.json)"
echo "$out"
python -c "import json, sys; r = json.loads(sys.argv[1])['residual']; sys.exit(0 if r <= 1e-8 else 1)" "$out"
echo "::endgroup::"

echo "::group::Polar payload pin"
# a fixed interior element: unit times exp of an interior wedge generator
python -c "import json, dualvinberg as dv; from dualvinberg import serialize; g = dv.polar_compose(dv.triangular([1.5, 0.7, 1.2, 0.3, -0.4]), dv.InvariantConeElement(v=[1, 2, 3, 0.5, -0.5], u=[0.4, 0.9])); print(json.dumps(serialize.dump_matrix6(g)))" > p.json
out="$(dualvinberg polar p.json)"
echo "$out"
test "$out" = '{"mode": "polar", "A": [1.5000000000000004, 0.7, 1.2, 0.30000000000000016, -0.4000000000000001], "X": {"v": [0.9999999999999997, 2.0, 3.0000000000000004, 0.49999999999999983, -0.49999999999999994], "u": [0.3999999999999999, 0.9000000000000001]}, "residual": 1.743074218152559e-16}'
echo "::endgroup::"

echo "::group::Polar domain-error pins"
# the chart-reason subjects and a non-symplectic matrix: exit 1, nothing
# on stdout, the first failing membership check on stderr
pin_polar_domain() {
  python -c "import json, numpy as np, dualvinberg as dv; from dualvinberg import serialize; print(json.dumps(serialize.dump_matrix6($1)))" > r.json
  code=0
  dualvinberg polar r.json > e.out 2> e.err || code=$?
  echo "exit $code"
  cat e.out e.err
  test "$code" = 1
  test ! -s e.out
  test "$(cat e.err)" = "{\"status\": \"domain_error\", \"error\": \"not in the compression semigroup: $2\"}"
}
pin_polar_domain "dv.translation([-1, -1, -1, 0, 0])" "D^T B outside the closed cone"
pin_polar_domain "dv.triple_compose(dv.TripleFactors(v=np.array([1.0, 1, 1, 0, 0]), L=np.eye(3), u=np.array([-1.0, 1])))" \
  "C D^T has a negative diagonal entry"
pin_polar_domain "dv.translation([1, 1, 1, 0, 0]) @ dv.inversion()" "det D = 0"
pin_polar_domain "np.arange(36.0).reshape(6, 6)" "not symplectic"
echo "::endgroup::"

echo "::group::Polar convergence-error pin"
# a member whose closed-form factors recompose only to 5e-8: exit 3, nothing on stdout
python -c "import json, dualvinberg as dv; from dualvinberg import serialize; g = dv.translation([1e4, 1, 1e4, 10, 0]); g[0, 5] += 1e-3; print(json.dumps(serialize.dump_matrix6(g)))" > e.json
code=0
dualvinberg polar e.json > e.out 2> e.err || code=$?
echo "exit $code"
cat e.out e.err
test "$code" = 3
test ! -s e.out
test "$(cat e.err)" = '{"status": "convergence_error", "error": "polar recomposition residual 5.000e-08"}'
echo "::endgroup::"
