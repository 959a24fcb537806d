"""Every tolerance bound has one home.

A certificate rule's threshold (a *_TOL constant or a tol argument times a
scale) is written in the rule's one function, which the one-matrix route
and the stacked mask both call.  This audit walks the package's source and
fails when such a factor is multiplied anywhere else.  The rules with a
single route keep their bound where they are; each is listed in
WRITTEN_ONCE with its reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dualvinberg"

RULE_FUNCTIONS = (
    ("group._symplectic_within", "the symplectic rule"),
    ("group._zeros_within", "the tube test's pattern rule"),
    ("linalg.is_singular3", "the singularity rule"),
    ("linalg.is_semidefinite3", "the semidefinite rule: the closed cone, D^T B and C D^T"),
    ("semigroup._leaves_pattern", "the D^T B pattern rule"),
    ("semigroup._nonnegative", "C D^T's diagonal, the factor u and the wedge's u"),
)

WRITTEN_ONCE = (
    ("cone.read_pattern", "unembed's default pattern tolerance"),
    ("cone.is_triangular_pattern", "the triangular pattern of one 3x3 factor"),
    ("group.tube_group_alt_reason", "the alternative tube route's product bounds"),
    ("group.unembed_action", "unembed at ACTION_PATTERN_TOL"),
    ("group._chart_factors", "the chart-factor refusal"),
    ("semigroup.invariant_cone_reason", "the wedge's grade and pattern checks"),
    ("semigroup.cross_check_membership", "scales tol by CROSS_CHECK_SLACK; forms no bound"),
)


def _is_tolerance(node) -> bool:
    while isinstance(node, ast.UnaryOp):  # -tol * (1 + s)
        node = node.operand
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name == "tol" or name.endswith("_TOL")


def tolerance_products(module: str, source: str) -> list[str]:
    """module.function:line of every product with a tolerance factor, the
    function being the top-level one that holds it (<module> outside any)."""
    found = []
    for stmt in ast.parse(source).body:
        scope = f"{module}.{getattr(stmt, 'name', '<module>')}"
        for node in ast.walk(stmt):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                factors = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
                factors = (node.target, node.value)
            else:
                continue
            if any(map(_is_tolerance, factors)):
                found.append(f"{scope}:{node.lineno}")
    return found


def _package_products() -> list[str]:
    paths = sorted(PACKAGE.glob("*.py"))
    return [p for path in paths for p in tolerance_products(path.stem, path.read_text())]


def test_tolerance_bounds_live_in_the_rule_functions():
    allowed = dict(RULE_FUNCTIONS + WRITTEN_ONCE)
    products = _package_products()
    assert [p for p in products if p.split(":")[0] not in allowed] == []
    # an entry whose function no longer multiplies a tolerance leaves the list
    assert sorted(set(allowed) - {p.split(":")[0] for p in products}) == []


def test_each_rule_function_writes_its_bound_once():
    scopes = [p.split(":")[0] for p in _package_products()]
    assert [name for name, _ in RULE_FUNCTIONS if scopes.count(name) != 1] == []


def test_the_audit_flags_a_bound_written_outside_the_rules():
    planted = """
def rogue_reason(m, tol):
    return abs(m) > tol * (1.0 + abs(m))

def _zeros_within(zeros, scale):
    return max(zeros) <= -PATTERN_TOL * (1.0 + scale)

LIMIT = cone.SYMPLECTIC_TOL * 2.0

def scaled(bound, tol):
    bound *= tol
    return bound
"""
    found = tolerance_products("metric", planted)
    assert found == ["metric.rogue_reason:3", "metric._zeros_within:6", "metric.<module>:8",
                     "metric.scaled:11"]
    # a rule function's name in another module is no rule function
    assert not set(dict(RULE_FUNCTIONS + WRITTEN_ONCE)) & {p.split(":")[0] for p in found}
