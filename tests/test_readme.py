"""README's library tour runs as written, and each result it states in a
comment holds."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.S).group(1)


def test_the_library_tour_runs_and_its_commented_results_hold():
    source = _tour()
    lines = source.splitlines()
    ns: dict = {}
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module(body=[node], type_ignores=[]), "README", "exec"), ns)
            continue
        value = eval(compile(ast.Expression(body=node.value), "README", "eval"), ns)
        try:  # a comment that is a Python literal states the result
            want = ast.literal_eval(lines[node.end_lineno - 1].partition("#")[2].strip())
        except (ValueError, SyntaxError):
            continue
        assert value == want
        checked.append(ast.get_source_segment(source, node))
    assert checked == [
        "dv.in_open_cone(x)",
        "dv.in_compression_semigroup(g)",
        "rec.ratio, rec.violated",
    ]
