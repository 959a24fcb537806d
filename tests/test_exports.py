"""Every public name of the package has a user.

A name exported from dualvinberg/__init__.py must be read by the package
itself (outside its own definition and the export list), by the CLI, by
an acceptance criterion, by the benchmark or by the CI pins.  A read is
a name or attribute in the code, not a mention in a docstring or
comment.  The names kept for what they are in the paper rather than for
a caller are listed in PAPER_ENTRY_POINTS, each with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dualvinberg"

PAPER_ENTRY_POINTS = (
    ("isotropy_rotation", "a generator of the group; the tests' off-chart corpus is built from it"),
    ("log_wedge", "the closed-form log on the wedge; polar_factor runs its list form"),
)


def _defined(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def _read(path) -> set[str]:
    """Names and attributes a module reads, each top-level statement
    leaving out the names it defines."""
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        reads = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
        names |= reads - _defined(stmt)
    return names


def _users() -> set[str]:
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]
    names = set().union(*map(_read, paths))
    # the pins call the package from inline Python as dv.<name> and the like
    return names | set(re.findall(r"\.(\w+)", (ROOT / ".github" / "pins.sh").read_text()))


def test_every_export_has_a_user():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    users, kept = _users(), dict(PAPER_ENTRY_POINTS)
    assert [name for name in exported if name not in kept and name not in users] == []
    # an entry point that gains a user, or leaves the API, leaves the list
    assert [name for name in kept if name not in exported or name in users] == []
