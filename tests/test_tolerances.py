"""README "Tolerances" and the code agree.

A tolerance constant is a module-level assignment in ``src/pstwalk/*.py``
whose name ends in ``_TOL`` or ``THRESHOLD``.  README lists each one as
`` `module.NAME = value` `` with the value the code assigns, and lists no
other.  No other float literal below 1e-3 may appear in the code, so a
threshold cannot hide inside a function, and inside its module each
constant is read by exactly one function, so each is applied in one place.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "pstwalk").glob("*.py"))
README = ROOT / "README.md"
ENTRY = re.compile(r"`(\w+)\.(\w+) = ([^`]+)`")
SMALL = 1e-3


def is_tolerance(name: str) -> bool:
    return name.endswith("_TOL") or name.endswith("THRESHOLD")


def module_constants(source: str) -> dict[str, float]:
    """Tolerance constants assigned at module level, with their values."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and is_tolerance(target.id):
                    found[target.id] = ast.literal_eval(node.value)
    return found


def small_float_lines(source: str) -> list[int]:
    """Lines holding a float literal in (0, SMALL) outside a module-level
    assignment."""
    lines = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and type(sub.value) is float and 0 < sub.value < SMALL:
                lines.append(sub.lineno)
    return lines


def tolerance_readers(source: str) -> dict[str, set[str]]:
    """For each tolerance constant of the module, the functions that read
    it, each named by its innermost enclosing def ("<module>" outside any)."""
    constants = set(module_constants(source))
    readers: dict[str, set[str]] = {name: set() for name in constants}

    def visit(node, owner):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(sub, getattr(sub, "name", "<lambda>"))
                continue
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id in constants:
                readers[sub.id].add(owner)
            visit(sub, owner)

    visit(ast.parse(source), "<module>")
    return readers


def readme_constants(text: str) -> dict[str, float]:
    """`module.NAME = value` entries of the "Tolerances" section."""
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    return {f"{mod}.{name}": float(value) for mod, name, value in ENTRY.findall(section)}


def code_constants() -> dict[str, float]:
    return {
        f"{path.stem}.{name}": value
        for path in MODULES
        for name, value in module_constants(path.read_text()).items()
    }


def test_checkers_read_what_they_should():
    source = "A_TOL = 1e-6\nB_THRESHOLD = 0.5\nOTHER = 3\n\ndef f():\n    C_TOL = 1\n"
    assert module_constants(source) == {"A_TOL": 1e-6, "B_THRESHOLD": 0.5}
    readme = (
        "# x\n\n## Tolerances\n\n- `m.A_TOL = 1e-7`: drifted.\n- `m.GONE_TOL = 1`\n\n"
        "## Next\n\n- `m.B_THRESHOLD = 9`\n"
    )
    assert readme_constants(readme) == {"m.A_TOL": 1e-7, "m.GONE_TOL": 1.0}
    code = "A_TOL = 1e-6\n\ndef f(x=1e-9):\n    return x < -5e-4 or x > 1e-3 or x == 0.0\n"
    assert small_float_lines(code) == [3, 4]
    code = (
        "A_TOL = 1e-6\nB_TOL = 1e-7\nC_TOL = 1\nX = A_TOL\n\n"
        "def f(x):\n    A_TOL\n    return B_TOL + (lambda: C_TOL)()\n\n"
        "def g():\n    def h():\n        return B_TOL\n    return h\n"
    )
    assert tolerance_readers(code) == {
        "A_TOL": {"<module>", "f"},
        "B_TOL": {"f", "h"},
        "C_TOL": {"<lambda>"},
    }


def test_every_tolerance_is_listed_with_its_value():
    listed = readme_constants(README.read_text())
    code = code_constants()
    assert code
    assert {name: listed.get(name) for name in code} == code


def test_every_listed_tolerance_exists():
    assert sorted(set(readme_constants(README.read_text())) - set(code_constants())) == []


def test_no_small_float_outside_module_constants():
    found = {
        path.name: lines
        for path in MODULES
        if (lines := small_float_lines(path.read_text()))
    }
    assert found == {}


def test_each_tolerance_is_read_by_one_function():
    found = {
        f"{path.stem}.{name}": sorted(owners)
        for path in MODULES
        for name, owners in tolerance_readers(path.read_text()).items()
        if len(owners) != 1
    }
    assert found == {}
