"""README "Tolerances" and the code agree.

A tolerance constant is a module-level assignment in ``src/pstwalk/*.py``
whose name ends in ``_TOL`` or ``THRESHOLD``.  README lists each one as
`` `module.NAME = value` `` with the value the code assigns, and lists no
other.  No other float literal below 1e-3 may appear in the code, so a
threshold cannot hide inside a function; ``verify.py`` is exempt, because
README documents the slacks of its suites.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "pstwalk").glob("*.py"))
README = ROOT / "README.md"
ENTRY = re.compile(r"`(\w+)\.(\w+) = ([^`]+)`")
SMALL = 1e-3
EXEMPT = {"verify.py"}


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
        if path.name not in EXEMPT and (lines := small_float_lines(path.read_text()))
    }
    assert found == {}
