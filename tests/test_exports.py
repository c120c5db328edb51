"""Every name in a library module's ``__all__`` is defined in that module.

Nothing star-imports most modules, so a stale ``__all__`` entry would
otherwise go unnoticed until someone did.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pstwalk"
MODULES = sorted(SRC.glob("*.py"))


def undefined_exports(source: str) -> list[str]:
    """Names listed in ``__all__`` that no top-level statement binds."""
    tree = ast.parse(source)
    bound: set[str] = set()
    exported: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return sorted(name for name in exported if name not in bound)


def test_checker_flags_a_stale_export():
    source = (
        "from math import pi\n"
        "import numpy as np\n"
        '__all__ = ["pi", "np", "TOL", "f", "C", "gone"]\n'
        "TOL = 1e-9\n"
        "def f():\n"
        "    inner = 1\n"
        "    return inner\n"
        "class C:\n"
        "    pass\n"
        "if TOL:\n"
        "    gone = 2\n"
    )
    assert undefined_exports(source) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    assert undefined_exports(path.read_text()) == []
