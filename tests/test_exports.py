"""Every name in a library module's ``__all__`` is defined in that module,
and every module attribute README.md names exists.

Nothing star-imports most modules, so a stale ``__all__`` entry would
otherwise go unnoticed until someone did; nothing runs README's prose, so
a deleted or renamed function would stay named there.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pstwalk"
MODULES = sorted(SRC.glob("*.py"))
# the modules README.md names as ``module.name``
DOCUMENTED = ("graphs", "exactpoly", "spectral", "pst", "verify", "cli")


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


def unresolved_names(markdown: str) -> list[str]:
    """The backticked ``module.name`` references in ``markdown``, outside
    fenced blocks, with a module of DOCUMENTED, whose dotted name is no
    attribute of ``pstwalk.<module>``."""
    prose = re.sub(r"^```.*?^```", "", markdown, flags=re.S | re.M)
    pattern = re.compile(rf"({'|'.join(DOCUMENTED)})\.(\w+(?:\.\w+)*)")
    missing = []
    for span in re.findall(r"`([^`]+)`", prose):
        ref = pattern.match(span)
        if ref is None:
            continue
        obj = importlib.import_module(f"pstwalk.{ref[1]}")
        for part in ref[2].split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(ref[0])
    return missing


def test_checker_flags_a_stale_readme_name():
    markdown = (
        "`exactpoly.charpoly` and `spectral.GROUPING_TOL = 1e-9` resolve,\n"
        "as does `graphs.Graph.with_loop`; `numpy.linalg` is not ours.\n"
        "```python\n"
        "`exactpoly.gone_in_a_fence`\n"
        "```\n"
        "`exactpoly.gone` and `graphs.Graph.gone` are stale.\n"
    )
    assert unresolved_names(markdown) == ["exactpoly.gone", "graphs.Graph.gone"]


def test_readme_names_resolve():
    assert unresolved_names((ROOT / "README.md").read_text()) == []
