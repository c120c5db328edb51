"""No library module reads ``.projectors`` or calls ``.reconstruct()``.

Both build d n x n matrices (d distinct eigenvalues) anew on every access,
O(n^3) memory on a simple spectrum.  The library reads projector entries
from rows of ``SpectralDecomposition.vectors`` instead; the on-demand
matrices are for callers outside the package (README, demos, tests).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pstwalk"
MODULES = sorted(SRC.glob("*.py"))
ON_DEMAND = {"projectors", "reconstruct"}


def on_demand_reads(source: str) -> list[str]:
    """Attribute reads of an on-demand projector build, with their lines."""
    return sorted(
        f".{node.attr} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ON_DEMAND
    )


def test_checker_flags_projector_reads():
    source = (
        "class D:\n"
        "    @property\n"
        "    def projectors(self):\n"
        "        return ()\n\n"
        "    def reconstruct(self):\n"
        "        return self.vectors\n\n"
        "def f(dec):\n"
        "    return dec.projectors[0], dec.reconstruct(), dec.vectors\n"
    )
    assert on_demand_reads(source) == [".projectors (line 10)", ".reconstruct (line 10)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_reads_no_projector_matrices(path):
    assert on_demand_reads(path.read_text()) == []
