"""Source scans of the library: every name a module imports is used in
that module, ``numpy.linalg.eigh`` runs in one function only and no other
LAPACK eigen routine is named, one function reads the primes of the modular
charpoly, only the pair reader and the eigenvalue means sum over
eigenspaces, one function names ``numbers.Integral``, one function refuses
non-integer weights for the exact layer, one function forms a
resolvent numerator, and no module but ``pst`` names the fidelity
evaluator.

The import scan skips ``__init__.py``: its imports are the package's public
names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pstwalk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, with their lines."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nprint(np.pi, sep)\n"
    assert unused_imports(source) == ["math (line 1)", "path (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def name_scopes(source: str, name: str) -> list[str]:
    """The innermost function around each read of ``name`` (a bare name, an
    attribute or an imported name), or ``<module>`` outside every function."""
    found = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (
                (isinstance(child, ast.Attribute) and child.attr == name)
                or (isinstance(child, ast.alias) and child.name == name)
                or (isinstance(child, ast.Name) and child.id == name)
            ):
                found.append(scope)
            visit(child, child.name if isinstance(child, functions) else scope)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_finds_every_eigh():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "def f(m):\n    return np.linalg.eigh(m)\n"
        "def g(m):\n    def h():\n        return np.linalg.eigvalsh(m)\n"
        "    return h, np.linalg.eigh\n"
    )
    assert name_scopes(source, "eigh") == ["<module>", "f", "g"]
    assert eigen_scopes(source) == ["eigh in <module>", "eigh in f", "eigh in g", "eigvalsh in h"]


# numpy's dense symmetric and general eigen routines
EIGEN_ROUTINES = ("eigh", "eigvalsh", "eigvals", "eig")


def eigen_scopes(source: str) -> list[str]:
    """``name_scopes`` of every eigen routine, as "routine in scope"."""
    return [f"{name} in {scope}" for name in EIGEN_ROUTINES for scope in name_scopes(source, name)]


def test_one_function_runs_eigh():
    # the one numeric engine: every decomposition, of a graph (a stack of
    # one) or of a stack of composites, and every eigenvalue list of the
    # interlacing checks goes through spectral.eigenspaces
    found = [
        f"{p.stem}.{scope}" for p in sorted(SRC.glob("*.py")) for scope in eigen_scopes(p.read_text())
    ]
    assert found == ["spectral.eigh in eigenspaces"]


@pytest.mark.parametrize(
    "call", ["np.linalg.eigvalsh(m)", "np.linalg.eigvals(m)", "np.linalg.eig(m)[0]"]
)
def test_checker_finds_a_second_eigen_routine(call):
    # the real module with one more function that calls LAPACK itself
    source = (SRC / "verify.py").read_text()
    mutated = source + f"\n\ndef leak(m):\n    return {call}\n"
    name = call.split(".")[-1].split("(")[0]
    assert eigen_scopes(source) == []
    assert eigen_scopes(mutated) == [f"{name} in leak"]


def test_checker_finds_a_second_reader_of_the_primes():
    # the real module with one more function that reads the primes
    source = (SRC / "exactpoly.py").read_text()
    mutated = source + "\n\ndef leak():\n    return xp._primes()[0]\n"
    assert name_scopes(source, "_primes") == ["_charpoly_of_rows"]
    assert name_scopes(mutated, "_primes") == ["_charpoly_of_rows", "leak"]


def test_one_function_reads_the_primes():
    # only charpoly works modulo primes: both of its kernels take a prime
    # from _charpoly_of_rows, and the sigma route reads no prime, no CRT
    found = [
        f"{p.stem}.{scope}"
        for p in sorted(SRC.glob("*.py"))
        for scope in name_scopes(p.read_text(), "_primes")
    ]
    assert found == ["exactpoly._charpoly_of_rows"]


def test_checker_finds_a_second_eigenspace_sum():
    # the real module with one more function that sums eigenvector rows
    source = (SRC / "pst.py").read_text()
    mutated = source + (
        "\n\ndef leak(dec, a, b):\n"
        "    return np.add.reduceat(dec.vectors[a] * dec.vectors[b], dec.starts)\n"
    )
    assert name_scopes(source, "reduceat") == []
    assert name_scopes(mutated, "reduceat") == ["leak"]


def test_one_reader_sums_over_eigenspaces():
    # every number of a vertex pair is a sum over an eigenspace of a product
    # of two eigenvector rows, made by spectral.read_pairs alone; the only
    # other eigenspace sum is the eigenvalue means of spectral.eigenspaces
    found = {
        f"{p.stem}.{scope}"
        for p in sorted(SRC.glob("*.py"))
        for scope in name_scopes(p.read_text(), "reduceat")
    }
    assert found == {"spectral.eigenspaces", "spectral.read_pairs"}


def test_checker_finds_a_second_integer_test():
    # the real module with one more function that tests for an integer itself
    source = (SRC / "pst.py").read_text()
    mutated = source + "\n\ndef leak(x):\n    return isinstance(x, numbers.Integral)\n"
    assert name_scopes(source, "Integral") == []
    assert name_scopes(mutated, "Integral") == ["leak"]


def test_one_function_names_numbers_integral():
    # one integer rule: every vertex, count, bridge and weight reads
    # graphs._is_integer, so a bool or a float is refused the same way
    # everywhere
    found = [
        f"{p.stem}.{scope}"
        for p in sorted(SRC.glob("*.py"))
        for scope in name_scopes(p.read_text(), "Integral")
    ]
    assert found == ["graphs._is_integer"]


# the exact layer's refusal of non-integer weights, raised by Graph._check_integer
INTEGER_REFUSAL = "the exact layer needs integer weights"


def text_scopes(source: str, text: str) -> list[str]:
    """The innermost function around each string literal that contains
    ``text``, or ``<module>`` outside every function."""
    found = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                if text in child.value:
                    found.append(scope)
            visit(child, child.name if isinstance(child, functions) else scope)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_finds_a_second_integer_refusal():
    # the real modules with one more function that tests the weights itself
    source = (SRC / "pst.py").read_text()
    flag = source + "\n\ndef leak(g):\n    return g.integer_flag\n"
    refusal = source + (
        "\n\ndef leak(g):\n"
        f"    raise ValueError('graph has non-integer weights; {INTEGER_REFUSAL}')\n"
    )
    assert name_scopes(source, "integer_flag") == text_scopes(source, INTEGER_REFUSAL) == []
    assert name_scopes(flag, "integer_flag") == ["leak"]
    assert text_scopes(refusal, INTEGER_REFUSAL) == ["leak"]


def test_one_refusal_of_non_integer_weights():
    # the exact layer's two readers of exact weights, Graph.int_matrix and
    # exactpoly._adjacency, call Graph._check_integer, and no entrance of the
    # exact layer, the certificate or the CLI tests the weights itself
    flags = [
        f"{stem}.{scope}"
        for stem in ("cli", "exactpoly", "pst")
        for scope in name_scopes((SRC / f"{stem}.py").read_text(), "integer_flag")
    ]
    assert flags == []
    refusals = [
        f"{p.stem}.{scope}"
        for p in sorted(SRC.glob("*.py"))
        for scope in text_scopes(p.read_text(), INTEGER_REFUSAL)
    ]
    assert refusals == ["graphs._check_integer"]
    readers = [
        f"{p.stem}.{scope}"
        for p in sorted(SRC.glob("*.py"))
        for scope in name_scopes(p.read_text(), "_check_integer")
    ]
    assert readers == ["exactpoly._adjacency", "graphs.int_matrix"]


def test_one_function_forms_resolvent_numerators():
    # a key's numerator N over the minimal polynomial of e_v (walk_gf) and an
    # adjugate entry over phi(G) (the entry of _adjugate_entries) are one
    # convolution, exactpoly._numerator
    found = [
        f"{p.stem}.{scope}"
        for p in sorted(SRC.glob("*.py"))
        for scope in name_scopes(p.read_text(), "_numerator")
    ]
    assert found == ["exactpoly.entry", "exactpoly.walk_gf"]


def test_one_fidelity_evaluator():
    # every fidelity, at one time, over a scan or under the scan bound, is a
    # grid of pst._peak, so the bound and the scans it settles read alike
    found = {
        f"{p.stem}.{scope}"
        for p in sorted(SRC.glob("*.py"))
        for scope in name_scopes(p.read_text(), "_peak")
    }
    assert found == {"pst.phase_fidelity", "pst.scan_bounds", "pst.scan_phases"}
