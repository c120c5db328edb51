"""Only a fixed set of functions writes into ``Graph._poly_cache``.

A function writes the cache when it touches ``<expr>._poly_cache`` in any
way but a read: ``.get(key)``, a subscript load ``[key]`` or a membership
test ``key in``.  So a store, a mutating method, binding the cache to a
name or passing it on all count as writes.  Each writer owns the keys it
fills, and a new writer has to be added to ``WRITERS`` on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pstwalk"
MODULES = sorted(SRC.glob("*.py"))

WRITERS = {
    "exactpoly.charpoly",
    "exactpoly.charpoly_deleted",
    "exactpoly._adjugate_entries",
    "exactpoly._adjacency",
    "exactpoly.sigma_classes",
    "exactpoly.walk_gf",
    "spectral.decompose",
    "spectral.projector_entry_via_neutrino",
    "graphs.Graph.__init__",
}


def _is_read(node: ast.Attribute, parent: ast.AST, grandparent: ast.AST) -> bool:
    if isinstance(parent, ast.Subscript) and parent.value is node:
        return isinstance(parent.ctx, ast.Load)
    if isinstance(parent, ast.Attribute) and parent.attr == "get":
        return isinstance(grandparent, ast.Call) and grandparent.func is parent
    if isinstance(parent, ast.Compare) and node in parent.comparators:
        return all(isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops)
    return False


def cache_writers(source: str) -> set[str]:
    """Qualified names ("Class.method", "function", "<module>") of the
    code that writes into a ``_poly_cache``, each named by its innermost
    enclosing def."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    writers = set()

    def visit(node, prefix, owner):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + sub.name
                is_def = not isinstance(sub, ast.ClassDef)
                visit(sub, name + ".", name if is_def else owner)
                continue
            if isinstance(sub, ast.Attribute) and sub.attr == "_poly_cache":
                parent = parents[sub]
                if not _is_read(sub, parent, parents.get(parent)):
                    writers.add(owner)
            visit(sub, prefix, owner)

    visit(tree, "", "<module>")
    return writers


def test_checker_tells_writes_from_reads():
    source = (
        "class G:\n"
        "    def __init__(self):\n"
        "        self._poly_cache = {}\n"
        "    def read(self, k):\n"
        "        if k in self._poly_cache and k not in self._poly_cache:\n"
        "            return self._poly_cache[k], self._poly_cache.get(k)\n"
        "\n"
        "def store(g):\n"
        "    g._poly_cache[1] = 2\n"
        "def update(g):\n"
        "    g._poly_cache.update({})\n"
        "def alias(g):\n"
        "    cache = g._poly_cache\n"
        "def passed(g):\n"
        "    f(g._poly_cache)\n"
        "def outer(g):\n"
        "    def inner():\n"
        "        g._poly_cache.setdefault(1, 2)\n"
        "    return g._poly_cache.get(1)\n"
        "del x._poly_cache[0]\n"
    )
    assert cache_writers(source) == {
        "G.__init__", "store", "update", "alias", "passed", "outer.inner", "<module>"
    }


def test_only_the_listed_functions_write_the_cache():
    found = {
        f"{path.stem}.{name}" for path in MODULES for name in cache_writers(path.read_text())
    }
    assert found == WRITERS
