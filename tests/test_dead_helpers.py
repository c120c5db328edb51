"""Every module-level private name in the package is read somewhere in it,
and every parameter of a function in it is read by the function.

A private name is a function, class or assigned constant at the top level
of a module whose name starts with a single underscore.  It counts as read
when the package loads it, as a bare name or as an attribute
(``xp._MAX_ORDER``), anywhere outside its own definition, so a helper that
only calls itself is still dead.  Names are matched across the package by
spelling alone.

A parameter counts as read when the function's body, nested functions
included, loads its name; ``self``, ``cls`` and names that start with an
underscore are not checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pstwalk"
MODULES = sorted(SRC.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """The module's private top-level names, each with its defining node."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found.update((name, node) for name in names if _is_private(name))
    return found


def reads(tree: ast.Module) -> list[tuple[str, ast.AST | None]]:
    """Every loaded name or attribute, with the top-level statement it sits in."""
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.append((node.id, top))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.append((node.attr, top))
    return out


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private top-level name that no code of
    ``sources`` (module name to source text) reads outside its definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = {
        (module, name): node
        for module, tree in trees.items()
        for name, node in private_definitions(tree).items()
    }
    used = set()
    for module, tree in trees.items():
        for name, top in reads(tree):
            used.update(
                key for key, node in defined.items() if key[1] == name and node is not top
            )
    return sorted(f"{module}.{name}" for module, name in defined.keys() - used)


def dead_parameters(sources: dict[str, str]) -> list[str]:
    """``module.function(parameter)`` of each parameter of a function of
    ``sources`` that the function's body never reads."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            read = {
                n.id
                for statement in node.body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            found += [
                f"{module}.{node.name}({p.arg})"
                for p in params
                if p and p.arg not in read and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")
            ]
    return sorted(found)


def test_checker_finds_unread_private_names():
    sources = {
        "a": (
            "_USED = 1\n"
            "_UNUSED: int = 2\n"
            "_PAIR_A, _PAIR_B = 3, 4\n"
            "__dunder__ = 5\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else _USED\n"
            "def _called():\n"
            "    return _PAIR_A\n"
            "class _Orphan:\n"
            "    pass\n"
            "def public():\n"
            "    return _called()\n"
        ),
        "b": "from . import a\n\nprint(a._ELSEWHERE)\n",
        "c": "_ELSEWHERE = 6\n",
    }
    assert dead_helpers(sources) == ["a._Orphan", "a._PAIR_B", "a._UNUSED", "a._recursive"]


def test_every_private_name_is_read():
    assert dead_helpers({path.stem: path.read_text() for path in MODULES}) == []


def test_checker_finds_unread_parameters():
    sources = {
        "a": (
            "def used(x, *rest, key=1, **more):\n"
            "    return x, rest, key, more\n"
            "def unread(x, seed=2, *args, flag, **kwargs):\n"
            "    return x\n"
            "def nested(x):\n"
            "    def inner():\n"
            "        return x\n"
            "    return inner\n"
            "def assigned(x):\n"
            "    x = 1\n"
            "    return x\n"
            "def defaulted(x, y=lambda: x):\n"
            "    return y\n"
            "class C:\n"
            "    def method(self, _skip, value):\n"
            "        pass\n"
            "    @classmethod\n"
            "    def make(cls):\n"
            "        return 1\n"
        ),
    }
    assert dead_parameters(sources) == [
        "a.defaulted(x)",
        "a.method(value)",
        "a.unread(args)",
        "a.unread(flag)",
        "a.unread(kwargs)",
        "a.unread(seed)",
    ]
    # the package with an unread parameter put back on one of its functions
    sources = {path.stem: path.read_text() for path in MODULES}
    clean, dead = "def suite_quotient() ->", "def suite_quotient(seed=1) ->"
    assert clean in sources["verify"]
    sources["verify"] = sources["verify"].replace(clean, dead)
    assert dead_parameters(sources) == ["verify.suite_quotient(seed)"]


def test_every_parameter_is_read():
    assert dead_parameters({path.stem: path.read_text() for path in MODULES}) == []
