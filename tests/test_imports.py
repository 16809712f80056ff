"""Every imported name is used in the file that imports it, only the
chameleon arithmetic imports the pairing group, and every top-level def and
method in the package has a caller in it or a stated reason to stay."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = [
    path
    for folder in ("src/spchain", "tests", "perfbench")
    for path in sorted((ROOT / folder).glob("*.py"))
]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}  # bound name -> line
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exported
    ]


def test_scan_flags_unused_and_spares_used_and_exported():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from json import dumps, loads as ld\n"
        "from .x import public\n"
        "__all__ = ['public']\n"
        "print(os.sep, ld)\n"
    )
    assert unused_imports(source) == ["line 2: osp", "line 3: dumps"]


def test_no_unused_imports():
    assert SOURCES
    found = {
        str(path.relative_to(ROOT)): unused
        for path in SOURCES
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


# the pairing group's own module, the chameleon hash and the package exports
GROUP_IMPORTERS = {"group.py", "chameleon.py", "__init__.py"}


def imported_names(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_only_the_chameleon_arithmetic_imports_the_pairing_group():
    importers = {
        path.name
        for path in sorted((ROOT / "src/spchain").glob("*.py"))
        if "BilinearGroup" in imported_names(path.read_text(encoding="utf-8"))
    }
    assert importers - GROUP_IMPORTERS == set()
    assert "chameleon.py" in importers


# defs and methods with no caller in src/spchain, each with the reason it stays
UNCALLED_ALLOWED = {
    "consensus.pin": "traced by perfbench/tracing.py, which needs every target to resolve",
    "actors.share": "protocol operation: dual-control sharing between institutions",
    "actors.retrieve_history": "protocol operation: perfbench's history reads call it",
    "blocks.encode_block": "the block codec that a chain verifier (`spchain verify`) will use",
    "blocks.decode_block": "the block codec that a chain verifier (`spchain verify`) will use",
    "scheduler.SchedulerState.total_pending": "perfbench's `_scheduled` observer calls it",
}


def attribute_names(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def uncalled_defs(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function or class in ``sources``
    (module name -> source of a sibling module in one package) that no
    other top-level statement names: directly in its own module, through
    ``from .module import name [as alias]``, or as ``module.name`` after
    ``from . import module``. Also ``module.Class.method`` of each method,
    dunders aside, whose name no attribute outside its own body takes, in
    any of the modules."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = [
        (module, stmt.name)
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    referenced: set[tuple[str, str]] = set()
    for module, tree in trees.items():
        # local name -> (module, name) it is bound to; name None for a module
        bound: dict[str, tuple[str, str | None]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        bound[local] = (alias.name, None)
                    else:
                        bound[local] = (node.module, alias.name)
        for stmt in tree.body:
            itself = (module, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    target = bound.get(node.id, (module, node.id))
                    if target != itself:
                        referenced.add(target)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    owner = bound.get(node.value.id)
                    if owner is not None and owner[1] is None:
                        referenced.add((owner[0], node.attr))
    # a method is called when an attribute outside its own body names it
    everywhere = sum((attribute_names(tree) for tree in trees.values()), Counter())
    uncalled_methods = [
        f"{module}.{cls.name}.{stmt.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
        and everywhere[stmt.name] == attribute_names(stmt)[stmt.name]
    ]
    return sorted(
        [f"{m}.{n}" for m, n in defined if (m, n) not in referenced] + uncalled_methods
    )


def test_caller_scan_flags_uncalled_and_spares_called():
    sources = {
        "a": (
            "def direct(): pass\n"
            "def aliased(): pass\n"
            "def dotted(): pass\n"
            "def recursive(): return recursive()\n"
            "class Unused: pass\n"
            "def unused(): pass\n"
            "def caller(): return direct()\n"
            "class Used:\n"
            "    def __init__(self): pass\n"
            "    def called(self): pass\n"
            "    def loop(self): return self.loop()\n"
            "    def idle(self): pass\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import aliased as other\n"
            "x = other, a.dotted, unused, a.Used().called\n"
        ),
    }
    assert uncalled_defs(sources) == [
        "a.Unused", "a.Used.idle", "a.Used.loop", "a.caller", "a.recursive", "a.unused",
    ]


def test_every_def_in_the_package_has_a_caller_or_a_reason():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src/spchain").glob("*.py"))
    }
    assert uncalled_defs(sources) == sorted(UNCALLED_ALLOWED)
