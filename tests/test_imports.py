"""Every imported name is used in the file that imports it, and only the
chameleon arithmetic imports the pairing group."""

import ast
import pathlib

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
