"""The package's modules use each other only through public names."""

import ast
import importlib
import types
from pathlib import Path

from wentropy import closedform

SRC = Path(__file__).resolve().parents[1] / "src" / "wentropy"


def private_reads(source: str, filename: str, namespace: dict) -> list:
    """Every underscore attribute of an imported module that ``source`` reads, as
    ``file:line: expression``.  ``namespace`` holds the module's globals, which
    tell an imported module from an imported function or class."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        name = node.value.id if isinstance(node.value, ast.Name) else None
        if name in imported and isinstance(namespace.get(name), types.ModuleType):
            found.append(f"{filename}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_module_reads_a_private_name_of_another():
    found = []
    for path in sorted(SRC.glob("*.py")):
        stem = "" if path.stem == "__init__" else f".{path.stem}"
        module = importlib.import_module(f"wentropy{stem}")
        found += private_reads(path.read_text(), path.name, vars(module))
    assert found == []


def test_private_reads_finds_what_it_guards_against():
    source = (
        "from . import closedform as cf\n"
        "from .gaussian import condition\n"
        "row = cf._PairRow\n"
        "fine = (cf.PairConditional, cf.__name__, condition._private, pc._moments)\n"
    )
    namespace = {"cf": closedform, "condition": closedform.condition}
    assert private_reads(source, "cli.py", namespace) == ["cli.py:3: cf._PairRow"]
    assert private_reads(source, "gaussian.py", namespace) == ["gaussian.py:3: cf._PairRow"]
