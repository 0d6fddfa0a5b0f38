"""Every name a cspasp module imports is used there or re-exported."""

import ast
from pathlib import Path

import cspasp

PACKAGE = Path(cspasp.__file__).parent

# imported but never called in its module: a profiler rebinds it there
REBOUND = {("encoder", "normalize_cardinality")}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_imported_name_is_used_or_exported():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        keep = used_names(tree) | exported_names(tree)
        unused += [
            f"{path.stem}.{name}"
            for name in imported_names(tree)
            if name not in keep and (path.stem, name) not in REBOUND
        ]
    assert unused == []
