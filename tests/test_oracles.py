"""The reference oracles stay independent of the code they check."""

import ast
import inspect
from pathlib import Path

import cspasp

ORACLES = Path(__file__).with_name("oracles.py")

# data the oracles read and build; no cspasp function may be among them
ALLOWED = {
    "Atom",
    "Lit",
    "NormalRule",
    "ChoiceRule",
    "IntegrityRule",
    "CardinalityRule",
    "GroundProgram",
    "SignedLiteral",
    "CapExceeded",
}


def test_oracles_import_only_classes_from_cspasp():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            # a bare module import would reach every function through it
            assert not any(alias.name.split(".")[0] == "cspasp" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cspasp":
            assert node.module == "cspasp", node.module
            imported += [alias.name for alias in node.names]
    assert imported, "expected the oracles to import the rule classes"
    assert set(imported) <= ALLOWED, sorted(set(imported) - ALLOWED)
    assert all(inspect.isclass(getattr(cspasp, name)) for name in imported)
