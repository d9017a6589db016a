"""No module of the package mutates module state at run time."""

import ast
from pathlib import Path

import polymoment

SRC = Path(polymoment.__file__).resolve().parent


def test_no_global_statement_or_setattr():
    # tolerances and other settings travel as arguments; a `global` statement
    # or a builtin setattr on a module would bring back state shared by jobs
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Global) or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "setattr"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found
