"""Exactness guard: the package computes over GF(p) and Q with integers and
Fractions only. A float constant, true division (`/` or `/=`) or a call to
`float` anywhere under src/edgeideals/ fails here."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "edgeideals"


def _inexact_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node, f"inexact constant {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node, "true division"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node, "call to float"


def test_the_scan_catches_each_construct():
    code = "a = 0.5\nb = x / y\nc //= 2\nc /= 2\nd = float(c)\ne = 1j\n"
    found = sorted((node.lineno, why) for node, why in _inexact_nodes(ast.parse(code)))
    assert found == [(1, "inexact constant 0.5"), (2, "true division"),
                     (4, "true division"), (5, "call to float"),
                     (6, "inexact constant 1j")]


def test_package_has_no_floating_point():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{node.lineno}: {why}"
             for path in modules
             for node, why in _inexact_nodes(ast.parse(path.read_text(), str(path)))]
    assert found == []
