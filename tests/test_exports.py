"""Every exported name has a caller outside the tests.

A name in `toricdim.__all__` must be referenced in the package outside its
own definition and `__init__.py`, in a `perfbench/*.py` module, or in a
fenced code block of README.md.  Every entry point of the compiled kernel
must be called as `kernels.<name>` in the package outside `kernels.py`.
The sources are parsed, not imported, so perfbench's own imports never run
here.
"""

import ast
import re
from pathlib import Path

import toricdim

ROOT = Path(__file__).resolve().parents[1]


def _references(tree):
    """(name, line) of each name loaded, attribute read and exact string
    constant (perfbench wraps functions by their names) in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _definitions(tree) -> dict:
    """Name -> line span of each top-level function, class and assignment."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    spans[target.id] = (node.lineno, node.end_lineno)
    return spans


def _referenced_names() -> set:
    used = set()
    for path in (ROOT / "src" / "toricdim").glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        own = _definitions(tree)
        for name, line in _references(tree):
            start, end = own.get(name, (0, -1))
            if not start <= line <= end:
                used.add(name)
    for path in (ROOT / "perfbench").glob("*.py"):
        used.update(name for name, _ in _references(ast.parse(path.read_text())))
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S):
        used.update(re.findall(r"\w+", block))
    return used


def test_every_export_has_a_caller_outside_the_tests():
    unused = sorted(set(toricdim.__all__) - _referenced_names())
    assert not unused, f"exported, but only the tests use: {unused}"


def test_every_compiled_kernel_has_a_caller(fast):
    called = set()
    for path in (ROOT / "src" / "toricdim").glob("*.py"):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "kernels"):
                called.add(node.attr)
    uncalled = sorted({name for name in dir(fast) if not name.startswith("_")} - called)
    assert not uncalled, f"compiled, but no engine calls kernels.<name>: {uncalled}"
