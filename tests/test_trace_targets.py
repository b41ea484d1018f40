"""The benchmark's trace wraps module-level functions by name
(`TARGETS` in perfbench/spans.py); each must exist and be its own object,
or the per-layer spans break or nest twice around one call."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets() -> dict:
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS in perfbench/spans.py")


def test_trace_targets_resolve_to_distinct_callables():
    targets = _targets()
    assert targets
    seen = {}
    for name, (modname, attr) in targets.items():
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name
        assert id(owner) not in seen, f"{name} is the same object as {seen.get(id(owner))}"
        seen[id(owner)] = name
