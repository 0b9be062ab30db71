"""The package's modules import one another in one direction: the relative
imports of ``src/tripletrec/*.py``, function-level ones included, form no
cycle (data -> nn -> model -> train -> evaluate -> cli)."""

import ast
import graphlib
import importlib
from pathlib import Path

import tripletrec

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tripletrec"


def relative_imports(path: Path, modules: set[str]) -> set[str]:
    """The package modules that ``path`` imports relatively. ``from . import
    x`` names module x when x.py exists, and the package's ``__init__``
    otherwise; ``from .x import y`` names module x."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        assert node.level == 1, f"{path.name}: import from outside the package"
        if node.module is not None:
            found.add(node.module.split(".")[0])
        else:
            found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found


def import_graph() -> dict[str, set[str]]:
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {p.stem for p in paths}
    return {p.stem: relative_imports(p, modules) for p in paths}


def test_the_graph_covers_the_package():
    graph = import_graph()
    assert {"data", "nn", "model", "train", "evaluate", "cli", "__init__"} <= graph.keys()
    assert all(target in graph for targets in graph.values() for target in targets)


def test_relative_imports_form_no_cycle():
    try:
        order = list(graphlib.TopologicalSorter(import_graph()).static_order())
    except graphlib.CycleError as e:
        raise AssertionError(f"import cycle: {' -> '.join(e.args[1])}") from None
    assert order.index("train") < order.index("evaluate") < order.index("cli")


def test_no_package_attribute_shadows_a_module():
    """``import tripletrec.x as X`` binds the package's attribute x, so a
    re-export named after a module would stand in for the module there."""
    import tripletrec.train as T

    assert T is importlib.import_module("tripletrec.train")
    for name in import_graph().keys() - {"__init__"}:
        module = importlib.import_module(f"tripletrec.{name}")
        assert getattr(tripletrec, name) is module, name
