"""Every parameter is read: no function of ``src/tripletrec/*.py``, nested
ones and methods included, takes a parameter its body never loads."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tripletrec"


def unread_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter of a function or lambda in
    ``source`` that no name in its body, nested functions included, loads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}.{p}" for p in params if p not in loaded]
    return found


def test_no_function_takes_a_parameter_it_never_reads():
    # the scan itself, on each kind of parameter
    source = ("def f(a, b, /, c, *d, e, **g):\n"
              "    def h(x):\n"
              "        return a + d[0]\n"
              "    return h, (lambda y, z: y)(e, c)\n")
    assert unread_parameters(source) == ["f.b", "f.g", "h.x", "<lambda>.z"]
    paths = sorted(PACKAGE.glob("*.py"))
    assert {"data", "model", "cli"} <= {p.stem for p in paths}
    unread = {p.stem: unread_parameters(p.read_text(encoding="utf-8")) for p in paths}
    assert {module: found for module, found in unread.items() if found} == {}
