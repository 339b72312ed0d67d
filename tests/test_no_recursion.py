"""No function of the package calls itself, directly or through others.

Every pass over a tree is a fold or a walk with an explicit stack, so the
depth of an input is bounded by memory, not by the recursion limit.  This
test parses each module of ``src/opideals`` with ``ast``, builds the call
graph of its functions by name and asserts that it has no cycle.  A call
``f(...)`` resolves to a function defined in an enclosing function or in the
module, or to the function an ``from .m import f`` names, at module level
or inside a function; ``alias.f(...)`` resolves through ``from . import m
as alias``, and ``self.f(...)`` to a method of the enclosing class.  Calls
through values, such as a rule taken from a table, are not edges.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "opideals"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(node: ast.AST):
    """The nodes under ``node`` that belong to its scope: nested defs and classes are yielded, not entered."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, (*DEFS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(n))


def scope_names(node: ast.AST, module: str, prefix: str) -> dict[str, str]:
    """Name -> "module.qualname" of the functions a scope defines, or "module:m" for a module it imports."""
    names = {}
    for n in own_nodes(node):
        if isinstance(n, DEFS):
            names[n.name] = f"{module}.{prefix}{n.name}"
        elif isinstance(n, ast.ImportFrom) and n.level == 1:
            for alias in n.names:
                names[alias.asname or alias.name] = f"{n.module}.{alias.name}" if n.module else f"module:{alias.name}"
    return names


def functions(node, module, prefix, chain, cls, out):
    """(name, def, enclosing scopes, class prefix) of every function under ``node``."""
    for n in own_nodes(node):
        if isinstance(n, ast.ClassDef):
            functions(n, module, f"{prefix}{n.name}.", chain, f"{prefix}{n.name}.", out)
        elif isinstance(n, DEFS):
            qual = f"{prefix}{n.name}"
            inner = [*chain, scope_names(n, module, f"{qual}.")]
            out.append((f"{module}.{qual}", n, inner, cls))
            functions(n, module, f"{qual}.", inner, None, out)
    return out


def resolve(func: ast.expr, module: str, chain: list[dict[str, str]], cls: str | None) -> str | None:
    def lookup(name):
        return next((scope[name] for scope in reversed(chain) if name in scope), None)

    if isinstance(func, ast.Name):
        target = lookup(func.id)
        return None if target is None or target.startswith("module:") else target
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "self" and cls is not None:
            return f"{module}.{cls}{func.attr}"
        target = lookup(func.value.id)
        if target is not None and target.startswith("module:"):
            return f"{target[len('module:'):]}.{func.attr}"
    return None


def call_graph() -> dict[str, set[str]]:
    """"module.qualname" of each function -> those of the functions it calls by name."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, fn, chain, cls in functions(tree, module, "", [scope_names(tree, module, "")], None, []):
            calls = (resolve(n.func, module, chain, cls) for n in own_nodes(fn) if isinstance(n, ast.Call))
            graph[name] = {c for c in calls if c is not None}
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a path that ends where it starts, or None; a DFS with an explicit stack."""
    state: dict[str, str] = {}  # "open" while on the path, "done" after
    for root in graph:
        if root in state:
            continue
        state[root], path, stack = "open", [root], [iter(sorted(graph[root]))]
        while stack:
            for w in stack[-1]:
                if state.get(w) == "open":
                    return path[path.index(w):] + [w]
                if w not in state:
                    state[w] = "open"
                    path.append(w)
                    stack.append(iter(sorted(graph.get(w, ()))))
                    break
            else:
                state[path.pop()] = "done"
                stack.pop()
    return None


def test_the_call_graph_has_no_cycle():
    graph = call_graph()
    cycle = find_cycle(graph)
    assert cycle is None, " -> ".join(cycle)
    # the graph sees calls across modules, imports inside functions and methods
    assert "sequences.fold" in graph["ideals.reduce_ideal"]
    assert "grammar.node_repr" in graph["sequences.Node.__repr__"]
    assert "grammar._Parser.number" in graph["grammar._Parser.argument"]


def test_a_cycle_is_found():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"a"}}) == ["a", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
