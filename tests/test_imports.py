"""The package's own structure, read with ast from src/leibnizkit/*.py.

Every import sits at module level, and the graph of imports between the
package's modules, counting imports at any depth of the syntax tree, has
no cycle: a module never needs a late import to dodge one.  The
elimination engine takes Gaussian-integer rows only, and three functions
clear Scalars to such rows (the algebra's term accumulator, which stores
the structure constants as Gaussian integers, a sparse row and a matrix):
nothing else uses scalars.gaussian_parts or scalars.common_denominator.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "leibnizkit")


def _trees():
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                trees[name[:-3]] = ast.parse(fh.read(), name)
    return trees


def _targets(node, modules):
    """Package modules an import node names ('__init__' for the package itself)."""
    if isinstance(node, ast.Import):
        dotted = [a.name for a in node.names]
    elif node.level == 1:
        dotted = ["leibnizkit" + ("." + node.module if node.module else "")]
    elif node.level == 0:
        dotted = [node.module or ""]
    else:
        raise AssertionError("import reaches above the package: line %d" % node.lineno)
    out = set()
    for name in dotted:
        parts = name.split(".")
        if parts[0] != "leibnizkit":
            continue
        if len(parts) > 1:
            out.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            # from . import a, b: each name is a submodule or a package attribute
            out |= {a.name if a.name in modules else "__init__" for a in node.names}
        else:
            out.add("__init__")
    return out


def _graph(trees):
    return {
        module: set().union(*(_targets(node, trees) for node in ast.walk(tree)
                              if isinstance(node, (ast.Import, ast.ImportFrom)))) - {module}
        for module, tree in trees.items()
    }


def _cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}  # module -> "open" while on the DFS stack, "done" after
    stack = []

    def visit(m):
        state[m] = "open"
        stack.append(m)
        for t in sorted(graph.get(m, ())):
            if state.get(t) == "open":
                return stack[stack.index(t):] + [t]
            if t not in state:
                found = visit(t)
                if found:
                    return found
        stack.pop()
        state[m] = "done"
        return None

    for m in sorted(graph):
        if m not in state:
            found = visit(m)
            if found:
                return found
    return None


def test_package_import_graph_is_acyclic():
    graph = _graph(_trees())
    assert graph["invariants"] >= {"cohomology", "core"}
    assert "invariants" not in graph["cohomology"]
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))


def test_no_import_inside_a_function():
    late = []
    for module, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                late += ["%s.py:%d" % (module, node.lineno) for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert late == []


def _uses(trees, names):
    """(name, 'module.qualname') for each function that reads one of names."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            name = child.id if isinstance(child, ast.Name) else (
                child.attr if isinstance(child, ast.Attribute) else None)
            if name in names:
                found.add((name, ".".join([module] + scope)))
            visit(child, module, scope)

    for module, tree in trees.items():
        visit(tree, module, [])
    return found


def test_scalars_are_cleared_in_three_places():
    names = {"gaussian_parts", "common_denominator"}
    places = {"core.Algebra._accumulate", "linalg.gaussian_row", "linalg.Matrix.gaussian_columns"}
    assert _uses(_trees(), names) == {(name, place) for name in names for place in places}
