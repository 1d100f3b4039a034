"""The package's modules import one another in one direction only."""

import ast
from pathlib import Path

import iurkit

PACKAGE = Path(iurkit.__file__).parent

# each module may import only from modules of an earlier layer
LAYERS = [["datamodel"], ["querygen"], ["supervision"], ["metrics", "scoring"],
          ["rewrite"], ["cli", "__init__"]]
RANK = {name: i for i, layer in enumerate(LAYERS) for name in layer}

# (module, enclosing function, imported module) allowed to point up a layer:
# exact-match accuracy decodes with the rewrite path
EXCEPTIONS = {("scoring", "train_em", "rewrite")}


def _imports(tree: ast.Module):
    """(enclosing function or None, imported iurkit module) for every
    import in ``tree``, function-level ones included."""
    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                yield func, node.module.split(".")[0]
            elif node.level == 1 or node.module == "iurkit":
                yield from ((func, a.name) for a in node.names)
            elif node.module and node.module.startswith("iurkit."):
                yield func, node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            yield from ((func, a.name.split(".")[1]) for a in node.names
                        if a.name.startswith("iurkit."))
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    yield from visit(tree, None)


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(RANK)


def test_imports_point_down_the_layers():
    wrong = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for func, target in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            if RANK[target] >= RANK[module] and (module, func, target) not in EXCEPTIONS:
                wrong.append(f"{module}{'.' + func if func else ''} imports {target}")
    assert wrong == []
