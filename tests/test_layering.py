"""The package's modules import one another in one direction only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import iurkit

PACKAGE = Path(iurkit.__file__).parent

# each module may import only from modules of an earlier layer
LAYERS = [["datamodel"], ["querygen"], ["supervision"], ["metrics", "scoring"],
          ["rewrite"], ["cli", "__init__"]]
RANK = {name: i for i, layer in enumerate(LAYERS) for name in layer}


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
            if RANK[target] >= RANK[module]:
                wrong.append(f"{module}{'.' + func if func else ''} imports {target}")
    assert wrong == []


def test_no_scipy_at_run_time():
    """Importing the package and its command line loads no scipy module:
    scipy is a test-only dependency."""
    code = ("import sys, iurkit, iurkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
