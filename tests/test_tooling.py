import ast
import glob
import importlib
import importlib.util
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SPANS = os.path.join(ROOT, "perfbench", "spans.py")
SRC = os.path.join(ROOT, "src", "berkpot")


def test_traced_functions_resolve():
    # a traced benchmark run wraps every (module, function) of TARGETS by name
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{fn}" for mod, fns in spans.TARGETS.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"berkpot.{mod}"), fn, None))]
    assert not missing


def _unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # no linter ships with the project: an import the module never reads is an error
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) != "__init__.py":
            unused = _unused_imports(path)
            if unused:
                found[os.path.basename(path)] = unused
    assert not found
