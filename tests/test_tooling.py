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


def _is_infinity(node):
    """NEG_INF, POS_INF, math.inf or float("inf"), possibly negated."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Name):
        return node.id in ("NEG_INF", "POS_INF")
    if isinstance(node, ast.Attribute):
        return node.attr == "inf" and isinstance(node.value, ast.Name) and node.value.id == "math"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
            and len(node.args) == 1 and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).strip().lower().lstrip("+-") in ("inf", "infinity"))


def test_infinities_are_compared_only_in_places():
    # at exact places +/-inf are the only float log values: places.is_neg_inf,
    # is_pos_inf and is_inf test the type first, so an exact Fraction is never
    # compared with a float; numpy masks use np.isneginf / np.isinf
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "places.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for k, op in enumerate(node.ops):
                if isinstance(op, (ast.Eq, ast.NotEq)) and (
                        _is_infinity(operands[k]) or _is_infinity(operands[k + 1])):
                    found.append(f"{os.path.basename(path)}:{node.lineno}")
    assert not found
