import ast
import glob
import importlib
import importlib.util
import json
import os
import re
import shlex

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SPANS = os.path.join(ROOT, "perfbench", "spans.py")
SRC = os.path.join(ROOT, "src", "berkpot")
README = os.path.join(ROOT, "README.md")


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


def test_no_function_level_imports():
    # every import sits at module level: no function defers one
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
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


def test_readme_examples_run():
    # every python block of the README runs as shown; its asserts are the
    # values the prose states
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), flags=re.S | re.M)
    assert len(blocks) == 3
    for block in blocks:
        exec(compile(block, README, "exec"), {})


def test_readme_cli_commands_parse():
    # every `berkpot ...` command of the README's CLI block parses, so a
    # removed flag cannot stay documented
    from berkpot import cli

    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```\n(.*?)^```", fh.read(), flags=re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("berkpot ")]
    assert len(commands) == 8
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README command does not parse: berkpot {' '.join(argv)}") from None


def test_readme_place_json_parses():
    # every place JSON the README shows parses, so a removed kind cannot stay
    # documented
    from berkpot.places import place_from_json

    with open(README, encoding="utf-8") as fh:
        shown = re.findall(r'\{"kind":[^{}]*\}', fh.read())
    assert len(shown) >= 8
    kinds = {place_from_json(json.loads(obj)).kind for obj in shown}
    assert kinds == {"arch", "padic", "trivial", "res"}


def test_every_library_error_is_a_typed_failure():
    # sweeps.ROW_ERRORS is the one list of typed failures: every exception
    # class of the library is caught through it, and its base class gives its
    # CLI exit code (ValueError: config error; RuntimeError: numeric failure)
    from berkpot.sweeps import ROW_ERRORS

    classes = []
    names = {os.path.basename(p)[:-3] for p in glob.glob(os.path.join(SRC, "*.py"))} - {"__main__"}
    for module in map(importlib.import_module, sorted(f"berkpot.{name}" for name in names)):
        classes += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__ and not issubclass(obj, Warning)]
    assert len(classes) >= 7
    assert [c.__name__ for c in classes if not issubclass(c, ROW_ERRORS)] == []
    assert [c.__name__ for c in classes if not issubclass(c, (ValueError, RuntimeError))] == []


def _docstrings(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return [doc for node in ast.walk(tree) if isinstance(node, kinds) and (doc := ast.get_docstring(node))]


def test_cited_names_resolve():
    # every module-qualified name the docs cite, ``module.name`` in a docstring
    # and `module.name` or `berkpot.module.name` in the README, is an attribute
    # of that module: a deleted helper cannot stay documented
    modules = {os.path.basename(p)[:-3] for p in glob.glob(os.path.join(SRC, "*.py"))} - {"__init__", "__main__"}
    cited = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        for doc in _docstrings(path):
            cited += re.findall(r"``(\w+)\.(\w+)``", doc)
    with open(README, encoding="utf-8") as fh:
        cited += re.findall(r"`(?:berkpot\.)?(\w+)\.(\w+)(?:\(.*?\))?`", fh.read())
    cited = [(mod, name) for mod, name in cited if mod in modules]
    assert len(cited) > 10
    missing = sorted({f"{mod}.{name}" for mod, name in cited
                      if not hasattr(importlib.import_module(f"berkpot.{mod}"), name)})
    assert not missing


def _reads(path):
    """The names a module reads, loaded names and attribute names, each
    outside the module-level definition of the same name."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    out = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)  # a def or class does not read itself
        out |= {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)} - {own}
    return out


def test_exported_names_have_a_reader():
    # every name berkpot/__init__.py exports is read by the library outside
    # its own definition, by the acceptance suite or by the benchmark: no
    # export is kept for unit tests alone
    with open(os.path.join(SRC, "__init__.py"), encoding="utf-8") as fh:
        exported = {alias.asname or alias.name for node in ast.parse(fh.read()).body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
    paths = [p for p in glob.glob(os.path.join(SRC, "*.py")) if os.path.basename(p) != "__init__.py"]
    paths += [os.path.join(ROOT, "tests", "test_acceptance.py")] + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
    assert len(exported) > 30
    assert sorted(exported - set().union(*map(_reads, paths))) == []
