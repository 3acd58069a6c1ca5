import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "spans.py")


def test_traced_functions_resolve():
    # a traced benchmark run wraps every (module, function) of TARGETS by name
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{fn}" for mod, fns in spans.TARGETS.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"berkpot.{mod}"), fn, None))]
    assert not missing
