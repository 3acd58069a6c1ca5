"""Span tracing for the benchmark's traced runs.

Wrappers are installed from the benchmark's own files, at every binding
site of a traced function in the loaded ``berkpot.*`` modules: the modules
import names directly (``sweeps.integrate``, ``measures.lambda_limit``), so
patching only the defining module would miss most calls.

Each call records one span (function id, parent span, start, end) in flat
arrays kept in memory; ``Tracer.summary`` derives calls and self time from
them, and ``Tracer.save`` writes them out.  Self time is a span's duration
minus the durations of its child spans: calls are synchronous and
single-threaded, so children never overlap each other.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function) pairs that are wrapped; every public entry point the
# layer table of the benchmark note names, plus the resultant elimination
TARGETS = {
    "places": ["abs_log_value"],
    "points": ["eval_log_abs", "build_skeleton"],
    "polys": ["taylor_shift", "exact_solve", "exact_det"],
    "graphs": ["graph_laplacian"],
    "rmaps": ["preimages_arch", "apply_point"],
    "green": ["lambda_limit", "deviation_bound", "contraction_ratios"],
    "measures": ["equilibrium_arch", "pullback_measure", "integrate",
                 "equilibrium_nonarch", "energy_pairing"],
    "affable": ["affable_eval", "mass_bound", "restrict_to_skeleton"],
    "battery": ["standard_battery", "load_battery"],
    "sweeps": ["sweep_equilibrium", "sweep_chi"],
    "cli": ["main"],
}


def _lambda_limit(counts, state):
    counts["green.lambda_limit.n_used_sum"] += state.n_used
    counts["green.lambda_limit.exact"] += state.certificate == "exact"


def _preimages(counts, pre):
    counts["rmaps.preimages_arch.flagged"] += bool(pre.flagged)


def _equilibrium_arch(counts, mu):
    counts["measures.equilibrium_arch.atoms"] += len(mu.atoms)


def _equilibrium_nonarch(counts, result):
    mu, _report = result
    counts["measures.equilibrium_nonarch.negative_atoms"] += sum(1 for _, w in mu.atoms if w < 0)


def _restrict(counts, result):
    _u, inserted = result
    counts["affable.restrict_to_skeleton.kinks"] += len(inserted)


def _sweep(counts, table):
    counts["sweeps.rows_failed"] += sum(1 for row in table.rows if row.error)


# counts read from return values
OBSERVERS = {
    "green.lambda_limit": _lambda_limit,
    "rmaps.preimages_arch": _preimages,
    "measures.equilibrium_arch": _equilibrium_arch,
    "measures.equilibrium_nonarch": _equilibrium_nonarch,
    "affable.restrict_to_skeleton": _restrict,
    "sweeps.sweep_equilibrium": _sweep,
    "sweeps.sweep_chi": _sweep,
}


_CHUNK = 1 << 20


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]
        self.fid = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = defaultdict(int)
        self._patched = []  # (module, attribute, original)

    def _wrap(self, fn, fid: int, observe):
        fids, parents, starts, ends, stack = self.fid, self.parent, self.start, self.end, self.stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(counts, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Replace every binding of each target in the loaded berkpot modules."""
        loaded = [m for name, m in sys.modules.items()
                  if m is not None and (name == "berkpot" or name.startswith("berkpot."))]
        for fid, name in enumerate(self.names):
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"berkpot.{mod_name}"], fn_name)
            wrapper = self._wrap(original, fid, OBSERVERS.get(name))
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-function calls and self time, per-module self time, counts."""
        n_fn, n = len(self.names), len(self.fid)
        fid = np.frombuffer(self.fid, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        # chunked, so a round with millions of spans needs one extra array
        covered = np.zeros(n)
        for lo in range(0, n, _CHUNK):
            par = parent[lo:lo + _CHUNK]
            dur = end[lo:lo + _CHUNK] - start[lo:lo + _CHUNK]
            nested = par >= 0
            np.add.at(covered, par[nested], dur[nested])
        calls = np.zeros(n_fn, dtype=np.int64)
        self_by_fn = np.zeros(n_fn)
        for lo in range(0, n, _CHUNK):
            chunk = slice(lo, lo + _CHUNK)
            self_time = end[chunk] - start[chunk] - covered[chunk]
            calls += np.bincount(fid[chunk], minlength=n_fn)
            self_by_fn += np.bincount(fid[chunk], weights=self_time, minlength=n_fn)
        out = {}
        module_self = defaultdict(float)
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[k])
            out[f"{name}.self_s"] = float(self_by_fn[k])
            module_self[name.split(".")[0]] += float(self_by_fn[k])
        for mod in TARGETS:
            out[f"{mod}.self_s"] = module_self[mod]
        lam_calls = out["green.lambda_limit.calls"]
        out["green.lambda_limit.n_used_sum"] = self.counts["green.lambda_limit.n_used_sum"]
        out["green.lambda_limit.exact_frac"] = (
            self.counts["green.lambda_limit.exact"] / lam_calls if lam_calls else 0.0)
        for key in ("rmaps.preimages_arch.flagged", "measures.equilibrium_arch.atoms",
                    "measures.equilibrium_nonarch.negative_atoms",
                    "affable.restrict_to_skeleton.kinks", "sweeps.rows_failed"):
            out[key] = self.counts[key]
        out["trace.spans"] = n
        return out

    def save(self, path: str):
        np.savez(path, names=np.array(self.names), fid=self.fid, parent=self.parent,
                 start=self.start, end=self.end)
