"""The standard eight-function affable test battery.

All data is rational so every function makes sense in every fiber of the
base.  Chart-infinity representations follow the usual rewriting
g(T) = T^deg * h(1/T); the clipped shapes max(0, log|g|) - max(0, deg log|T|)
extend to continuous functions on all of P^1, while the potential-like
entries (|T| and 1/|T| clips) diverge at one point each and exist to probe
measures supported away from it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import replace

from .affable import (
    AffableFn,
    affable_combine,
    affable_from_json,
    piece_const,
    piece_max_log,
    PIECE_ZERO,
)


def _clipped_log(fn_id: str, coeffs) -> AffableFn:
    """max(0, log|g(T)|) - max(0, m log|T|) with the two-chart gluing."""
    m = len(coeffs) - 1
    rev = list(reversed(coeffs))
    return AffableFn(
        chart0_plus=piece_max_log(0, [(1, coeffs)]),
        chart0_minus=piece_max_log(0, [(m, [0, 1])]),
        chartinf_plus=piece_max_log(None, [(m, [0, 1]), (1, rev)]),
        chartinf_minus=piece_max_log(None, [(m, [0, 1]), (0, [1])]),
        fn_id=fn_id,
    )


@functools.cache
def _build() -> list[AffableFn]:
    fns = []
    # 1. max(0, log|T-2|): the squaring-map acceptance integrand
    fns.append(AffableFn(
        piece_max_log(0, [(1, [-2, 1])]),
        PIECE_ZERO,
        piece_max_log(None, [(1, [0, 1]), (1, [1, -2])]),
        piece_max_log(None, [(1, [0, 1])]),
        fn_id="clip_log_T_minus_2",
    ))
    # 2. the constant 1: probes total mass
    fns.append(AffableFn(piece_const(1), PIECE_ZERO, piece_const(1), PIECE_ZERO, fn_id="one"))
    # 3. max(0, log|T|): kinks exactly at the unit circle / Gauss point
    fns.append(AffableFn(
        piece_max_log(0, [(1, [0, 1])]),
        PIECE_ZERO,
        piece_max_log(0, [(1, [0, 1])]),
        piece_max_log(None, [(1, [0, 1])]),
        fn_id="log_plus_T",
    ))
    # 4. log|T-3| - log|T-2|: bounded near infinity, poles off the unit circle
    fns.append(AffableFn(
        piece_max_log(None, [(1, [-3, 1])]),
        piece_max_log(None, [(1, [-2, 1])]),
        piece_max_log(None, [(1, [1, -3])]),
        piece_max_log(None, [(1, [1, -2])]),
        fn_id="log_ratio_3_2",
    ))
    # 5. max(0, log|T^2-2|) - max(0, 2 log|T|): degree-2 clipped shape
    fns.append(_clipped_log("clip_log_T2_minus_2", [-2, 0, 1]))
    # 6. max(0, (1/2) log|T-1|): fractional weight
    fns.append(AffableFn(
        piece_max_log(0, [("1/2", [-1, 1])]),
        PIECE_ZERO,
        piece_max_log(None, [("1/2", [0, 1]), ("1/2", [1, -1])]),
        piece_max_log(None, [("1/2", [0, 1])]),
        fn_id="half_clip_log_T_minus_1",
    ))
    # 7. min of entry 1 with the constant 1/2: exercises the combine closure
    half = AffableFn(piece_const("1/2"), PIECE_ZERO, piece_const("1/2"), PIECE_ZERO, fn_id="half")
    fns.append(replace(affable_combine("min", fns[0], half), fn_id="min_clip_half"))
    # 8. max(0, -log|T|) = -log of the standard norm of T0; diverges at 0
    fns.append(AffableFn(
        piece_max_log(None, [(1, [0, 1]), (0, [1])]),
        piece_max_log(None, [(1, [0, 1])]),
        piece_max_log(0, [(1, [0, 1])]),
        PIECE_ZERO,
        fn_id="standard_potential",
    ))
    return fns


def standard_battery() -> list[AffableFn]:
    return list(_build())


def load_battery(path) -> list[AffableFn]:
    """Battery from a JSON file: {"functions": [affable JSON, ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return [affable_from_json(f) for f in obj["functions"]]
