"""Command-line harness.

Subcommands: green, equilibrium, sweep-chi, sweep-eq, contraction, graph,
pairing.  Tables go to --out (CSV default, JSON by extension) or stdout.
Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
from collections import Counter
from fractions import Fraction

from .affable import AffableError
from .graphs import GraphError, PLFunction, dirichlet_extend, graph_from_json, graph_laplacian
from .green import GreenError, contraction_ratios, lambda_limit
from .measures import MeasureError, energy_pairing, equilibrium_arch, equilibrium_nonarch, measure_to_rows
from .places import Place, PlaceError, place_from_json
from .points import point_from_json
from .rmaps import MapError, lift_from_json
from .sweeps import (
    SweepConfig,
    SweepError,
    circle_sample,
    default_skeleton,
    sweep_chi,
    sweep_equilibrium,
    unit_sphere_sample_padic,
)

CONFIG_ERRORS = (SweepError, PlaceError, MapError, GraphError, AffableError,
                 json.JSONDecodeError, UnicodeDecodeError, OSError)
NUMERIC_ERRORS = (GreenError, MeasureError, ArithmeticError)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_place(text: str) -> Place:
    return place_from_json(json.loads(text))


def _emit(rows, header, out_path, quiet):
    with open(out_path, "w", encoding="utf-8") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        if out_path and out_path.endswith(".json"):
            json.dump([dict(zip(header, row)) for row in rows], fh, indent=1)
        else:
            csv.writer(fh).writerows([header, *rows])
    if out_path and not quiet:
        print(f"wrote {out_path}")


def _cmd_green(args) -> int:
    lift = lift_from_json(_load_json(args.map))
    place = _parse_place(args.place)
    pts = [point_from_json(p) for p in _load_json(args.points)]
    rows = []
    unit = place.log_unit
    for idx, x in enumerate(pts):
        st = lambda_limit(place, lift, x, args.tol)
        rows.append((idx, float(st.value) * unit, st.n_used, st.certified_error))
    _emit(rows, ["point_id", "lambda", "n_used", "certified_error"], args.out, args.quiet)
    return 0


def _cmd_equilibrium(args) -> int:
    lift = lift_from_json(_load_json(args.map))
    place = _parse_place(args.place)
    # each regime reads its own flags; a flag of the other regime is a mistake
    other, flags = ("archimedean", ("n", "seed")) if place.is_ultrametric else ("ultrametric", ("skeleton", "tol"))
    given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
    if given:
        raise SweepError(f"flags for {other} places only: {', '.join(given)}")
    if place.is_ultrametric:
        skel = graph_from_json(_load_json(args.skeleton)) if args.skeleton else default_skeleton(place)
        mu, report = equilibrium_nonarch(place, lift, skel, 1e-9 if args.tol is None else args.tol)
    else:
        try:
            seed = complex(args.seed.replace("i", "j")) if args.seed else 2 + 0j
        except ValueError as exc:
            raise SweepError(f"bad --seed: {exc}") from exc
        mu = equilibrium_arch(place, lift, seed, 10 if args.n is None else args.n)
        report = None
    _emit(measure_to_rows(place, mu), ["kind", "point_or_center", "logr_or_radius", "weight"],
          args.out, args.quiet)
    if report is not None and not args.quiet:
        print(f"total_mass={report.total_mass} min_atom_weight={report.min_atom_weight} "
              f"negative_atoms={report.negative_atoms}")
    return 0


def _cmd_sweep(args, which: str) -> int:
    cfg = SweepConfig.from_json(_load_json(args.config))
    table = sweep_chi(cfg) if which == "chi" else sweep_equilibrium(cfg)
    rows = [(r.place_kind, r.place_param, r.fn_id, r.value, r.cert_err, r.n_used) for r in table.rows]
    _emit(rows, ["place_kind", "place_param", "fn_id", "value", "cert_err", "n_used"],
          args.out, args.quiet)
    if not args.quiet:
        for reason, count in Counter(row.error for row in table.rows if row.error).items():
            print(f"failed rows ({count}): {reason}", file=sys.stderr)
        for fid, diffs in table.modulus.items():
            shown = ["-" if d is None else f"{d:.3e}" for d in diffs]
            print(f"modulus {fid}: {' '.join(shown)}")
    return 0


def _cmd_contraction(args) -> int:
    lift = lift_from_json(_load_json(args.map))
    place = _parse_place(args.place)
    parts = args.sample.split(":")
    if parts[0] != "circle":
        raise SweepError(f"unknown sample format {args.sample!r}")
    try:
        count = int(parts[1]) if len(parts) > 1 else 64
        radius = float(parts[2]) if len(parts) > 2 else 1.0
    except ValueError as exc:
        raise SweepError(f"bad --sample: {exc}") from exc
    if place.is_ultrametric:
        sample = unit_sphere_sample_padic(place, count)
    else:
        sample = circle_sample(count, radius)
    if not sample:
        raise SweepError(f"sample {args.sample!r} has no points")
    rows = []
    for n, ratio in contraction_ratios(place, lift, sample, args.n):
        rows.append((n, "exact-0" if ratio is None else ratio))
    _emit(rows, ["n", "ratio"], args.out, args.quiet)
    return 0


def _cmd_graph(args) -> int:
    graph = graph_from_json(_load_json(args.graph))
    lap = args.op == "laplacian"
    flag, path = ("--values", args.values) if lap else ("--boundary-values", args.boundary_values)
    obj = _load_json(path) if path else None
    if not isinstance(obj, list if lap else dict):
        raise GraphError(f"{flag} must name a JSON {'list' if lap else 'object'}")
    try:  # "1/0" is malformed input, as in every other JSON reader
        values = [Fraction(str(v)) for v in obj] if lap else {int(k): Fraction(str(v)) for k, v in obj.items()}
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphError(f"bad {flag}: {exc}") from exc
    if lap:
        rows = [(v, str(w)) for v, w in graph_laplacian(PLFunction(graph, values)).atoms]
        _emit(rows, ["vertex_id", "weight"], args.out, args.quiet)
        return 0
    rows = [(v, str(x)) for v, x in enumerate(dirichlet_extend(graph, values).values)]
    _emit(rows, ["vertex_id", "value"], args.out, args.quiet)
    return 0


def _cmd_pairing(args) -> int:
    lift_f = lift_from_json(_load_json(args.map))
    lift_g = lift_from_json(_load_json(args.map2))
    place = _parse_place(args.place)
    skel = default_skeleton(place) if place.is_ultrametric else None
    val = energy_pairing(place, lift_f, lift_g, n=args.n, tol=args.tol, skeleton=skel)
    print(val)
    return 0


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="berkpot", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (.csv or .json)")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("green", help="canonical potentials at points")
    p.add_argument("--map", required=True)
    p.add_argument("--place", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(fn=_cmd_green)

    p = sub.add_parser("equilibrium", help="equilibrium measure at one place")
    p.add_argument("--map", required=True)
    p.add_argument("--place", required=True)
    p.add_argument("--n", type=int, help="archimedean: preimage-tree depth (default 10)")
    p.add_argument("--seed", help="archimedean: seed point of the preimage tree (default 2+0i)")
    p.add_argument("--skeleton", help="ultrametric: skeleton graph JSON (default: the segment skeleton)")
    p.add_argument("--tol", type=float, help="ultrametric: potential tolerance (default 1e-9)")
    common(p)
    p.set_defaults(fn=_cmd_equilibrium)

    p = sub.add_parser("sweep-chi", help="circle-family sweep over the base")
    p.add_argument("--config", required=True, help="JSON sweep config file")
    common(p)
    p.set_defaults(fn=lambda a: _cmd_sweep(a, "chi"))

    p = sub.add_parser("sweep-eq", help="equilibrium-family sweep over the base")
    p.add_argument("--config", required=True, help="JSON sweep config file")
    common(p)
    p.set_defaults(fn=lambda a: _cmd_sweep(a, "eq"))

    p = sub.add_parser("contraction", help="metric-iteration contraction report")
    p.add_argument("--map", required=True)
    p.add_argument("--place", required=True)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--sample", default="circle:64")
    common(p)
    p.set_defaults(fn=_cmd_contraction)

    p = sub.add_parser("graph", help="metric-graph utilities")
    p.add_argument("--op", choices=["laplacian", "dirichlet"], required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--values", help="JSON list of vertex values (laplacian)")
    p.add_argument("--boundary-values", help="JSON map vertex -> value (dirichlet)")
    common(p)
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("pairing", help="mutual energy of two equilibrium measures")
    p.add_argument("--map", required=True)
    p.add_argument("--map2", required=True)
    p.add_argument("--place", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(fn=_cmd_pairing)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

