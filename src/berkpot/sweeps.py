"""Family sweeps over base spectra and convergence reports.

A sweep walks a grid of places (a curve inside the base spectrum), builds
the relevant fiber measure at each place, integrates a battery of affable
test functions, and reports the modulus sequence (successive differences
along the tail of the grid).  Continuity of the measure family is reported,
never asserted: the tables are the witness.

Every archimedean fiber is C with |.|^eps, so the equilibrium measure
mu_phi, the points an integral reads and their log|g| values do not depend
on eps; only a few float operations per point do.  A sweep therefore
computes once: one pullback chain and its tree of each depth n; the eps-free
``affable.PointTable`` of each point set (tree atoms, circle quadrature
levels), kept only up to ``atom_budget`` points, which bounds the memo by
atom_budget points per tree and 2 atom_budget per circle.  The slope sum
``affable.mass_bound`` is computed once per function, not per sweep: a
function caches it.  A table holds log|g| arrays shared per term
and one plan per function, its float branches and its eps-free pole set;
a fiber only forms c + q (eps log|g|) per branch, the max, and plus -
minus.  Only the potential tail, and so the error bars, change with eps.
Ultrametric fibers are unchanged: each builds its own measure and reads
its values exactly, but a fiber of good reduction (G_max = 0) takes the
Dirac mass at the Gauss point without ``equilibrium_nonarch``, which gives
the same measure a hundred times slower: the hybrid grid's trivial endpoint
is one for every rational map.  Nothing bounds the distance of a collapsed tree
(``measures.tree_collapse``) to mu_phi, so the rows of its places fail.

Equilibrium row errors are the quadrature error plus the potential tail
times ``affable.mass_bound``.  A battery's ids must be distinct: rows and
the modulus are keyed by id.  The scale, derived once:

- Values of f and of the potentials live on the place's coefficient scale,
  and the fiber Laplacian on that scale sends the potential to mu.  So for
  nu_n = d^-n (phi^n)^* omega, omega the Haar measure of the unit circle,
  the pairing gives |int f dnu_n - int f dmu| <= ||lambda - lambda_n|| *
  |Delta f|(P^1), all on the coefficient scale.
- |Delta f|(P^1) is at most the slope sum of f's pieces (each piece is
  subharmonic on its chart, with Riesz mass at most its top slope).  The
  charts agree on the overlap ring, so the unit circle or the Gauss point
  adds no mass.  The slope sum does not depend on the place.
- ``place.log_unit`` converts the product to the real scale of the rows.
  The potential tail is already on that scale (``deviation_bound``'s G_max
  carries the unit), and the slope sum, a pure number, multiplies it as is.

An archimedean row integrates the tree d^-n (phi^n)^* delta_a of its seed a:
its potential differs from nu_n's by d^-n u_a o phi^n, u_a the potential of
delta_a - omega, and cert_err does not bound that term.  The cert_err of an
archimedean circle row is a doubling difference plus rounding, not a bound.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .affable import AffableError, PointTable, affable_real
from .battery import load_battery, standard_battery
from .graphs import GraphError
from .green import GreenError, deviation_bound
from .measures import (
    Measure,
    MeasureError,
    chi_measure,
    dirac,
    equilibrium_arch,
    equilibrium_nonarch,
    integrate,
    tree_collapse,
)
from .places import Place, PlaceError, place_from_json, snap_rational
from .points import GAUSS, MetricGraph, classical, disk
from .rmaps import HomogeneousLift, MapError, lift_from_json


class SweepError(ValueError):
    pass


# the typed failures, listed once: a sweep records them per row and steps
# past, and ``cli.main`` exits on them; anything else is a bug and propagates
ROW_ERRORS = (AffableError, GraphError, GreenError, MapError, MeasureError, PlaceError, SweepError,
              ArithmeticError)


def default_grid(depth: int = 10) -> list[Place]:
    """eps in {1, 1/2, ..., 2^-depth} followed by the trivial endpoint."""
    grid = [Place.archimedean(Fraction(1, 2**k)) for k in range(depth + 1)]
    grid.append(Place.trivial())
    return grid


def padic_branch_grid(p: int, depth: int = 10) -> list[Place]:
    """eps in {1, 2, ..., 2^depth} followed by the residue endpoint."""
    grid = [Place.padic(p, Fraction(2**k)) for k in range(depth + 1)]
    grid.append(Place.residue(p))
    return grid


def validate_grid(grid: list[Place]):
    if not grid:
        raise SweepError("grid must be nonempty")
    for place in grid[:-1]:
        if place.kind in ("trivial", "res"):
            raise SweepError("the ultrametric endpoint must come last in the grid")


def default_skeleton(place: Place) -> MetricGraph:
    """Segment skeleton eta_{0, p^(q eps)}, q in [-2, 2] in steps of 1/2:
    the flow image at the place's exponent eps of the eps = 1 segment, so
    the flow carries a fiber's skeleton, and with it the measure, to the
    next one along a branch.  The disks are nested, so the path through
    them is their convex hull (``points.build_skeleton``)."""
    if not place.is_ultrametric:
        raise PlaceError("operation requires an ultrametric place")
    step = Fraction(1, 2)
    labels = [disk(0, (k * step - 2) * place.eps) for k in range(9)]
    edges = [(k, k + 1, step * place.eps) for k in range(8)]
    return MetricGraph(labels, edges, [0, 8])


@dataclass
class SweepRow:
    place_kind: str
    place_param: str
    fn_id: str
    value: float
    cert_err: float
    n_used: int
    error: str = ""


@dataclass
class SweepTable:
    rows: list = field(default_factory=list)
    modulus: dict = field(default_factory=dict)  # fn_id -> successive |row_{k+1} - row_k|, grid order
    places: list = field(default_factory=list)  # place.describe() by grid position

    def value(self, place: Place, fn_id: str):
        """fn_id's value at a place the grid visits once (else ``SweepError``)."""
        kind, param = place.describe()
        at = [g for g, key in enumerate(self.places) if key == (kind, param)]
        if len(at) > 1:
            raise SweepError(f"place {kind} {param} occurs at grid positions {at}")
        for row in self.rows:
            if (row.place_kind, row.place_param, row.fn_id) == (kind, param, fn_id):
                return row.value
        raise KeyError((kind, param, fn_id))


@dataclass(frozen=True)
class RadiusSpec:
    """Closed-form radius along the grid: a constant, or base^eps (the
    flow-equivariant family, which tends to radius 1 at the trivial end)."""

    kind: str  # "const" | "pow_eps"
    value: Fraction

    def log_at(self, place: Place) -> float:
        """Natural log of the radius at the place, so that no power of the
        base is ever formed: eps log base for base^eps, 0 at the eps -> 0
        endpoint."""
        if self.kind == "const":
            return math.log(self.value)
        if place.kind == "arch" or place.kind == "padic":
            return place.eps_float * math.log(self.value)
        return 0.0

    @staticmethod
    def parse(obj) -> "RadiusSpec":
        if isinstance(obj, dict):
            if "pow_eps" not in obj:
                raise SweepError(f"unknown radius form {obj!r}")
            spec = RadiusSpec("pow_eps", Fraction(str(obj["pow_eps"])))
        else:
            spec = RadiusSpec("const", Fraction(str(obj)))
        if spec.value <= 0:
            raise SweepError(f"radius must be positive, got {obj!r}")
        return spec


@dataclass
class SweepConfig:
    grid: list
    battery: list
    center: Fraction = Fraction(0)
    radius: RadiusSpec = RadiusSpec("const", Fraction(1))
    lift: HomogeneousLift = None
    tol: float = 1e-8
    quad_n: int = 64
    atom_budget: int = 1 << 14
    seed_point: complex = 2 + 0j

    def __post_init__(self):
        validate_grid(self.grid)
        if not self.tol > 0:  # also a NaN tol
            raise SweepError(f"tol must be positive, got {self.tol}")

    @staticmethod
    def from_json(obj: dict) -> "SweepConfig":
        try:
            if "grid" in obj and obj["grid"] != "default":
                grid = [place_from_json(p) for p in obj["grid"]]
            else:
                branch = obj.get("base", "hybrid")
                if isinstance(branch, dict) and branch.get("branch") == "padic":
                    grid = padic_branch_grid(int(branch["p"]), int(obj.get("depth", 10)))
                else:
                    grid = default_grid(int(obj.get("depth", 10)))
            battery = load_battery(obj["battery"]) if obj.get("battery") else standard_battery()
            read = {"map": lift_from_json, "center": lambda c: Fraction(str(c)), "radius": RadiusSpec.parse,
                    "tol": float, "quad_n": int, "atom_budget": int,
                    "seed_point": lambda s: complex(float(s.get("re", 2.0)), float(s.get("im", 0.0)))
                    if isinstance(s, dict) else complex(s)}
            fields = {"lift" if k == "map" else k: parse(obj[k]) for k, parse in read.items() if k in obj}
            return SweepConfig(grid=grid, battery=battery, **fields)
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise SweepError(f"bad sweep config: {exc}") from exc


def _chi_at(place: Place, center: Fraction, radius: RadiusSpec) -> Measure:
    log_r = radius.log_at(place)
    if place.is_ultrametric:
        return chi_measure(place, center, snap_rational(log_r / place.log_unit))
    # the place-radius r names the Euclidean circle of radius r^(1/eps); for
    # the constant radius 1 and for the base^eps family this is eps-uniform
    return chi_measure(place, center, None, euclid_radius=math.exp(log_r / place.eps_float))


def _failed_row(kind: str, param: str, fn, n_used: int, exc: Exception) -> SweepRow:
    return SweepRow(kind, param, fn.fn_id, math.nan, math.nan, n_used, error=str(exc))


def _sweep(config: SweepConfig, measure_at) -> SweepTable:
    """The battery's rows along the grid, from ``measure_at(place)`` =
    (measure, n_used, potential tail bound), with one memo for the sweep
    (module docstring)."""
    ids = [fn.fn_id for fn in config.battery]
    if repeated := sorted({i for i in ids if ids.count(i) > 1}):
        raise SweepError(f"battery ids must be distinct, repeated: {repeated}")
    table = SweepTable(places=[place.describe() for place in config.grid])
    tables = {}
    values = {fn.fn_id: [None] * len(config.grid) for fn in config.battery}  # by grid position

    def points(key, make):
        if key in tables:
            return tables[key]
        z = make()
        entry = z, PointTable(z)
        if len(z) <= config.atom_budget:
            tables[key] = entry  # the entry holds z, so an id key stays unique
        return entry

    for g, place in enumerate(config.grid):
        kind, param = place.describe()
        try:
            mu, n_used, tail = measure_at(place)
        except ROW_ERRORS as exc:
            table.rows += [_failed_row(kind, param, fn, 0, exc) for fn in config.battery]
            continue
        for fn in config.battery:
            try:
                val, qerr = integrate(place, mu, affable_real(place, fn), config.quad_n, points)
                table.rows.append(SweepRow(kind, param, fn.fn_id, val, qerr + tail * fn.slope_sum, n_used))
                values[fn.fn_id][g] = val
            except ROW_ERRORS as exc:
                table.rows.append(_failed_row(kind, param, fn, n_used, exc))
    table.modulus = {fid: [None if a is None or b is None else abs(b - a) for a, b in zip(v, v[1:])]
                     for fid, v in values.items()}
    return table


def sweep_chi(config: SweepConfig) -> SweepTable:
    """Integrate the battery against the circle family along the grid."""
    return _sweep(config, lambda place: (_chi_at(place, config.center, config.radius), 0, 0.0))


def _arch_depth(place: Place, config: SweepConfig):
    """(n, tail): the first depth n with tail = G_max / (d^n (d-1)) <= tol, within budget."""
    gmax, d = deviation_bound(place, config.lift).gmax, config.lift.d
    n, tail = 1, gmax / (d - 1) / d
    while tail > config.tol and d ** (n + 1) <= config.atom_budget:
        n, tail = n + 1, tail / d
    return n, tail


def _eq_measure_at(place: Place, config: SweepConfig, trees: dict | None = None):
    """Equilibrium measure at one place: (measure, n_used, potential tail bound).

    ``trees`` maps each archimedean depth of a sweep to its eps-free
    measure, or to None until one pullback chain fills them all.
    """
    lift = config.lift
    if place.is_ultrametric:
        if deviation_bound(place, lift).gmax == 0.0:  # good reduction (module docstring)
            return dirac(GAUSS), 0, 0.0
        mu, report = equilibrium_nonarch(place, lift, default_skeleton(place), config.tol)
        return mu, 0, max(st.certified_error for st in report.states)
    n, tail = _arch_depth(place, config)
    trees = {n: None} if trees is None else trees
    if trees[n] is None:
        equilibrium_arch(place, lift, config.seed_point, max(trees), trees)
    if reason := tree_collapse(n, trees[n]):
        raise MeasureError(reason)
    return trees[n], n, tail


def sweep_equilibrium(config: SweepConfig) -> SweepTable:
    """Equilibrium-measure rows along the grid, ultrametric endpoint last."""
    if config.lift is None:
        raise SweepError("equilibrium sweep needs a map")
    if not config.lift.is_rational:
        raise SweepError("sweep maps must have rational coefficients (shared across fibers)")
    trees = {}  # every archimedean depth before the first tree
    for place in config.grid:
        if not place.is_ultrametric:
            with contextlib.suppress(*ROW_ERRORS):  # a lift past the float range fails this place's rows
                trees[_arch_depth(place, config)[0]] = None
    return _sweep(config, lambda place: _eq_measure_at(place, config, trees))


def circle_sample(n: int = 64, radius: float = 1.0):
    return [
        classical(radius * complex(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)))
        for k in range(n)
    ]


def unit_sphere_sample_padic(place: Place, count: int = 16):
    """Rational points with |z| = 1 plus the Gauss point."""
    pts = [GAUSS]
    z = 1
    while len(pts) < count + 1 and z < 200:
        if z % place.p != 0:
            pts.append(classical(Fraction(z)))
        z += 1
    return pts
