"""Points of the fiber P^1 over a place, seminorm evaluation, and skeleta.

Over an ultrametric place the line carries, besides classical points, the
disk points eta_{z,r} acting on polynomials by |sum a_i (T-z)^i| =
max_i |a_i| r^i.  Disk points store the centre and the log-radius (on the
place's coefficient scale) in the canonical exact form of the places
module, so the Gauss point is ``disk(0, 0)`` at every ultrametric place.

``newton_lines`` and ``newton_envelope`` are the one reader of that formula:
the Newton lines (log|a_i|, i) of P(z + T), and their envelope at log r.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .places import (
    NEG_INF,
    PADIC,
    POS_INF,
    TADIC,
    TRIVIAL,
    LogValue,
    Place,
    PlaceError,
    abs_log_value,
    is_neg_inf,
    valuation,
    vmax,
    vplus,
    vscale,
    _as_exact,
)
from .polys import poly_eval, taylor_shift, trim

CLS = "cls"
DISK = "disk"
INF = "inf"

Scalar = Union[Fraction, complex]


@dataclass(frozen=True)
class BerkPoint:
    """Classical point, disk point eta_{z,r}, or the point at infinity."""

    t: str
    z: Optional[Scalar] = None          # classical affine coordinate
    center: Optional[Fraction] = None   # disk center (int or Fraction, ultrametric fibers)
    logr: Optional[LogValue] = None     # disk log-radius, coefficient units

    def __post_init__(self):
        if self.t not in (CLS, DISK, INF):
            raise ValueError(f"unknown point type {self.t!r}")
        if self.t == DISK and (self.center is None or self.logr is None):
            raise ValueError("disk point needs center and log-radius")
        if self.t == CLS and self.z is None:
            raise ValueError("classical point needs a coordinate")

    def __repr__(self):
        if self.t == CLS:
            return f"Pt({self.z})"
        if self.t == DISK:
            return f"Eta({self.center},{self.logr})"
        return "Pt(inf)"


def classical(z) -> BerkPoint:
    if isinstance(z, (int, Fraction)):
        z = _as_exact(z)
    return BerkPoint(CLS, z=z)


def classical_pair(z0, z1) -> BerkPoint:
    """Projective pair [z0 : z1], not both zero."""
    if z1 == 0:
        if z0 == 0:
            raise ValueError("[0:0] is not a point")
        return infinity()
    if isinstance(z0, (int, Fraction)) and isinstance(z1, (int, Fraction)):
        return classical(Fraction(z0) / Fraction(z1))
    return classical(complex(z0) / complex(z1))


def disk(center, logr) -> BerkPoint:
    """eta_{center, logr}, both canonical; an infinite logr stays a float."""
    return BerkPoint(DISK, center=_as_exact(center), logr=logr if type(logr) is float else _as_exact(logr))


def infinity() -> BerkPoint:
    return BerkPoint(INF)


ARCH_INF = complex(POS_INF, 0.0)  # the point at infinity in archimedean point arrays


def arch_point(z) -> BerkPoint:
    """The point named by an entry of an archimedean point array (complex
    infinity names the point at infinity)."""
    z = complex(z)
    return classical(z) if cmath.isfinite(z) else infinity()


GAUSS = disk(0, 0)


def newton_lines(place: Place, shifted) -> list:
    """Newton lines (log|c_i|, i) of P(z + T) = sum shifted[i] T^i, one per
    nonzero c_i in increasing i; a +inf log|c_i| (residue place) is kept."""
    logs = ((abs_log_value(place, c), i) for i, c in enumerate(shifted))
    return [(a, i) for a, i in logs if not is_neg_inf(a)]


def newton_envelope(lines, logr) -> LogValue:
    """log|P|(eta_{z,logr}): the upper envelope of the lines at logr.  The
    i = 0 line is log|c_0| itself, so an infinite logr never meets 0 * inf."""
    return vmax(*(vplus(a, vscale(i, logr)) if i else a for a, i in lines))


def eval_log_abs(place: Place, point: BerkPoint, coeffs) -> LogValue:
    """log of the multiplicative seminorm of P = sum coeffs[i] T^i at the point.

    Returns a value on the place's coefficient scale; -inf only for P = 0 or
    classical zeros of P.
    """
    convert = _as_exact if place.is_ultrametric else complex
    coeffs = trim(convert(c) for c in coeffs)
    if not coeffs:
        return NEG_INF
    if point.t == INF and len(coeffs) > 1:
        return POS_INF
    if point.t != DISK:
        val = coeffs[0] if point.t == INF else poly_eval(coeffs, point.z)
        return abs_log_value(place, val) if place.is_ultrametric else _arch_log(place, val)
    if not place.is_ultrametric:
        raise PlaceError("disk points live in ultrametric fibers only")
    shifted = taylor_shift(coeffs, point.center) if coeffs[1:] else coeffs  # a constant is its own shift
    return newton_envelope(newton_lines(place, shifted), point.logr)


def coord_log_abs(place: Place, point: BerkPoint) -> LogValue:
    """log|T| at a point of an ultrametric fiber, with no Taylor shift:
    max(log|a|, r) at eta_{a,r}, log|z| at a classical point, +inf at infinity."""
    if point.t == DISK:
        return vmax(abs_log_value(place, point.center), point.logr)
    return POS_INF if point.t == INF else abs_log_value(place, point.z)


def _arch_log(place: Place, val) -> LogValue:
    a = abs(val)
    if a == 0:
        return NEG_INF
    return place.eps_float * math.log(a)


def flow_point(point: BerkPoint, eps) -> BerkPoint:
    """Image of the point under x -> x^eps: |f(x^eps)| = |f(x)|^eps.

    Classical points and infinity are fixed; disk log-radii scale by eps.
    """
    eps = _as_exact(eps)
    if not (0 < eps <= 1):
        raise PlaceError(f"flow exponent must lie in (0,1], got {eps}")
    if point.t != DISK:
        return point
    return disk(point.center, vscale(eps, point.logr))


def reduce_center(place: Place, center: Fraction, logr) -> Fraction:
    """A bounded-height representative of the disk center, canonical.

    eta_{z,r} only depends on z modulo the radius, so any z' with
    |z - z'| <= r names the same point.  The height of the representative
    grows with -logr, so an orbit whose radii shrink (a disk attracted to a
    fixed point) still gains digits at every step.
    """
    center = _as_exact(center)
    if place.kind == PADIC:
        if center == 0:
            return center
        # need v_p(z - z') >= K with K = ceil(-logr / eps) = -floor(logr / eps)
        K = -(logr // place.eps)
        v = valuation(center, place.p)
        if v >= K:
            return 0
        unit = center / Fraction(place.p) ** v
        modulus = place.p ** (K - v)
        red = (unit.numerator * pow(unit.denominator, -1, modulus)) % modulus
        return red * place.p ** v if v >= 0 else Fraction(red, place.p ** -v)
    if place.kind in (TRIVIAL, TADIC):
        # |z - z'| is 0 or 1: radius >= 1 makes every center equivalent to 0
        return 0 if logr >= 0 else center
    return center


# -- tree structure of disk points -------------------------------------------

def _require_ultrametric(place: Place):
    if not place.is_ultrametric:
        raise PlaceError("operation requires an ultrametric place")


def same_point(place: Place, a: BerkPoint, b: BerkPoint) -> bool:
    """Equality of seminorms (eta_{z,r} = eta_{z',r'} iff r = r' >= |z-z'|)."""
    if a.t != b.t:
        return False
    if a.t == INF:
        return True
    if a.t == CLS:
        if place.is_ultrametric:
            return a.z == b.z
        return abs(complex(a.z) - complex(b.z)) <= 1e-9
    if a.logr != b.logr:
        return False
    return not _strictly_above(abs_log_value(place, a.center - b.center), a.logr)


def _strictly_above(x: LogValue, r: LogValue) -> bool:
    if is_neg_inf(x):
        return False
    return x > r


def contains(place: Place, big: BerkPoint, small: BerkPoint) -> bool:
    """Disk containment: D(z,r) contains D(z',r') (classical = radius -inf)."""
    _require_ultrametric(place)
    if big.t != DISK:
        return big.t == CLS and small.t == CLS and same_point(place, big, small)
    if small.t == INF:
        return False
    if small.t == CLS:
        return not _strictly_above(abs_log_value(place, big.center - small.z), big.logr)
    if small.logr > big.logr:
        return False
    return not _strictly_above(abs_log_value(place, big.center - small.center), big.logr)


def join_points(place: Place, a: BerkPoint, b: BerkPoint) -> BerkPoint:
    """Smallest disk point containing both (finite points only)."""
    _require_ultrametric(place)
    if a.t == INF or b.t == INF:
        raise PlaceError("join with infinity is not a disk point")
    za = a.center if a.t == DISK else _as_exact(a.z)
    zb = b.center if b.t == DISK else _as_exact(b.z)
    ra = a.logr if a.t == DISK else NEG_INF
    rb = b.logr if b.t == DISK else NEG_INF
    r = vmax(abs_log_value(place, za - zb), ra, rb)
    if is_neg_inf(r):
        return classical(za)
    return disk(za, r)


@dataclass
class MetricGraph:
    """Finite connected weighted graph; vertices may be labeled by points.

    Edge lengths are positive rationals.  ``boundary`` is a subset of
    vertex indices.
    """

    labels: list
    edges: list        # (i, j, length)
    boundary: list = field(default_factory=list)

    def __post_init__(self):
        n = len(self.labels)
        for (i, j, ln) in self.edges:
            if not (0 <= i < n and 0 <= j < n and ln > 0):
                raise ValueError(f"edge ({i},{j}) of length {ln} needs endpoints in [0, {n}) and a positive length")
        for b in self.boundary:
            if not (0 <= b < n):
                raise ValueError(f"boundary vertex {b} out of range")
        if n and not self.is_connected():
            raise ValueError("graph must be connected")

    @property
    def n(self) -> int:
        return len(self.labels)

    def adjacency(self):
        adj = [[] for _ in range(self.n)]
        for e, (i, j, ln) in enumerate(self.edges):
            adj[i].append((j, ln, e))
            adj[j].append((i, ln, e))
        return adj

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w, _, _ in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def degree(self, v: int) -> int:
        return sum(1 for (i, j, _) in self.edges for x in (i, j) if x == v)

    def vertex_of_point(self, place: Place, point: BerkPoint):
        for idx, lbl in enumerate(self.labels):
            if lbl is not None and same_point(place, lbl, point):
                return idx
        return None


def build_skeleton(place: Place, points: list[BerkPoint]) -> MetricGraph:
    """Convex-hull tree of the given disk points inside the Berkovich line.

    Vertices are the inputs plus all pairwise joins; each edge length is the
    difference of log-radii along the nesting chain; boundary = leaves.
    """
    _require_ultrametric(place)
    if not points:
        raise PlaceError("skeleton needs at least one point")
    for x in points:
        if x.t != DISK:
            raise PlaceError(f"skeleton vertices must be disk points, got {x!r}")
    verts: list[BerkPoint] = []

    def add(pt: BerkPoint):
        for v in verts:
            if same_point(place, v, pt):
                return
        verts.append(pt)

    for x in points:
        add(x)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            add(join_points(place, points[i], points[j]))

    # parent = smallest strict container; unique because disks over a common
    # point are nested and the vertex set is join-closed
    order = sorted(range(len(verts)), key=lambda k: verts[k].logr)
    edges = []
    for k in order:
        v = verts[k]
        parent = None
        for m in range(len(verts)):
            w = verts[m]
            if m == k or same_point(place, v, w):
                continue
            if contains(place, w, v):
                if parent is None or w.logr < verts[parent].logr:
                    parent = m
        if parent is not None:
            edges.append((k, parent, verts[parent].logr - v.logr))
    graph = MetricGraph(labels=list(verts), edges=edges, boundary=[])
    graph.boundary = [v for v in range(graph.n) if graph.degree(v) <= 1]
    return graph


@dataclass(frozen=True)
class TreeLocation:
    """Result of retracting a point: a vertex or a position inside an edge."""

    kind: str                 # "vertex" | "edge"
    index: int                # vertex index, or edge index
    offset: LogValue = 0      # distance from the lower (smaller-radius) endpoint
    point: BerkPoint = None   # the retracted point itself


def _top_vertex(place: Place, graph: MetricGraph) -> int:
    best = None
    for idx, lbl in enumerate(graph.labels):
        if lbl is None or lbl.t != DISK:
            raise PlaceError("retract needs a fully labeled disk-point skeleton")
        if best is None or lbl.logr > graph.labels[best].logr:
            best = idx
    return best


def _locate(place: Place, graph: MetricGraph, pt: BerkPoint):
    """Find a disk point on the tree: as a vertex, or inside an edge."""
    v = graph.vertex_of_point(place, pt)
    if v is not None:
        return TreeLocation("vertex", v, 0, graph.labels[v])
    for e, (i, j, ln) in enumerate(graph.edges):
        a, b = graph.labels[i], graph.labels[j]
        if a.logr > b.logr:
            a, b, i, j = b, a, j, i
        if a.logr < pt.logr < b.logr and contains(place, b, pt) and contains(place, pt, a):
            return TreeLocation("edge", e, pt.logr - a.logr, pt)
    return None


def retract(place: Place, point: BerkPoint, graph: MetricGraph) -> TreeLocation:
    """Canonical retraction onto the skeleton: the nearest point of the tree.

    Idempotent and the identity on skeleton points; infinity and points
    above the tree clamp to the top vertex.
    """
    _require_ultrametric(place)
    top = _top_vertex(place, graph)
    top_pt = graph.labels[top]
    if point.t == INF:
        return TreeLocation("vertex", top, 0, top_pt)
    if point.t == DISK:
        loc = _locate(place, graph, point)
        if loc is not None:
            return loc
    join = None
    for lbl in graph.labels:
        j = join_points(place, point, lbl)
        if join is None or (j.t == DISK and (join.t != DISK or j.logr < join.logr)):
            join = j
    if not contains(place, top_pt, join):
        return TreeLocation("vertex", top, 0, top_pt)
    loc = _locate(place, graph, join)
    if loc is None:
        # join coincides with a vertex up to center choice
        raise PlaceError(f"retraction fell off the skeleton at {join!r}")
    return loc


# -- (de)serialization --------------------------------------------------------

def point_from_json(obj: dict) -> BerkPoint:
    try:
        t = obj.get("t")
        if t == "inf":
            return infinity()
        if t == "cls":
            if "q" in obj:
                return classical(Fraction(obj["q"]))
            return classical(complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0))))
        if t == "disk":
            return disk(Fraction(obj["center"]), Fraction(obj["logr"]))
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise PlaceError(f"bad point JSON {obj!r}: {exc}") from exc
    raise PlaceError(f"bad point JSON {obj!r}")
