"""Affable test functions: differences of max(q0, q_i log|g_i|) per chart.

A positively-affable piece is a max of branches, each branch being a
rational constant plus a nonnegative-rational combination of log|g| terms
(the combination form is what sums of two maxes produce).  An affable
function carries one (plus, minus) pair of pieces per standard chart of
P^1; chart0 terms are polynomials in T, chartInf terms polynomials in
S = 1/T, and the two descriptions must agree on the overlap ring.
Minus-infinity constants are kept symbolic (None).  Branch weights are
nonnegative, so each piece is subharmonic: ``mass_bound`` is a slope sum.

Evaluation follows the place: at ultrametric places one point at a time in
exact arithmetic; at archimedean places on numpy arrays of points, with
the chart picked per point by |T| > 1 and the chart-inf pieces evaluated at
S = 1/T (S = 0 at infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import MetricGraph, PLFunction, subdivide_edge
from .places import NEG_INF, Place, PlaceError, abs_log_value, is_neg_inf, vmax, vplus, vscale
from .points import ARCH_INF, BerkPoint, arch_point, classical, disk, eval_log_abs
from .polys import taylor_shift


class AffableError(ValueError):
    pass


@dataclass(frozen=True)
class Branch:
    """const + sum q_i log|g_i| with q_i >= 0; const None means -inf."""

    const: object                 # Fraction | None
    terms: tuple                  # ((Fraction q, tuple coeffs), ...)

    def __post_init__(self):
        for q, _ in self.terms:
            if q < 0:
                raise AffableError("term weights must be nonnegative")


@dataclass(frozen=True)
class Piece:
    """Positively affable: max over branches."""

    branches: tuple

    def scaled(self, q: Fraction) -> "Piece":
        if q < 0:
            raise AffableError("pieces scale by nonnegative rationals")
        if q == 0:
            return Piece((Branch(Fraction(0), ()),))
        out = []
        for b in self.branches:
            const = None if b.const is None else b.const * q
            out.append(Branch(const, tuple((qi * q, g) for qi, g in b.terms)))
        return Piece(tuple(out))

    def consts_scaled(self, eps: Fraction) -> "Piece":
        """Scale only the constants (the flow-compatible rescaling)."""
        out = []
        for b in self.branches:
            const = None if b.const is None else b.const * eps
            out.append(Branch(const, b.terms))
        return Piece(tuple(out))


def piece_add(a: Piece, b: Piece) -> Piece:
    branches = []
    for x in a.branches:
        for y in b.branches:
            if x.const is None or y.const is None:
                continue  # a -inf branch never attains the max
            branches.append(Branch(x.const + y.const, x.terms + y.terms))
    if not branches:
        branches.append(Branch(None, ()))
    return Piece(tuple(branches))


def piece_vmax(a: Piece, b: Piece) -> Piece:
    return Piece(a.branches + b.branches)


def piece_const(c) -> Piece:
    return Piece((Branch(Fraction(c), ()),))


def piece_max_log(q0, terms) -> Piece:
    """max(q0, q_1 log|g_1|, ..., q_n log|g_n|); q0 None means -inf."""
    branches = []
    if q0 is not None:
        branches.append(Branch(Fraction(q0), ()))
    for q, coeffs in terms:
        branches.append(Branch(Fraction(0), ((Fraction(q), tuple(Fraction(c) for c in coeffs)),)))
    if not branches:
        raise AffableError("empty piece")
    return Piece(tuple(branches))


PIECE_ZERO = piece_const(0)


@dataclass(frozen=True)
class AffableFn:
    """Two-chart difference of positively affable pieces."""

    chart0_plus: Piece
    chart0_minus: Piece
    chartinf_plus: Piece
    chartinf_minus: Piece
    fn_id: str = ""

    def charts(self):
        return (
            ("0", self.chart0_plus, self.chart0_minus),
            ("inf", self.chartinf_plus, self.chartinf_minus),
        )


def _branch_value(place: Place, branch: Branch, x: BerkPoint, chart: str, t_log):
    if branch.const is None:
        return NEG_INF
    total = branch.const
    for q, coeffs in branch.terms:
        if q == 0:
            continue
        if chart == "0":
            v = eval_log_abs(place, x, list(coeffs))
        else:
            v = _log_abs_in_s(place, x, list(coeffs), t_log)
        if is_neg_inf(v):
            return NEG_INF
        total = vplus(total, vscale(q, v))
    return total


def _log_abs_in_s(place: Place, x: BerkPoint, coeffs, t_log):
    """log|g(1/T)|(x) via the reversed polynomial: |g(S)| = |ghat(T)| / |T|^m."""
    if x.t == "inf":
        c0 = coeffs[0] if coeffs else 0
        return NEG_INF if c0 == 0 else abs_log_value(place, c0)
    m = len(coeffs) - 1
    rev = list(reversed(coeffs))
    v = eval_log_abs(place, x, rev)
    if is_neg_inf(v):
        return NEG_INF
    if m == 0:
        return v
    return vplus(v, vscale(-m, t_log))


def _piece_value(place: Place, piece: Piece, x: BerkPoint, chart: str, t_log):
    best = NEG_INF
    for b in piece.branches:
        v = _branch_value(place, b, x, chart, t_log)
        best = vmax(best, v)
    return best


def _arch_piece(place: Place, piece: Piece, u):
    """Piece values at the chart coordinates u (complex array), eps log|.|
    scale; -inf where every branch is."""
    eps = float(place.eps)
    best = np.full(u.shape, NEG_INF)
    for b in piece.branches:
        if b.const is None:
            continue
        total = np.full(u.shape, float(b.const))
        for q, coeffs in b.terms:
            if q == 0:
                continue
            g = np.zeros_like(u)
            for c in reversed(coeffs):
                g = g * u + complex(c)
            with np.errstate(divide="ignore"):
                total = total + float(q) * (eps * np.log(np.abs(g)))
        best = np.maximum(best, total)
    return best


def _arch_chart(place: Place, plus: Piece, minus: Piece, u):
    """plus - minus at chart coordinates u, and the mask where either is -inf."""
    p = _arch_piece(place, plus, u)
    m = _arch_piece(place, minus, u)
    poles = (p == NEG_INF) | (m == NEG_INF)
    return np.subtract(p, m, out=np.zeros_like(p), where=~poles), poles


def affable_eval(place: Place, fn: AffableFn, x):
    """Value at x on the place's coefficient scale; chart picked by |T(x)|.

    At an archimedean place x may also be a complex ndarray of points
    (complex inf for the point at infinity), evaluated at once.
    """
    if not place.is_ultrametric:
        if isinstance(x, BerkPoint):
            if x.t == "disk":
                raise PlaceError("disk points live in ultrametric fibers only")
            z = ARCH_INF if x.t == "inf" else complex(x.z)
            return float(affable_eval(place, fn, np.array([z]))[0])
        z = np.asarray(x, dtype=complex)
        big = np.abs(z) > 1
        out = np.empty(z.shape)
        for sel, plus, minus, u in ((~big, fn.chart0_plus, fn.chart0_minus, z[~big]),
                                    (big, fn.chartinf_plus, fn.chartinf_minus, 1 / z[big])):
            vals, poles = _arch_chart(place, plus, minus, u)
            if poles.any():
                raise AffableError(f"affable value is -inf at {arch_point(z[sel][poles][0])!r}")
            out[sel] = vals
        return out
    t_log = eval_log_abs(place, x, [0, 1])  # +inf at infinity
    if t_log > 0:
        plus, minus, chart = fn.chartinf_plus, fn.chartinf_minus, "inf"
    else:
        plus, minus, chart = fn.chart0_plus, fn.chart0_minus, "0"
    p = _piece_value(place, plus, x, chart, t_log)
    m = _piece_value(place, minus, x, chart, t_log)
    if is_neg_inf(p) or is_neg_inf(m):
        raise AffableError(f"affable value is -inf at {x!r}")
    return p - m


def affable_real(place: Place, fn: AffableFn):
    """Real-valued evaluator (coefficient scale times the place unit): on
    point arrays at archimedean places, on BerkPoints at ultrametric ones."""
    unit = place.log_unit
    if not place.is_ultrametric:
        return lambda z: affable_eval(place, fn, z) * unit

    def f(x: BerkPoint) -> float:
        return float(affable_eval(place, fn, x)) * unit

    return f


def affable_combine(op: str, f: AffableFn, g=None, q=None) -> AffableFn:
    """Closed combinations: add, max, min (u,v), and scale_q by a rational.

    max uses max(u,v) = max(u+ + v-, v+ + u-) - (u- + v-); negative scalars
    swap the plus and minus pieces.
    """
    if op == "scale_q":
        q = Fraction(q)
        if q >= 0:
            pieces = [p.scaled(q) for p in (f.chart0_plus, f.chart0_minus,
                                            f.chartinf_plus, f.chartinf_minus)]
        else:
            pieces = [p.scaled(-q) for p in (f.chart0_minus, f.chart0_plus,
                                             f.chartinf_minus, f.chartinf_plus)]
        return AffableFn(*pieces, fn_id=f"scale({q})({f.fn_id})")
    if g is None:
        raise AffableError(f"{op} needs two functions")
    if op == "add":
        return AffableFn(
            piece_add(f.chart0_plus, g.chart0_plus),
            piece_add(f.chart0_minus, g.chart0_minus),
            piece_add(f.chartinf_plus, g.chartinf_plus),
            piece_add(f.chartinf_minus, g.chartinf_minus),
            fn_id=f"add({f.fn_id},{g.fn_id})",
        )
    if op == "max":
        return AffableFn(
            piece_vmax(piece_add(f.chart0_plus, g.chart0_minus),
                       piece_add(g.chart0_plus, f.chart0_minus)),
            piece_add(f.chart0_minus, g.chart0_minus),
            piece_vmax(piece_add(f.chartinf_plus, g.chartinf_minus),
                       piece_add(g.chartinf_plus, f.chartinf_minus)),
            piece_add(f.chartinf_minus, g.chartinf_minus),
            fn_id=f"max({f.fn_id},{g.fn_id})",
        )
    if op == "min":
        neg = affable_combine("max", affable_combine("scale_q", f, q=-1),
                              affable_combine("scale_q", g, q=-1))
        out = affable_combine("scale_q", neg, q=-1)
        return AffableFn(out.chart0_plus, out.chart0_minus, out.chartinf_plus,
                         out.chartinf_minus, fn_id=f"min({f.fn_id},{g.fn_id})")
    raise AffableError(f"unknown combine op {op!r}")


def scale_constants(fn: AffableFn, eps) -> AffableFn:
    """The flow-rescaled companion: every branch constant multiplied by eps."""
    eps = Fraction(eps)
    return AffableFn(
        fn.chart0_plus.consts_scaled(eps),
        fn.chart0_minus.consts_scaled(eps),
        fn.chartinf_plus.consts_scaled(eps),
        fn.chartinf_minus.consts_scaled(eps),
        fn_id=fn.fn_id,
    )


# -- the Laplacian-mass bound --------------------------------------------------


def _piece_slope(piece: Piece) -> Fraction:
    """Top slope max over finite branches of sum q_i deg g_i (0 if none)."""
    return max((sum((q * (len(g) - 1) for q, g in b.terms), Fraction(0))
                for b in piece.branches if b.const is not None), default=Fraction(0))


def mass_bound(place: Place, fn: AffableFn) -> float:
    """Bound for |Delta f|(P^1) in real units: the slope sum over the charts
    of s(plus) + s(minus), the same rational at every place, times
    ``place.log_unit``.  A piece's Riesz mass is at most its top slope s;
    the ``sweeps`` docstring derives the scale."""
    slopes = sum((_piece_slope(plus) + _piece_slope(minus) for _, plus, minus in fn.charts()),
                 Fraction(0))
    return float(slopes) * place.log_unit


# -- exact PL restriction to skeleta -------------------------------------------


def restrict_to_skeleton(place: Place, fn: AffableFn, skeleton: MetricGraph):
    """Exact PL restriction: vertex values plus kink vertices inserted where
    the function bends inside an edge.

    Every edge of the result passes the exact midpoint-affineness check.
    Returns (PLFunction, inserted_vertex_indices).
    """
    if not place.is_ultrametric:
        raise PlaceError("skeleton restriction is ultrametric")
    graph = skeleton
    inserted = []
    for _round in range(1024):
        bad = _first_bent_edge(place, fn, graph)
        if bad is None:
            break
        e, z, lo, hi = bad
        kinks = _edge_kinks(place, fn, z, lo, hi)
        if not kinks:
            raise AffableError(f"midpoint check fails on edge {e} but no kink candidate found")
        rho = kinks[0]
        i, j, _ln = graph.edges[e]
        lower_is_i = graph.labels[i].logr <= graph.labels[j].logr
        off = (rho - lo) if lower_is_i else (hi - rho)
        graph, v = subdivide_edge(graph, e, off, label=disk(z, rho))
        inserted.append(v)
    else:
        raise AffableError("kink insertion did not converge")
    values = [affable_eval(place, fn, lbl) for lbl in graph.labels]
    return PLFunction(graph, values), inserted


def _edge_geometry(graph: MetricGraph, e: int):
    i, j, _ = graph.edges[e]
    li, lj = graph.labels[i], graph.labels[j]
    if li is None or lj is None or li.t != "disk" or lj.t != "disk":
        raise AffableError("skeleton edges must join labeled disk points")
    if li.logr <= lj.logr:
        return li.center, li.logr, lj.logr
    return lj.center, lj.logr, li.logr


def _first_bent_edge(place: Place, fn: AffableFn, graph: MetricGraph):
    for e, (i, j, ln) in enumerate(graph.edges):
        z, lo, hi = _edge_geometry(graph, e)
        mid = disk(z, (lo + hi) / 2)
        vi = affable_eval(place, fn, graph.labels[i])
        vj = affable_eval(place, fn, graph.labels[j])
        vm = affable_eval(place, fn, mid)
        if 2 * vm != vi + vj:
            return e, z, lo, hi
    return None


def _edge_kinks(place: Place, fn: AffableFn, z, lo, hi):
    """Exact kink radii of the function along eta_{z, rho}, rho in (lo, hi).

    Candidates: crossings of the monomial lines of every term polynomial
    (Newton-polygon bends), the |T| bend at rho = log|z|, the chart switch
    at rho = 0, and crossings of competing affine branches on the remaining
    subintervals.
    """
    cands = set()
    zl = abs_log_value(place, z) if z != 0 else NEG_INF

    def add(rho):
        if lo < rho < hi:
            cands.add(Fraction(rho))

    for piece in (fn.chart0_plus, fn.chart0_minus, fn.chartinf_plus, fn.chartinf_minus):
        for b in piece.branches:
            for _, coeffs in b.terms:
                for poly in (list(coeffs), list(reversed(coeffs))):
                    shifted = taylor_shift([Fraction(c) for c in poly], z)
                    lines = [
                        (abs_log_value(place, c), i)
                        for i, c in enumerate(shifted)
                        if c != 0
                    ]
                    for a in range(len(lines)):
                        for bb in range(a + 1, len(lines)):
                            (ca, ia), (cb, ib) = lines[a], lines[bb]
                            if ia != ib:
                                add(Fraction(ca - cb, ib - ia))
    add(Fraction(0))
    if not is_neg_inf(zl):
        add(zl)
    # refine with branch-vs-branch crossings on the monomial-free subintervals
    grid = [Fraction(lo)] + sorted(cands) + [Fraction(hi)]
    extra = set()
    for a, b in zip(grid, grid[1:]):
        if b - a <= 0:
            continue
        vals_a = _all_branch_values(place, fn, z, a)
        vals_b = _all_branch_values(place, fn, z, b)
        for rho in _affine_crossings(vals_a, vals_b, a, b):
            if lo < rho < hi:
                extra.add(rho)
    cands |= extra
    return sorted(cands)


def _all_branch_values(place: Place, fn: AffableFn, z, rho):
    x = disk(z, rho)
    t_log = eval_log_abs(place, x, [0, 1])
    chart = "inf" if t_log > 0 else "0"
    out = []
    for sign, piece in ((1, fn.chart0_plus if chart == "0" else fn.chartinf_plus),
                        (-1, fn.chart0_minus if chart == "0" else fn.chartinf_minus)):
        for b in piece.branches:
            v = _branch_value(place, b, x, chart, t_log)
            out.append((sign, v))
    return out


def _affine_crossings(vals_a, vals_b, a, b):
    """Crossing abscissae of affine branch graphs given endpoint values."""
    lines = []
    for (sa, va), (sb, vb) in zip(vals_a, vals_b):
        if is_neg_inf(va) or is_neg_inf(vb):
            continue
        slope = Fraction(vb - va, b - a)
        lines.append((va - slope * a, slope))
    out = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            (ci, si), (cj, sj) = lines[i], lines[j]
            if si != sj:
                rho = Fraction(cj - ci, si - sj)
                if a < rho < b:
                    out.append(rho)
    return out


def validate_charts(place: Place, fn: AffableFn, tol: float = 1e-9) -> bool:
    """Chart-overlap consistency on a 16-point probe of 1/2 < |T| < 2."""
    if not place.is_ultrametric:
        k = np.arange(16)
        z = (0.6 + 0.3 * (k % 4)) * np.exp(2j * np.pi * k / 16)
        v0, poles0 = _arch_chart(place, fn.chart0_plus, fn.chart0_minus, z)
        vi, polesi = _arch_chart(place, fn.chartinf_plus, fn.chartinf_minus, 1 / z)
        return bool((poles0 == polesi).all() and (np.abs(v0 - vi) <= tol).all())
    probes = []
    unit = place.log_unit
    # radii with |T| strictly inside (1/2, 2): |k| step <= 5 step/2 < log 2
    step = Fraction(1, 8 * max(1, int(math.ceil(unit / math.log(2)))))
    for k in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5):
        probes.append(disk(0, k * step))
    probes.append(disk(0, Fraction(0)))
    probes.append(disk(1, -step))
    probes.append(disk(1, -2 * step))
    for z in (1, -1, 3, 5, 7):
        if len(probes) >= 16:
            break
        if abs(float(abs_log_value(place, Fraction(z))) * unit) < math.log(2):
            probes.append(classical(Fraction(z)))
    for x in probes:
        t_log = eval_log_abs(place, x, [0, 1])
        vals = []
        for plus, minus, chart in ((fn.chart0_plus, fn.chart0_minus, "0"),
                                   (fn.chartinf_plus, fn.chartinf_minus, "inf")):
            p = _piece_value(place, plus, x, chart, t_log)
            m = _piece_value(place, minus, x, chart, t_log)
            vals.append(None if (is_neg_inf(p) or is_neg_inf(m)) else p - m)
        v0, vi = vals
        if v0 is None or vi is None:
            if (v0 is None) != (vi is None):
                return False
            continue
        if v0 != vi:
            return False
    return True


# -- (de)serialization ---------------------------------------------------------


def _branch_to_json(b: Branch) -> dict:
    return {
        "c": "-inf" if b.const is None else str(b.const),
        "terms": [[str(q), [str(c) for c in g]] for q, g in b.terms],
    }


def _branch_from_json(obj: dict) -> Branch:
    c = obj.get("c", "0")
    const = None if c == "-inf" else Fraction(str(c))
    terms = tuple((Fraction(str(q)), tuple(Fraction(str(x)) for x in g)) for q, g in obj.get("terms", []))
    return Branch(const, terms)


def _piece_to_json(p: Piece) -> dict:
    return {"branches": [_branch_to_json(b) for b in p.branches]}


def _piece_from_json(obj: dict) -> Piece:
    return Piece(tuple(_branch_from_json(b) for b in obj.get("branches", [])))


def affable_to_json(fn: AffableFn) -> dict:
    return {
        "id": fn.fn_id,
        "chart0": {"plus": _piece_to_json(fn.chart0_plus), "minus": _piece_to_json(fn.chart0_minus)},
        "chartInf": {"plus": _piece_to_json(fn.chartinf_plus), "minus": _piece_to_json(fn.chartinf_minus)},
    }


def affable_from_json(obj: dict) -> AffableFn:
    try:
        return AffableFn(
            _piece_from_json(obj["chart0"]["plus"]),
            _piece_from_json(obj["chart0"]["minus"]),
            _piece_from_json(obj["chartInf"]["plus"]),
            _piece_from_json(obj["chartInf"]["minus"]),
            fn_id=str(obj.get("id", "")),
        )
    except KeyError as exc:
        raise AffableError(f"bad affable JSON: missing {exc}") from exc
