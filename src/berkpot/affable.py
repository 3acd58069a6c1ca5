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

Restriction to a skeleton takes each edge once.  Along eta_{z,rho} each
log|g| is the upper envelope of the Newton lines of g(z + T), so the exact
evaluator reads the function there from those lines, and a vertex is
inserted at each exact kink: a candidate radius where the slopes on its two
sides differ.  The result is exactly affine on every edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import MetricGraph, PLFunction
from .places import (NEG_INF, Place, PlaceError, abs_log_value, is_inf, is_neg_inf,
                     vmax, vplus, vscale)
from .points import (ARCH_INF, DISK, INF, BerkPoint, arch_point, classical, disk, eval_log_abs,
                     newton_envelope, newton_lines)
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

    def pieces(self, chart: str):
        """(plus, minus) of the chart "0" or "inf"."""
        if chart == "0":
            return self.chart0_plus, self.chart0_minus
        return self.chartinf_plus, self.chartinf_minus


# -- the exact evaluator -------------------------------------------------------
#
# One evaluator serves points and skeleton edges.  They differ only in
# ``log_abs(g, rev)``, which gives log|g(T)|, or log|ghat(T)| for the reversed
# coefficient list ghat when rev is set: through ``eval_log_abs`` at a point,
# through the Newton lines of the edge at a log-radius (``_edge_vertices``).


def _chart_of(t_log) -> str:
    """The chart read at a point with log|T| = t_log."""
    return "inf" if t_log > 0 else "0"


def _reader(log_abs, chart: str, t_log):
    """log|g| for a term g of the chart's pieces.  Chart-inf terms are
    polynomials in S = 1/T, read through the reversed list:
    |g(S)| = |ghat(T)| / |T|^m with m = len(g) - 1 and t_log = log|T|."""
    if chart == "0":
        return lambda g: log_abs(g, False)

    def read(g):
        v = log_abs(g, True)
        m = len(g) - 1
        if m == 0 or is_neg_inf(v):
            return v
        return vplus(v, vscale(-m, t_log))

    return read


_S_ZERO = classical(0)


def _point_reader(place: Place, x: BerkPoint, chart: str, t_log):
    if chart == "inf" and x.t == INF:
        return lambda g: eval_log_abs(place, _S_ZERO, g)
    return _reader(lambda g, rev: eval_log_abs(place, x, g[::-1] if rev else g), chart, t_log)


def _branch_value(branch: Branch, read):
    if branch.const is None:
        return NEG_INF
    total = branch.const
    for q, coeffs in branch.terms:
        if q == 0:
            continue
        v = read(coeffs)
        if is_neg_inf(v):
            return NEG_INF
        total = vplus(total, vscale(q, v))
    return total


def _piece_value(piece: Piece, read):
    return vmax(*(_branch_value(b, read) for b in piece.branches))


def _chart_value(fn: AffableFn, chart: str, read):
    """plus - minus on the chart, or None where either piece is -inf."""
    p, m = (_piece_value(piece, read) for piece in fn.pieces(chart))
    if is_neg_inf(p) or is_neg_inf(m):
        return None
    return p - m


class PointTable:
    """The eps-free part of archimedean evaluation on the point array z: the
    chart of each point (chart inf where |z| > 1), its chart coordinate (z,
    or S = 1/z), and log|g(u)| per chart and term polynomial g, filled on
    first use.  Every archimedean fiber reads the same table."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=complex)
        big = np.abs(self.z) > 1
        self.charts = ((~big, "0", self.z[~big]), (big, "inf", 1 / self.z[big]))
        self.logs = {}  # (chart, coeffs) -> log|g(u)|

    def log_abs(self, chart: str, u, coeffs):
        if (chart, coeffs) not in self.logs:
            g = np.zeros_like(u)
            for c in reversed(coeffs):
                g = g * u + complex(c)
            with np.errstate(divide="ignore"):
                self.logs[chart, coeffs] = np.log(np.abs(g))
        return self.logs[chart, coeffs]


def _arch_piece(eps: float, piece: Piece, read, shape):
    """Piece values from ``read(coeffs)`` = log|g| at the chart coordinates,
    eps log|.| scale; -inf where every branch is."""
    best = np.full(shape, NEG_INF)
    for b in piece.branches:
        if b.const is None:
            continue
        total = np.full(shape, float(b.const))
        for q, coeffs in b.terms:
            if q != 0:
                total = total + float(q) * (eps * read(coeffs))
        best = np.maximum(best, total)
    return best


def affable_eval(place: Place, fn: AffableFn, x):
    """Value at x on the place's coefficient scale; chart picked by |T(x)|.

    At an archimedean place x may also be a complex ndarray of points
    (complex inf for the point at infinity), evaluated at once, or the
    ``PointTable`` of such an array.
    """
    if not place.is_ultrametric:
        if isinstance(x, BerkPoint):
            if x.t == "disk":
                raise PlaceError("disk points live in ultrametric fibers only")
            z = ARCH_INF if x.t == "inf" else complex(x.z)
            return float(affable_eval(place, fn, np.array([z]))[0])
        table = x if isinstance(x, PointTable) else PointTable(x)
        out = np.empty(table.z.shape)
        for sel, chart, u in table.charts:
            p, m = (_arch_piece(float(place.eps), piece, lambda g: table.log_abs(chart, u, g), u.shape)
                    for piece in fn.pieces(chart))
            poles = np.isneginf(p) | np.isneginf(m)
            if poles.any():
                raise AffableError(f"affable value is -inf at {arch_point(table.z[sel][poles][0])!r}")
            out[sel] = p - m
        return out
    t_log = eval_log_abs(place, x, [0, 1])  # +inf at infinity
    chart = _chart_of(t_log)
    v = _chart_value(fn, chart, _point_reader(place, x, chart, t_log))
    if v is None:
        raise AffableError(f"affable value is -inf at {x!r}")
    return v


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
    slopes = sum((_piece_slope(piece) for chart in ("0", "inf") for piece in fn.pieces(chart)),
                 Fraction(0))
    return float(slopes) * place.log_unit


# -- exact PL restriction to skeleta -------------------------------------------


def restrict_to_skeleton(place: Place, fn: AffableFn, skeleton: MetricGraph):
    """Exact PL restriction: the values at the skeleton's vertices, plus a
    vertex at every kink of the function inside an edge.

    Each edge is taken once (``_edge_vertices``), and the result is exactly
    affine on every edge of the returned graph.  The skeleton's vertices keep
    their indices; inserted ones follow.  Returns (PLFunction,
    inserted_vertex_indices).
    """
    if not place.is_ultrametric:
        raise PlaceError("skeleton restriction is ultrametric")
    labels = list(skeleton.labels)
    values = [None] * skeleton.n
    edges, inserted = [], []
    for i, j, _ln in skeleton.edges:
        a, b = labels[i], labels[j]
        if a is None or b is None or a.t != DISK or b.t != DISK:
            raise AffableError("skeleton edges must join labeled disk points")
        if a.logr > b.logr:
            i, j, a, b = j, i, b, a
        pts = _edge_vertices(place, fn, a.center, a.logr, b.logr)
        chain = [i]
        for rho, v in pts[1:-1]:
            labels.append(disk(a.center, rho))
            values.append(v)
            inserted.append(len(labels) - 1)
            chain.append(len(labels) - 1)
        chain.append(j)
        values[i], values[j] = pts[0][1], pts[-1][1]
        edges.extend((u, w, rw - ru) for u, w, (ru, _), (rw, _) in zip(chain, chain[1:], pts, pts[1:]))
    for v, lbl in enumerate(skeleton.labels):
        if values[v] is None:  # a skeleton without edges
            values[v] = affable_eval(place, fn, lbl)
    graph = MetricGraph(labels=labels, edges=edges, boundary=list(skeleton.boundary))
    return PLFunction(graph, values), inserted


def _edge_vertices(place: Place, fn: AffableFn, z, lo, hi):
    """[(rho, f(eta_{z,rho}))] at lo, at every kink in (lo, hi), and at hi.

    Along eta_{z,rho} each log|g| is the upper envelope of the Newton lines
    log|c_i| + i rho of g(z + T) (``points.newton_lines``); they are computed
    once per term polynomial and read by the exact evaluator.  Kink
    candidates: crossings of each polynomial's lines, the bend of
    log|T| = max(log|z|, rho) at rho = log|z|, the chart switch at rho = 0,
    and, between those, crossings of the branches of a piece, read in that
    stretch's chart.  f is affine between consecutive candidates, so a
    candidate is a kink exactly where the slopes on its two sides differ.
    """
    zl = abs_log_value(place, z)
    memo = {}

    def lines(g, rev):
        key = (id(g), rev)  # g is held by fn for the whole call
        if key not in memo:
            memo[key] = newton_lines(place, taylor_shift(g[::-1] if rev else g, z))
        return memo[key]

    def reader(rho, chart):
        return _reader(lambda g, rev: newton_envelope(lines(g, rev), rho), chart, vmax(zl, rho))

    def value(rho):
        chart = _chart_of(vmax(zl, rho))
        v = _chart_value(fn, chart, reader(rho, chart))
        if v is None:
            raise AffableError(f"affable value is -inf at {disk(z, rho)!r}")
        return v

    cands = {r for r in (Fraction(0), zl) if not is_inf(r) and lo < r < hi}
    cuts = [lo] + sorted(cands) + [hi]
    for a, b in zip(cuts, cuts[1:]):
        chart = _chart_of(vmax(zl, (a + b) / 2))
        polys = {id(g): g for piece in fn.pieces(chart) for br in piece.branches for _, g in br.terms}
        bends = set()
        for g in polys.values():
            bends |= _crossings([ln for ln in lines(g, chart == "inf") if not is_inf(ln[0])], a, b)
        grid = [a] + sorted(bends) + [b]
        ends = [[[_branch_value(br, read) for br in piece.branches] for piece in fn.pieces(chart)]
                for read in (reader(rho, chart) for rho in grid)]
        for (u, vals_u), (w, vals_w) in zip(zip(grid, ends), zip(grid[1:], ends[1:])):
            for pu, pw in zip(vals_u, vals_w):
                branch_lines = [(vu - u * (vw - vu) / (w - u), (vw - vu) / (w - u))
                                for vu, vw in zip(pu, pw) if not (is_inf(vu) or is_inf(vw))]
                bends |= _crossings(branch_lines, u, w)
        cands |= bends
    pts = [lo] + sorted(cands) + [hi]
    vals = [value(rho) for rho in pts]
    out = [(lo, vals[0])]
    for k in range(1, len(pts) - 1):
        if (vals[k] - vals[k - 1]) * (pts[k + 1] - pts[k]) != (vals[k + 1] - vals[k]) * (pts[k] - pts[k - 1]):
            out.append((pts[k], vals[k]))
    out.append((hi, vals[-1]))
    return out


def _crossings(lines, a, b):
    """Abscissae in (a, b) where two of the lines (intercept, slope) cross."""
    out = set()
    for k, (c1, s1) in enumerate(lines):
        for c2, s2 in lines[k + 1:]:
            if s1 != s2:
                x = (c2 - c1) / (s1 - s2)
                if a < x < b:
                    out.add(x)
    return out


# -- (de)serialization ---------------------------------------------------------


def _branch_from_json(obj: dict) -> Branch:
    c = obj.get("c", "0")
    const = None if c == "-inf" else Fraction(str(c))
    terms = tuple((Fraction(str(q)), tuple(Fraction(str(x)) for x in g)) for q, g in obj.get("terms", []))
    return Branch(const, terms)


def _piece_from_json(obj: dict) -> Piece:
    return Piece(tuple(_branch_from_json(b) for b in obj.get("branches", [])))


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
