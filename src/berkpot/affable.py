"""Affable test functions: differences of max(q0, q_i log|g_i|) per chart.

A positively-affable piece is a max of branches, each branch being a
rational constant plus a nonnegative-rational combination of log|g| terms
(the combination form is what sums of two maxes produce).  An affable
function carries one (plus, minus) pair of pieces per standard chart of
P^1; chart0 terms are polynomials in T, chartInf terms polynomials in
S = 1/T, and the two descriptions must agree on the overlap ring.
Pieces are normalised at construction: finite branches only; an empty
piece is -inf; zero weights dropped; ints where exact.  Branch weights are
positive, so each piece is subharmonic: ``mass_bound`` is a slope sum,
computed once per function (``AffableFn.slope_sum``).

Evaluation follows the place: at ultrametric places one point at a time in
exact arithmetic; at archimedean places on numpy arrays of points, with
the chart picked per point by |T| > 1 and the chart-inf pieces evaluated at
S = 1/T (S = 0 at infinity); a ``PointTable`` holds the eps-free part, so
a fiber only combines the table's plans with its eps.

Restriction to a skeleton takes each edge once and reads the function
there from affine lines in rho, not from the point evaluator: along
eta_{z,rho} each log|g| is the upper envelope of the Newton lines of
g(z + T), each branch a weighted sum of such lines, and each piece the
envelope of its branches, so f is one line between consecutive crossings.
A vertex is inserted at each exact kink, and the result is exactly affine
on every edge.  The arithmetic stays on ints where no denominator is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .graphs import MetricGraph, PLFunction
from .places import (NEG_INF, Place, PlaceError, abs_log_value, is_inf, is_neg_inf, is_pos_inf,
                     vmax, vplus, vscale)
from .points import (ARCH_INF, DISK, INF, BerkPoint, arch_point, classical, coord_log_abs, disk,
                     eval_log_abs, newton_lines)
from .polys import taylor_shift


class AffableError(ValueError):
    pass


def _num(x):
    """An exact number as an int where its denominator is 1."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


@dataclass(frozen=True)
class Branch:
    """const + sum q_i log|g_i| with q_i > 0, stored as ints where exact and
    Fractions otherwise; zero-weight terms are dropped.  const None means
    -inf, a branch ``Piece`` drops."""

    const: object                 # int | Fraction | None
    terms: tuple                  # ((q, tuple coeffs), ...)

    def __post_init__(self):
        if self.const is not None:
            object.__setattr__(self, "const", _num(Fraction(self.const)))
        terms = tuple((Fraction(q), tuple(_num(Fraction(c)) for c in g)) for q, g in self.terms)
        if any(q < 0 for q, _ in terms):
            raise AffableError("term weights must be nonnegative")
        object.__setattr__(self, "terms", tuple((_num(q), g) for q, g in terms if q))


@dataclass(frozen=True)
class Piece:
    """Positively affable: max over its finite branches; the -inf ones are
    dropped, so an empty piece is -inf."""

    branches: tuple

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(b for b in self.branches if b.const is not None))

    def scaled(self, q: Fraction) -> "Piece":
        if q < 0:
            raise AffableError("pieces scale by nonnegative rationals")
        if q == 0:
            return PIECE_ZERO
        return Piece(tuple(Branch(b.const * q, tuple((qi * q, g) for qi, g in b.terms)) for b in self.branches))


def piece_add(a: Piece, b: Piece) -> Piece:
    return Piece(tuple(Branch(x.const + y.const, x.terms + y.terms) for x in a.branches for y in b.branches))


def piece_vmax(a: Piece, b: Piece) -> Piece:
    return Piece(a.branches + b.branches)


def piece_const(c) -> Piece:
    return Piece((Branch(c, ()),))


def piece_max_log(q0, terms) -> Piece:
    """max(q0, q_1 log|g_1|, ..., q_n log|g_n|); q0 None means -inf."""
    branches = [Branch(q0, ())] if q0 is not None else []
    branches += [Branch(0, ((q, coeffs),)) for q, coeffs in terms]
    if not branches:
        raise AffableError("empty piece")
    return Piece(tuple(branches))


PIECE_ZERO = piece_const(0)


# -- the Laplacian-mass bound --------------------------------------------------


def _piece_slope(piece: Piece):
    """Top slope: max over the branches of sum q_i deg g_i (0 if none), exact."""
    return max((sum(q * (len(g) - 1) for q, g in b.terms) for b in piece.branches), default=0)


def mass_bound(fn: AffableFn) -> float:
    """Bound for |Delta f|(P^1): the slope sum over the charts of
    s(plus) + s(minus), the same pure number at every place (a Laplacian
    mass carries no log unit).  A piece's Riesz mass is at most its top
    slope s; the ``sweeps`` docstring derives the scale.  A function
    caches it as ``AffableFn.slope_sum``."""
    return float(sum(_piece_slope(piece) for chart in ("0", "inf") for piece in fn.pieces(chart)))


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

    slope_sum = cached_property(mass_bound)  # the Laplacian-mass bound, once per function


# -- the exact evaluator -------------------------------------------------------


def _point_reader(place: Place, x: BerkPoint, chart: str, t_log):
    """log|g| at x for a term g of the chart's pieces, t_log = log|T|(x).
    Chart-inf terms are polynomials in S = 1/T, read through the reversed
    list: |g(S)| = |ghat(T)| / |T|^m with m = len(g) - 1.  A term that reads
    +inf (at a residue place) raises ``AffableError`` naming x."""

    def read(g):
        if chart == "0" or x.t == INF:  # S = 0 at infinity
            v, m = eval_log_abs(place, x if chart == "0" else classical(0), g), 0
        else:
            v, m = eval_log_abs(place, x, g[::-1]), len(g) - 1
        if is_pos_inf(v):
            raise AffableError(f"infinite log value at {x!r}")
        return v if m == 0 or is_neg_inf(v) else vplus(v, vscale(-m, t_log))

    return read


def _branch_value(branch: Branch, read):
    total = branch.const
    for q, coeffs in branch.terms:
        v = read(coeffs)
        if is_neg_inf(v):
            return NEG_INF
        total = vplus(total, vscale(q, v))
    return total


def _chart_value(fn: AffableFn, chart: str, read):
    """plus - minus on the chart, or None where either piece is -inf."""
    p, m = (vmax(*(_branch_value(b, read) for b in piece.branches)) for piece in fn.pieces(chart))
    if is_neg_inf(p) or is_neg_inf(m):
        return None
    return p - m


class PointTable:
    """The eps-free part of archimedean evaluation on the point array z: each
    point's chart (inf where |z| > 1) and coordinate (z or S = 1/z), log|g(u)|
    per chart and term g, and per function a plan, all filled on first use.
    A plan holds each piece's branches, (const, [(q, log|g(u)|)]) in
    floats, and the first point in chart order where plus or minus is -inf,
    the same at every eps since eps > 0 and each q > 0."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=complex)
        big = np.abs(self.z) > 1
        self.charts = [c for c in ((~big, "0", self.z[~big]), (big, "inf", 1 / self.z[big])) if c[2].size]
        self.logs = {}  # (chart, coeffs) -> log|g(u)|
        self.plans = {}  # id(fn) -> (fn, [(sel, plus, minus)], pole or None); fn pins the id

    def log_abs(self, chart: str, u, coeffs):
        if (chart, coeffs) not in self.logs:
            g = np.zeros_like(u)
            for c in reversed(coeffs):
                g = g * u + complex(c)
            with np.errstate(divide="ignore"):
                self.logs[chart, coeffs] = np.log(np.abs(g))
        return self.logs[chart, coeffs]

    def plan(self, fn: AffableFn):
        if id(fn) not in self.plans:
            charts, pole = [], None
            for sel, chart, u in self.charts:
                plus, minus = ([(float(b.const), [(float(q), self.log_abs(chart, u, g)) for q, g in b.terms])
                                for b in piece.branches] for piece in fn.pieces(chart))
                # a branch is -inf where one of its terms is, at eps = 1 as at every eps > 0
                poles = np.broadcast_to(np.isneginf(_arch_piece(1.0, plus)) | np.isneginf(_arch_piece(1.0, minus)),
                                        u.shape)
                if pole is None and poles.any():
                    pole = self.z[sel][poles][0]
                charts.append((sel, plus, minus))
            self.plans[id(fn)] = fn, charts, pole
        return self.plans[id(fn)][1:]


def _arch_piece(eps: float, branches):
    """The max of a plan's branches c + sum q (eps log|g|): an array, or a
    scalar where every branch is constant."""
    best = NEG_INF
    for k, (const, terms) in enumerate(branches):
        total = const
        for q, logs in terms:
            total = total + (eps * logs if q == 1.0 else q * (eps * logs))  # 1.0 * x is x
        best = np.maximum(best, total) if k else total
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
        charts, pole = table.plan(fn)
        if pole is not None:
            raise AffableError(f"affable value is -inf at {arch_point(pole)!r}")
        out = np.empty(table.z.shape)
        for sel, plus, minus in charts:
            out[sel] = _arch_piece(place.eps_float, plus) - _arch_piece(place.eps_float, minus)
        return out
    t_log = coord_log_abs(place, x)  # +inf at infinity
    chart = "inf" if t_log > 0 else "0"
    v = _chart_value(fn, chart, _point_reader(place, x, chart, t_log))
    if v is None:
        raise AffableError(f"affable value is -inf at {x!r}")
    return Fraction(v)


def affable_real(place: Place, fn: AffableFn):
    """Real-valued evaluator (coefficient scale times the place unit): on
    point arrays at archimedean places, on BerkPoints at ultrametric ones."""
    if not place.is_ultrametric:  # the unit is 1
        return lambda z: affable_eval(place, fn, z)
    unit = place.log_unit

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

    f is read from affine lines in rho.  The edge splits into stretches at
    lo, 0, log|z| and hi; on each, the chart is fixed and log|T| =
    max(log|z|, rho) is one line.  A term log|g| is the upper envelope of
    the Newton lines (log|c_i|, i) of g(z + T) (``points.newton_lines``); a
    chart-inf term is read through the reversed list minus m times the line
    of log|T|.  Between the crossings of a term's lines each term is one
    line, each branch the line const + sum q (c, i), and each piece the
    upper envelope of its branch lines, so f = plus - minus is one line
    between consecutive crossings.  A kink is a boundary where the line of
    f changes (its slope, where the two charts agree); its value is read
    from the line on its left, in the pointwise chart, as is the value at
    lo.  The pieces are read as ``fn.pieces`` stores them (``Branch``: ints
    where exact), so intercepts, slopes, radii and weights stay ints until
    a crossing or a weight leaves a denominator (``_num``).  An infinite
    log value, read at a residue place, raises ``AffableError``.
    """
    zl, zc = _num(abs_log_value(place, z)), _num(z)
    memo = {}

    def lines(g, rev):
        if (g, rev) not in memo:
            memo[g, rev] = [(_num(c), i) for c, i in newton_lines(place, taylor_shift(g[::-1] if rev else g, zc))]
        return memo[g, rev]

    def stretch(a, b):
        """[(start, (c, s))]: f = c + s rho on [a, b], from each start on."""
        rev = zl > 0 or b > 0  # chart inf on (a, b), and at the point a = b: reversed lists
        tc, ts = (0, 1) if is_neg_inf(zl) or zl <= a else (zl, 0)  # log|T| on [a, b]
        pieces = []
        for piece in fn.pieces("inf" if rev else "0"):
            branches = []
            for branch in piece.branches:
                terms = []
                for q, g in branch.terms:
                    m, raw = (len(g) - 1 if rev else 0), lines(g, rev)
                    if (any(is_pos_inf(c) or (is_inf(b) and i != m * ts) for c, i in raw)
                            or (m and is_pos_inf(tc))):  # a residue place
                        raise AffableError(f"infinite log value at {disk(z, b)!r}")
                    terms.append((q, [(c - m * tc, i - m * ts) for c, i in raw] if m else raw))
                if all(ls for _, ls in terms):  # else a vanishing term: -inf
                    branches.append((branch.const, terms))
            if not branches:
                raise AffableError(f"affable value is -inf at {disk(z, a)!r}")
            pieces.append(branches)
        grid = {x for branches in pieces for _, terms in branches for _, ls in terms
                for x in _crossings(ls, a, b)}
        grid = [a] + sorted(grid) + [b]
        out = []
        for u, w in zip(grid, grid[1:]):
            tops = [list({_line_sum(const, [(q, _top(ls, u)) for q, ls in terms]) for const, terms in branches})
                    for branches in pieces]
            sub = [u] + sorted(set().union(*(_crossings(t, u, w) for t in tops)))
            for x in sub:
                (cp, sp), (cm, sm) = (_top(t, x) for t in tops)
                out.append((x, (cp - cm, sp - sm)))
        return out

    cuts = [_num(lo)] + sorted({r for r in (0, zl) if not is_inf(r) and lo < r < hi}) + [_num(hi)]
    segs = [seg for a, b in zip(cuts, cuts[1:]) for seg in stretch(a, b)]
    first = segs[0][1]
    if cuts[0] == 0 and not zl > 0:  # the point lo = 0 reads chart 0, the stretch above it chart inf
        first = stretch(0, 0)[0][1]
    out = [(lo, _at(first, cuts[0]))]
    for (_, left), (x, right) in zip(segs, segs[1:]):
        if left != right:
            out.append((Fraction(x), _at(left, x)))
    return out + [(hi, _at(segs[-1][1], cuts[-1]))]


def _at(line, x) -> Fraction:
    return Fraction(line[0] + line[1] * x if line[1] else line[0])  # x may be an infinite radius


def _top(lines, x):
    """The line (c, s) highest at x, the steeper of two tied: the highest on
    [x, y] when no two lines cross in (x, y)."""
    return lines[0] if len(lines) == 1 else max(lines, key=lambda ln: (ln[0] + ln[1] * x, ln[1]))


def _line_sum(const, weighted):
    """const + sum q (c, s) over the weighted lines (q, (c, s))."""
    return const + sum(q * c for q, (c, _) in weighted), sum(q * s for q, (_, s) in weighted)


def _crossings(lines, a, b):
    """Abscissae in (a, b) where two of the lines (intercept, slope) cross."""
    out = set()
    for k, (c1, s1) in enumerate(lines):
        for c2, s2 in lines[k + 1:]:
            if s1 != s2:
                n, d = c2 - c1, s1 - s2
                x = (n // d if n % d == 0 else Fraction(n, d)) if type(n) is int is type(d) else _num(n / d)
                if a < x < b:
                    out.add(x)
    return out


# -- (de)serialization ---------------------------------------------------------


def _branch_from_json(obj: dict) -> Branch:
    c = obj.get("c", "0")
    terms = tuple((str(q), tuple(map(str, g))) for q, g in obj.get("terms", []))
    return Branch(None if c == "-inf" else str(c), terms)


def _piece_from_json(obj: dict) -> Piece:
    return Piece(tuple(_branch_from_json(b) for b in obj["branches"]))


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
