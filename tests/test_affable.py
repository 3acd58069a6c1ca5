import json
import math
import os
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

from berkpot.affable import (
    AffableError,
    AffableFn,
    Branch,
    Piece,
    PIECE_ZERO,
    affable_combine,
    affable_eval,
    affable_from_json,
    mass_bound,
    piece_add,
    piece_const,
    piece_max_log,
    _chart_value,
    _point_reader,
    restrict_to_skeleton,
)
from berkpot.battery import load_battery, standard_battery
from berkpot.graphs import graph_laplacian
from berkpot.places import Place, abs_log_value
from berkpot.points import ARCH_INF, GAUSS, arch_point, build_skeleton, classical, disk, eval_log_abs
from berkpot.sweeps import RadiusSpec, SweepConfig, _chi_at, _sweep, default_skeleton

ARC = Place.archimedean()
TRIV = Place.trivial()
P2 = Place.padic(2)
BAT = standard_battery()
F1 = BAT[0]  # max(0, log|T-2|)


def random_probe_points(rng, n=40):
    pts = []
    for _ in range(n):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z) > 1e-3:
            pts.append(classical(z))
    return pts


def test_eval_examples():
    assert affable_eval(TRIV, F1, GAUSS) == 0
    assert affable_eval(ARC, F1, classical(4.0 + 0j)) == pytest.approx(math.log(2))
    half = Place.archimedean(F(1, 2))
    assert affable_eval(half, F1, classical(4.0 + 0j)) == pytest.approx(math.log(2) / 2)


def test_arch_array_eval_matches_closed_forms():
    # the battery's closed forms, point by point, on both charts
    def lg(x):
        return math.log(abs(x))

    forms = {
        "clip_log_T_minus_2": lambda z, e: e * max(0.0, lg(z - 2)),
        "one": lambda z, e: 1.0,
        "log_plus_T": lambda z, e: e * max(0.0, lg(z)),
        "log_ratio_3_2": lambda z, e: e * (lg(z - 3) - lg(z - 2)),
        "clip_log_T2_minus_2": lambda z, e: e * (max(0.0, lg(z * z - 2)) - max(0.0, 2 * lg(z))),
        "half_clip_log_T_minus_1": lambda z, e: e * max(0.0, 0.5 * lg(z - 1)),
        "min_clip_half": lambda z, e: min(e * max(0.0, lg(z - 2)), 0.5),
        "standard_potential": lambda z, e: e * max(0.0, -lg(z)),
    }
    rng = random.Random(41)
    zs = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(300)]
    for eps in (F(1), F(1, 3), F(1, 1024)):
        place = Place.archimedean(eps)
        for fn in BAT:
            got = affable_eval(place, fn, np.array(zs))
            want = [forms[fn.fn_id](z, float(eps)) for z in zs]
            assert got == pytest.approx(want, abs=1e-12), (fn.fn_id, eps)


def _oracle_piece(piece, u, eps):
    """A piece read term by term from its Branch data: full(const) plus
    q (eps log|g(u)|) per weighted term, g by Horner, max over the branches."""
    best = np.full(u.shape, -math.inf)
    for b in piece.branches:
        if b.const is None:
            continue
        total = np.full(u.shape, float(b.const))
        for q, g in b.terms:
            if q != 0:
                with np.errstate(divide="ignore"):
                    logs = np.log(np.abs(np.polyval([complex(c) for c in reversed(g)], u)))
                total = total + float(q) * (eps * logs)
        best = np.maximum(best, total)
    return best


def _oracle(fn, zs, eps):
    """(values, first pole in chart order or None): chart inf, at S = 1/z,
    where |z| > 1."""
    out, poles = np.empty(zs.shape), []
    big = np.abs(zs) > 1
    for sel, chart, u in ((~big, "0", zs[~big]), (big, "inf", 1 / zs[big])):
        p, m = (_oracle_piece(piece, u, eps) for piece in fn.pieces(chart))
        poles += list(zs[sel][np.isneginf(p) | np.isneginf(m)])
        out[sel] = p - m
    return out, (poles[0] if poles else None)


ORACLE_FNS = [
    # (5/3) clip_log_T2_minus_2: weights that are not powers of 2
    affable_combine("scale_q", BAT[4], q=F(5, 3)),
    # log|T - 1| (the sweep tests' pole function): -inf at 1, its minus piece -inf at infinity
    AffableFn(piece_max_log(None, [(1, [-1, 1])]), PIECE_ZERO,
              piece_max_log(None, [(1, [1, -1])]), piece_max_log(None, [(1, [0, 1])]), fn_id="log_T_minus_1"),
    # log|T - 1/2| - log|T + 1/2|: the plus piece -inf at 1/2, the minus piece at -1/2
    AffableFn(piece_max_log(None, [(1, [F(-1, 2), 1])]), piece_max_log(None, [(1, [F(1, 2), 1])]),
              piece_max_log(None, [(1, [1, F(-1, 2)])]), piece_max_log(None, [(1, [1, F(1, 2)])]),
              fn_id="log_ratio_halves"),
    # log|T| on chart 0, and a chart-inf plus piece with no finite branch: -inf on all of |T| > 1
    AffableFn(piece_max_log(None, [(1, [0, 1])]), PIECE_ZERO, Piece((Branch(None, ()),)), PIECE_ZERO,
              fn_id="no_finite_branch"),
]
# infinity, the unit circle, and exact zeros of terms: T, T - 1, T - 2, T - 3,
# T -+ 1/2, 1 - 2S (T = 2) and 1 - 3S (T = 3)
ORACLE_POINTS = np.array([0.3 + 0.2j, ARCH_INF, 1, -1, 1j, complex(math.cos(2), math.sin(2)), 0, 2, 3,
                          0.5, -0.5, 1.5 - 2j, -4 + 0.1j, 0.99j, 1e-3])


@pytest.mark.parametrize("eps", [F(1), F(1, 3), F(1, 1024)], ids=["1", "1/3", "2^-10"])
def test_arch_eval_equals_a_per_term_oracle(eps):
    # bitwise on the points where f is finite; a pole fails the array at the
    # first pole in chart order, and each pole alone names itself
    place = Place.archimedean(eps)
    for fn in BAT + ORACLE_FNS:
        want, pole = _oracle(fn, ORACLE_POINTS, float(eps))
        if pole is None:
            assert np.array_equal(affable_eval(place, fn, ORACLE_POINTS), want), fn.fn_id
            continue
        with pytest.raises(AffableError) as caught:
            affable_eval(place, fn, ORACLE_POINTS)
        assert str(caught.value) == f"affable value is -inf at {arch_point(pole)!r}"
        finite = np.array([_oracle(fn, np.array([z]), float(eps))[1] is None for z in ORACLE_POINTS])
        assert np.array_equal(affable_eval(place, fn, ORACLE_POINTS[finite]), want[finite]), fn.fn_id
        for z in ORACLE_POINTS[~finite]:
            with pytest.raises(AffableError, match=re.escape(repr(arch_point(z)))):
                affable_eval(place, fn, np.array([z]))
    # the minus piece's pole -1/2 comes before the plus piece's 1/2
    with pytest.raises(AffableError, match=re.escape(f"-inf at {arch_point(-0.5)!r}")):
        affable_eval(place, ORACLE_FNS[2], np.array([0.1, -0.5, 0.2, 0.5]))


def overlap_ring(place):
    """Points with 1/2 < |T| < 2: four points on each of five circles at an
    archimedean place; at an ultrametric one the disks eta_{0,r} (the Gauss
    point among them) and eta_{1,r}, and the units among 1, -1, 3, 5, 7."""
    if not place.is_ultrametric:
        return [classical(r * complex(math.cos(t), math.sin(t)))
                for r in (0.6, 0.9, 1.0, 1.2, 1.5) for t in (0.3, 1.9, 3.5, 5.1)]
    # |k| step <= 5 step / 2 < log 2 in real units
    step = F(1, 8 * max(1, math.ceil(place.log_unit / math.log(2))))
    pts = [disk(0, k * step) for k in range(-5, 6)] + [disk(1, -step), disk(1, -2 * step)]
    return pts + [classical(F(z)) for z in (1, -1, 3, 5, 7)
                  if abs(float(abs_log_value(place, F(z))) * place.log_unit) < math.log(2)]


def assert_charts_agree(place, fn):
    """Both charts' descriptions of fn on the overlap ring, read by the exact
    evaluator: equal (Fraction ==) at ultrametric places, within 1e-12 at
    archimedean ones, and -inf at the same points."""
    for x in overlap_ring(place):
        t_log = eval_log_abs(place, x, [0, 1])
        v0, vi = (_chart_value(fn, c, _point_reader(place, x, c, t_log)) for c in ("0", "inf"))
        assert (v0 is None) == (vi is None), (fn.fn_id, x)
        if v0 is not None:
            assert v0 == (vi if place.is_ultrametric else pytest.approx(vi, abs=1e-12)), (fn.fn_id, x)


def test_eval_chart_switch_consistency():
    for place in (ARC, Place.archimedean(F(1, 3)), P2, Place.padic(7), TRIV):
        for fn in BAT:
            assert_charts_agree(place, fn)


def test_chart_check_rejects_mismatched_charts():
    # chart inf of F1 glued to chart 0 of log_ratio_3_2: both checks see it
    bad = AffableFn(BAT[3].chart0_plus, BAT[3].chart0_minus, F1.chartinf_plus, F1.chartinf_minus)
    for place in (ARC, P2, Place.padic(3)):
        with pytest.raises(AssertionError):
            assert_charts_agree(place, bad)


def test_eval_divergence_raises():
    sp = next(f for f in BAT if f.fn_id == "standard_potential")
    with pytest.raises(AffableError):
        affable_eval(ARC, sp, classical(0j))


def test_combine_pointwise_oracles():
    rng = random.Random(17)
    pts = random_probe_points(rng, 100)
    f, g = BAT[0], BAT[5]
    combos = {
        "add": (affable_combine("add", f, g), lambda a, b: a + b),
        "max": (affable_combine("max", f, g), lambda a, b: max(a, b)),
        "min": (affable_combine("min", f, g), lambda a, b: min(a, b)),
    }
    for name, (h, op) in combos.items():
        for x in pts:
            want = op(affable_eval(ARC, f, x), affable_eval(ARC, g, x))
            got = affable_eval(ARC, h, x)
            assert got == pytest.approx(want, abs=1e-9), name
        assert_charts_agree(ARC, h)
        assert_charts_agree(P2, h)


def test_scale_q():
    rng = random.Random(23)
    pts = random_probe_points(rng, 30)
    h = affable_combine("scale_q", F1, q=F(-3, 2))
    for x in pts:
        assert affable_eval(ARC, h, x) == pytest.approx(-1.5 * affable_eval(ARC, F1, x), abs=1e-9)
    zero = affable_combine("scale_q", F1, q=0)
    assert all(affable_eval(ARC, zero, x) == 0 for x in pts)


def test_add_identity():
    zero_fn = AffableFn(piece_const(0), PIECE_ZERO, piece_const(0), PIECE_ZERO, fn_id="zero")
    h = affable_combine("add", F1, zero_fn)
    rng = random.Random(2)
    for x in random_probe_points(rng, 20):
        assert affable_eval(ARC, h, x) == pytest.approx(affable_eval(ARC, F1, x), abs=1e-12)


@pytest.mark.parametrize("place", [P2, Place.padic(3)], ids=["p2", "p3"])
def test_combine_identities_are_exact_on_disks(place):
    # an ultrametric value is exact, so each combination rule holds with ==
    rng = random.Random(31)
    ops = {"add": lambda a, b: a + b, "max": max, "min": min}
    for _ in range(30):
        f, g = rng.choice(BAT), rng.choice(BAT)
        x = disk(F(rng.randint(-9, 9), rng.choice([1, 2, 3])), F(rng.randint(-6, 6), rng.choice([1, 2])))
        u, v = affable_eval(place, f, x), affable_eval(place, g, x)
        for op, want in ops.items():
            assert affable_eval(place, affable_combine(op, f, g), x) == want(u, v), (op, f.fn_id, g.fn_id, x)
        for q in (F(-3, 2), 0, F(5, 3)):
            assert affable_eval(place, affable_combine("scale_q", f, q=q), x) == q * u, (q, f.fn_id, x)


SLOPE_SUMS = {
    "clip_log_T_minus_2": 3,
    "one": 0,
    "log_plus_T": 3,
    "log_ratio_3_2": 4,
    "clip_log_T2_minus_2": 8,
    "half_clip_log_T_minus_1": F(3, 2),
    "min_clip_half": 4,
    "standard_potential": 3,
}


@pytest.mark.parametrize("place", [ARC, Place.archimedean(F(1, 2**10)), Place.padic(3)],
                         ids=["arch-1", "arch-2^-10", "padic-3"])
def test_mass_bound_is_the_slope_sum(place):
    # one pure number at every place: a sweep adds tail x slope sum, with no log unit
    assert {f.fn_id: mass_bound(f) for f in BAT} == {fid: float(s) for fid, s in SLOPE_SUMS.items()}
    mu = _chi_at(place, F(0), RadiusSpec("const", F(1)))
    bare, tailed = (_sweep(SweepConfig(grid=[place], battery=BAT), lambda _place: (mu, 0, tail))
                    for tail in (0.0, 1.0))
    for row, row_tailed in zip(bare.rows, tailed.rows):
        assert row_tailed.cert_err == row.cert_err + float(SLOPE_SUMS[row.fn_id])


def test_mass_bound_clipped_log():
    # Delta max(0, log|T|) on P^1 is Haar on |T| = 1 minus delta_inf: total
    # variation 2; the slope sum is 1 (chart 0) + 1 + 1 (chart inf)
    fn = next(f for f in BAT if f.fn_id == "log_plus_T")
    bound = mass_bound(fn)
    assert bound == 3
    assert bound >= 2


def test_mass_bound_constant():
    one = next(f for f in BAT if f.fn_id == "one")
    assert mass_bound(one) == 0


def test_mass_bound_dominates_skeleton_laplacian():
    # log|T-3| - log|T-2| over Q_3: the zero 3 retracts to eta_{0,1/3} and
    # the pole 2 to the Gauss point, so the atoms are +1 and -1 exactly
    fn = next(f for f in BAT if f.fn_id == "log_ratio_3_2")
    p3 = Place.padic(3)
    u, _ = restrict_to_skeleton(p3, fn, default_skeleton(p3))
    lap = graph_laplacian(u)
    atoms = {v: w for v, w in lap.atoms if w != 0}
    gauss = u.graph.vertex_of_point(p3, GAUSS)
    below = u.graph.vertex_of_point(p3, disk(0, F(-1)))
    assert atoms == {below: 1, gauss: -1}
    total_variation = sum(abs(w) for _, w in lap.atoms)
    assert total_variation == 2
    assert total_variation <= mass_bound(fn)


def test_restrict_examples():
    seg = build_skeleton(P2, [disk(0, -1), disk(0, 1)])
    fn = next(f for f in BAT if f.fn_id == "log_plus_T")
    u, inserted = restrict_to_skeleton(P2, fn, seg)
    assert len(inserted) == 1  # the kink at the Gauss point
    gauss = u.graph.vertex_of_point(P2, GAUSS)
    assert gauss is not None and u.values[gauss] == 0
    lap = graph_laplacian(u)
    assert lap.weight_at(gauss) == 1

    # log|T-1| over Q_2: |T-1| = max(r, 1) along eta_{0,r}, kink at Gauss too
    ft = AffableFn(
        piece_max_log(None, [(1, [-1, 1])]),
        PIECE_ZERO,
        piece_max_log(None, [(1, [1, -1])]),
        piece_max_log(None, [(1, [0, 1])]),
        fn_id="log_T_minus_1",
    )
    assert_charts_agree(P2, ft)
    u2, ins2 = restrict_to_skeleton(P2, ft, seg)
    g2 = u2.graph.vertex_of_point(P2, GAUSS)
    assert g2 is not None
    assert u2.values[g2] == 0

    const = next(f for f in BAT if f.fn_id == "one")
    u3, ins3 = restrict_to_skeleton(P2, const, seg)
    assert not ins3 and all(v == 1 for v in u3.values)

    # min(max(0, log|T-2|), 1/2) over Q_3 is min(max(0, rho), 1/2) along
    # eta_{2,rho}: two kinks placed symmetrically about the edge's midpoint
    p3 = Place.padic(3)
    clip = next(f for f in BAT if f.fn_id == "min_clip_half")
    u4, ins4 = restrict_to_skeleton(p3, clip, build_skeleton(p3, [disk(2, F(-1, 4)), disk(2, F(3, 4))]))
    assert [u4.graph.labels[v] for v in ins4] == [disk(2, 0), disk(2, F(1, 2))]
    assert [u4.values[v] for v in ins4] == [0, F(1, 2)]

    # log|T-3| - log|T-2| over Q_2 is max(0, rho) - max(-1, rho) along
    # eta_{4,rho}: one kink, at rho = -1, and no vertex where the slopes agree
    ratio = next(f for f in BAT if f.fn_id == "log_ratio_3_2")
    u5, ins5 = restrict_to_skeleton(P2, ratio, build_skeleton(P2, [GAUSS, disk(4, -4)]))
    assert [u5.graph.labels[v] for v in ins5] == [disk(4, -1)]


def test_restrict_midpoint_exactness():
    p3 = Place.padic(3)
    skel = default_skeleton(p3)
    for fn in BAT:
        u, _ = restrict_to_skeleton(p3, fn, skel)
        for i, j, _ln in u.graph.edges:
            a, b = u.graph.labels[i], u.graph.labels[j]
            lo, hi = (a, b) if a.logr <= b.logr else (b, a)
            mid = disk(lo.center, (lo.logr + hi.logr) / 2)
            assert 2 * affable_eval(p3, fn, mid) == u.values[i] + u.values[j]


def _restrict_places(p):
    return [Place.padic(p), Place.padic(p, F(1, 2)), Place.padic(p, 2), Place.padic(p, 1024),
            Place.trivial(), Place.tadic(), Place.tadic(F(1, 3))]


def test_restrict_matches_pointwise_oracle_randomized():
    # PL interpolation of the restriction must equal direct evaluation at
    # arbitrary edge points, exactly, with no vertex inserted off a kink; the
    # centres include p in the denominator and the radii 0, so edges end at
    # the chart switch
    rng = random.Random(424242)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        place = rng.choice(_restrict_places(p))
        fn = rng.choice(BAT[:7])
        for _ in range(rng.randint(0, 2)):
            fn = affable_combine(rng.choice(["add", "max", "min"]), fn, rng.choice(BAT[:7]))
        pts = [disk(F(rng.randint(-6, 6), rng.choice([1, 1, p, p * p])),
                    rng.choice([0, F(rng.randint(-8, 8), rng.choice([1, 2, 4]))]))
               for _ in range(rng.randint(1, 4))]
        skel = build_skeleton(place, pts)
        u, inserted = restrict_to_skeleton(place, fn, skel)
        adj = u.graph.adjacency()
        for v in inserted:
            # an inserted vertex is a kink: the slopes on its two sides differ
            (w1, l1, _), (w2, l2, _) = adj[v]
            assert (u.values[v] - u.values[w1]) / l1 != (u.values[w2] - u.values[v]) / l2
        for v, lbl in enumerate(u.graph.labels):
            assert u.values[v] == affable_eval(place, fn, lbl) and type(u.values[v]) is F
        for i, j, _ln in u.graph.edges:
            a, b = u.graph.labels[i], u.graph.labels[j]
            lo, hi, vlo, vhi = (
                (a, b, u.values[i], u.values[j])
                if a.logr <= b.logr
                else (b, a, u.values[j], u.values[i])
            )
            for _ in range(4):
                t = F(rng.randint(1, 15), 16)
                rho = lo.logr + (hi.logr - lo.logr) * t
                assert affable_eval(place, fn, disk(lo.center, rho)) == vlo + (vhi - vlo) * t


def test_restrict_edges_at_the_chart_switch():
    # edges that end at rho = 0 from below and from above, on a unit centre
    # (log|z| = 0) and on 0 itself; one vertex value is read in chart 0 at
    # lo = 0 even when the two charts disagree
    for place in (Place.padic(3), Place.padic(3, F(1, 2)), TRIV):
        for z in (F(0), F(1), F(5)):
            skel = build_skeleton(place, [disk(z, -2), disk(z, 0), disk(z, 3)])
            for fn in BAT[:7]:
                u, _ = restrict_to_skeleton(place, fn, skel)
                assert all(v == affable_eval(place, fn, x) for v, x in zip(u.values, u.graph.labels))
    bad = AffableFn(BAT[3].chart0_plus, BAT[3].chart0_minus, F1.chartinf_plus, F1.chartinf_minus)
    p3 = Place.padic(3)
    u, _ = restrict_to_skeleton(p3, bad, build_skeleton(p3, [GAUSS, disk(0, 2)]))
    assert [u.values[u.graph.vertex_of_point(p3, x)] for x in (GAUSS, disk(0, 2))] == [
        affable_eval(p3, bad, GAUSS), affable_eval(p3, bad, disk(0, 2))]


def test_restrict_at_a_residue_place():
    # at |.|_2^{+inf} the centre 7/2 has log|z| = +inf: a function that reads a
    # term there fails typed, naming the point; one that reads none restricts
    r2 = Place.residue(2)
    skel = build_skeleton(r2, [disk(F(7, 2), -3), disk(F(7, 2), -1)])
    by_id = {f.fn_id: f for f in BAT}
    for fid in ("min_clip_half", "clip_log_T_minus_2", "log_plus_T"):
        with pytest.raises(AffableError, match=r"Eta\(7/2,"):
            restrict_to_skeleton(r2, by_id[fid], skel)
    u, inserted = restrict_to_skeleton(r2, by_id["one"], skel)
    assert u.values == [1, 1] and not inserted
    # |1/2| = +inf puts the join of 0 and 1/2 at radius +inf: a term with a
    # nonzero slope there reads an infinite value, and a constant needs no vertex
    skel = build_skeleton(r2, [disk(0, -1), disk(F(1, 2), -1)])
    with pytest.raises(AffableError, match=r"Eta\(0,inf\)"):
        restrict_to_skeleton(r2, by_id["standard_potential"], skel)
    u, inserted = restrict_to_skeleton(r2, by_id["one"], skel)
    assert u.values == [1, 1, 1] and not inserted


@pytest.mark.parametrize("fid", ["min_clip_half", "clip_log_T_minus_2"])
def test_affable_eval_at_a_residue_place(fid):
    # |7/2| = +inf at |.|_2^{+inf}: a term that reads +inf fails typed,
    # naming the point, as the restriction does
    r2, x = Place.residue(2), disk(F(7, 2), -3)
    by_id = {f.fn_id: f for f in BAT}
    with pytest.raises(AffableError, match=r"infinite log value at Eta\(7/2,-3\)"):
        affable_eval(r2, by_id[fid], x)
    assert affable_eval(r2, by_id["one"], x) == 1


def test_restrict_matches_frozen_padic_skeleta():
    # the seeded padic-skeleton benchmark skeleta (seed 3001) x the battery,
    # frozen as exact strings: labels, edges, values and inserted vertices
    with open(os.path.join(os.path.dirname(__file__), "data", "restrict_padic_seed3001.json")) as fh:
        frozen = json.load(fh)
    for case in frozen["cases"]:
        place = Place.padic(case["p"])
        skel = build_skeleton(place, [disk(F(c), F(r)) for c, r in case["disks"]])
        for fn in BAT:
            u, inserted = restrict_to_skeleton(place, fn, skel)
            got = {"labels": [[str(x.center), str(x.logr)] for x in u.graph.labels],
                   "edges": [[i, j, str(ln)] for i, j, ln in u.graph.edges],
                   "values": [str(v) for v in u.values], "inserted": inserted}
            assert got == case["restrictions"][fn.fn_id], (case["disks"], fn.fn_id)
            assert all(type(v) is F for v in u.values)


def test_restrict_reads_lines_not_the_point_evaluator(monkeypatch):
    import berkpot.affable as affable

    def forbidden(*args):
        raise AssertionError("the edge reader called the point evaluator")

    for name in ("_branch_value", "_chart_value", "_point_reader", "eval_log_abs", "coord_log_abs"):
        monkeypatch.setattr(affable, name, forbidden)
    p3 = Place.padic(3)
    for fn in BAT:
        restrict_to_skeleton(p3, fn, default_skeleton(p3))


def _branch(c, *terms):
    return {"c": c, "terms": [[q, g] for q, g in terms]}


def _piece(*branches):
    return {"branches": list(branches)}


_LOG_T = ("1", ["0", "1"])  # the term 1 * log|T|
# the first three battery functions as a battery file spells them
_BATTERY_JSON = [
    {"id": "clip_log_T_minus_2",
     "chart0": {"plus": _piece(_branch("0"), _branch("0", ("1", ["-2", "1"]))), "minus": _piece(_branch("0"))},
     "chartInf": {"plus": _piece(_branch("0", _LOG_T), _branch("0", ("1", ["1", "-2"]))),
                  "minus": _piece(_branch("0", _LOG_T))}},
    {"id": "one",
     "chart0": {"plus": _piece(_branch("1")), "minus": _piece(_branch("0"))},
     "chartInf": {"plus": _piece(_branch("1")), "minus": _piece(_branch("0"))}},
    {"id": "log_plus_T",
     "chart0": {"plus": _piece(_branch("0"), _branch("0", _LOG_T)), "minus": _piece(_branch("0"))},
     "chartInf": {"plus": _piece(_branch("0"), _branch("0", _LOG_T)), "minus": _piece(_branch("0", _LOG_T))}},
]


def test_load_battery_from_file(tmp_path):
    path = tmp_path / "battery.json"
    path.write_text(json.dumps({"functions": _BATTERY_JSON}))
    assert load_battery(str(path)) == BAT[:3]


def test_affable_json_round_trip():
    assert [affable_from_json(obj) for obj in _BATTERY_JSON] == BAT[:3]
    with pytest.raises(AffableError, match="missing"):
        affable_from_json({"id": "x", "chart0": _BATTERY_JSON[1]["chart0"]})


def test_missing_branches_key_is_an_error():
    # a misspelled key is not an empty, -inf piece; an explicit [] still is
    obj = json.loads(json.dumps(_BATTERY_JSON[1]))
    obj["chart0"]["minus"] = {"branches": []}
    assert affable_from_json(obj).chart0_minus == Piece(())
    obj["chart0"]["minus"] = {"branch": [_branch("0")]}
    with pytest.raises(AffableError) as caught:
        affable_from_json(obj)
    assert str(caught.value) == "bad affable JSON: missing 'branches'"


def test_pieces_are_canonical_at_construction():
    # a -inf branch and a zero-weight term vanish when built; exact numbers
    # are ints where the denominator is 1, Fractions otherwise
    piece = Piece((Branch(None, ((1, (0, 1)),)), Branch(F(2), ((0, (1, 1)), (F(3), (F(-2), F(1)))))))
    (b,) = piece.branches
    assert b == Branch(2, ((3, (-2, 1)),))
    assert [type(x) for x in (b.const, b.terms[0][0], *b.terms[0][1])] == [int] * 4
    assert Branch("1/2", (("3/2", (F(1, 3), F(4, 2))),)).terms == ((F(3, 2), (F(1, 3), 2)),)
    # an empty piece is -inf, and a sum with it has no branch either
    assert piece_add(PIECE_ZERO, Piece((Branch(None, ()),))) == Piece(())
    assert piece_add(Piece(()), piece) == Piece(())
    # a JSON "-inf" branch is dropped on reading
    obj = json.loads(json.dumps(_BATTERY_JSON[0]))
    obj["chart0"]["plus"]["branches"].insert(0, _branch("-inf", _LOG_T))
    assert affable_from_json(obj).chart0_plus == BAT[0].chart0_plus
    assert len(affable_from_json(obj).chart0_plus.branches) == 2
    # exact values stay Fractions at ultrametric places
    one = next(f for f in BAT if f.fn_id == "one")
    v = affable_eval(Place.padic(3), one, GAUSS)
    assert type(v) is F and v == 1


def test_canonical_numbers_are_not_converted_again(monkeypatch):
    # piece_add and Piece.scaled hand stored ints and Fractions back to
    # Branch, which keeps them as they are; other types still convert
    import berkpot.affable as affable

    half, mcl = (next(f for f in BAT if f.fn_id == i) for i in ("half_clip_log_T_minus_1", "min_clip_half"))
    pairs = [(half.chart0_plus, mcl.chart0_plus), (half.chartinf_plus, mcl.chartinf_plus)]
    want = [piece_add(a, b) for a, b in pairs] + [mcl.chart0_plus.scaled(F(2, 3))]
    calls = []
    monkeypatch.setattr(affable, "Fraction", lambda *a: calls.append(a) or F(*a))
    got = [piece_add(a, b) for a, b in pairs] + [mcl.chart0_plus.scaled(F(2, 3))]
    assert calls == []
    assert got == want and repr(got) == repr(want)  # the same types: int 0, Fraction(1, 2)
    assert Branch(True, ((0.5, (True, "1/2")),)) == Branch(1, ((F(1, 2), (1, F(1, 2))),))
    assert len(calls) == 4
