"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime.  Tolerances are pinned here and nowhere else."""

import math
import random
import time
from fractions import Fraction as F

from berkpot.affable import affable_real, restrict_to_skeleton
from berkpot.battery import standard_battery
from berkpot.graphs import PLFunction, dirichlet_extend, graph_laplacian, mass_in, measure_pairing
from berkpot.green import contraction_ratios, deviation_bound, lambda_limit
from berkpot.measures import (
    chi_measure,
    equilibrium_arch,
    equilibrium_nonarch,
    haar_circle,
    integrate,
    pullback_measure,
    pushforward_measure,
    Measure,
    energy_pairing,
)
from berkpot.places import Place, flow_place
from berkpot.points import (
    GAUSS,
    MetricGraph,
    build_skeleton,
    classical,
    disk,
    eval_log_abs,
    flow_point,
    retract,
    same_point,
)
from berkpot.rmaps import HomogeneousLift, MapError, preimages_arch
from berkpot.sweeps import (
    SweepConfig,
    circle_sample,
    default_grid,
    default_skeleton,
    sweep_equilibrium,
)

BAT = standard_battery()
Z2 = HomogeneousLift.polynomial([0, 0, 1])
ARC = Place.archimedean()


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget
        self.start = time.perf_counter()

    def done(self, label):
        dt = time.perf_counter() - self.start
        assert dt < self.budget, f"{label}: {dt:.2f}s exceeds {self.budget}s budget"
        print(f"ACCEPTANCE {label}: PASS ({dt:.2f}s)")


def test_criterion_1_squaring_map_endpoints():
    watch = Stopwatch(30.0)
    f1 = [fn for fn in BAT if fn.fn_id == "clip_log_T_minus_2"]
    cfg = SweepConfig(grid=default_grid(10), battery=f1, lift=Z2, tol=1e-5, atom_budget=1 << 13)
    table = sweep_equilibrium(cfg)
    for place in cfg.grid[:-1]:
        val = table.value(place, f1[0].fn_id)
        assert abs(val - float(place.eps) * math.log(2)) <= 2e-3
    assert table.value(cfg.grid[-1], f1[0].fn_id) == 0
    watch.done("1 squaring-map endpoints")


def test_criterion_2_equilibrium_convergence_over_C():
    watch = Stopwatch(60.0)
    haar = haar_circle(0, 1.0)

    def sup_gap(n):
        mu = equilibrium_arch(ARC, Z2, 2, n)
        gaps = []
        for fn in BAT:
            f = affable_real(ARC, fn)
            v_mu, _ = integrate(ARC, mu, f)
            v_h, _ = integrate(ARC, haar, f)
            gaps.append(abs(v_mu - v_h))
        return max(gaps)

    gap10 = sup_gap(10)
    gap14 = sup_gap(14)
    assert gap10 <= 5e-3
    assert gap14 <= gap10 / 2
    watch.done("2 equilibrium convergence over C")


def test_criterion_3_good_reduction_gauss():
    watch = Stopwatch(1.0)
    p = 3
    place = Place.padic(p)
    lift = HomogeneousLift.from_coeffs(2, [p, 0, 1], [1])
    skel = default_skeleton(place)
    assert skel.n == 9
    for lbl in skel.labels:
        st = lambda_limit(place, lift, lbl, 1e-12)
        assert st.value == 0 and st.certified_error == 0.0
    mu, report = equilibrium_nonarch(place, lift, skel)
    assert report.total_mass == 1
    assert len(mu.atoms) == 1
    pt, w = mu.atoms[0]
    assert w == 1 and same_point(place, pt, GAUSS)
    watch.done("3 good reduction = Gauss mass")


def test_criterion_4_zhang_contraction():
    watch = Stopwatch(5.0)
    lift = HomogeneousLift.polynomial([1, 0, 1])
    rows = contraction_ratios(ARC, lift, circle_sample(64), 12)
    for _, ratio in rows:
        assert ratio is None or ratio <= 0.5 + 1e-6
    g = deviation_bound(ARC, lift).gmax
    st = lambda_limit(ARC, lift, classical(1 + 0j), g / 2**20)
    assert st.n_used <= 20 and st.certified_error <= st.gmax / 2**20
    assert st.gmax == g
    watch.done("4 Zhang contraction")


def test_criterion_5_poincare_lelong_on_skeleton():
    watch = Stopwatch(1.0)
    p = 3
    place = Place.padic(p)
    skel = build_skeleton(place, [disk(0, q) for q in range(-2, 3)])
    from berkpot.affable import AffableFn, PIECE_ZERO, piece_max_log

    log_p_poly = AffableFn(
        piece_max_log(None, [(1, [0, -p, 1])]),       # log|T(T-p)|
        PIECE_ZERO,
        piece_max_log(None, [(1, [1, -p])]),          # log|(1-pS)| - 2 log|S|
        piece_max_log(None, [(2, [0, 1])]),
        fn_id="log_T_T_minus_p",
    )
    u, _ = restrict_to_skeleton(place, log_p_poly, skel)
    lap = graph_laplacian(u)
    boundary = set(u.graph.boundary)
    interior_atoms = {v: w for v, w in lap.atoms if w != 0 and v not in boundary}
    # independent oracle: retraction of the divisor of zeros
    expected = {}
    for root in (F(0), F(p)):
        loc = retract(place, classical(root), u.graph)
        vid = u.graph.vertex_of_point(place, loc.point)
        if vid is not None and vid not in boundary:
            expected[vid] = expected.get(vid, 0) + 1
    assert interior_atoms == expected
    assert sum(interior_atoms.values()) == 1  # only the root p lands inside
    gauss_like = u.graph.vertex_of_point(place, disk(0, F(-1)))
    assert gauss_like in interior_atoms and interior_atoms[gauss_like] == 1
    watch.done("5 Poincare-Lelong on skeleton")


def test_criterion_6_disk_mass_bound():
    watch = Stopwatch(1.0)
    # archimedean: the Laplacian of max(log|z|, 0) is unit Haar on |z| = 1
    mu = chi_measure(ARC, 0, None, euclid_radius=1.0)
    mass_inside = sum(w for z, r, w in mu.haars if abs(z) + r <= 1.5)
    quoted_bound = 2 * math.log(2) / math.log(4 / 3)
    # sup of max(log|z|, 0) over the closed radius-2 disk, on a 256-point net
    sup = max(
        max(math.log(max(abs(2 * (i + 1) / 4 * complex(math.cos(t), math.sin(t))), 1e-9)), 0.0)
        for i in range(4)
        for t in (2 * math.pi * k / 64 for k in range(64))
    )
    assert mass_inside == 1
    assert mass_inside <= 2 * sup / math.log(2 / 1.5)
    assert abs(2 * sup / math.log(2 / 1.5) - quoted_bound) <= 1e-9
    # graph analogue in exact float arithmetic
    l4, l32, l43 = math.log(4.0), math.log(1.5), math.log(4.0 / 3.0)
    g = MetricGraph(
        labels=[None] * 4,
        edges=[(0, 1, l4), (1, 2, l32), (2, 3, l4 - l32)],
        boundary=[0, 3],
    )
    u = PLFunction(g, [0.0, 0.0, l32, l4])
    mass, bound = mass_in(u, {0, 1, 2}, l43)
    assert mass == 1.0
    assert mass <= bound <= quoted_bound + 1e-9
    watch.done("6 disk mass bound")


def test_criterion_7_pullback_bookkeeping():
    watch = Stopwatch(10.0)
    rng = random.Random(1234)
    good = 0
    for _ in range(100):
        d = rng.choice([2, 3, 4])
        while True:
            f0 = [F(rng.randint(-9, 9)) for _ in range(d + 1)]
            f1 = [F(rng.randint(-9, 9)) for _ in range(d + 1)]
            try:
                lift = HomogeneousLift.from_coeffs(d, f0, f1)
                break
            except MapError:
                continue
        mu = Measure(
            [(classical(complex(rng.uniform(-3, 3), rng.uniform(-3, 3))), rng.uniform(0.2, 2.0))
             for _ in range(rng.randint(1, 4))]
        )
        out = pullback_measure(ARC, lift, mu)
        assert abs(float(out.total_mass) - d * float(mu.total_mass)) <= 1e-9
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert preimages_arch(lift, a).total_multiplicity == d
        good += 1
    assert good == 100
    watch.done("7 pullback bookkeeping")


def test_criterion_8_graph_symmetry_and_dirichlet():
    watch = Stopwatch(5.0)
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(5, 40)
        labels = [None] * n
        edges = []
        for v in range(1, n):
            parent = rng.randrange(v)
            edges.append((parent, v, F(rng.randint(1, 9), rng.randint(1, 4))))
        g = MetricGraph(labels=labels, edges=edges, boundary=[])
        g.boundary = [v for v in range(n) if g.degree(v) <= 1]
        interior = [v for v in range(n) if v not in g.boundary]
        u = PLFunction(g, [F(rng.randint(-7, 7)) if v in interior else F(0) for v in range(n)])
        w = PLFunction(g, [F(rng.randint(-7, 7)) if v in interior else F(0) for v in range(n)])
        assert measure_pairing(u, graph_laplacian(w)) == measure_pairing(w, graph_laplacian(u))
        bvals = {v: F(rng.randint(-9, 9)) for v in g.boundary}
        h = dirichlet_extend(g, bvals)
        lo, hi = min(bvals.values()), max(bvals.values())
        assert all(lo <= x <= hi for x in h.values)
        lap = graph_laplacian(h)
        assert all(lap.weight_at(v) == 0 for v in interior)
    watch.done("8 graph symmetry and Dirichlet")


def test_criterion_9_flow_laws():
    watch = Stopwatch(5.0)
    rng = random.Random(2718)
    eps_list = (F(1, 2), F(1, 3), F(2, 5))
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        place = Place.padic(p)
        deg = rng.randint(1, 4)
        poly = [F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(deg)] + [
            F(rng.randint(1, 20), rng.randint(1, 6))
        ]
        x = disk(F(rng.randint(-8, 8)), F(rng.randint(-10, 10), rng.randint(1, 4)))
        for eps in eps_list:
            fp = flow_place(place, eps)
            # evaluation scaling
            base = eval_log_abs(place, x, poly)
            moved = eval_log_abs(fp, flow_point(x, eps), poly)
            assert moved == eps * base
            # point flow
            assert flow_point(x, eps) == disk(x.center, eps * x.logr)
            # circle-family pushforward
            chi = chi_measure(place, x.center, x.logr)
            pushed = pushforward_measure(lambda pt: flow_point(pt, eps), chi)
            target = chi_measure(fp, x.center, eps * x.logr)
            assert same_point(fp, pushed.atoms[0][0], target.atoms[0][0])
    watch.done("9 flow laws")


def test_criterion_10_energy_pairing_continuity():
    watch = Stopwatch(60.0)
    vals = []
    for k in range(1, 9):
        lift = HomogeneousLift.polynomial([F(1, 2**k), 0, 1])
        vals.append(energy_pairing(ARC, Z2, lift, n=10, tol=1e-7))
    assert all(v >= -1e-6 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2
    watch.done("10 energy pairing continuity")
