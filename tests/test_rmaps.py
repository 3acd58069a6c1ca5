import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from berkpot.places import Place, flow_place
from berkpot.points import GAUSS, classical, disk, flow_point, infinity, same_point
from berkpot.rmaps import (
    INF_POINT,
    HomogeneousLift,
    MapError,
    apply_point,
    lift_from_json,
    lift_to_json,
    preimages_arch,
    pushforward_values,
    sylvester_resultant,
)

ARC = Place.archimedean()
Z2 = HomogeneousLift.polynomial([0, 0, 1])


def product_formula_resultant(f, g):
    """Res(f, g) = (-1)^(mn) lc(g)^m * prod f(beta) over roots of g (oracle)."""
    fa = np.array([float(c) for c in reversed(f)], dtype=complex)
    ga = np.array([float(c) for c in reversed(g)], dtype=complex)
    m, n = len(fa) - 1, len(ga) - 1
    roots = np.roots(ga)
    out = complex((-1) ** (m * n)) * ga[0] ** m
    for b in roots:
        out *= np.polyval(fa, b)
    return complex(out)


def test_resultant_examples():
    assert HomogeneousLift.from_coeffs(2, [0, 0, 1], [1]).resultant == 1
    assert sylvester_resultant([-1, 0, 1], [0, 2], 2, 1) == -4  # 2^2 * f(0)
    with pytest.raises(MapError):
        HomogeneousLift.from_coeffs(2, [0, 0, 1], [0, 1])  # common root at 0


def test_resultant_against_product_formula():
    rng = random.Random(5)
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        f = [F(rng.randint(-6, 6)) for _ in range(m)] + [F(rng.randint(1, 6))]
        g = [F(rng.randint(-6, 6)) for _ in range(n)] + [F(rng.randint(1, 6))]
        mine = sylvester_resultant(f, g, m, n)
        oracle = product_formula_resultant(f, g)
        assert abs(complex(float(mine)) - oracle) <= 1e-6 * (1 + abs(oracle))


def test_apply_point_examples():
    p2 = Place.padic(2)
    assert same_point(p2, apply_point(p2, Z2, GAUSS), GAUSS)
    assert apply_point(p2, Z2, disk(0, F(-3))) == disk(0, F(-6))
    p5 = Place.padic(5)
    tp = HomogeneousLift.from_coeffs(2, [5, 0, 1], [1])
    img = apply_point(p5, tp, GAUSS)
    assert img.t == "disk" and same_point(p5, img, GAUSS)


def test_apply_point_classical_and_infinity():
    assert apply_point(ARC, Z2, classical(3 + 0j)) == classical(9 + 0j)
    assert apply_point(ARC, Z2, infinity()).t == "inf"
    inv = HomogeneousLift.from_coeffs(2, [1, 0, 0], [0, 0, 1])  # T -> 1/T^2-ish
    assert apply_point(ARC, inv, classical(0j)).t == "inf"


def test_apply_point_disk_requires_polynomial():
    p2 = Place.padic(2)
    nonpoly = HomogeneousLift.from_coeffs(2, [1, 0, 0], [0, 0, 1])
    with pytest.raises(MapError):
        apply_point(p2, nonpoly, GAUSS)


def test_preimage_examples():
    got = preimages_arch(Z2, 4)
    assert sorted((round(z.real), m) for z, m in got.entries) == [(-2, 1), (2, 1)]
    assert preimages_arch(Z2, 0).entries == [(0j, 2)]
    zsq1 = HomogeneousLift.polynomial([-1, 0, 1])
    assert zsq1.d == 2
    assert preimages_arch(zsq1, -1).entries == [(0j, 2)]


def test_preimages_at_infinity_and_degree_drop():
    # phi = z^2 + 1/z has lift (T0^2 T1 + T1^3... ) -- use (z^3+1, z): a=inf
    lift = HomogeneousLift.from_coeffs(3, [1, 0, 0, 1], [0, 1])
    pre = preimages_arch(lift, INF_POINT)
    assert pre.total_multiplicity == 3
    assert any(z == INF_POINT for z, _ in pre.entries)  # deg F1 < d


def test_multiplicities_sum_to_d_random():
    rng = random.Random(12)
    for _ in range(60):
        d = rng.choice([2, 3, 4])
        while True:
            f0 = [F(rng.randint(-9, 9)) for _ in range(d + 1)]
            f1 = [F(rng.randint(-9, 9)) for _ in range(d + 1)]
            try:
                lift = HomogeneousLift.from_coeffs(d, f0, f1)
                break
            except MapError:
                continue
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert preimages_arch(lift, a).total_multiplicity == d


def test_preimages_batch_matches_single_targets():
    rng = random.Random(8)
    lift = HomogeneousLift.from_coeffs(3, [1, -2, 0, 3], [2, 1, 1, 0])
    targets = np.array([complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(12)])
    batch = preimages_arch(lift, targets)
    assert batch.total_multiplicity == 3 * len(targets)
    assert batch.entries == [e for a in targets for e in preimages_arch(lift, a).entries]


def test_preimages_batch_double_root_and_near_collision():
    # seed 0 under z^2: one root of multiplicity 2 beside simple roots
    pre = preimages_arch(Z2, np.array([0j, 4 + 0j]))
    assert pre.mult.tolist() == [2, 1, 1] and pre.parent.tolist() == [0, 1, 1]
    assert pre.z[0] == 0 and not pre.flagged
    # roots 6e-7 apart: two clusters of multiplicity 1, flagged as ambiguous
    near = preimages_arch(Z2, 1e-13)
    assert near.flagged
    assert [m for _, m in near.entries] == [1, 1]
    assert preimages_arch(Z2, np.array([4 + 0j, 1e-13])).flagged


def test_preimages_batch_degree_drop():
    # phi = 1/z^2: the target 0 has both preimages at infinity
    inv = HomogeneousLift.from_coeffs(2, [1], [0, 0, 1])
    pre = preimages_arch(inv, np.array([4 + 0j, 0j]))
    assert pre.inf_mult.tolist() == [0, 2] and pre.parent.tolist() == [0, 0]
    assert sorted(pre.z.real) == pytest.approx([-0.5, 0.5], abs=1e-15)
    assert pre.entries[-1] == (INF_POINT, 2) and pre.total_multiplicity == 4


def test_pushforward_values_examples():
    assert pushforward_values(ARC, Z2, lambda x: 1.0, 7 + 0j) == pytest.approx(2.0)
    assert pushforward_values(ARC, Z2, lambda x: x.z.real, 4 + 0j) == pytest.approx(0.0)
    assert pushforward_values(ARC, Z2, lambda x: abs(x.z), 4 + 0j) == pytest.approx(4.0)


def test_pushforward_norm_bound():
    rng = random.Random(3)
    lift = HomogeneousLift.polynomial([1, 2, 1])  # (z+1)^2

    def f(x):
        return math.sin(x.z.real) + 0.3 * x.z.imag

    for _ in range(20):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        vals = [abs(f(pt)) for pt, _ in __import__("berkpot.rmaps", fromlist=["preimage_points"]).preimage_points(lift, a)]
        assert abs(pushforward_values(ARC, lift, f, a)) <= lift.d * max(vals) + 1e-9


def test_apply_commutes_with_flow():
    p3 = Place.padic(3)
    tp = HomogeneousLift.from_coeffs(2, [3, 1, 1], [1])
    for eps in (F(1, 2), F(2, 5)):
        for x in (GAUSS, disk(1, F(-2)), disk(0, F(3, 2)), classical(F(7, 2))):
            lhs = apply_point(flow_place(p3, eps), tp, flow_point(x, eps))
            rhs = flow_point(apply_point(p3, tp, x), eps)
            assert same_point(flow_place(p3, eps), lhs, rhs)


def test_lift_json_round_trip():
    lift = HomogeneousLift.from_coeffs(2, [F(1, 2), 0, 1], [1])
    back = lift_from_json(lift_to_json(lift))
    assert back.f0 == lift.f0 and back.f1 == lift.f1 and back.d == 2
    cplx = HomogeneousLift.from_coeffs(2, [complex(0, 1), 0, 1], [1])
    back2 = lift_from_json(lift_to_json(cplx))
    assert back2.f0 == cplx.f0
