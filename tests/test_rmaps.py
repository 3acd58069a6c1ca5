import hashlib
import json
import math
import os
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from berkpot import polys
from berkpot.green import deviation_bound
from berkpot.measures import equilibrium_arch
from berkpot.places import Place, flow_place
from berkpot.points import (ARCH_INF, GAUSS, arch_point, classical, disk, eval_log_abs, flow_point, infinity,
                            same_point)
from berkpot.rmaps import (
    HomogeneousLift,
    MapError,
    apply_point,
    lift_from_json,
    lift_to_json,
    preimages_arch,
    _solve_rows,
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


def sylvester_resultant(f, g, m, n):
    """Res(f, g) at formal degrees (m, n): the exact Sylvester determinant."""
    return polys.exact_det(polys.sylvester_matrix(f, g, m, n))


def test_resultant_examples():
    assert sylvester_resultant([0, 0, 1], [1], 2, 2) == 1  # the lift (T0^2, T1^2)
    assert sylvester_resultant([-1, 0, 1], [0, 2], 2, 1) == -4  # 2^2 * f(0)
    with pytest.raises(MapError):
        HomogeneousLift.from_coeffs(2, [0, 0, 1], [0, 1])  # common root at 0


def degenerate_complex_lifts(count, seed):
    """(F0, F1) = ((T - a)(T - b), c (T - a)), which share the root a.

    a, b lie in (1/16) Z[i] with parts in [-4, 4], Re c in {1/4, ..., 9/4}
    and Im c in (1/8) [-9, 9], so every coefficient is exact in binary floats.
    """
    rng = random.Random(seed)

    def gaussian():
        return complex(rng.randint(-64, 64) / 16, rng.randint(-64, 64) / 16)

    for _ in range(count):
        a, b = gaussian(), gaussian()
        c = complex(rng.randint(1, 9) / 4, rng.randint(-9, 9) / 8)
        yield [a * b, -(a + b), 1], [-c * a, c, 0]


def test_degenerate_complex_lifts_rejected():
    # Res = 0 exactly; a float determinant is rounding noise on most of them
    for f0, f1 in degenerate_complex_lifts(200, seed=1):
        with pytest.raises(MapError, match="Res"):
            HomogeneousLift.from_coeffs(2, f0, f1)


@pytest.mark.parametrize("bad", [complex(math.inf, 0), complex(0, -math.inf), complex(math.nan, 1),
                                 complex(1, math.nan), -math.inf])
def test_non_finite_coefficients_rejected(bad):
    with pytest.raises(MapError, match="finite"):
        HomogeneousLift.from_coeffs(2, [bad, 0, 1], [1])
    with pytest.raises(MapError, match="finite"):
        lift_from_json({"d": 2, "F0": [[{"re": bad.real, "im": bad.imag}, "0,2"], ["1", "2,0"]],
                        "F1": [["1", "0,2"]]})


def test_complex_lift_rejects_rationals_beyond_the_float_range():
    with pytest.raises(MapError, match="finite"):
        HomogeneousLift.from_coeffs(2, [10**400, 1j, 1], [1])
    assert HomogeneousLift.from_coeffs(2, [10**400, 0, 1], [1]).is_rational  # exact: no limit


def test_one_elimination_per_lift(monkeypatch):
    # the elimination that decides Res != 0 also gives the cofactors every
    # deviation bound reads
    calls = []
    eliminate = polys._eliminate
    monkeypatch.setattr(polys, "_eliminate", lambda *args: calls.append(args) or eliminate(*args))
    rational = HomogeneousLift.from_coeffs(2, [F(5, 7), F(-2), F(3)], [F(1), F(4, 3), F(-1)])
    for place in (ARC, Place.padic(3)):
        deviation_bound(place, rational)
    assert len(calls) == 1
    calls.clear()
    rabbit = HomogeneousLift.polynomial([complex(-0.1226, 0.7449), 0, 1])
    for place in (ARC, Place.archimedean(F(1, 2))):
        deviation_bound(place, rabbit)
    assert len(calls) == 1


def test_real_lift_eliminates_the_unrealified_system(monkeypatch):
    # J = 0 leaves the 2d x 2d system R; a complex J needs the 4d x 4d
    # realified one.  z^2 - 1: t^3 = t f0 + t f1 and 1 = 0 f0 + 1 f1
    sizes = []
    eliminate = polys._eliminate
    monkeypatch.setattr(polys, "_eliminate", lambda *args: sizes.append(len(args[0])) or eliminate(*args))
    for coeffs in ([-1, 0, 1], [complex(-1), 0, complex(1)]):
        cof = HomogeneousLift.polynomial(coeffs).cofactors
        assert (cof.a0, cof.b0, cof.a1, cof.b1) == ((0, 1), (0, 1), (0, 0), (1, 0))
        assert all(isinstance(c, F) for c in cof.coeff_list())
    HomogeneousLift.polynomial([complex(-0.1226, 0.7449), 0, 1])
    assert sizes == [4, 4, 8]


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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_disk_image_radius_is_the_seminorm_of_phi_minus_phi_a(p):
    # phi(eta_{a,r}) = eta_{phi(a), r'} with log r' = log|phi - phi(a)|(eta_{a,r})
    place = Place.padic(p)
    rng = random.Random(p)
    for _ in range(40):
        d = rng.randint(2, 4)
        phi = [F(rng.randint(-9, 9), rng.choice([1, 2, p, p * p])) for _ in range(d)]
        phi.append(F(rng.randint(1, 9), rng.choice([1, p])))
        x = disk(F(rng.randint(-20, 20), rng.choice([1, p])), F(rng.randint(-6, 3), rng.choice([1, 2])))
        img = apply_point(place, HomogeneousLift.polynomial(phi), x)
        phi_a = polys.poly_eval(phi, x.center)
        logr = eval_log_abs(place, x, [phi[0] - phi_a] + phi[1:])
        assert img.logr == logr
        assert same_point(place, img, disk(phi_a, logr))


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
    # ARCH_INF is a target like any other: its row is F1, whose zeros are
    # the poles of phi, and infinity takes up the degree drop
    cases = [
        (3, [1, 0, 0, 1], [0, 1], [(0j, 1), (ARCH_INF, 2)]),  # (z^3 + 1)/z: deg F1 < d
        (2, [1], [0, 0, 1], [(0j, 2)]),                       # 1/z^2
        (2, [0, 1], [1, 0, 1], [(-1j, 1), (1j, 1)]),          # z/(z^2 + 1)
        (2, [0, 0, 1], [1], [(ARCH_INF, 2)]),                 # z^2
    ]
    for d, f0, f1, want in cases:
        pre = preimages_arch(HomogeneousLift.from_coeffs(d, f0, f1), ARCH_INF)
        assert pre.total_multiplicity == d and pre.parent.tolist() == [0] * len(want)
        got = sorted(pre.entries, key=lambda e: (e[0].real, e[0].imag))
        assert [m for _, m in got] == [m for _, m in want]
        for (z, _), (w, _) in zip(got, want):
            assert z == w if w == ARCH_INF else abs(z - w) < 1e-12


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
    for d, f0, f1 in ((3, [1, -2, 0, 3], [2, 1, 1, 0]),
                      (2, [0, 1], [1, 0, 1]),  # z/(z^2+1): 0 has a preimage at infinity
                      (2, [1], [0, 0, 1])):    # 1/z^2: 0 has both
        lift = HomogeneousLift.from_coeffs(d, f0, f1)
        targets = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(12)]
        targets[4:4] = [ARCH_INF, 0j]  # infinity among the finite targets
        batch = preimages_arch(lift, np.array(targets))
        assert batch.total_multiplicity == d * len(targets)
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
    assert pre.mult.tolist() == [1, 1, 2] and pre.parent.tolist() == [0, 0, 1]
    assert pre.z[2] == ARCH_INF  # both preimages of 0, as one entry of multiplicity 2
    assert sorted(pre.z[:2].real) == pytest.approx([-0.5, 0.5], abs=1e-15)
    assert pre.entries[-1] == (ARCH_INF, 2) and pre.total_multiplicity == 4


def _row_roots(pre, i):
    """The roots of row i of a ``_solve_rows`` result, each repeated by its multiplicity."""
    return [z for z, m in zip(pre.z[pre.parent == i], pre.mult[pre.parent == i]) for _ in range(m)]


def _same_multiset(got, want):
    """got and want agree with multiplicity, within 1e-12 (1 + |r|)."""
    got = list(got)
    for w in want:
        k = min(range(len(got)), key=lambda i: abs(got[i] - w))
        assert abs(got[k] - w) <= 1e-12 * (1 + abs(w)), (got, want)
        got.pop(k)
    assert not got


def _no_negative_zero(z):
    """Zero parts are +0.0, as eigvals returns them."""
    for part in (z.real, z.imag):
        assert not np.signbit(part[part == 0]).any()


# ascending column factors: whole rows at 1e-8 and 1e8, roots near 1e+-4, and
# roots 1e16 apart, where the textbook formula cancels
@pytest.mark.parametrize("factors", [(1, 1, 1), (1e-8,) * 3, (1e8,) * 3, (1e8, 1, 1), (1e-8, 1, 1),
                                     (1, 1e8, 1)])
def test_closed_form_quadratics_match_np_roots(factors):
    rng = np.random.default_rng(27)
    rows = (rng.normal(size=(300, 3)) + 1j * rng.normal(size=(300, 3))) * np.array(factors)
    pre = _solve_rows(rows, 2)
    for i, row in enumerate(rows):
        _same_multiset(_row_roots(pre, i), np.roots(row[::-1]))


def test_closed_form_double_roots_zero_constant_and_degree_drop():
    rng = np.random.default_rng(28)
    # exact double roots a (z - w)^2 on dyadic w: one root of multiplicity 2
    w = (rng.integers(-8, 9, 40) + 1j * rng.integers(-8, 9, 40)) / 4
    a = rng.integers(1, 5, 40) * (1 + 0j)
    pre = _solve_rows(np.stack([a * w * w, -2 * a * w, a], axis=1), 2)
    assert pre.mult.tolist() == [2] * 40 and pre.parent.tolist() == list(range(40))
    assert (abs(pre.z - w) <= 1e-12 * (1 + abs(w))).all() and not pre.flagged
    _no_negative_zero(pre.z)
    # coefficients 330 decades apart: C underflows to 0 and q is subnormal, where
    # complex division overflows; the roots stay finite, one cluster as from eigvals
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pre = _solve_rows(np.array([[1e-320, 1e-300, 1e10], [1e-320, 1e-300, 1e10j]]), 2)
    assert np.isfinite(pre.z).all() and pre.mult.tolist() == [2, 2]
    # a zero constant term leaves one root to solve (n = 1) beside the root 0
    rows = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    rows[:, 0] = 0
    rows[:20] = rows[:20].real
    pre = _solve_rows(rows, 2)
    _no_negative_zero(pre.z)
    for i, row in enumerate(rows):
        assert 0j in _row_roots(pre, i)
        _same_multiset(_row_roots(pre, i), np.roots(row[::-1]))
    # a top coefficient below 1e-12 of the row scale is a degree drop: one
    # root at infinity, and the rest are the roots of the lower row
    rows = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    rows[:, 2] *= 1e-13 * np.abs(rows).max(axis=1) / np.abs(rows[:, 2])
    pre = _solve_rows(rows, 2)
    for i, row in enumerate(rows):
        got = _row_roots(pre, i)
        assert got[-1] == ARCH_INF
        _same_multiset(got[:-1], np.roots(row[1::-1]))


def test_tiny_rows_are_scaled_exactly():
    # a top coefficient near 1e-320 makes numpy's complex division overflow to
    # nan; the row is scaled by a power of two first, which moves no root
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pre = _solve_rows(np.array([[-4e-320, 0, 1e-320]], dtype=complex), 2)
    assert sorted(pre.entries, key=lambda e: e[0].real) == [(-2, 1), (2, 1)]
    s = F(1, 2**1070)  # every coefficient times 2^-1070, exactly
    for f0, f1 in (([-2, 0, 1], [1]), ([1, -3, 0, 1], [1]), ([-1, 0, 1], [2, 0, 1])):
        lift = HomogeneousLift.from_coeffs(len(f0) - 1, f0, f1)
        tiny = HomogeneousLift.from_coeffs(lift.d, [c * s for c in f0], [c * s for c in f1])
        targets = np.array([2, ARCH_INF, 0.5 + 1j])
        assert preimages_arch(tiny, targets).entries == preimages_arch(lift, targets).entries
    # a normal row keeps its bits beside a scaled one
    rows = np.array([[-4e-320, 0, 1e-320], [0.3 - 1j, 2, 1.5j]])
    assert _solve_rows(rows, 2).entries[2:] == _solve_rows(rows[1:], 2).entries


def test_quadratic_trees_call_no_eigvals(monkeypatch):
    # at most two finite roots are solved in closed form; companions above that
    shapes = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: shapes.append(m.shape) or eigvals(m))
    equilibrium_arch(ARC, HomogeneousLift.polynomial([-1, 0, 1]), 2, 8)
    equilibrium_arch(ARC, HomogeneousLift.from_coeffs(2, [0, 1], [1, 0, 1]), 0.5, 6)
    assert shapes == []
    preimages_arch(HomogeneousLift.polynomial([1, -3, 0, 1]), np.array([2j, 5 + 0j]))
    assert shapes == [(2, 3, 3)]


def _pushforward(lift, f, a):
    """(phi_* f)(a) = sum over the preimages x of a of deg_x(phi) f(x)."""
    return sum(m * f(arch_point(z)) for z, m in preimages_arch(lift, a).entries)


def _bits(z):
    return np.ascontiguousarray(z, dtype="<c16").tobytes().hex()


def test_preimage_bits_match_fixture():
    # every root bit, multiplicity, parent and flag as the solver gave them before
    # it read coefficient columns: special rows and targets, then depth-12 levels
    # (2,048 targets each) of four quadratic trees seeded at 2, pinned by SHA-256
    path = os.path.join(os.path.dirname(__file__), "data", "preimage_bits.json")
    with open(path, encoding="utf-8") as fh:
        fixture = json.load(fh)
    for case in fixture["cases"]:
        if "rows" in case:
            rows = np.frombuffer(bytes.fromhex(case["rows"]), "<c16").reshape(case["shape"])
            pre = _solve_rows(rows, case["d"])
        else:
            pre = preimages_arch(lift_from_json(case["lift"]), np.frombuffer(bytes.fromhex(case["targets"]), "<c16"))
        got = (_bits(pre.z), pre.mult.tolist(), pre.parent.tolist(), pre.flagged)
        assert got == (case["z"], case["mult"], case["parent"], case["flagged"]), case["name"]
    for tree in fixture["trees"]:
        lift, z = lift_from_json(tree["lift"]), np.array([complex(*tree["seed"])])
        for _ in range(tree["depth"]):
            pre = preimages_arch(lift, z)
            z = pre.z
        raw = b"".join(np.ascontiguousarray(a, t).tobytes()
                       for a, t in ((pre.z, "<c16"), (pre.mult, "<i8"), (pre.parent, "<i8")))
        got = (len(pre.z), pre.flagged, hashlib.sha256(raw).hexdigest())
        assert got == (tree["roots"], tree["flagged"], tree["sha256"]), tree["name"]


def test_pushforward_values_examples():
    assert _pushforward(Z2, lambda x: 1.0, 7 + 0j) == pytest.approx(2.0)
    assert _pushforward(Z2, lambda x: x.z.real, 4 + 0j) == pytest.approx(0.0)
    assert _pushforward(Z2, lambda x: abs(x.z), 4 + 0j) == pytest.approx(4.0)


def test_pushforward_norm_bound():
    rng = random.Random(3)
    lift = HomogeneousLift.polynomial([1, 2, 1])  # (z+1)^2

    def f(x):
        return math.sin(x.z.real) + 0.3 * x.z.imag

    for _ in range(20):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        vals = [abs(f(arch_point(z))) for z, _ in preimages_arch(lift, a).entries]
        assert abs(_pushforward(lift, f, a)) <= lift.d * max(vals) + 1e-9


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
