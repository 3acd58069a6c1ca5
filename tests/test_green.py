import math
import os
import random
from fractions import Fraction as F

import numpy as np
import pytest

from berkpot.green import (
    GreenError,
    contraction_ratios,
    deviation_bound,
    deviation_sequence,
    lambda_limit,
    lambda_n,
)
from berkpot.measures import equilibrium_arch
from berkpot.places import Place, PlaceError, flow_place
from berkpot.points import GAUSS, classical, classical_pair, disk, flow_point, infinity
from berkpot.polys import poly_eval
from berkpot.rmaps import HomogeneousLift, apply_point, resultant_cofactors
from berkpot.sweeps import circle_sample

ARC = Place.archimedean()
Z2 = HomogeneousLift.polynomial([0, 0, 1])
Z2P1 = HomogeneousLift.polynomial([1, 0, 1])
F11 = HomogeneousLift.from_coeffs(2, [1, 0, 1], [1])  # (T0^2 + T1^2, T1^2)
RABBIT = HomogeneousLift.polynomial([complex(-0.1226, 0.7449), 0, 1])
Z2I = HomogeneousLift.from_coeffs(2, [complex(0, 1), 0, 1], [1])  # T^2 + i
MACH_EPS = float(np.finfo(float).eps)


def test_deviation_examples():
    assert deviation_sequence(ARC, Z2, classical(1.3 + 0.4j), 1)[0] == pytest.approx(0.0)
    assert deviation_sequence(ARC, F11, classical(0j), 1)[0] == pytest.approx(0.0)
    assert deviation_sequence(ARC, F11, classical(1 + 0j), 1)[0] == pytest.approx(math.log(2))


def test_deviation_scale_invariance():
    # g(x) = log||F(zhat)|| - d log||zhat|| at every lift zhat = (z, w) of x = z/w
    rng = random.Random(9)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) + abs(w) == 0:
            continue
        c = complex(rng.uniform(0.1, 5), rng.uniform(-1, 1))
        g = deviation_sequence(ARC, Z2P1, classical_pair(z, w), 1)[0]
        for z0, z1 in ((z, w), (c * z, c * w)):
            norm = max(abs(z0 * z0 + z1 * z1), abs(z1 * z1))  # F = (T0^2 + T1^2, T1^2)
            assert math.log(norm) - 2 * math.log(max(abs(z0), abs(z1))) == pytest.approx(g, abs=1e-9)


def test_lambda_examples():
    assert lambda_n(ARC, Z2, classical(1.7 + 0j), 5) == pytest.approx(0.0)
    assert lambda_n(ARC, F11, classical(1 + 0j), 1) == pytest.approx(-math.log(2) / 2)
    assert lambda_n(ARC, Z2P1, classical(0.3 + 0j), 0) == 0.0


def test_one_step_identity_arch():
    rng = random.Random(21)
    from berkpot.rmaps import apply_point

    for _ in range(25):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        x = classical(z)
        n = rng.randint(0, 6)
        lhs = lambda_n(ARC, Z2P1, x, n + 1)
        rhs = lambda_n(ARC, Z2P1, apply_point(ARC, Z2P1, x), n) / 2 - deviation_sequence(ARC, Z2P1, x, 1)[0] / 2
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_one_step_identity_exact_ultrametric():
    p5 = Place.padic(5)
    lift = HomogeneousLift.from_coeffs(2, [F(1, 5), 0, 1], [1])  # T^2 + 1/5
    from berkpot.rmaps import apply_point

    for x in (GAUSS, disk(0, F(-1)), disk(0, F(2)), disk(1, F(-1, 2)), classical(F(2))):
        for n in (0, 1, 3):
            lhs = lambda_n(p5, lift, x, n + 1)
            rhs = (F(1, 2) * lambda_n(p5, lift, apply_point(p5, lift, x), n)
                   - F(1, 2) * deviation_sequence(p5, lift, x, 1)[0])
            assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3])
def test_exact_lambda_n_is_the_deviation_series(p):
    # lambda_n sums every term, also where lambda_limit closes a tail (T^2/p)
    place = Place.padic(p)
    lifts = [HomogeneousLift.from_coeffs(2, [0, 0, F(1, p)], [1]), HomogeneousLift.from_coeffs(2, [F(1, p), 3, 1], [1])]
    for lift in lifts:
        for x in (GAUSS, disk(0, F(-1)), disk(1, F(-2)), classical(F(2)), infinity()):
            for n in (0, 1, 4):
                series = sum(-F(1, 2 ** (k + 1)) * g for k, g in enumerate(deviation_sequence(place, lift, x, n)))
                assert lambda_n(place, lift, x, n) == series


def test_log_flottance_exact():
    p3 = Place.padic(3)
    lift = HomogeneousLift.from_coeffs(2, [3, 1, 1], [1])
    for eps in (F(1, 2), F(1, 3), F(2, 5)):
        for x in (GAUSS, disk(0, F(-2)), disk(1, F(1, 2))):
            lhs = lambda_n(flow_place(p3, eps), lift, flow_point(x, eps), 4)
            assert lhs == eps * lambda_n(p3, lift, x, 4)


def _hom_eval(coeffs, z0, z1, d):
    total = 0j
    for j, c in enumerate(coeffs):
        if c != 0:
            total += complex(c) * z0**j * z1 ** (d - j)
    return total


def brute_force_green(lift, z, n):
    """Renormalized lifted orbit oracle: log||zhat|| - d^{-n} log||F^(n)(zhat)||.

    Divides by the max norm at every step and accumulates the discarded
    log scale; never touches the deviation-series path it checks.
    """
    z0, z1 = complex(z), 1 + 0j
    m0 = max(abs(z0), abs(z1))
    z0, z1 = z0 / m0, z1 / m0
    acc = 0.0
    for k in range(n):
        w0 = _hom_eval(lift.f0, z0, z1, lift.d)
        w1 = _hom_eval(lift.f1, z0, z1, lift.d)
        m = max(abs(w0), abs(w1))
        acc += math.log(m) / lift.d ** (k + 1)
        z0, z1 = w0 / m, w1 / m
    return -acc


def test_lambda_limit_matches_brute_force():
    st = lambda_limit(ARC, F11, classical(1 + 0j), 1e-6)
    oracle = brute_force_green(F11, 1 + 0j, 25)
    assert st.value == pytest.approx(oracle, abs=1e-6)
    assert st.certified_error <= 1e-6


def test_lambda_limit_trivial_map():
    st = lambda_limit(ARC, Z2, classical(2 + 0j), 1e-9)
    assert st.value == pytest.approx(0.0, abs=1e-9)


def test_lambda_limit_good_reduction_gauss():
    p7 = Place.padic(7)
    tp = HomogeneousLift.from_coeffs(2, [7, 0, 1], [1])
    bound = deviation_bound(p7, tp)
    assert bound.gmax == 0.0
    st = lambda_limit(p7, tp, GAUSS, 1e-12)
    assert st.value == 0 and st.certified_error == 0.0 and st.n_used == 0


def test_lambda_limit_escape_closure_exact():
    p5 = Place.padic(5)
    t25 = HomogeneousLift.from_coeffs(2, [0, 0, F(1, 5)], [1])  # T^2/5
    expected = {F(-2): F(0), F(-1): F(0), F(-1, 2): F(-1, 2), F(0): F(-1), F(2): F(-1)}
    for q, lam in expected.items():
        st = lambda_limit(p5, t25, disk(0, q), 1e-9)
        assert st.value == lam or abs(float(st.value) - float(lam)) <= st.certified_error


def _cofactor_sums(lift, t):
    cof = resultant_cofactors(lift)
    f0, f1 = poly_eval(list(lift.f0), t), poly_eval(list(lift.f1), t)
    a0, b0 = poly_eval(list(cof.a0), t), poly_eval(list(cof.b0), t)
    a1, b1 = poly_eval(list(cof.a1), t), poly_eval(list(cof.b1), t)
    return a0 * f0 + b0 * f1, a1 * f0 + b1 * f1


def test_cofactor_identities():
    # t^(2d-1) = a0 f0 + b0 f1 and 1 = a1 f0 + b1 f1: exactly for a rational
    # lift, up to float evaluation for a complex one
    lift = HomogeneousLift.from_coeffs(2, [F(2), F(1), F(3)], [F(1), F(0), F(-1)])
    assert all(isinstance(c, F) for c in resultant_cofactors(lift).coeff_list())
    for t in (F(2), F(-3), F(1, 2)):
        assert _cofactor_sums(lift, t) == (t**3, 1)
    assert any(isinstance(c, complex) for c in resultant_cofactors(RABBIT).coeff_list())
    for t in (0.5 + 0.25j, -1.5 + 0j, 0.3 - 1j):
        top, bottom = _cofactor_sums(RABBIT, t)
        assert abs(top - t**3) <= 1e-12 and abs(bottom - 1) <= 1e-12


def test_gmax_is_actually_a_bound():
    rng = random.Random(4)
    lifts = (Z2P1, F11, HomogeneousLift.from_coeffs(2, [F(1, 3), 2, 1], [1]), RABBIT, Z2I)
    for lift in lifts:
        g = deviation_bound(ARC, lift).gmax
        for _ in range(200):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            w = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(z) + abs(w) < 1e-3:
                continue
            assert abs(deviation_sequence(ARC, lift, classical_pair(z, w), 1)[0]) <= g + 1e-9


def test_heuristic_bound_for_complex_lifts():
    # complex lifts take the exact cofactor path of rational ones
    st = lambda_limit(ARC, Z2I, classical(1 + 1j), 1e-5)
    assert st.certificate == "certified"
    assert st.gmax == pytest.approx(math.log(4), abs=1e-12)


def test_deviation_bound_cached_for_complex_lift(monkeypatch):
    # an archimedean call reads its bound, depth and escape tail from one
    # cached plan: a second call rebuilds none of it
    import berkpot.green as green

    rabbit = HomogeneousLift.polynomial([complex(-0.1226, 0.7449), 0, 1])
    first = lambda_limit(ARC, rabbit, classical(0.3 + 0.2j), 1e-8)
    bounds = []
    original = green.deviation_bound
    monkeypatch.setattr(green, "deviation_bound", lambda *a: bounds.append(a) or original(*a))
    before = green._plan.cache_info()
    second = lambda_limit(ARC, rabbit, classical(0.3 + 0.2j), 1e-8)
    after = green._plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses) and bounds == []
    assert second == first


def test_exact_place_reads_one_cached_plan(monkeypatch):
    # an exact place reads its bound, depth and closed-tail constants from
    # the same cached plan as an archimedean one
    import berkpot.green as green

    p3, t23, x = Place.padic(3), HomogeneousLift.from_coeffs(2, [0, 0, F(1, 3)], [1]), disk(4, -1)
    first = lambda_limit(p3, t23, x, 1e-4)
    bounds = []
    original = green.deviation_bound
    monkeypatch.setattr(green, "deviation_bound", lambda *a: bounds.append(a) or original(*a))
    before = green._plan.cache_info()
    second = lambda_limit(p3, t23, x, 1e-4)
    after = green._plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses) and bounds == []
    assert second == first


def test_ecart_contraction_measured():
    K = circle_sample(32)

    def lam(n):
        return lambda x: float(lambda_n(ARC, Z2P1, x, n))

    d1 = max(abs(lam(1)(x) - lam(0)(x)) for x in K)
    d2 = max(abs(lam(2)(x) - lam(1)(x)) for x in K)
    assert d2 / d1 <= 0.5 + 1e-9


def test_contraction_ratios_forward_closure():
    rows = contraction_ratios(ARC, Z2P1, circle_sample(64), 12)
    assert len(rows) == 11
    for _, ratio in rows:
        assert ratio is None or ratio <= 0.5 + 1e-6


def test_contraction_exact_zero_rows():
    rows = contraction_ratios(ARC, Z2, circle_sample(16), 6)
    assert all(r is None for _, r in rows)
    p3 = Place.padic(3)
    z2p = HomogeneousLift.from_coeffs(2, [3, 0, 1], [1])
    from berkpot.sweeps import unit_sphere_sample_padic

    rows_p = contraction_ratios(p3, z2p, unit_sphere_sample_padic(p3, 6), 5)
    assert all(r is None for _, r in rows_p)


@pytest.mark.parametrize("eps", [F(1), F(1, 2), F(1, 1024)])
@pytest.mark.parametrize("lift", [
    HomogeneousLift.polynomial([-2, 0, 1]),
    RABBIT,
    HomogeneousLift.from_coeffs(2, [1, 0, 1], [0, 1]),  # (T0^2 + T1^2, T0 T1)
], ids=["cheb", "rabbit", "nonpoly"])
def test_lambda_limit_array_matches_scalar(lift, eps):
    place = Place.archimedean(eps)
    rng = np.random.default_rng(3)
    z = np.concatenate([rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40), [0, complex("inf")]])
    batch = lambda_limit(place, lift, z, 1e-10)
    assert batch.value.shape == z.shape
    terms = deviation_sequence(place, lift, z, 5)
    # one point runs on Python complex, an array on numpy: they round apart
    close = lambda a, b: abs(a - b) <= 8 * MACH_EPS * max(1.0, abs(b))
    scalar_steps = []
    for k, zk in enumerate(z):
        x = infinity() if np.isinf(zk) else classical(complex(zk))
        st = lambda_limit(place, lift, x, 1e-10)
        assert type(st.value) is float
        assert close(batch.value[k], st.value)
        assert (batch.certified_error, batch.certificate, batch.gmax) == (
            st.certified_error, st.certificate, st.gmax)
        scalar_steps.append(st.n_used)
        gs = deviation_sequence(place, lift, x, 5)
        assert all(type(g) is float and close(t[k], g) for t, g in zip(terms, gs, strict=True))
    assert batch.n_used == max(scalar_steps)  # the most steps any point summed
    assert lambda_n(place, lift, z, 0).shape == z.shape


CHEB = HomogeneousLift.polynomial([-2, 0, 1])
CUBIC = HomogeneousLift.from_coeffs(3, [1, -3, 0, 2], [5])  # (2T^3 - 3T + 1)/5
NONPOLY = HomogeneousLift.from_coeffs(2, [1, 0, 1], [0, 1])  # (T0^2 + T1^2, T0 T1)


def _a_priori(place, lift, tol):
    """(n, error bound, gmax) that tol alone fixes: the full-n certificate."""
    gmax = deviation_bound(place, lift).gmax
    n, err = 0, gmax / (lift.d - 1)
    while err > tol:
        n, err = n + 1, err / lift.d
    return n, err, gmax


def _escape_points(lift):
    """Grid points, points within 1e-6 of the Julia set (perturbed atoms of
    a preimage tree), 0 and infinity."""
    grid = [complex(a, b) for a in np.linspace(-3, 3, 7) for b in np.linspace(-2.9, 2.9, 5)]
    julia = equilibrium_arch(ARC, lift, 2, 4).z
    near = list(julia[:: max(1, len(julia) // 12)] * (1 + 1e-6) + 1e-7j)
    return [classical(z) for z in grid + near + [0j]] + [infinity()]


@pytest.mark.parametrize("tol", [1e-8, 1e-15])
@pytest.mark.parametrize("eps", [F(1), F(1, 2), F(1, 1024)])
@pytest.mark.parametrize("lift", [CHEB, RABBIT, CUBIC], ids=["cheb", "rabbit", "cubic"])
def test_escape_tail_agrees_with_the_full_sum(lift, eps, tol):
    place, d = Place.archimedean(eps), lift.d
    n, err, gmax = _a_priori(place, lift, tol)
    # lambda_n leaves out the tail sum_{j>=n} d^-(j+1) g_j, which on an
    # escaping orbit is eps log|f0[d]| / (d^n (d-1)) to rounding: 0 for the
    # monic maps, about 1e-9 for the cubic at tol 1e-8
    missed = float(eps) * abs(math.log(abs(complex(lift.f0[d])))) / (d**n * (d - 1))
    for x in _escape_points(lift):
        st = lambda_limit(place, lift, x, tol)
        assert (st.certified_error, st.certificate, st.gmax) == (err, "certified", gmax)
        assert st.n_used <= n
        assert abs(st.value - lambda_n(place, lift, x, n)) <= 1e-13 + missed, x
    assert lambda_limit(place, lift, infinity(), tol).n_used == 0


def test_vanishing_norm_in_an_orbit_is_a_green_error():
    # (3T^2 - T, 3T - 1 + 2^-60) has Res != 0, but its float coefficients
    # round f1[0] to -1, and at the float 1/3 both forms evaluate to exactly
    # 0: math.log(0.0) raises for one point, numpy gives nan for an array;
    # both read as the typed error of a vanishing resultant
    lift = HomogeneousLift.from_coeffs(2, [0, -1, 3], [F(-1) + F(1, 2**60), 3])
    assert deviation_bound(ARC, lift).gmax < 50
    for x in (classical(1 / 3), np.array([1 / 3, 2j, complex("inf")])):
        with pytest.raises(GreenError, match="lift vanishes at a projective point"):
            lambda_limit(ARC, lift, x, 1e-8)


def test_escaped_orbit_stops_after_five_steps():
    # 3 -> 7 -> 47 -> 2207 -> ...: g - log|f0[d]| decays as |z|^-2, so at
    # step 5 the escape bound is below rounding; the a priori n at tol 1e-8
    # is 28.  The value is the 5-term series to the bit (log|f0[d]| = 0).
    x = classical(3 + 0j)
    st = lambda_limit(ARC, CHEB, x, 1e-8)
    assert st.n_used == 5 and st.value == _series(ARC, CHEB, x, 5)
    assert _a_priori(ARC, CHEB, 1e-8)[0] == 28


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0])
def test_nonpositive_or_nan_tol_is_a_green_error(tol):
    # a NaN tol passes every `err > tol` test: it would certify the 0-step
    # value and leave a plan entry per call
    import berkpot.green as green

    before = green._plan.cache_info().currsize
    for place, lift, x in ((ARC, CHEB, classical(0.5 + 0j)), (ARC, RABBIT, np.array([0.5, 2j])),
                           (Place.padic(3), Z2P1, GAUSS)):
        with pytest.raises(GreenError, match="tolerance must be positive"):
            lambda_limit(place, lift, x, tol)
    assert green._plan.cache_info().currsize == before


def _series(place, lift, x, n):
    """-sum_{k<n} d^-(k+1) g_k over ``deviation_sequence``, term by term."""
    total = 0.0
    for k, g in enumerate(deviation_sequence(place, lift, x, n)):
        total = total - 1 / lift.d ** (k + 1) * g
    return total


@pytest.mark.parametrize("eps", [F(1), F(1, 2), F(1, 1024)])
def test_nonpolynomial_lift_runs_the_full_sum(eps):
    # no escape tail: every orbit sums all n terms, bit for bit
    place = Place.archimedean(eps)
    n = _a_priori(place, NONPOLY, 1e-8)[0]
    pts = _escape_points(CHEB)
    for x in pts:
        st = lambda_limit(place, NONPOLY, x, 1e-8)
        assert st.n_used == n and st.value == _series(place, NONPOLY, x, n)
    z = np.array([complex("inf") if x.t == "inf" else complex(x.z) for x in pts])
    batch = lambda_limit(place, NONPOLY, z, 1e-8)
    assert batch.n_used == n and (batch.value == _series(place, NONPOLY, z, n)).all()


def test_rabbit_deviation_bound_unchanged():
    # cofactors t, -c t, 0, 1 (max modulus 1) and coefficients 1, c (|c| < 1)
    b = deviation_bound(ARC, RABBIT)
    assert abs(b.lower - -math.log(4)) <= 1e-12
    assert abs(b.upper - math.log(3)) <= 1e-12
    st = lambda_limit(ARC, RABBIT, classical(0.3 + 0.2j), 1e-8)
    assert st.certificate == "certified" and abs(st.gmax - math.log(4)) <= 1e-12


def test_deviation_bound_infinite_at_residue_place():
    t2p = HomogeneousLift.from_coeffs(2, [0, 0, F(1, 2)], [1])  # T^2/2
    with pytest.raises(GreenError, match="deviation bound is infinite at this place"):
        deviation_bound(Place.residue(2), t2p)


def test_vanishing_resultant_bound_message():
    # Res = 4: the coefficients are integral, the cofactor branch is -inf
    lift = HomogeneousLift.from_coeffs(2, [1, 0, 1], [3, 0, 1])  # (T^2 + 1, T^2 + 3)
    with pytest.raises(GreenError, match="the resultant vanishes in the residue field"):
        lambda_limit(Place.residue(2), lift, GAUSS, 1e-3)
    # a polynomial map with p | f0[d] or p | f1[0]: the reductions share a zero
    # at infinity, and the plan refuses before its tail constants, whose logs
    # would be -inf
    for p in (2, 3, 5):
        for lift in (HomogeneousLift.polynomial([1, 1, p]), HomogeneousLift.from_coeffs(2, [1, 0, 1], [p]),
                     HomogeneousLift.polynomial([0, 1, 0, p * p])):
            for x in (GAUSS, classical(1), disk(1, -1)):
                with pytest.raises(GreenError, match="the resultant vanishes in the residue field"):
                    lambda_limit(Place.residue(p), lift, x, 1e-8)


def _cubic(p):
    return HomogeneousLift.from_coeffs(3, [0, F(-1, p), 0, F(1, p)], [1])  # (T^3 - T)/p


def _nonpoly(p):
    return HomogeneousLift.from_coeffs(2, [1, 0, F(1, p)], [0, 1])  # (T^2/p + 1, T)


# (lift, point) -> (lambda_n at n = 5, then lambda_limit at tol 1e-4 as value,
# n_used, certified_error), the same at p = 3 and p = 5 unless keyed by p;
# an error of 0.0 goes with the "exact" certificate
_CERT = {3: 6.705397269702818e-05, 5: 9.823229446008913e-05}  # G_max/(2^14) at d = 2
_PINNED = [
    (_cubic, lambda p: classical(p), {3: (F(0), F(0), 8, 8.372293009206753e-05),
                                      5: (F(-4, 243), F(-1, 54), 4, 0.0)}),
    (_cubic, lambda p: classical(F(p + 1, p)), (F(-121, 243), F(-1, 2), 0, 0.0)),
    (_cubic, lambda p: infinity(), (F(-121, 243), F(-1, 2), 0, 0.0)),
    (_cubic, lambda p: GAUSS, (F(-121, 243), F(-1, 2), 1, 0.0)),
    (_cubic, lambda p: disk(0, -1), (F(-40, 243), F(-1, 6), 2, 0.0)),
    (_cubic, lambda p: disk(1, -2), (F(-13, 243), F(-1, 18), 3, 0.0)),
    (_cubic, lambda p: disk(p * p, -4), (F(-1, 243), F(-1, 162), 5, 0.0)),
    (_nonpoly, lambda p: classical(p), {p: (F(-15, 32), F(-8191, 16384), 14, _CERT[p]) for p in _CERT}),
    (_nonpoly, lambda p: classical(F(p + 1, p)),
     {p: (F(-31, 32), F(-16383, 16384), 14, _CERT[p]) for p in _CERT}),
    (_nonpoly, lambda p: infinity(), {p: (F(-31, 32), F(-16383, 16384), 14, _CERT[p]) for p in _CERT}),
]


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("make_lift, make_point, expected", _PINNED)
def test_exact_orbit_values_pinned(p, make_lift, make_point, expected):
    place, lift, x = Place.padic(p), make_lift(p), make_point(p)
    lam, value, n_used, err = expected[p] if isinstance(expected, dict) else expected
    assert lambda_n(place, lift, x, 5) == lam
    st = lambda_limit(place, lift, x, 1e-4)
    assert (st.value, st.n_used, st.certified_error) == (value, n_used, err)
    assert st.certificate == ("exact" if err == 0.0 else "certified")


def test_exact_orbit_steps_once_per_extra_term(monkeypatch):
    import sys

    import berkpot.green as green

    p3 = Place.padic(3)
    callers = []  # who asked for each disk transport: the orbit or the trap test
    original = green.apply_point

    def counted(*a):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*a)

    monkeypatch.setattr(green, "apply_point", counted)
    t23 = HomogeneousLift.from_coeffs(2, [0, 0, F(1, 3)], [1])  # T^2/3
    for x in (classical(3), disk(9, -4), disk(1, -2)):
        for n in (1, 2, 5):
            callers.clear()
            lambda_n(p3, t23, x, n)
            assert callers == ["_exact_limit"] * (n - 1)
    # the basin disk is trapped once its first image is known: one orbit step,
    # one transport of the trapping disk
    callers.clear()
    st = lambda_limit(p3, t23, disk(9, -4), 1e-2)
    assert (st.value, st.n_used, st.certified_error, st.certificate) == (0, 1, 0.0, "exact")
    assert callers == ["_exact_limit", "_closed_tail"]
    callers.clear()
    st = lambda_limit(p3, _cubic(3), disk(1, -2), 1e-4)
    assert st.certificate == "exact"
    # the tail tests read x_n; this orbit's radii grow, so the trap test
    # transports nothing
    assert callers == ["_exact_limit"] * st.n_used


def test_one_taylor_shift_of_f0_per_disk_orbit_point(monkeypatch):
    import berkpot.green as green
    import berkpot.points as points
    import berkpot.rmaps as rmaps
    from berkpot.polys import taylor_shift, trim

    shifted = []  # the polynomial of every Taylor shift, other than log|T|'s T

    def counted(coeffs, z):
        if trim(coeffs) != [0, 1]:
            shifted.append(trim(coeffs))
        return taylor_shift(coeffs, z)

    for module in (green, points, rmaps):
        monkeypatch.setattr(module, "taylor_shift", counted, raising=False)
    p3 = Place.padic(3)
    t23 = HomogeneousLift.from_coeffs(2, [0, 0, F(1, 3)], [1])  # T^2/3: phi = F0 as f1[0] = 1
    for n in (1, 2, 5):
        shifted.clear()
        lambda_n(p3, t23, disk(1, -2), n)
        # F0 once per orbit point, for g and for the image; the constant F1 never
        assert shifted == [trim(t23.f0)] * n
    lift = HomogeneousLift.from_coeffs(2, [1, 0, F(1, 3)], [1, 1])  # (T^2/3 + 1, T + 1)
    shifted.clear()
    lambda_n(p3, lift, disk(1, -2), 1)
    assert shifted == [trim(lift.f0), trim(lift.f1)]  # a non-constant F1 is still shifted


# the bits of the archimedean deviation g at the points z0/z1 of four lifts
# with |z0| != |z1|, which the float orbit normalizes to max norm 1
_DEVIATION_G_PINNED = {
    (1, "rabbit"): ["0x1.a5bc7c934ffb9p-3", "0x0.0p+0", "-0x1.5a051c4dc16dep-5", "-0x1.1f8a1baaf6f3ap-23"],
    (1, "nonpoly"): ["0x1.907bf3d75f27cp-2", "0x1.80592b56df950p-3", "0x1.93eb91fd9e219p-10",
                     "0x1.01b2b36497b66p-23"],
    (1, "cubic"): ["0x1.5f91d3f31c15bp-1", "0x1.9c041f7ed8d33p+0", "0x1.621c6bbacae23p-1",
                   "0x1.62e429e5850dfp-1"],
    (F(1, 3), "rabbit"): ["0x1.1928530cdffd0p-4", "0x0.0p+0", "-0x1.cd5c25bd01e7dp-7", "-0x1.7f62cf8e9e9a2p-25"],
    (F(1, 3), "nonpoly"): ["0x1.0afd4d3a3f6fdp-3", "0x1.003b7239ea635p-4", "0x1.0d47b6a914166p-11",
                           "0x1.5798ef30ca488p-25"],
    (F(1, 3), "cubic"): ["0x1.d4c26feed01cep-3", "0x1.12ad6a54908ccp-1", "0x1.d825e4f90e82ep-3",
                         "0x1.d93037dcb167ep-3"],
}


@pytest.mark.parametrize("eps, name", sorted(_DEVIATION_G_PINNED, key=str))
def test_arch_deviation_g_bits_pinned(eps, name):
    lift = {"rabbit": RABBIT, "nonpoly": NONPOLY, "cubic": CUBIC}[name]
    lifts = [(1.3 + 0.4j, 1), (0.2 - 0.7j, 1.5j), (3, 0.5 + 0.5j), (2 - 1j, 1e-3)]
    got = [deviation_sequence(Place.archimedean(eps), lift, classical_pair(*zhat), 1)[0].hex() for zhat in lifts]
    assert got == _DEVIATION_G_PINNED[eps, name]


# one-point archimedean potentials as the evaluator with the |z|^-1 escape
# tail gave them, before the tail decayed as |z|^-m: lifts with m = 1 (and a
# lift that is not polynomial) must keep every bit, those with m = 2 may stop
# earlier by rounding
_ARCH_FROZEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "arch_point_values.txt")
_ARCH_LIFTS = {
    "z2+z-1": HomogeneousLift.polynomial([-1, 1, 1]),
    "cubic-m1": HomogeneousLift.from_coeffs(3, [1, -3, 1, 2], [5]),  # (2T^3 + T^2 - 3T + 1)/5
    "nonpoly": NONPOLY,
    "cheb": CHEB,
    "rabbit": RABBIT,
    "cubic": CUBIC,
}
_M2_LIFTS = ("cheb", "rabbit", "cubic")


def _arch_frozen_lines():
    """lift eps tol z | lambda_limit as value n_used certified_error
    certificate gmax | lambda_n at n = 5 | the first four g, floats as hex."""
    pts = (0j, 0.3 + 0.2j, -1.1 + 0.5j, 1.9 - 0.4j, 3 + 0j, -2.5 + 2.5j, 40j, None)
    for lname, lift in _ARCH_LIFTS.items():
        for eps in (F(1), F(1, 2), F(1, 1024)):
            place = Place.archimedean(eps)
            for tol in (1e-8, 1e-15):
                for z in pts:
                    x = infinity() if z is None else classical(z)
                    st = lambda_limit(place, lift, x, tol)
                    gs = " ".join(g.hex() for g in deviation_sequence(place, lift, x, 4))
                    yield (f"{lname} {eps} {tol!r} {'inf' if z is None else z} | {st.value.hex()} {st.n_used} "
                           f"{st.certified_error.hex()} {st.certificate} {st.gmax.hex()} | "
                           f"{lambda_n(place, lift, x, 5).hex()} | {gs}")


def test_arch_point_values_frozen():
    with open(_ARCH_FROZEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = list(_arch_frozen_lines())
    assert len(got) == len(want) == 288
    for line, frozen in zip(got, want, strict=True):
        if line.split()[0] not in _M2_LIFTS:
            assert line == frozen


def test_m2_escape_tail_stops_no_later_and_rounds_alike():
    # the |z|^-2 tail stops no later than the |z|^-1 one, at a sum that
    # differs by rounding only; the certificate, lambda_n and g keep their bits
    with open(_ARCH_FROZEN, encoding="utf-8") as fh:
        want = [line for line in fh.read().splitlines() if line.split()[0] in _M2_LIFTS]
    got = [line for line in _arch_frozen_lines() if line.split()[0] in _M2_LIFTS]
    assert len(got) == len(want) == 144
    fewer = 0
    for line, frozen in zip(got, want, strict=True):
        (head, st, rest), (head0, st0, rest0) = (x.split(" | ", 2) for x in (line, frozen))
        (v, n_used, *cert), (v0, n0, *cert0) = st.split(), st0.split()
        assert (head, cert, rest) == (head0, cert0, rest0)
        v, v0 = float.fromhex(v), float.fromhex(v0)
        assert int(n_used) <= int(n0) and abs(v - v0) <= 2.0**-52 * max(1.0, abs(v0)), line
        fewer += int(n_used) < int(n0)
    assert fewer > 0


def test_complex_lift_at_an_ultrametric_place_is_a_place_error():
    lift = HomogeneousLift.polynomial([1 + 1j, 0, 1])
    p3 = Place.padic(3)
    with pytest.raises(PlaceError, match="archimedean-only"):
        lambda_n(p3, lift, disk(1, -2), 3)
    for call in (lambda: deviation_sequence(p3, lift, GAUSS, 2), lambda: deviation_sequence(p3, lift, GAUSS, 1)[0],
                 lambda: lambda_limit(p3, lift, GAUSS, 1e-3)):
        with pytest.raises(PlaceError, match="archimedean-only"):
            call()


def test_exact_orbit_reads_log_T_without_a_shift(monkeypatch):
    # log|T| = max(log|a|, r) at eta_{a,r} is closed form (points.coord_log_abs)
    import berkpot.green as green
    import berkpot.points as points
    import berkpot.rmaps as rmaps
    from berkpot.polys import taylor_shift, trim

    shifted = []

    def counted(coeffs, z):
        shifted.append(trim(coeffs))
        return taylor_shift(coeffs, z)

    for module in (green, points, rmaps):
        monkeypatch.setattr(module, "taylor_shift", counted, raising=False)
    p3 = Place.padic(3)
    t23 = HomogeneousLift.from_coeffs(2, [0, 0, F(1, 3)], [1])  # T^2/3
    for x in (disk(1, -2), disk(F(1, 3), 1), GAUSS, classical(F(7, 3)), infinity()):
        shifted.clear()
        lambda_n(p3, t23, x, 4)
        lambda_limit(p3, _cubic(3), x, 1e-4)
        assert [0, 1] not in shifted


def test_one_term_on_a_disk_under_a_nonpolynomial_lift():
    # lambda_1 = -g(x)/d needs no disk transport
    for p in (3, 5):
        place, lift = Place.padic(p), _nonpoly(p)
        for x in (GAUSS, disk(0, -1), disk(1, F(1, 2))):
            assert lambda_n(place, lift, x, 1) == -deviation_sequence(place, lift, x, 1)[0] / 2


def test_lambda_n_at_a_residue_place_beyond_the_unit_disk():
    # |1/3| = +inf at the residue place: read in the chart (1, S), S = 3
    res = Place.residue(3)
    assert lambda_n(res, Z2P1, classical(F(1, 3)), 4) == 0
    assert deviation_sequence(res, _cubic(5), classical(F(1, 3)), 1)[0] == 0


def test_undefined_map_at_a_residue_place_raises():
    # T^2/2 is not defined on the fiber over the residue place at 2
    res, t22 = Place.residue(2), HomogeneousLift.from_coeffs(2, [0, 0, F(1, 2)], [1])
    for x in (classical(1), classical(F(1, 2)), GAUSS):
        for call in (lambda: deviation_sequence(res, t22, x, 1)[0], lambda: lambda_n(res, t22, x, 1),
                     lambda: deviation_sequence(res, t22, x, 3)):
            with pytest.raises(GreenError, match="coefficients blow up"):
                call()


def _t2p(p):
    return HomogeneousLift.from_coeffs(2, [0, 0, F(1, p)], [1])  # T^2/p


@pytest.mark.parametrize("p, x", [(2, disk(4, -4)), (3, disk(9, -4))])
def test_basin_disk_is_exact_at_default_tol(p, x):
    st = lambda_limit(Place.padic(p), _t2p(p), x, 1e-9)
    assert (st.value, st.certified_error, st.certificate) == (0, 0.0, "exact")


def _basin_battery(p, rng):
    """Seeded points of D(0, 1/p), the closed disk T^2/p maps onto itself
    (the basin of 0 and the fixed point eta_{0,1/p} on its boundary), and
    seeded points outside it, which escape."""
    def unit():
        a, b = rng.randrange(1, 5 * p), rng.randrange(1, 5 * p)
        return F(rng.choice([1, -1]) * (a + (a % p == 0)), b + (b % p == 0))

    inside = [disk(0, -1)]
    outside = []
    for _ in range(4):
        inside.append(classical(p ** rng.randrange(1, 4) * unit()))
        inside.append(disk(p ** rng.randrange(1, 4) * unit(), -rng.randrange(1, 7)))
        outside.append(classical(unit() / p ** rng.randrange(0, 3)))
        outside.append(disk(unit(), -rng.randrange(0, 4)))
    return inside, outside


@pytest.mark.parametrize("p", [2, 3, 5])
def test_trapped_orbits_agree_with_truncated_series(p):
    place, lift, N = Place.padic(p), _t2p(p), 10
    gmax = deviation_bound(place, lift).gmax
    inside, outside = _basin_battery(p, random.Random(p))
    for x in inside + outside:
        st = lambda_limit(place, lift, x, 1e-4)
        assert (st.certified_error, st.certificate) == (0.0, "exact"), x
        gap = abs(float(st.value - lambda_n(place, lift, x, N))) * place.log_unit
        assert gap <= gmax / 2**N + 1e-12, x
        assert x not in inside or st.value == 0, x


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("eps", [F(1), F(1, 2)])
def test_trapped_tail_of_a_nonmonic_lift(p, eps):
    # (T^2, p): phi = T^2/p again, but g = log|f1[0]| = -eps on the trapping disk
    place, lift, d = Place.padic(p, eps), HomogeneousLift.from_coeffs(2, [0, 0, 1], [p]), 2
    inside, _ = _basin_battery(p, random.Random(10 + p))
    for x in inside:
        st = lambda_limit(place, lift, x, 1e-6)
        assert (st.certified_error, st.certificate) == (0.0, "exact"), x
        for n in range(st.n_used, 11):
            assert lambda_n(place, lift, x, n) == st.value + F(-eps, d**n * (d - 1)), (x, n)


# -- one reading of F per exact orbit point ------------------------------------


def test_classical_orbit_points_read_f_once(monkeypatch):
    # each classical orbit point reads (F0, F1) once, for g and for its image
    import berkpot.green as green
    import berkpot.points as points
    import berkpot.polys as polys
    import berkpot.rmaps as rmaps

    calls = []

    def counted(coeffs, z):
        calls.append(z)
        return poly_eval(coeffs, z)

    for module in (green, points, polys, rmaps):
        monkeypatch.setattr(module, "poly_eval", counted, raising=False)
    p3, t23 = Place.padic(3), _t2p(3)
    for z in (F(1, 3), 3, F(7, 3)):
        for n in (1, 4, 6):
            calls.clear()
            lambda_n(p3, t23, classical(z), n)
            assert len(calls) == 2 * n, (z, n)


_FROZEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "exact_orbit_values.txt")


def _frozen_cases():
    """(name, place, lift, x) of the exact orbits the frozen values cover: T^2/p,
    (T^3 - T)/p, T^2 + p, T^2 + 1 and (T^2/7 + 1, T) at classical points with
    |z| < 1, |z| = 1 and |z| > 1 at Q_p, and at infinity."""
    places = [("Q2", Place.padic(2), 2), ("Q3", Place.padic(3), 3), ("Q3^1/2", Place.padic(3, F(1, 2)), 3),
              ("Q7", Place.padic(7), 7), ("res3", Place.residue(3), 3), ("trivial", Place.trivial(), 3)]
    for pname, place, p in places:
        lifts = {"T2/p": _t2p(p), "(T3-T)/p": _cubic(p), "T2+p": HomogeneousLift.polynomial([p, 0, 1]),
                 "T2+1": Z2P1, "(T2/7+1,T)": _nonpoly(7)}
        for lname, lift in lifts.items():
            for z in (p, p + 1, F(p + 1, p), None):
                x = infinity() if z is None else classical(z)
                yield f"{pname} {lname} {'inf' if z is None else z}", place, lift, x


def _frozen_line(name, place, lift, x):
    """name | lambda_n at n = 5 | the first four g | lambda_limit at tol 1e-3 as
    value, n_used, certified_error and certificate; a typed error as type: message."""
    cols = []
    for call in (lambda: lambda_n(place, lift, x, 5), lambda: deviation_sequence(place, lift, x, 4),
                 lambda: lambda_limit(place, lift, x, 1e-3)):
        try:
            got = call()
        except (GreenError, PlaceError) as exc:
            cols.append(f"{type(exc).__name__}: {exc}")
            continue
        if isinstance(got, list):
            cols.append(" ".join(map(str, got)))
        elif hasattr(got, "certificate"):
            cols.append(f"{got.value} {got.n_used} {got.certified_error!r} {got.certificate}")
        else:
            cols.append(str(got))
    return " | ".join([name] + cols)


def _frozen_arch_lines():
    """name | apply_point's image, as the repr of its coordinate, at an archimedean place."""
    lifts = {"T2+1": Z2P1, "F11": F11, "rabbit": RABBIT, "T2+i": Z2I, "nonpoly": NONPOLY, "cubic": CUBIC,
             "(T2-1,iT2+2)": HomogeneousLift.from_coeffs(2, [-1, 0, 1], [2, 0, 1j])}
    for lname, lift in lifts.items():
        for z in (1.3 + 0.4j, 0.2 - 0.7j, 3 + 0j, 0j, None):
            img = apply_point(ARC, lift, infinity() if z is None else classical(z))
            yield f"arch {lname} {'inf' if z is None else z} | {'inf' if img.t == 'inf' else repr(img.z)}"


def test_exact_orbit_values_frozen():
    # the values of the evaluator that read F twice per classical point and at
    # infinity, once for g in its own chart and once for the image: every value
    # exact or bit for bit, every typed error with its message
    with open(_FROZEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = [_frozen_line(*case) for case in _frozen_cases()] + list(_frozen_arch_lines())
    assert got == want
