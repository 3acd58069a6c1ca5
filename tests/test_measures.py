import cmath
import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from berkpot import measures
from berkpot.measures import (
    ArchMeasure,
    ExceptionalSeedWarning,
    _circle_quadrature,
    Measure,
    MeasureError,
    chi_measure,
    dirac,
    energy_pairing,
    equilibrium_arch,
    equilibrium_nonarch,
    haar_circle,
    integrate,
    measure_to_rows,
    pullback_measure,
    pushforward_measure,
)
from berkpot.places import Place, flow_place
from berkpot.points import ARCH_INF, GAUSS, classical, disk, flow_point, infinity, same_point
from berkpot.rmaps import HomogeneousLift, apply_point
from berkpot.sweeps import default_skeleton
from berkpot.affable import affable_real
from berkpot.battery import standard_battery

ARC = Place.archimedean()
Z2 = HomogeneousLift.polynomial([0, 0, 1])


def quadrature_oracle(f, center, radius, n=4096):
    total = 0.0
    for k in range(n):
        total += f(center + radius * cmath.exp(2j * math.pi * (k + 0.5) / n))
    return total / n


def test_integrate_atom_examples():
    triv = Place.trivial()
    mu = dirac(GAUSS)
    f = affable_real(triv, standard_battery()[0])  # max(0, log|T-2|)
    val, err = integrate(triv, mu, f)
    assert val == 0 and err == 0


def test_integrate_haar_mass():
    val, err = integrate(ARC, haar_circle(0, 1.0), lambda z: np.ones(z.shape))
    assert val == pytest.approx(1.0, abs=1e-12)


def test_integrate_jensen():
    mu = haar_circle(0, 1.0)
    f = lambda z: np.log(np.abs(z - 2))
    val, _ = integrate(ARC, mu, f)
    oracle = quadrature_oracle(lambda z: math.log(abs(z - 2)), 0, 1.0)
    assert val == pytest.approx(math.log(2), abs=1e-9)
    assert val == pytest.approx(oracle, abs=1e-7)


def test_integrate_rejects_infinite_atom():
    mu = dirac(classical(0j))
    with pytest.raises(MeasureError):
        integrate(ARC, mu, lambda z: np.full(z.shape, math.inf))


def test_circle_quadrature_unconverged_error_is_honest():
    # log|T-1| has its singularity on the circle: at cap 256 the midpoint
    # rule is still log(2)/256 away from the true integral 0
    f = lambda z: np.log(np.abs(z - 1))
    val, err = _circle_quadrature(f, 0j, 1.0, 64, 1e-9, 256)
    assert abs(val) == pytest.approx(2.7e-3, rel=0.01)
    assert err >= abs(val - 0.0)


def test_pushforward_examples():
    mu = dirac(classical(2 + 0j))
    out = pushforward_measure(lambda x: apply_point(ARC, Z2, x), mu)
    assert out.atoms[0][0] == classical(4 + 0j)
    p5 = Place.padic(5)
    tp = HomogeneousLift.from_coeffs(2, [5, 0, 1], [1])
    img = pushforward_measure(lambda x: apply_point(p5, tp, x), dirac(GAUSS))
    assert same_point(p5, img.atoms[0][0], GAUSS)


def test_pullback_examples():
    mu4 = pullback_measure(ARC, Z2, dirac(classical(4 + 0j)))
    pts = sorted(round(p.z.real) for p, _ in mu4.atoms)
    assert pts == [-2, 2] and mu4.total_mass == 2
    mu0 = pullback_measure(ARC, Z2, dirac(classical(0j)))
    assert mu0.atoms == [(classical(0j), 2)]


def test_pullback_mass_multiplies_by_degree():
    rng = random.Random(1)
    lift = HomogeneousLift.polynomial([1, 2, 0, 1])
    mu = Measure([(classical(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))), rng.uniform(0.1, 2)) for _ in range(5)])
    out = pullback_measure(ARC, lift, mu)
    assert float(out.total_mass) == pytest.approx(3 * float(mu.total_mass), abs=1e-9)


def test_equilibrium_arch_level1():
    mu = equilibrium_arch(ARC, Z2, 2, 1)
    assert [round(p.z.real, 6) for p, _ in mu.atoms] == [round(-math.sqrt(2), 6), round(math.sqrt(2), 6)]
    assert all(w == F(1, 2) for _, w in mu.atoms)


def test_equilibrium_arch_weak_haar_limit():
    mu = equilibrium_arch(ARC, Z2, 2, 11)
    for fn in standard_battery():
        f = affable_real(ARC, fn)
        v_mu, _ = integrate(ARC, mu, f)
        v_haar, _ = integrate(ARC, haar_circle(0, 1.0), f)
        assert v_mu == pytest.approx(v_haar, abs=3e-3)


def test_equilibrium_arch_exceptional_seed_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        equilibrium_arch(ARC, Z2, 0, 4)
    assert any(issubclass(w.category, ExceptionalSeedWarning) for w in caught)


def test_equilibrium_arch_seed_zero_under_squaring():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExceptionalSeedWarning)
        mu = equilibrium_arch(ARC, Z2, 0, 3)
    assert mu.atoms == [(classical(0j), 1)]


def test_equilibrium_arch_keeps_mass_at_infinity():
    # phi = 1/z^2 swaps 0 and infinity: odd levels sit at infinity
    inv = HomogeneousLift.from_coeffs(2, [1], [0, 0, 1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mu = equilibrium_arch(ARC, inv, 0, 5)
    assert any(issubclass(w.category, ExceptionalSeedWarning) for w in caught)
    assert mu.z.tolist() == [ARCH_INF] and mu.w.tolist() == [1] and mu.total_mass == 1
    assert [pt.t for pt, _ in mu.atoms] == ["inf"]
    # phi = z/(z^2+1): 0 has preimages 0 and infinity, infinity has +-i
    lift = HomogeneousLift.from_coeffs(2, [0, 1], [1, 0, 1])
    mu = equilibrium_arch(ARC, lift, 0, 2)
    assert mu.z[-1] == ARCH_INF and mu.w[-1] == F(1, 4) and mu.total_mass == 1
    assert [str(pt) for pt, _ in mu.atoms] == ["Pt(-1j)", "Pt(0j)", "Pt(1j)", "Pt(inf)"]
    val, _ = integrate(ARC, mu, lambda z: np.where(np.isfinite(z), 0.0, 1.0))
    assert val == 0.25


def test_pullback_of_infinity_is_one_solve(monkeypatch):
    # ARCH_INF is an ordinary atom: the array and the BerkPoint forms of
    # delta_infinity pull back alike, each in one preimage solve
    calls = []
    real = measures.preimages_arch
    monkeypatch.setattr(measures, "preimages_arch", lambda *a: calls.append(a) or real(*a))
    cases = [
        ([0, 1], [1, 0, 1], [(-1j, 1.0), (1j, 1.0)]),  # z/(z^2+1): infinity has preimages +-i
        ([1], [0, 0, 1], [(0j, 2.0)]),                 # 1/z^2: a double preimage 0
        ([0, 0, 1], [1], [(ARCH_INF, 2.0)]),           # z^2: infinity is totally invariant
    ]
    for f0, f1, want in cases:
        lift = HomogeneousLift.from_coeffs(2, f0, f1)
        del calls[:]
        from_atoms = pullback_measure(ARC, lift, Measure([(infinity(), 1)]))
        assert len(calls) == 1
        from_array = pullback_measure(ARC, lift, ArchMeasure([ARCH_INF], [1.0]))
        assert len(calls) == 2
        assert from_array.z.tolist() == from_atoms.z.tolist()
        assert from_array.w.tolist() == from_atoms.w.tolist() == [w for _, w in want]
        got = sorted(from_array.z.tolist(), key=lambda z: (z.real, z.imag))
        for z, (v, _) in zip(got, want):
            assert z == v if v == ARCH_INF else abs(z - v) < 1e-12


def test_equilibrium_arch_successive_diffs_decreasing():
    # shipped example: the squaring map, whose preimage trees of 2 fill the
    # unit circle monotonically; the potential-type entry is dropped so the
    # test set stays finite on every atom
    lift = Z2
    battery = [fn for fn in standard_battery() if fn.fn_id != "standard_potential"]
    sups = []
    mus = [equilibrium_arch(ARC, lift, 2, n) for n in range(4, 9)]
    for a, b in zip(mus, mus[1:]):
        gaps = []
        for fn in battery:
            fa, _ = integrate(ARC, a, affable_real(ARC, fn))
            fb, _ = integrate(ARC, b, affable_real(ARC, fn))
            gaps.append(abs(fb - fa))
        sups.append(max(gaps))
    assert all(x > y for x, y in zip(sups, sups[1:]))


def test_equilibrium_invariance_weak_form():
    from berkpot.rmaps import pushforward_values

    lift = HomogeneousLift.polynomial([1, 0, 1])
    mu = equilibrium_arch(ARC, lift, 2, 10)
    fn = standard_battery()[0]
    f = affable_real(ARC, fn)
    lhs, _ = integrate(ARC, mu, lambda z: np.array([pushforward_values(ARC, lift, f, a) for a in z]))
    rhs, _ = integrate(ARC, mu, f)
    assert lhs == pytest.approx(2 * rhs, abs=2e-3 * 2)


def test_equilibrium_nonarch_good_reduction():
    for p, lift in ((2, Z2), (5, HomogeneousLift.from_coeffs(2, [5, 0, 1], [1]))):
        place = Place.padic(p)
        mu, report = equilibrium_nonarch(place, lift, default_skeleton(place))
        assert len(mu.atoms) == 1
        pt, w = mu.atoms[0]
        assert same_point(place, pt, GAUSS) and w == 1
        assert report.total_mass == 1 and not report.negative_atoms


def test_equilibrium_nonarch_bad_reduction_atom_location():
    # T^2/p: potential bends at eta_{0, p^{-1}}; all mass sits there
    p5 = Place.padic(5)
    t25 = HomogeneousLift.from_coeffs(2, [0, 0, F(1, 5)], [1])
    mu, report = equilibrium_nonarch(p5, t25, default_skeleton(p5))
    assert report.total_mass == 1
    assert len(mu.atoms) == 1
    pt, w = mu.atoms[0]
    assert w == 1 and same_point(p5, pt, disk(0, F(-1)))


def test_equilibrium_nonarch_random_polynomial_maps_mass_one():
    rng = random.Random(77)
    for _ in range(15):
        p = rng.choice([2, 3, 5])
        place = Place.padic(p)
        d = rng.choice([2, 3])
        while True:
            coeffs = [F(rng.randint(-6, 6), rng.choice([1, 1, p])) for _ in range(d)]
            coeffs.append(F(rng.choice([1, 2, p]), rng.choice([1, p])))
            try:
                lift = HomogeneousLift.polynomial(coeffs)
                if lift.d == d:
                    break
            except Exception:
                continue
        mu, report = equilibrium_nonarch(place, lift, default_skeleton(place, span=3))
        assert report.total_mass == 1  # telescoping, independent of skeleton


def test_equilibrium_nonarch_coarse_skeleton_smears():
    # a skeleton missing the potential's kink receives the PL-projected
    # measure: mass splits onto the flanking vertices, total still exactly 1
    p5 = Place.padic(5)
    t25 = HomogeneousLift.from_coeffs(2, [0, 0, F(1, 5)], [1])
    from berkpot.points import build_skeleton

    coarse = build_skeleton(p5, [disk(0, F(-2)), disk(0, F(0)), disk(0, F(2))])
    mu, report = equilibrium_nonarch(p5, t25, coarse)
    assert report.total_mass == 1
    weights = {str(pt): w for pt, w in mu.atoms}
    assert weights == {"Eta(0,-2)": F(1, 2), "Eta(0,0)": F(1, 2)}


def test_equilibrium_nonarch_requires_gauss():
    p2 = Place.padic(2)
    from berkpot.points import build_skeleton

    skel = build_skeleton(p2, [disk(0, F(1)), disk(0, F(2))])
    with pytest.raises(MeasureError):
        equilibrium_nonarch(p2, Z2, skel)


def test_chi_flow_equivariance_exact():
    p3 = Place.padic(3)
    for eps in (F(1, 2), F(1, 3), F(2, 5)):
        for (z, rho) in ((F(0), F(0)), (F(1), F(-2)), (F(2, 3), F(1, 2))):
            chi = chi_measure(p3, z, rho)
            moved = pushforward_measure(lambda x: flow_point(x, eps), chi)
            target = chi_measure(flow_place(p3, eps), z, eps * rho)
            assert len(moved.atoms) == len(target.atoms) == 1
            assert same_point(flow_place(p3, eps), moved.atoms[0][0], target.atoms[0][0])


def test_energy_pairing_basics():
    assert energy_pairing(ARC, Z2, Z2, n=5) == 0.0
    zt = HomogeneousLift.polynomial([F(1, 4), 0, 1])
    val = energy_pairing(ARC, Z2, zt, n=8)
    swapped = energy_pairing(ARC, zt, Z2, n=8)
    assert val >= -1e-9
    assert val == pytest.approx(swapped, abs=1e-9)


@pytest.mark.parametrize("k, seed_value", [
    (1, 0.18414401220221424), (4, 0.020114133416617212), (8, 0.0007477066066629343)])
def test_energy_pairing_matches_pointwise_values(k, seed_value):
    # values of the per-atom scalar pairing this library used before
    lift = HomogeneousLift.polynomial([F(1, 2**k), 0, 1])
    assert abs(energy_pairing(ARC, Z2, lift, n=10, tol=1e-7) - seed_value) <= 1e-12


def test_energy_pairing_evaluates_potentials_per_measure(monkeypatch):
    import berkpot.measures as measures

    calls = []
    original = measures.lambda_limit
    monkeypatch.setattr(measures, "lambda_limit", lambda *a: calls.append(a) or original(*a))
    energy_pairing(ARC, Z2, HomogeneousLift.polynomial([F(1, 4), 0, 1]), n=8)
    assert len(calls) == 4  # two potentials on each of the two atom arrays


def test_energy_pairing_nonarch():
    p5 = Place.padic(5)
    t25 = HomogeneousLift.from_coeffs(2, [0, 0, F(1, 5)], [1])
    skel = default_skeleton(p5)
    assert energy_pairing(p5, Z2, Z2, skeleton=skel) == 0.0
    val = energy_pairing(p5, Z2, t25, skeleton=skel)
    assert val >= 0  # distinct measures separate


def test_measure_csv_rows():
    rows = measure_to_rows(Place.padic(2), Measure([(GAUSS, F(1))]))
    rows += measure_to_rows(ARC, haar_circle(0j, 1.0, 0.5))
    assert rows[0][0] == "atom" and rows[1][0] == "haar"
