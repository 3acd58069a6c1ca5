"""Homogeneous lifts of degree-d endomorphisms of P^1.

A lift is a pair (F0, F1) of degree-d forms in (T0, T1), stored through the
dehomogenized coefficient lists of F_i(t, 1).  Membership in the space of
actual endomorphisms is Res(F0, F1) != 0, decided exactly for every lift by
the one elimination that also gives the resultant cofactors
(``resultant_cofactors``).  Coefficients are shared exact rationals (one
lift serves every fiber) or finite complex floats (archimedean-only lifts).
Archimedean preimages are complex arrays in which ``points.ARCH_INF`` is the
point at infinity, an entry like any other.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import polys
from .places import Place, PlaceError, is_neg_inf
from .points import (ARCH_INF, BerkPoint, CLS, INF, classical_pair, disk, newton_envelope,
                     newton_lines, reduce_center)
from .polys import poly_eval, sylvester_matrix, taylor_shift, trim

CLUSTER_REL = 1e-7  # roots closer than this, relative to 1 + |root|, are one root


class MapError(ValueError):
    pass


@dataclass(frozen=True)
class ResultantCofactors:
    """Cofactors of degree < d with t^{2d-1} = a0 f0 + b0 f1 and 1 = a1 f0 + b1 f1.

    Ascending coefficient tuples: Fractions, or complex where the exact
    solution has a nonzero imaginary part.
    """

    a0: tuple
    b0: tuple
    a1: tuple
    b1: tuple

    def coeff_list(self):
        return list(self.a0) + list(self.b0) + list(self.a1) + list(self.b1)


def resultant_cofactors(lift: "HomogeneousLift") -> ResultantCofactors:
    """Exact cofactors of a lift, from one elimination; raises MapError when
    Res(F0, F1) = 0.

    The cofactors solve the transposed Sylvester system M = R + iJ with the
    right-hand sides t^{2d-1} and 1.  Float coefficients are dyadic
    rationals, so the realified system [[R, -J], [J, R]] is rational and is
    eliminated once over Q for both right-hand sides; its determinant is
    |det M|^2 = |Res(F0, F1)|^2.  When J = 0 (every rational lift) the
    system is R itself, a quarter of the size, with det R = Res(F0, F1).  A
    lift caches the result as ``HomogeneousLift.cofactors``.
    """
    d = lift.d
    size = 2 * d
    # columns of M: t^{d-1-i} f0 and t^{d-1-i} f1 (i < d) in the descending
    # basis t^{2d-1}, ..., 1
    m = list(zip(*sylvester_matrix(lift.f0, lift.f1, d, d)))
    real = [[Fraction(c.real) for c in row] for row in m]
    imag = [[Fraction(c.imag) for c in row] for row in m]
    realified = any(map(any, imag))
    if realified:
        system = [r + [-x for x in j] for r, j in zip(real, imag)] + [j + r for r, j in zip(real, imag)]
    else:
        system = real
    rhs = [[int(r == k) for r in range(len(system))] for k in (0, size - 1)]  # t^{2d-1} and 1
    det, solutions = polys._eliminate(system, rhs)
    if det == 0:
        raise MapError("degenerate pair: Res(F0, F1) = 0")
    cofactors = []
    for u in solutions:
        x = [complex(a, b) if b else a for a, b in zip(u[:size], u[size:])] if realified else u
        cofactors += [tuple(reversed(x[:d])), tuple(reversed(x[d:]))]
    return ResultantCofactors(*cofactors)


@dataclass(frozen=True)
class HomogeneousLift:
    """Degree-d pair (F0, F1); coefficient lists are of F_i(t,1), ascending."""

    d: int
    f0: tuple
    f1: tuple

    def __post_init__(self):
        if self.d < 2:
            raise MapError("degree must be at least 2")
        if len(self.f0) != self.d + 1 or len(self.f1) != self.d + 1:
            raise MapError("coefficient lists must have length d+1")
        self.cofactors  # the one exact elimination per lift; MapError when Res(F0, F1) = 0

    @staticmethod
    def from_coeffs(d: int, f0, f1) -> "HomogeneousLift":
        f0 = _pad(_coerce(f0), d)
        f1 = _pad(_coerce(f1), d)
        return HomogeneousLift(d, tuple(f0), tuple(f1))

    @staticmethod
    def polynomial(coeffs) -> "HomogeneousLift":
        """Lift of a polynomial map phi(T) = sum coeffs[i] T^i."""
        coeffs = _coerce(coeffs)
        d = len(trim(coeffs)) - 1
        one = Fraction(1) if isinstance(coeffs[0], (Fraction, int)) else complex(1)
        return HomogeneousLift.from_coeffs(d, coeffs, [one] + [0] * d)

    cofactors = cached_property(resultant_cofactors)

    # the generated hash, computed once (lifts key the potential caches), so
    # equal lifts (2 + 0j == 2) still hash alike
    _hash = cached_property(lambda self: hash((self.d, self.f0, self.f1)))

    def __hash__(self):
        return self._hash

    @cached_property
    def complex_coeffs(self) -> np.ndarray:
        """(F0, F1) coefficients as a read-only 2 x (d+1) complex array, the
        form every archimedean evaluation reads."""
        out = np.array([self.f0, self.f1], dtype=complex)
        out.setflags(write=False)
        return out

    @cached_property
    def scalar_coeffs(self) -> tuple:
        """``complex_coeffs`` as tuples of Python complex, read by one-point orbits."""
        return tuple(tuple(row) for row in self.complex_coeffs.tolist())

    @cached_property
    def is_rational(self) -> bool:
        return all(isinstance(c, (Fraction, int)) for c in self.f0 + self.f1)

    @cached_property
    def is_polynomial(self) -> bool:
        """Whether F1 is a nonzero multiple of T1^d (phi polynomial in the T-chart)."""
        return self.f1[0] != 0 and all(c == 0 for c in self.f1[1:])

    def coeff_list(self):
        return list(self.f0) + list(self.f1)


def _coerce(coeffs):
    out = []
    for c in coeffs:
        if isinstance(c, (Fraction, int, str)):
            out.append(Fraction(c))
        else:
            out.append(complex(c))
    if any(isinstance(c, complex) for c in out):
        try:
            out = [complex(c) for c in out]
        except OverflowError:  # a rational entry beyond the float range
            raise MapError("map coefficients must be finite") from None
        if not all(map(cmath.isfinite, out)):
            raise MapError("map coefficients must be finite")
    return out

def _pad(coeffs, d):
    if len(coeffs) > d + 1:
        raise MapError("coefficient list longer than degree allows")
    zero = Fraction(0) if all(isinstance(c, (Fraction, int)) for c in coeffs) else complex(0)
    return list(coeffs) + [zero] * (d + 1 - len(coeffs))


def apply_point(place: Place, lift: HomogeneousLift, x: BerkPoint, _f0_shift=None) -> BerkPoint:
    """Image of a point: evaluation for classical points, exact disk
    transport eta_{a,r} -> eta_{phi(a), r'} for polynomial maps.

    The new log-radius is max_{i>=1}(log|c_i| + i r) for phi(a+T) = sum c_i T^i,
    c_i the coefficients of F0(a + T) divided by f1[0].  An exact orbit that
    has shifted F0 to a already passes that shift as ``_f0_shift``.
    """
    if x.t == INF:
        return classical_pair(lift.f0[lift.d], lift.f1[lift.d])
    if x.t == CLS:
        z0 = poly_eval(lift.f0, x.z)
        z1 = poly_eval(lift.f1, x.z)
        return classical_pair(z0, z1)
    if not place.is_ultrametric:
        raise PlaceError("disk points live in ultrametric fibers only")
    if not lift.is_polynomial:
        raise MapError("disk transport implemented for polynomial maps only")
    f0_shift = taylor_shift(lift.f0, x.center) if _f0_shift is None else _f0_shift
    shifted = [c / lift.f1[0] for c in f0_shift]
    new_logr = newton_envelope(newton_lines(place, [0] + shifted[1:]), x.logr)  # log|phi - phi(a)|
    if is_neg_inf(new_logr):
        raise MapError("disk image degenerated to a classical point")
    # same seminorm, bounded-height center: keeps orbit arithmetic small
    return disk(reduce_center(place, shifted[0], new_logr), new_logr)


@dataclass
class PreimageSet:
    """Solutions of phi = a with multiplicity, for one target or a batch.

    Preimages are grouped by target, in target order, the point at infinity
    (``ARCH_INF``) after the finite ones; above each target the
    multiplicities sum to d.
    """

    z: np.ndarray         # preimages, complex; ARCH_INF is the point at infinity
    mult: np.ndarray      # multiplicity of each
    parent: np.ndarray    # index of the target each lies above
    flagged: bool = False  # set when clusters were numerically ambiguous

    @property
    def entries(self) -> list:
        """(complex, multiplicity) pairs, grouped by target."""
        return [(complex(z), int(m)) for z, m in zip(self.z, self.mult)]

    @property
    def total_multiplicity(self) -> int:
        return int(self.mult.sum())


def preimages_arch(lift: HomogeneousLift, a) -> PreimageSet:
    """Preimages of a under phi over C, with multiplicities from clustering.

    ``a`` is a complex target or a 1-D complex array of targets, solved as
    one batch; ``ARCH_INF`` is the point at infinity, whose row is F1.  The
    roots of F0(t,1) - a F1(t,1) are the eigenvalues of stacked companion
    matrices plus one Newton polish; infinity accounts for any degree drop.
    """
    f0, f1 = lift.complex_coeffs
    a = np.atleast_1d(np.asarray(a, dtype=complex))[:, None]
    at_inf = np.isinf(a)
    return _solve_rows(np.where(at_inf, f1, f0 - np.where(at_inf, 0, a) * f1), lift.d)


def _solve_rows(rows, d: int) -> PreimageSet:
    """Roots of each row of ascending coefficients, with the np.roots
    conventions: top coefficients below 1e-12 of the row scale drop the
    degree (roots at infinity), exactly zero low coefficients are roots at 0."""
    k = len(rows)
    size = np.abs(rows)
    scale = size.max(axis=1)
    if not (scale > 0).all():
        raise MapError("zero preimage polynomial; degenerate map")
    kept = size > 1e-12 * scale[:, None]
    kept[:, 0] = True
    deg = d - np.argmax(kept[:, ::-1], axis=1)
    low = np.argmax(rows != 0, axis=1)  # exactly zero low coefficients
    # columns: up to d finite roots, then infinity with multiplicity d - deg
    roots = np.full((k, d + 1), ARCH_INF)
    mult = np.zeros((k, d + 1), dtype=np.int64)
    mult[:, d] = d - deg
    flagged = False
    for dg, lz in set(zip(deg.tolist(), low.tolist())):
        if dg == 0:
            continue
        idx = np.nonzero((deg == dg) & (low == lz))[0]
        poly = rows[idx, : dg + 1][:, ::-1]  # highest coefficient first
        n = dg - lz
        r = np.zeros((len(idx), dg), dtype=complex)
        if n:
            comp = np.zeros((len(idx), n, n), dtype=complex)
            comp[:, np.arange(1, n), np.arange(n - 1)] = 1
            comp[:, 0, :] = -poly[:, 1 : n + 1] / poly[:, :1]
            r[:, :n] = np.linalg.eigvals(comp)
        # one Newton step where the derivative is not negligible
        val = np.zeros_like(r)
        der = np.zeros_like(r)
        for j in range(dg + 1):
            val = val * r + poly[:, j, None]
            if j < dg:
                der = der * r + poly[:, j, None] * (dg - j)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(np.abs(der) > 1e-12 * scale[idx, None], r - val / der, r)
        roots[idx, :dg] = r
        mult[idx, :dg] = 1
        # rows with two roots within 10x the cluster radius go through _cluster
        gap = np.abs(r[:, :, None] - r[:, None, :])
        big = np.maximum(np.abs(r[:, :, None]), np.abs(r[:, None, :]))
        near = gap <= 10 * CLUSTER_REL * (1.0 + big)
        near &= ~np.eye(dg, dtype=bool)
        for i in np.nonzero(near.any(axis=(1, 2)))[0]:
            entries, flag = _cluster([complex(x) for x in r[i]])
            flagged = flagged or flag
            mult[idx[i], :d] = 0
            roots[idx[i], : len(entries)] = [z for z, _ in entries]
            mult[idx[i], : len(entries)] = [m for _, m in entries]
    keep = mult > 0
    return PreimageSet(roots[keep], mult[keep], np.nonzero(keep)[0], flagged)


def _cluster(roots):
    """Greedy clustering; cluster sizes become multiplicities."""
    clusters = []  # (representative, members)
    flagged = False
    for r in roots:
        placed = False
        for k, (rep, members) in enumerate(clusters):
            tol = CLUSTER_REL * (1.0 + abs(rep))
            dist = abs(r - rep)
            if dist <= tol:
                members.append(r)
                clusters[k] = (sum(members) / len(members), members)
                placed = True
                break
            if dist <= 10 * tol:
                flagged = True
        if not placed:
            clusters.append((r, [r]))
    return [(rep, len(members)) for rep, members in clusters], flagged


# -- (de)serialization --------------------------------------------------------

def _coeff_to_json(c):
    if isinstance(c, Fraction):
        return str(c)
    return {"re": c.real, "im": c.imag}


def lift_to_json(lift: HomogeneousLift) -> dict:
    def form(coeffs):
        out = []
        for j, c in enumerate(coeffs):
            if c != 0:
                out.append([_coeff_to_json(c), f"{j},{lift.d - j}"])
        return out

    return {"d": lift.d, "F0": form(lift.f0), "F1": form(lift.f1)}


def lift_from_json(obj: dict) -> HomogeneousLift:
    try:
        d = int(obj["d"])

        def parse(entries):
            coeffs = [Fraction(0)] * (d + 1)
            for coeff, expo in entries:
                j_str, k_str = str(expo).split(",")
                j, k = int(j_str), int(k_str)
                if j + k != d or j < 0:
                    raise MapError(f"exponent {expo!r} not of total degree {d}")
                if isinstance(coeff, dict):
                    coeffs[j] = complex(float(coeff["re"]), float(coeff.get("im", 0.0)))
                else:
                    coeffs[j] = Fraction(str(coeff))
            return coeffs  # from_coeffs makes a list with a complex entry all complex

        return HomogeneousLift.from_coeffs(d, parse(obj["F0"]), parse(obj["F1"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise MapError(f"bad map JSON: {exc}") from exc
