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
from functools import cached_property, reduce

import numpy as np

from . import polys
from .places import Place, PlaceError, exact_div, is_neg_inf
from .points import (ARCH_INF, BerkPoint, DISK, INF, classical_pair, disk, newton_envelope,
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
        """``complex_coeffs`` as Python complex in the order of a one-point
        Horner step: (f0[d], f1[d]), then the pairs (f0[j], f1[j]) for j < d
        from the top down."""
        f0, f1 = self.complex_coeffs.tolist()
        return (f0[-1], f1[-1]), tuple(zip(f0[-2::-1], f1[-2::-1]))

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


def pair_at(lift: HomogeneousLift, x: BerkPoint, far: bool) -> tuple:
    """(F0, F1) at a classical point at (z, 1), or if far at (1, S = 1/z); at infinity at (1, 0)."""
    if x.t == INF:
        return lift.f0[lift.d], lift.f1[lift.d]
    f0, f1, s = (lift.f0[::-1], lift.f1[::-1], exact_div(1, x.z)) if far else (lift.f0, lift.f1, x.z)
    return poly_eval(f0, s), poly_eval(f1, s)


def apply_point(place: Place, lift: HomogeneousLift, x: BerkPoint, _read=None) -> BerkPoint:
    """Image of a point: evaluation for classical points, exact disk
    transport eta_{a,r} -> eta_{phi(a), r'} for polynomial maps.

    The new log-radius is max_{i>=1}(log|c_i| + i r) for phi(a+T) = sum c_i T^i,
    c_i the coefficients of F0(a + T) divided by f1[0].  An exact orbit
    passes what it read at x as ``_read``: that shift, or ``pair_at``.
    """
    if x.t != DISK:
        return classical_pair(*(_read or pair_at(lift, x, x.t == INF)))
    if not place.is_ultrametric:
        raise PlaceError("disk points live in ultrametric fibers only")
    if not lift.is_polynomial:
        raise MapError("disk transport implemented for polynomial maps only")
    shifted = _read or taylor_shift(lift.f0, x.center)
    if lift.f1[0] != 1:
        shifted = [c / lift.f1[0] for c in shifted]
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
    roots of F0(t,1) - a F1(t,1), built as one contiguous column per power of
    t, come from ``_solve_rows`` with one Newton polish; infinity accounts
    for any degree drop.
    """
    f0, f1 = lift.complex_coeffs
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    at_inf = np.isinf(a)
    cols = np.where(at_inf, 0, a) * f1[:, None]
    np.subtract(f0[:, None], cols, out=cols)  # in place: no second (d + 1, k) block
    cols[:, at_inf] = f1[:, None]
    return _solve_rows(cols.T, lift.d)


def _solve_rows(rows, d: int) -> PreimageSet:
    """Roots of each row of ascending coefficients, in closed form up to two, else as companion
    eigenvalues, with the np.roots conventions: top coefficients below 1e-12 of the row scale
    drop the degree (roots at infinity), exactly zero low coefficients are roots at 0.  Each root
    is a 1-D array over the columns ``rows.T``, gathered by mask only for infinity or merged roots."""
    k = len(rows)
    size = np.abs(rows.T)  # a column per power, contiguous from preimages_arch
    scale = reduce(np.maximum, size)  # row maxima; max(axis=0) is slow on few columns
    if not (least := scale.min()) > 0:
        raise MapError("zero preimage polynomial; degenerate map")
    if least < 2.0**-960:  # numpy's complex division by so small a top coefficient gives nan,
        e = np.where(scale < 2.0**-960, -np.frexp(scale)[1], 0)[:, None]  # so scale by 2^e, which moves no root
        return _solve_rows(np.ldexp(np.ascontiguousarray(rows, complex).view(float), e).view(complex), d)
    if (size[d] > 1e-12 * scale).all() and size[0].all():  # every row of degree d, no root at 0
        deg, groups = np.full(k, d), {d * (d + 1)}
    else:  # deg: the highest kept power; low: exactly zero low coefficients; argmax(axis=0) is slow
        deg = ((size > 1e-12 * scale) * np.arange(d + 1)[:, None]).max(axis=0)
        key = deg * (d + 1) + d - ((size > 0) * np.arange(d, -1, -1)[:, None]).max(axis=0)  # (deg, low)
        groups = set(key.tolist())
    roots, merged, flagged = np.empty((k, d), dtype=complex), [], False  # merged: (row, _cluster entries)
    for g in groups:
        idx = slice(None) if len(groups) == 1 else np.flatnonzero(key == g)  # one group: no copy
        dg, lz = divmod(g, d + 1)
        poly = rows.T[dg::-1, idx]  # highest coefficient first, a column per row
        n = dg - lz
        zero = np.zeros(poly.shape[1], dtype=complex)
        r = [zero] * dg  # a 1-D array per root; those past the n solved ones are 0
        if n > 2:
            comp = np.zeros((len(zero), n, n), dtype=complex)
            comp[:, np.arange(1, n), np.arange(n - 1)] = 1
            comp[:, 0, :] = (-poly[1 : n + 1] / poly[0]).T
            r[:n] = np.linalg.eigvals(comp).T
        elif n == 2:  # z^2 - B z - C, (B, C) the companion's first row
            b, c = -poly[1] / poly[0], -poly[2] / poly[0]
            s = np.sqrt(b * b + 4 * c)  # roots q = (B +- s) / 2, the larger, and -C / q
            q = (b + np.where((b * s.conj()).real < 0, -s, s)) / 2  # |q| > 1e-162 unless C = 0
            r[:2] = q + 0.0, -c / np.where(abs(q) < 1e-300, 1, q) + 0.0  # 0 / tiny q is nan in numpy
        elif n:  # z - B
            r[0] = -poly[1] / poly[0] + 0.0  # adding 0.0 leaves no -0.0 part, as eigvals does
        # one Newton step where the derivative is not negligible; val and der by Horner from 0
        step, dpoly = 1e-12 * scale[idx], [poly[j] * (dg - j) for j in range(dg)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # lanes the where drops
            for i, x in enumerate(r):
                val, der = (reduce(lambda acc, p: acc * x + p, ps, zero) for ps in (poly, dpoly))
                r[i] = roots[idx, i] = np.where(np.abs(der) > step, x - val / der, x)
        near = reduce(np.logical_or, (abs(r[u] - r[v]) <= 10 * CLUSTER_REL * (1.0 + np.maximum(abs(r[u]), abs(r[v])))
                                      for u in range(dg) for v in range(u)), False)
        for i in np.flatnonzero(near):  # rows with two roots within 10x the cluster radius
            entries, flag = _cluster([complex(x[i]) for x in r])
            flagged = flagged or flag
            if len(entries) < dg:
                merged.append((np.arange(k)[idx][i], entries))
    if not merged and (deg == d).all():
        return PreimageSet(roots.ravel(), np.ones(k * d, dtype=np.int64), np.arange(k).repeat(d), flagged)
    roots = np.column_stack((roots, np.full(k, ARCH_INF)))  # infinity last, with multiplicity d - deg
    mult = np.column_stack((np.arange(d) < deg[:, None], d - deg))
    for row, entries in merged:
        mult[row, :d] = 0
        roots[row, : len(entries)], mult[row, : len(entries)] = zip(*entries)
    return PreimageSet(roots[keep := mult > 0], mult[keep], np.nonzero(keep)[0], flagged)


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
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise MapError(f"bad map JSON: {exc}") from exc
