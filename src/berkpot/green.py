"""Canonical-metric potentials via the fixed-point iteration on metrics.

The standard metric on O(1) has potential log max(|T0|,|T1|) on lifts; one
application of the metric update divides the pulled-back potential by d, so
the n-th iterate differs from the standard potential by

    lambda_n(x) = -sum_{k<n} d^{-(k+1)} g(phi^k(x)),
    g(zhat) = log||F(zhat)|| - d log||zhat||,   ||.|| = max of coordinates,

a scale-invariant deviation.  |g| <= G_max gives the a priori tail bound
||lambda_phi - lambda_n|| <= G_max / (d^n (d-1)), the contraction constant
being 1/d.

G_max certification: the upper branch is a coefficient bound; the lower
branch divides the resultant by a cofactor bound, using the exact identities
Res * t^{2d-1} = A0 f0 + B0 f1 and Res = A1 f0 + B1 f1 with deg A_i, B_i < d
(solved once over Q from the Sylvester system).  When the lift has complex
coefficients the bound falls back to a sampled infimum marked "heuristic".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .places import (
    NEG_INF,
    LogValue,
    Place,
    PlaceError,
    abs_log_value,
    is_neg_inf,
    vmax,
    vplus,
    vscale,
)
from .points import CLS, INF, BerkPoint, eval_log_abs
from .polys import exact_solve
from .rmaps import HomogeneousLift, MapError, apply_point


class GreenError(RuntimeError):
    pass


def standard_potential(place: Place, x: BerkPoint) -> LogValue:
    """-log of the standard norm of T0 at x: max(-log|T|, 0), coefficient units."""
    if x.t == INF:
        return 0 if place.is_exact else 0.0
    t = eval_log_abs(place, x, [0, 1])
    if is_neg_inf(t):
        return float("inf")
    return vmax(vscale(-1, t), 0)


# -- lifted evaluation ---------------------------------------------------------


def _lift_of(x: BerkPoint):
    """A lift of x: classical pair, or the tautological (T, 1) over a disk."""
    if x.t == INF:
        return ("pair", (1, 0))
    if x.t == CLS:
        return ("pair", (x.z, 1))
    return ("disk", x)


def _pair_logs(place: Place, z0, z1):
    if place.is_exact:
        return abs_log_value(place, z0), abs_log_value(place, z1)
    a0 = abs(complex(z0))
    a1 = abs(complex(z1))
    e = float(place.eps)
    return (e * math.log(a0) if a0 else NEG_INF), (e * math.log(a1) if a1 else NEG_INF)


def deviation_g(place: Place, lift: HomogeneousLift, zhat) -> LogValue:
    """g at an explicit lift (z0, z1) != (0,0): log||F(zhat)|| - d log||zhat||."""
    z0, z1 = zhat
    w0 = poly_part_eval(place, lift.f0, z0, z1, lift.d)
    w1 = poly_part_eval(place, lift.f1, z0, z1, lift.d)
    l0, l1 = _pair_logs(place, z0, z1)
    n_in = vmax(l0, l1)
    if is_neg_inf(n_in):
        raise GreenError("(0,0) is not a lift")
    m0, m1 = _pair_logs(place, w0, w1)
    n_out = vmax(m0, m1)
    if is_neg_inf(n_out):
        raise GreenError("lift vanishes at a projective point; Res = 0")
    return vplus(n_out, vscale(-1, vscale(lift.d, n_in))) if n_in != 0 else n_out


def poly_part_eval(place: Place, coeffs, z0, z1, d: int):
    """F(z0, z1) for the degree-d homogenization of the coefficient list."""
    total = 0
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        total += c * z0**j * z1 ** (d - j)
    return total


def deviation_at_point(place: Place, lift: HomogeneousLift, x: BerkPoint) -> LogValue:
    """g evaluated on the canonical lift of a point (scale invariance)."""
    kind, data = _lift_of(x)
    if kind == "pair":
        return deviation_g(place, lift, data)
    # disk point: coordinates (T, 1); seminorm evaluation per coordinate
    t_log = eval_log_abs(place, x, [0, 1])
    f0_log = eval_log_abs(place, x, list(lift.f0))
    f1_log = eval_log_abs(place, x, list(lift.f1))
    n_in = vmax(t_log, 0)
    n_out = vmax(f0_log, f1_log)
    return vplus(n_out, vscale(-1, vscale(lift.d, n_in)))


# -- orbits --------------------------------------------------------------------


def _renormalize_pair(place: Place, z0, z1):
    if place.is_exact:
        l0, l1 = abs_log_value(place, z0), abs_log_value(place, z1)
        pivot = z0 if (not is_neg_inf(l0) and (is_neg_inf(l1) or l0 >= l1)) else z1
    else:
        pivot = z0 if abs(complex(z0)) >= abs(complex(z1)) else z1
    return z0 / pivot, z1 / pivot


def _orbit_step(place: Place, lift: HomogeneousLift, state):
    kind, data = state
    if kind == "pair":
        z0, z1 = data
        w0 = poly_part_eval(place, lift.f0, z0, z1, lift.d)
        w1 = poly_part_eval(place, lift.f1, z0, z1, lift.d)
        return ("pair", _renormalize_pair(place, w0, w1))
    return ("disk", apply_point(place, lift, data))


def _state_g(place: Place, lift: HomogeneousLift, state) -> LogValue:
    kind, data = state
    if kind == "pair":
        return deviation_g(place, lift, data)
    return deviation_at_point(place, lift, data)


def deviation_sequence(place: Place, lift: HomogeneousLift, x: BerkPoint, n: int):
    """[g(x), g(phi x), ..., g(phi^{n-1} x)] along the renormalized orbit."""
    state = _lift_of(x)
    out = []
    for _ in range(n):
        out.append(_state_g(place, lift, state))
        state = _orbit_step(place, lift, state)
    return out


def lambda_n(place: Place, lift: HomogeneousLift, x: BerkPoint, n: int) -> LogValue:
    """n-th potential deviation from the standard metric at x.

    lambda_0 = 0 and lambda_{n+1}(x) = (1/d) lambda_n(phi(x)) - (1/d) g(xhat).
    Exact rational at ultrametric places.
    """
    gs = deviation_sequence(place, lift, x, n)
    return _weighted_tail(place, lift.d, gs)


def _weighted_tail(place: Place, d: int, gs) -> LogValue:
    total = Fraction(0) if place.is_exact else 0.0
    for k, g in enumerate(gs):
        w = Fraction(1, d ** (k + 1))
        total = total - (w * g if place.is_exact else float(w) * g)
    return total


# -- deviation bounds ----------------------------------------------------------


@dataclass(frozen=True)
class ResultantCofactors:
    """Exact cofactors: Res t^{2d-1} = a0 f0 + b0 f1, Res = a1 f0 + b1 f1."""

    a0: tuple
    b0: tuple
    a1: tuple
    b1: tuple

    def coeff_list(self):
        return list(self.a0) + list(self.b0) + list(self.a1) + list(self.b1)


_COFACTOR_CACHE: dict = {}


def resultant_cofactors(lift: HomogeneousLift) -> ResultantCofactors:
    if not lift.is_rational:
        raise MapError("exact cofactors need rational coefficients")
    key = (lift.d, lift.f0, lift.f1)
    if key in _COFACTOR_CACHE:
        return _COFACTOR_CACHE[key]
    d = lift.d
    size = 2 * d
    # columns of M: coefficient vectors of t^i f0 (i < d) and t^i f1 (i < d),
    # in the degree <= 2d-1 coefficient basis
    m = [[Fraction(0)] * size for _ in range(size)]
    for i in range(d):
        for j, c in enumerate(lift.f0):
            m[i + j][i] += Fraction(c)
        for j, c in enumerate(lift.f1):
            m[i + j][d + i] += Fraction(c)
    res = Fraction(lift.resultant)
    sols = []
    for k in (2 * d - 1, 0):
        rhs = [Fraction(0)] * size
        rhs[k] = res
        sols.append(exact_solve(m, rhs))
    top, bottom = sols
    out = ResultantCofactors(
        a0=tuple(top[:d]), b0=tuple(top[d:]), a1=tuple(bottom[:d]), b1=tuple(bottom[d:])
    )
    _COFACTOR_CACHE[key] = out
    return out


@dataclass(frozen=True)
class DeviationBound:
    """Two-sided bound lower <= g <= upper on the whole fiber."""

    lower: float
    upper: float
    certified: bool

    @property
    def gmax(self) -> float:
        return max(self.upper, -self.lower, 0.0)


_DEVIATION_CACHE: dict = {}


def deviation_bound(place: Place, lift: HomogeneousLift) -> DeviationBound:
    """Certified G_max when coefficients are rational, sampled otherwise.

    Computed once per (place, lift); the sample of a complex lift is seeded,
    so the cached bound is the one every call would compute.
    """
    # a complex lift can equal a rational one (2 == 2+0j) but gets a sampled bound
    key = (place, lift, lift.is_rational)
    if key not in _DEVIATION_CACHE:
        _DEVIATION_CACHE[key] = _deviation_bound(place, lift)
    return _DEVIATION_CACHE[key]


def _deviation_bound(place: Place, lift: HomogeneousLift) -> DeviationBound:
    d = lift.d
    if lift.is_rational:
        cof = resultant_cofactors(lift)
        if place.is_exact:
            coeff_logs = [abs_log_value(place, c) for c in lift.coeff_list() if c != 0]
            upper = vmax(*coeff_logs)
            cof_logs = [abs_log_value(place, c) for c in cof.coeff_list() if c != 0]
            res_log = abs_log_value(place, Fraction(lift.resultant))
            lower = vplus(res_log, vscale(-1, vmax(*cof_logs)))
            unit = place.log_unit
            return DeviationBound(float(lower) * unit, float(upper) * unit, True)
        eps = float(place.eps)
        maxc = max(abs(float(Fraction(c))) for c in lift.coeff_list())
        upper = eps * (math.log(maxc) + math.log(d + 1))
        maxcof = max(abs(float(Fraction(c))) for c in cof.coeff_list() if c != 0)
        res = abs(float(Fraction(lift.resultant)))
        lower = eps * (math.log(res) - math.log(2 * d * maxcof))
        return DeviationBound(lower, upper, True)
    if place.is_exact:
        raise PlaceError("complex-coefficient lifts are archimedean-only")
    # heuristic: sampled range of g over the unit sphere with a x2 safety factor
    rng = np.random.default_rng(0)
    lo, hi = math.inf, -math.inf
    for _ in range(2048):
        theta = rng.uniform(0, 2 * math.pi, size=2)
        r = rng.uniform(0, 1)
        z0, z1 = complex(np.exp(1j * theta[0])), r * complex(np.exp(1j * theta[1]))
        if rng.uniform() < 0.5:
            z0, z1 = z1, z0
            z1 = complex(np.exp(1j * theta[1]))
        g = float(deviation_g(place, lift, (z0, z1)))
        lo, hi = min(lo, g), max(hi, g)
    return DeviationBound(2 * lo, 2 * hi, False)


def gmax(place: Place, lift: HomogeneousLift) -> float:
    return deviation_bound(place, lift).gmax


# -- limit with certificate ----------------------------------------------------


@dataclass
class PotentialState:
    """Bookkeeping for one canonical-potential evaluation.

    The tail certificate is certified_error <= gmax / (d^n_used (d-1)),
    maintained alongside n; certificate "exact" means the tail was summed
    in closed form and the error is literally zero.
    """

    value: LogValue
    n_used: int
    certified_error: float
    certificate: str  # "exact" | "certified" | "heuristic"
    gmax: float = 0.0


def _escape_threshold(place: Place, lift: HomogeneousLift):
    """Threshold t* for the closed tail of a polynomial map at an exact place.

    For log|T| > t* the top monomial of F0 strictly dominates, so by the
    ultrametric equality g equals log|f0[d]| at every later step and the
    remaining series sums exactly.  Returns (t*, tail constant).
    """
    if not (place.is_exact and lift.is_polynomial):
        return None
    d = lift.d
    a_top = abs_log_value(place, lift.f0[d])
    c_bot = abs_log_value(place, lift.f1[0])
    if is_neg_inf(a_top):
        return None
    bounds = [Fraction(0)]
    for i in range(d):
        ai = abs_log_value(place, lift.f0[i])
        if not is_neg_inf(ai):
            bounds.append(Fraction(ai - a_top, d - i))
    bounds.append(Fraction(c_bot - a_top, d))      # ||F|| carried by F0
    bounds.append(Fraction(c_bot - a_top, d - 1))  # orbit log|T| grows
    return vmax(*bounds), a_top


def _state_t_log(place: Place, lift: HomogeneousLift, state):
    """log|T| of the current orbit point, or None when not available exactly."""
    kind, data = state
    if kind == "disk":
        return eval_log_abs(place, data, [0, 1])
    z0, z1 = data
    if z1 == 0:
        return float("inf")
    l0, l1 = _pair_logs(place, z0, z1)
    if is_neg_inf(l0):
        return NEG_INF
    return vplus(l0, vscale(-1, l1)) if l1 != 0 else l0


def lambda_limit(place: Place, lift: HomogeneousLift, x: BerkPoint, tol: float) -> PotentialState:
    """Canonical potential at x with a certified tail.

    Chooses n with G_max/(d^n (d-1)) <= tol; stops early with a zero-error
    certificate when the deviation bound vanishes or the orbit enters the
    strict-escape region of a polynomial map (exact geometric tail).
    """
    if tol <= 0:
        raise GreenError("tolerance must be positive")
    bound = deviation_bound(place, lift)
    d = lift.d
    if not math.isfinite(bound.gmax):
        raise GreenError("deviation bound is infinite at this place (coefficients blow up)")
    if bound.certified and bound.gmax == 0.0:
        return PotentialState(Fraction(0) if place.is_exact else 0.0, 0, 0.0, "exact", 0.0)
    n = 0
    err = bound.gmax / (d - 1)
    while err > tol:
        n += 1
        err /= d
        if n > 10_000:
            raise GreenError("tolerance unreachable")
    esc = _escape_threshold(place, lift)
    state = _lift_of(x)
    total = Fraction(0) if place.is_exact else 0.0
    for k in range(n):
        if esc is not None:
            tstar, tail_g = esc
            t = _state_t_log(place, lift, state)
            if not is_neg_inf(t) and (t == float("inf") or t > tstar):
                # exact geometric tail: g stays at tail_g from step k on
                tail = Fraction(1, d**k * (d - 1)) * tail_g
                return PotentialState(total - tail, k, 0.0, "exact", bound.gmax)
        g = _state_g(place, lift, state)
        w = Fraction(1, d ** (k + 1))
        total = total - (w * g if place.is_exact else float(w) * g)
        state = _orbit_step(place, lift, state)
    cert = "certified" if bound.certified else "heuristic"
    return PotentialState(total, n, err, cert, bound.gmax)


def ecart_dK(u, v, sample) -> float:
    """Uniform distance max over the sample of |u - v|."""
    if not sample:
        raise GreenError("sample must be nonempty")
    best = None
    for x in sample:
        gap = abs(u(x) - v(x))
        if best is None or gap > best:
            best = gap
    return best


def contraction_ratios(place: Place, lift: HomogeneousLift, sample, n_max: int):
    """Ratios d_K(lambda_{n+1}, lambda_n) / d_K(lambda_n, lambda_{n-1}).

    The ecart is taken over the forward closure of the sample (contraction
    needs a map-invariant compact; a bare sample wanders and its sup can
    rise).  Rows where the previous ecart vanishes are marked exactly zero.
    """
    if n_max < 3:
        raise GreenError("need n_max >= 3")
    d = lift.d
    depth = n_max + 1
    tables = [deviation_sequence(place, lift, x, depth) for x in sample]
    level_sup = []
    for m in range(depth):
        sup = max(abs(row[m]) for row in tables)
        if not place.is_exact and float(sup) < 1e-12:
            sup = 0.0  # machine-zero deviation: the iteration sits at its fixed point
        level_sup.append(sup)
    suffix = list(level_sup)
    for m in range(depth - 2, -1, -1):
        suffix[m] = max(suffix[m], suffix[m + 1])
    ecarts = [float(suffix[m]) / d ** (m + 1) for m in range(depth)]
    rows = []
    for m in range(1, n_max):
        prev, cur = ecarts[m - 1], ecarts[m]
        if prev == 0:
            rows.append((m, None))  # exact fixed point reached
        else:
            rows.append((m, cur / prev))
    return rows
