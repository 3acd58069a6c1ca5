"""Canonical-metric potentials via the fixed-point iteration on metrics.

The standard metric on O(1) has potential log max(|T0|,|T1|) on lifts; one
application of the metric update divides the pulled-back potential by d, so
the n-th iterate differs from the standard potential by

    lambda_n(x) = -sum_{k<n} d^{-(k+1)} g(phi^k(x)),
    g(zhat) = log||F(zhat)|| - d log||zhat||,   ||.|| = max of coordinates,

a scale-invariant deviation.  |g| <= G_max gives the a priori tail bound
||lambda_phi - lambda_n|| <= G_max / (d^n (d-1)), the contraction constant
being 1/d.

G_max certification, the same for every lift: the upper branch is a
coefficient bound; the lower branch is a cofactor bound, from the exact
identities t^{2d-1} = A0 f0 + B0 f1 and 1 = A1 f0 + B1 f1 with
deg A_i, B_i < d.  On a lift of max norm 1 they give ||F|| >= 1 / (2d max|x_j|)
at an archimedean place and ||F|| >= 1 / max|x_j| at an ultrametric one,
x_j running over the cofactor coefficients.  The cofactors are
``HomogeneousLift.cofactors``: the one exact elimination that also decides
Res(F0, F1) != 0 when the lift is built (``rmaps.resultant_cofactors``).

Archimedean places run every orbit through one kernel, ``_arch_step``, which
reads the lift's complex coefficients (``HomogeneousLift.complex_coeffs``)
and works on complex scalars and ndarrays alike.  There ``lambda_n``,
``lambda_limit`` and ``deviation_sequence`` take either a BerkPoint or a
complex ndarray of points, ``points.ARCH_INF`` standing for the point at
infinity as in ``preimages_arch``.  An array gives one ``PotentialState``
whose ``value`` is an array of the same shape; ``n_used``,
``certified_error``, ``certificate`` and ``gmax`` stay scalars, because the
tail bound does not depend on the point, so every point runs the same n
steps.

Ultrametric places run an exact orbit of BerkPoints: ``rmaps.apply_point``
is the one step, for classical points, infinity and disks alike, and g is
the seminorm formula log max(|F0|, |F1|)(x) - d log max(|T|, 1)(x) of
``deviation_at_point``, read with ``eval_log_abs`` in the chart (T, 1) for
disks and |z| <= 1, and in the chart (1, S = 1/T) for |z| > 1 and infinity.
The n terms of a sum take n - 1 steps.

A polynomial map phi = F0 / f1[0] has two closed tails, where g is constant
on the rest of the orbit and the series sums to g / (d^k (d-1)) from step k
on, with error 0 (certificate ``exact``):

- escape: once log|T| passes the threshold of ``_tail_constants``, the top
  monomial of F0 dominates and g = log|f0[d]|;
- trap: let x_{k-1} be an orbit point in the closed unit disk and x_k its
  image.  If B = join(x_{k-1}, x_k) lies in the closed unit disk and
  phi(B) is in B, every later orbit point lies in B (a Fatou component
  mapped into itself, or a fixed point such as eta_{0,1/p} of T^2/p).
  There |phi| <= 1 gives |F0| <= |f1[0]| = |F1|, so g = log|f1[0]|.

Both tests read only orbit points the sum computes anyway.  The trap adds
one disk transport of B per step, and none where a disk orbit grows: if the
radius of x_k exceeds that of x_{k-1}, phi(B) is larger than B.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .places import (
    POS_INF,
    LogValue,
    Place,
    PlaceError,
    abs_log_value,
    is_neg_inf,
    is_pos_inf,
    vmax,
    vplus,
    vscale,
)
from .points import (
    CLS,
    DISK,
    GAUSS,
    INF,
    BerkPoint,
    classical,
    classical_pair,
    contains,
    eval_log_abs,
    join_points,
)
from .rmaps import HomogeneousLift, apply_point


class GreenError(RuntimeError):
    pass


_INFINITE_BOUND = "deviation bound is infinite at this place (coefficients blow up)"
_VANISHING_RES = "deviation bound is infinite at this place (the resultant vanishes in the residue field)"


def standard_potential(place: Place, x: BerkPoint) -> LogValue:
    """-log of the standard norm of T0 at x: max(-log|T|, 0), coefficient units."""
    if x.t == INF:
        return 0 if place.is_ultrametric else 0.0
    t = eval_log_abs(place, x, [0, 1])
    if is_neg_inf(t):
        return POS_INF
    return vmax(vscale(-1, t), 0)


# -- archimedean orbit kernel ----------------------------------------------------


def _form(coeffs, d: int, z0, z1):
    """sum_j coeffs[j] z0^j z1^(d-j), by Horner in z0."""
    acc = coeffs[d]
    power = 1
    for j in range(d - 1, -1, -1):
        power = power * z1
        acc = acc * z0
        if coeffs[j]:
            acc = acc + coeffs[j] * power
    return acc


def _arch_step(coeffs, d: int, eps: float, z0, z1):
    """One step of the renormalized orbit at an archimedean place.

    Takes a lift (z0, z1) of max norm 1 and the lift's complex coefficients;
    returns g = eps (log||F(zhat)|| - d log||zhat||) = eps log||F(zhat)||
    followed by the next point F(zhat) / ||F(zhat)||.  The operations work
    on complex scalars and ndarrays alike.
    """
    w0 = _form(coeffs[0], d, z0, z1)
    w1 = _form(coeffs[1], d, z0, z1)
    norm = np.maximum(abs(w0), abs(w1))
    return eps * np.log(norm), w0 / norm, w1 / norm


def _arch_orbit(place: Place, lift: HomogeneousLift, zhat, n: int) -> list:
    """[g(zhat), g(F zhat), ..., g(F^{n-1} zhat)] for a lift of max norm 1."""
    coeffs, d, eps = lift.complex_coeffs, lift.d, float(place.eps)
    z0, z1 = zhat
    gs = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(n):
            g, z0, z1 = _arch_step(coeffs, d, eps, z0, z1)
            gs.append(g)
    if not np.isfinite(gs).all():
        raise GreenError("lift vanishes at a projective point; Res = 0")
    return [float(g) for g in gs] if np.ndim(z0) == 0 else gs  # one point: plain floats


def _normalized(z0, z1):
    norm = np.maximum(abs(z0), abs(z1))
    return z0 / norm, z1 / norm


def _arch_lift(x):
    """Lift of max norm 1 of a point at an archimedean place: a BerkPoint,
    or a complex ndarray of points with complex inf for infinity."""
    if isinstance(x, np.ndarray):
        x = np.asarray(x, dtype=complex)
        at_inf = np.isinf(x)
        return _normalized(np.where(at_inf, 1.0, x), np.where(at_inf, 0.0, 1.0))
    if x.t == INF:
        return 1.0 + 0j, 0j
    if x.t != CLS:
        raise PlaceError("disk points live in ultrametric fibers only")
    return _normalized(complex(x.z), 1.0)


# -- exact orbits ------------------------------------------------------------


def deviation_g(place: Place, lift: HomogeneousLift, zhat) -> LogValue:
    """g at an explicit lift (z0, z1) != (0,0): log||F(zhat)|| - d log||zhat||."""
    z0, z1 = zhat
    if z0 == 0 and z1 == 0:
        raise GreenError("(0,0) is not a lift")
    if place.is_ultrametric:
        return deviation_at_point(place, lift, classical_pair(z0, z1))
    return _arch_orbit(place, lift, _normalized(complex(z0), complex(z1)), 1)[0]


def deviation_at_point(place: Place, lift: HomogeneousLift, x: BerkPoint) -> LogValue:
    """g(x) = log max(|F0|, |F1|)(x) - d log max(|T|, 1)(x), from the seminorm of x.

    Exact places read a disk, or a classical point with log|z| <= 0, in the
    chart (T, 1); a classical point with log|z| > 0 and infinity in the
    chart (1, S), S = 1/T, where F_i(1, S) has the reversed coefficient
    list and max(|S|, 1) = 1.  Raises GreenError where the map is not
    defined on the fiber: |F| = +inf at a residue place.
    """
    if not place.is_ultrametric:
        return _arch_orbit(place, lift, _arch_lift(x), 1)[0]
    return _exact_g(place, lift, x, eval_log_abs(place, x, [0, 1]))


def _exact_g(place: Place, lift: HomogeneousLift, x: BerkPoint, t_log) -> LogValue:
    """g(x) at an exact place, given t_log = log|T|(x) (``deviation_at_point``)."""
    f0, f1 = list(lift.f0), list(lift.f1)
    if x.t != DISK and t_log > 0:
        x = classical(0 if x.t == INF else 1 / x.z)
        f0.reverse()
        f1.reverse()
        t_log = 0
    n_out = vmax(eval_log_abs(place, x, f0), eval_log_abs(place, x, f1))
    if is_neg_inf(n_out):
        raise GreenError("lift vanishes at a projective point; Res = 0")
    if is_pos_inf(n_out):  # a residue place where the map is not defined
        raise GreenError(_INFINITE_BOUND)
    return vplus(n_out, vscale(-lift.d, vmax(t_log, 0)))


def _exact_orbit(place: Place, lift: HomogeneousLift, x: BerkPoint, n: int):
    """x, phi(x), ..., phi^{n-1}(x): n points from n - 1 steps."""
    for k in range(n):
        if k:
            x = apply_point(place, lift, x)
        yield x


def deviation_sequence(place: Place, lift: HomogeneousLift, x, n: int):
    """[g(x), g(phi x), ..., g(phi^{n-1} x)] along the orbit.

    At an archimedean place x may be a point array; each entry is then an
    array (see the module docstring).
    """
    if not place.is_ultrametric:
        return _arch_orbit(place, lift, _arch_lift(x), n)
    return [deviation_at_point(place, lift, y) for y in _exact_orbit(place, lift, x, n)]


def lambda_n(place: Place, lift: HomogeneousLift, x, n: int) -> LogValue:
    """n-th potential deviation from the standard metric at x.

    lambda_0 = 0 and lambda_{n+1}(x) = (1/d) lambda_n(phi(x)) - (1/d) g(xhat).
    Exact rational at ultrametric places; an array for a point array at an
    archimedean place.
    """
    total = _zero(place, x)
    for k, g in enumerate(deviation_sequence(place, lift, x, n)):
        w = Fraction(1, lift.d ** (k + 1)) if place.is_ultrametric else 1 / lift.d ** (k + 1)
        total = total - w * g
    return total


def _zero(place: Place, x):
    """The potential 0 in the form a value at x takes."""
    if place.is_ultrametric:
        return Fraction(0)
    return np.zeros(x.shape) if isinstance(x, np.ndarray) else 0.0


# -- deviation bounds ----------------------------------------------------------


@dataclass(frozen=True)
class DeviationBound:
    """Two-sided bound lower <= g <= upper on the whole fiber."""

    lower: float
    upper: float

    @property
    def gmax(self) -> float:
        return max(self.upper, -self.lower, 0.0)


def deviation_bound(place: Place, lift: HomogeneousLift) -> DeviationBound:
    """Certified G_max from the coefficients and the cofactors, once per
    (place, lift)."""
    if place.is_ultrametric and not lift.is_rational:
        # checked before the cache: 2 + 0j == 2, so equal lifts share entries
        raise PlaceError("complex-coefficient lifts are archimedean-only")
    return _deviation_bound(place, lift)


@functools.cache
def _deviation_bound(place: Place, lift: HomogeneousLift) -> DeviationBound:
    if place.is_ultrametric:
        upper = vmax(*[abs_log_value(place, c) for c in lift.coeff_list() if c != 0])
        if is_pos_inf(upper):
            raise GreenError(_INFINITE_BOUND)
        cof = lift.cofactors.coeff_list()
        lower = vscale(-1, vmax(*[abs_log_value(place, c) for c in cof if c != 0]))
        unit = place.log_unit
        return DeviationBound(float(lower) * unit, float(upper) * unit)
    eps, d = float(place.eps), lift.d
    maxc = max(abs(complex(c)) for c in lift.coeff_list())
    maxcof = max(abs(complex(c)) for c in lift.cofactors.coeff_list())
    return DeviationBound(-eps * math.log(2 * d * maxcof), eps * (math.log(maxc) + math.log(d + 1)))


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
    certificate: str  # "exact" | "certified"
    gmax: float = 0.0


def _tail_constants(place: Place, lift: HomogeneousLift):
    """(t*, log|f0[d]|, log|f1[0]|) for the closed tails of a polynomial map
    at an exact place (module docstring); None for a tail that does not apply.

    For log|T| > t* the top monomial of F0 strictly dominates, so by the
    ultrametric equality g equals log|f0[d]| at every later step.  t* is None
    when f0[d] vanishes at the place; the trap constant log|f1[0]| is None
    when f1[0] does.
    """
    d = lift.d
    a_top = abs_log_value(place, lift.f0[d])
    c_bot = abs_log_value(place, lift.f1[0])
    trap = None if is_neg_inf(c_bot) else c_bot
    if is_neg_inf(a_top):
        return None, None, trap
    bounds = [Fraction(0)]
    for i in range(d):
        ai = abs_log_value(place, lift.f0[i])
        if not is_neg_inf(ai):
            bounds.append(Fraction(ai - a_top, d - i))
    bounds.append(Fraction(c_bot - a_top, d))      # ||F|| carried by F0
    bounds.append(Fraction(c_bot - a_top, d - 1))  # orbit log|T| grows
    return vmax(*bounds), a_top, trap


def _closed_tail(place: Place, lift: HomogeneousLift, tails, prev, y: BerkPoint, t_log):
    """The constant value of g at y and at every later orbit point, or None.

    y is an orbit point of a polynomial map at an exact place with
    t_log = log|T|(y), and tails its ``_tail_constants``; prev is the orbit
    point before y when that one lies in the closed unit disk, else None.
    Tests the escape tail on y, then the trap on B = join(prev, y) (module
    docstring).
    """
    t_esc, g_esc, g_trap = tails
    if t_esc is not None and t_log > t_esc:
        return g_esc
    # log r(phi(B)) >= log r(y) + log r(B) - log r(prev): a growing disk is not trapped
    if g_trap is not None and prev is not None and not (y.t == DISK and y.logr > prev.logr):
        b = join_points(place, prev, y)
        if contains(place, GAUSS, b) and contains(place, b, apply_point(place, lift, b)):
            return g_trap
    return None


def lambda_limit(place: Place, lift: HomogeneousLift, x, tol: float) -> PotentialState:
    """Canonical potential at x with a certified tail.

    Chooses n with G_max/(d^n (d-1)) <= tol; stops early with a zero-error
    certificate when the deviation bound vanishes, or when the orbit of a
    polynomial map at an exact place enters the strict-escape region or a
    disk of the closed unit disk that the map sends into itself (exact
    geometric tails, module docstring).  At an archimedean place x may be a
    point array: one n serves every point, and ``value`` is an array (see
    the module docstring).
    """
    if tol <= 0:
        raise GreenError("tolerance must be positive")
    bound = deviation_bound(place, lift)
    d = lift.d
    if not math.isfinite(bound.gmax):
        raise GreenError(_VANISHING_RES if is_neg_inf(bound.lower) else _INFINITE_BOUND)
    if bound.gmax == 0.0:
        return PotentialState(_zero(place, x), 0, 0.0, "exact", 0.0)
    n = 0
    err = bound.gmax / (d - 1)
    while err > tol:
        n += 1
        err /= d
        if n > 10_000:
            raise GreenError("tolerance unreachable")
    if not place.is_ultrametric:
        return PotentialState(lambda_n(place, lift, x, n), n, err, "certified", bound.gmax)
    tails = _tail_constants(place, lift) if lift.is_polynomial else None
    total = Fraction(0)
    prev = None  # the previous orbit point while it lies in the closed unit disk
    for k, y in enumerate(_exact_orbit(place, lift, x, n)):
        t_log = eval_log_abs(place, y, [0, 1])
        if tails is not None:
            g_tail = _closed_tail(place, lift, tails, prev, y, t_log)
            if g_tail is not None:
                # exact geometric tail: g stays at g_tail from step k on
                tail = Fraction(1, d**k * (d - 1)) * g_tail
                return PotentialState(total - tail, k, 0.0, "exact", bound.gmax)
        total = total - Fraction(1, d ** (k + 1)) * _exact_g(place, lift, y, t_log)
        prev = y if t_log <= 0 else None
    return PotentialState(total, n, err, "certified", bound.gmax)


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
    if place.is_ultrametric:
        tables = [deviation_sequence(place, lift, x, depth) for x in sample]
        level_sup = [max(abs(row[m]) for row in tables) for m in range(depth)]
    else:
        zhat = np.array([_arch_lift(x) for x in sample]).T  # one orbit for the whole sample
        gs = _arch_orbit(place, lift, zhat, depth)
        # machine-zero deviation: the iteration sits at its fixed point
        level_sup = [0.0 if sup < 1e-12 else sup for sup in (float(abs(g).max()) for g in gs)]
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
