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

Each regime walks every orbit in one loop, ``_arch_limit`` or
``_exact_limit``, which returns the sum, the steps and the g values summed.
The archimedean loop steps with one kernel, ``_arch_step``: one point on
Python complex with ``math.log`` and ``max`` over the coefficient tuples
``HomogeneousLift.scalar_coeffs``, an array on numpy over
``HomogeneousLift.complex_coeffs``.  There ``lambda_n``, ``lambda_limit``
and ``deviation_sequence`` take either a BerkPoint or a complex ndarray of
points, ``points.ARCH_INF`` standing for the point at infinity as in
``preimages_arch``.  An array gives one ``PotentialState`` whose ``value``
is an array of the same shape; ``certified_error``, ``certificate`` and
``gmax`` stay scalars, because the a priori tail bound does not depend on
the point, and ``n_used`` is the most steps any point summed (see the
escape tail below).

Ultrametric places walk an exact orbit of BerkPoints: ``rmaps.apply_point``
is the one step, for classical points, infinity and disks alike, and g is
the seminorm formula log max(|F0|, |F1|)(x) - d log max(|T|, 1)(x), read
in the chart (T, 1) for disks and |z| <= 1, and in the chart (1, S = 1/T),
where max(|S|, 1) = 1, for |z| > 1 and infinity.  Every orbit point
evaluates F once, for g and for its image: a classical point or infinity
the pair (F0, F1) in its chart (``rmaps.pair_at``), a disk eta_{a,r} the
one Taylor shift F0(a + T), which divided by f1[0] gives the image disk.
The constant F1 of a polynomial lift needs no shift, nor does log|T| =
max(log|a|, r) (``points.coord_log_abs``).  The n terms of a sum take
n - 1 steps.

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

An archimedean place closes the escape tail of a polynomial map up to a
bound (Milnor, Dynamics in One Complex Variable, section 9).  Let
A = sum_{i<d} |f0[i] / f0[d]| and R = max(1, 2A, (4 |f1[0] / f0[d]|)^(1/(d-1))).
Every orbit point with |z_j| >= R has |g(z_j) - eps log|f0[d]|| <= eps 2A / |z_j|
and |z_{j+1}| >= 2 |z_j|, so from such a step k on the series sums to
eps log|f0[d]| / (d^k (d-1)) within eps 4A / (d^(k+1) |z_k|); on a lift of
max norm 1, |z| = 1/|z1|.  An orbit stops at the first k where that error
is at most machine epsilon times G_max / (d-1), and at most the a priori
bound: exact to rounding, not merely within tol.  ``certified_error`` stays
the a priori bound.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .places import (
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
    contains,
    coord_log_abs,
    eval_log_abs,
    join_points,
    newton_envelope,
    newton_lines,
)
from .polys import taylor_shift
from .rmaps import HomogeneousLift, apply_point, pair_at


class GreenError(RuntimeError):
    pass


_INFINITE_BOUND = "deviation bound is infinite at this place (coefficients blow up)"
_VANISHING_RES = "deviation bound is infinite at this place (the resultant vanishes in the residue field)"
_COMPLEX_LIFT = "complex-coefficient lifts are archimedean-only"
_ZERO_NORM = "lift vanishes at a projective point; Res = 0"
MACH_EPS = float(np.finfo(float).eps)


# -- archimedean orbit kernel ----------------------------------------------------


def _form(coeffs, d: int, z0, z1):
    """sum_j coeffs[j] z0^j z1^(d-j), by Horner in z0."""
    acc = coeffs[d]
    power = 1
    for c in coeffs[d - 1::-1]:
        power = power * z1
        acc = acc * z0
        if c:
            acc = acc + c * power
    return acc


def _arch_step(coeffs, d: int, eps: float, z0, z1, log, maximum):
    """One step of the renormalized orbit at an archimedean place.

    Takes a lift (z0, z1) of max norm 1 and the lift's complex coefficients;
    returns g = eps (log||F(zhat)|| - d log||zhat||) = eps log||F(zhat)||
    followed by the next point F(zhat) / ||F(zhat)||, with ``math.log`` and
    ``max`` for one point, ``np.log`` and ``np.maximum`` for an array.
    """
    w0 = _form(coeffs[0], d, z0, z1)
    w1 = _form(coeffs[1], d, z0, z1)
    norm = maximum(abs(w0), abs(w1))
    return eps * log(norm), w0 / norm, w1 / norm


def _arch_lift(x):
    """Lift of max norm 1 of a point at an archimedean place: a BerkPoint,
    as a pair of Python scalars, or a complex ndarray of points with complex
    inf for infinity."""
    if isinstance(x, np.ndarray):
        x = np.asarray(x, dtype=complex)
        at_inf = np.isinf(x)
        z0, z1 = np.where(at_inf, 1.0, x), np.where(at_inf, 0.0, 1.0)
        norm = np.maximum(abs(z0), abs(z1))
        return z0 / norm, z1 / norm
    if x.t == INF:
        return 1.0 + 0j, 0j
    if x.t != CLS:
        raise PlaceError("disk points live in ultrametric fibers only")
    z = complex(x.z)
    norm = max(abs(z), 1.0)
    return z / norm, 1.0 / norm


def _arch_limit(place: Place, lift: HomogeneousLift, zhat, n: int, stop: float):
    """(value, steps summed, terms) of lambda_n at an archimedean place from a
    lift zhat of max norm 1 (``_arch_lift``), terms being the g values summed.
    The orbit is left, and closed, at the first step k < n where its escape
    tail (module docstring) is within stop; a negative stop never exits.  An
    array retires the points that have left (a term then holds only those
    still running) and counts the most steps any summed.
    """
    d, eps = lift.d, place.eps_float
    rinv, c4a, log_top = _escape_constants(lift) or (0.0, 0.0, 0.0)  # 1/R = 0: no exit
    lim = stop * d  # exit at step k once eps 4A |z1| <= stop d^(k+1)
    z0, z1 = zhat
    scalar = not isinstance(z0, np.ndarray)
    total, n_used, terms = 0.0, 0, []  # the sums of the points still running
    if scalar:  # math.log(0.0) and w / 0.0 raise where numpy gives -inf and nan
        coeffs, log, maximum, zero_norm = lift.scalar_coeffs, math.log, max, (ValueError, ZeroDivisionError)
        quiet = contextlib.nullcontext()
    else:  # live: the flat indices of the points still running
        coeffs, log, maximum, zero_norm = lift.complex_coeffs, np.log, np.maximum, ()
        quiet = np.errstate(divide="ignore", invalid="ignore")
        value, live, total = np.zeros(z0.shape), np.arange(z0.size).reshape(z0.shape), np.zeros(z0.shape)
    with quiet:
        for k in range(n):
            r1 = abs(z1)  # |z| = 1/|z1|
            out = (r1 < rinv) & (eps * c4a * r1 <= lim)
            lim *= d
            if out if scalar else out.any():
                tail = eps * log_top / (d**k * (d - 1))
                if scalar:
                    total -= tail
                    break
                value.flat[live[out]] = total[out] - tail
                live, z0, z1, total = live[~out], z0[~out], z1[~out], total[~out]
                if not live.size:
                    break
            try:
                g, z0, z1 = _arch_step(coeffs, d, eps, z0, z1, log, maximum)
            except zero_norm:
                raise GreenError(_ZERO_NORM) from None
            terms.append(g)
            total, n_used = total - 1 / d ** (k + 1) * g, k + 1
    if not scalar:
        value.flat[live] = total
        total = value
    if not (math.isfinite(total) if scalar else np.isfinite(total).all()):
        raise GreenError(_ZERO_NORM)
    return total, n_used, terms


# -- exact orbits ------------------------------------------------------------


def _exact_g(place: Place, lift: HomogeneousLift, x: BerkPoint, t_log, read) -> LogValue:
    """g(x) at an exact place (module docstring), from what the orbit step
    read at x: F0(a + T) at a disk eta_{a,r}, where t_log = log|T|(x), and
    (F0, F1) in x's own chart elsewhere.  GreenError where the map is not
    defined on the fiber: |F| = +inf at a residue place."""
    if x.t == DISK:
        n_out = vmax(newton_envelope(newton_lines(place, read), x.logr), eval_log_abs(place, x, lift.f1))
    else:
        n_out, t_log = vmax(*(abs_log_value(place, w) for w in read)), 0
    if is_neg_inf(n_out):
        raise GreenError(_ZERO_NORM)
    if is_pos_inf(n_out):  # a residue place where the map is not defined
        raise GreenError(_INFINITE_BOUND)
    return vplus(n_out, vscale(-lift.d, vmax(t_log, 0)))


def _exact_limit(place: Place, lift: HomogeneousLift, x: BerkPoint, n: int, tails):
    """(value, steps summed, terms) of lambda_n(x) at an exact place, terms
    being the g values summed; each orbit point reads F once, for g and for
    its image (module docstring).  Closed at the first step k < n where
    ``_closed_tail`` finds a tail (never if tails is None)."""
    if not lift.is_rational:
        raise PlaceError(_COMPLEX_LIFT)
    d = lift.d
    total, terms = Fraction(0), []
    prev = None  # the previous orbit point while it lies in the closed unit disk
    for k in range(n):
        t_log = coord_log_abs(place, x)
        if tails is not None:
            g_tail = _closed_tail(place, lift, tails, prev, x, t_log)
            if g_tail is not None:
                # exact geometric tail: g stays at g_tail from step k on
                return total - Fraction(1, d**k * (d - 1)) * g_tail, k, terms
        read = taylor_shift(lift.f0, x.center) if x.t == DISK else pair_at(lift, x, t_log > 0)
        terms.append(_exact_g(place, lift, x, t_log, read))
        total = total - Fraction(1, d ** (k + 1)) * terms[-1]
        prev = x if t_log <= 0 else None
        if k < n - 1:
            x = apply_point(place, lift, x, read)
    return total, n, terms


def deviation_sequence(place: Place, lift: HomogeneousLift, x, n: int):
    """[g(x), g(phi x), ..., g(phi^{n-1} x)] along the orbit.

    At an archimedean place x may be a point array; each entry is then an
    array (see the module docstring).
    """
    if not place.is_ultrametric:
        return _arch_limit(place, lift, _arch_lift(x), n, -1.0)[2]  # a negative stop never exits
    return _exact_limit(place, lift, x, n, None)[2]


def lambda_n(place: Place, lift: HomogeneousLift, x, n: int) -> LogValue:
    """n-th potential deviation from the standard metric at x.

    lambda_0 = 0 and lambda_{n+1}(x) = (1/d) lambda_n(phi(x)) - (1/d) g(xhat).
    Exact rational at ultrametric places; an array for a point array at an
    archimedean place.
    """
    if not place.is_ultrametric:
        return _arch_limit(place, lift, _arch_lift(x), n, -1.0)[0]
    return _exact_limit(place, lift, x, n, None)[0]


# -- deviation bounds ----------------------------------------------------------


@dataclass(frozen=True)
class DeviationBound:
    """Two-sided bound lower <= g <= upper on the whole fiber."""

    lower: float
    upper: float
    gmax: float = field(init=False)  # max(upper, -lower, 0), computed once

    def __post_init__(self):
        object.__setattr__(self, "gmax", max(self.upper, -self.lower, 0.0))


def deviation_bound(place: Place, lift: HomogeneousLift) -> DeviationBound:
    """Certified G_max from the coefficients and the cofactors, once per
    (place, lift)."""
    if place.is_ultrametric and not lift.is_rational:
        # checked before the cache: 2 + 0j == 2, so equal lifts share entries
        raise PlaceError(_COMPLEX_LIFT)
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
    eps, d = place.eps_float, lift.d
    maxc = max(abs(complex(c)) for c in lift.coeff_list())
    maxcof = max(abs(complex(c)) for c in lift.cofactors.coeff_list())
    return DeviationBound(-eps * math.log(2 * d * maxcof), eps * (math.log(maxc) + math.log(d + 1)))


@functools.cache
def _escape_constants(lift: HomogeneousLift):
    """(1/R, 4A, log|f0[d]|) of the archimedean escape tail (module
    docstring), from the coefficients the float orbit reads; None for a lift
    that is not polynomial, or whose f0[d] underflows."""
    (f0, f1), d = lift.complex_coeffs, lift.d
    top = abs(f0[d])
    if not lift.is_polynomial or not top:
        return None
    big_a = float(np.abs(f0[:d]).sum() / top)
    r = max(1.0, 2 * big_a, float(4 * abs(f1[0]) / top) ** (1 / (d - 1)))
    return 1 / r, 4 * big_a, math.log(top)


# -- limit with certificate ----------------------------------------------------


@dataclass
class PotentialState:
    """Bookkeeping for one canonical-potential evaluation.

    ``n_used`` is the number of orbit steps actually summed (for a point
    array, the most any point summed).  "certified" means the error is at
    most certified_error = gmax / (d^n (d-1)), the a priori bound at the n
    that tol fixes; an archimedean escape tail may stop summing before n
    (module docstring).  "exact" means the tail was summed in closed form
    at an exact place and the error is literally zero.
    """

    value: LogValue
    n_used: int
    certified_error: float
    certificate: str  # "exact" | "certified"
    gmax: float = 0.0


@functools.cache
def _tail_constants(place: Place, lift: HomogeneousLift):
    """(t*, log|f0[d]|, log|f1[0]|) for the closed tails of a polynomial map
    at an exact place (module docstring); None for a tail that does not apply.

    For log|T| > t*, past every crossing of the top Newton line of F0, the
    top monomial strictly dominates, so g equals log|f0[d]| at every later
    step.  t* is None when f0[d] vanishes at the place; the trap constant
    log|f1[0]| is None when f1[0] does.
    """
    d = lift.d
    c_bot = abs_log_value(place, lift.f1[0])
    trap = None if is_neg_inf(c_bot) else c_bot
    *lines, (a_top, top) = newton_lines(place, lift.f0)  # F0 != 0, as Res(F0, F1) != 0
    if top < d:
        return None, None, trap
    bounds = [Fraction(0)] + [Fraction(a - a_top, d - i) for a, i in lines]
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


@functools.cache
def _a_priori_depth(gmax: float, d: int, tol: float):
    """(n, err): the least n with err = G_max / (d^n (d-1)) <= tol, divided down by d."""
    n, err = 0, gmax / (d - 1)
    while err > tol:
        n, err = n + 1, err / d
    return n, err


def lambda_limit(place: Place, lift: HomogeneousLift, x, tol: float) -> PotentialState:
    """Canonical potential at x with a certified tail.

    Chooses n with G_max/(d^n (d-1)) <= tol; stops early with a zero-error
    certificate when the deviation bound vanishes, or when the orbit of a
    polynomial map at an exact place enters the strict-escape region or a
    disk of the closed unit disk that the map sends into itself (exact
    geometric tails, module docstring).  At an archimedean place the orbit
    of a polynomial map stops once its escape tail is closed to rounding,
    and x may be a point array: ``value`` is then an array (see the module
    docstring).
    """
    if tol <= 0:
        raise GreenError("tolerance must be positive")
    bound = deviation_bound(place, lift)
    d = lift.d
    if not math.isfinite(bound.gmax):
        raise GreenError(_VANISHING_RES if is_neg_inf(bound.lower) else _INFINITE_BOUND)
    if bound.gmax == 0.0:
        return PotentialState(lambda_n(place, lift, x, 0), 0, 0.0, "exact", 0.0)
    n, err = _a_priori_depth(bound.gmax, d, tol)
    if not place.is_ultrametric:
        stop = min(err, MACH_EPS * bound.gmax / (d - 1))
        value, n_used, _ = _arch_limit(place, lift, _arch_lift(x), n, stop)
        return PotentialState(value, n_used, err, "certified", bound.gmax)
    tails = _tail_constants(place, lift) if lift.is_polynomial else None
    value, n_used, _ = _exact_limit(place, lift, x, n, tails)
    if n_used < n:  # closed: the tail was summed exactly
        return PotentialState(value, n_used, 0.0, "exact", bound.gmax)
    return PotentialState(value, n, err, "certified", bound.gmax)


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
        gs = _arch_limit(place, lift, zhat, depth, -1.0)[2]
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
