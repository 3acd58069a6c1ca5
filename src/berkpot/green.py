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

``lambda_limit`` reads what (place, lift, tol) fix from one cached plan,
``_plan``, in both regimes; a vanishing G_max is no special case, as the
plan gives n = 0 and "exact".  ``_orbit`` sends each orbit to its regime's
loop, which returns the sum, the steps and the g values summed.  At an
archimedean place ``lambda_n``, ``lambda_limit`` and ``deviation_sequence``
take a BerkPoint or a complex ndarray of points, ``points.ARCH_INF``
standing for infinity as in ``preimages_arch``.  One point runs a straight
loop on Python complex (``_arch_point``: ``_form``'s Horner operations in
``_form``'s order over ``HomogeneousLift.scalar_coeffs``), an array steps
on numpy (``_arch_limit``, ``_arch_step``).  An array gives one
``PotentialState`` whose ``value`` is an array of the same shape;
``certified_error``, ``certificate`` and ``gmax`` stay scalars, because the
a priori tail bound does not depend on the point, and ``n_used`` is the most
steps any point summed (see the escape tail below).

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
A = sum_{i<d} |f0[i] / f0[d]|, m = d - max{i < d : f0[i] != 0} (m = d for a
monomial f0) and R = max(1, 2A, (4 |f1[0] / f0[d]|)^(1/(d-1))).  At |z| >= R,
F0(z) = f0[d] z^d (1 + u) with |u| <= sum_{i<d} |f0[i] / f0[d]| |z|^(i-d)
<= A / |z|^m <= 1/2, and |F0(z)| >= |f0[d]| |z|^d / 2 >= 2 |z| |f1[0]|: so
g(z) = log|f0[d]| + log|1 + u| and |z_{j+1}| >= 2 |z_j|.  As |log|1 + u||
<= 2 |u|, every orbit point with |z_j| >= R has |g(z_j) - eps log|f0[d]||
<= eps 2A / |z_j|^m, and from such a step k on the series sums to
eps log|f0[d]| / (d^k (d-1)) within sum_j eps 2A / (d^(k+j+1) 2^j |z_k|^m)
<= eps 4A / (d^(k+1) |z_k|^m).  On a lift of max norm 1, |z| = 1/|z1|, and
an orbit stops at the first k with eps 4A |z1|^m <= stop d^(k+1), stop being
the least of machine epsilon times G_max / (d-1) and the a priori bound:
exact to rounding, not merely within tol.  ``certified_error`` stays the a
priori bound.
"""

from __future__ import annotations

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


# -- archimedean orbits ------------------------------------------------------


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


def _arch_step(coeffs, d: int, eps: float, z0, z1):
    """One numpy step of the renormalized orbits of lifts (z0, z1) of max norm
    1: g = eps (log||F(zhat)|| - d log||zhat||) = eps log||F(zhat)|| and the
    next points F(zhat) / ||F(zhat)||, from the lift's complex coefficients."""
    w0 = _form(coeffs[0], d, z0, z1)
    w1 = _form(coeffs[1], d, z0, z1)
    norm = np.maximum(abs(w0), abs(w1))
    return eps * np.log(norm), w0 / norm, w1 / norm


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


_NO_ESCAPE = (0.0, 0.0, 1, -1.0, 0.0)  # 1/R = 0: no orbit leaves


def _arch_point(lift: HomogeneousLift, eps: float, zhat, n: int, escape=None):
    """(value, steps summed, terms) of lambda_n at one archimedean point from
    its lift zhat of max norm 1, terms being the g values summed, on Python
    complex.  The orbit is left, and closed, at the first step k < n where
    its escape tail is within stop; escape = (1/R, eps 4A, m, stop d,
    eps log|f0[d]|) of that tail (module docstring), None for no exit."""
    d, ((top0, top1), rest), log = lift.d, lift.scalar_coeffs, math.log
    rinv, e4a, m, lim, e_top = escape or _NO_ESCAPE
    (z0, z1), total, terms, dk = zhat, 0.0, [], 1
    try:
        for k in range(n):
            r1 = abs(z1)  # |z| = 1/|z1|
            if r1 < rinv and e4a * r1**m <= lim:  # eps 4A / |z|^m <= stop d^(k+1)
                total, n = total - e_top / (dk * (d - 1)), k
                break
            lim, dk, w0, w1, power = lim * d, dk * d, top0, top1, 1
            for c0, c1 in rest:  # _form for F0 and F1, its operations in its order
                power = power * z1
                w0 = w0 * z0
                if c0:
                    w0 = w0 + c0 * power
                w1 = w1 * z0
                if c1:
                    w1 = w1 + c1 * power
            norm = max(abs(w0), abs(w1))
            g, z0, z1 = eps * log(norm), w0 / norm, w1 / norm
            terms.append(g)
            total = total - 1 / dk * g
    except (ValueError, ZeroDivisionError):  # math.log(0.0) and w / 0.0
        raise GreenError(_ZERO_NORM) from None
    if not math.isfinite(total):
        raise GreenError(_ZERO_NORM)
    return total, n, terms


def _arch_limit(lift: HomogeneousLift, eps: float, zhat, n: int, escape=None):
    """``_arch_point`` for a complex ndarray of lifts on numpy: the points
    that have left retire (a term then holds only those still running), and
    the steps summed are the most any point summed."""
    d, coeffs = lift.d, lift.complex_coeffs
    rinv, e4a, m, lim, e_top = escape or _NO_ESCAPE
    (z0, z1), n_used, terms = zhat, 0, []
    # live: the flat indices of the points still running, total their sums
    value, live, total = np.zeros(z0.shape), np.arange(z0.size).reshape(z0.shape), np.zeros(z0.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n):
            r1 = abs(z1)
            out = (r1 < rinv) & (e4a * r1**m <= lim)
            lim *= d
            if out.any():
                value.flat[live[out]] = total[out] - e_top / (d**k * (d - 1))
                live, z0, z1, total = live[~out], z0[~out], z1[~out], total[~out]
                if not live.size:
                    break
            g, z0, z1 = _arch_step(coeffs, d, eps, z0, z1)
            terms.append(g)
            total, n_used = total - 1 / d ** (k + 1) * g, k + 1
    value.flat[live] = total
    if not np.isfinite(value).all():
        raise GreenError(_ZERO_NORM)
    return value, n_used, terms


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


def _orbit(place: Place, lift: HomogeneousLift, x, n: int, tail=None):
    """(value, steps summed, terms) of lambda_n(x), closed by a plan's tail
    (None: no exit), from the loop of x's regime and type."""
    if place.is_ultrametric:
        return _exact_limit(place, lift, x, n, tail)
    loop = _arch_limit if isinstance(x, np.ndarray) else _arch_point
    return loop(lift, place.eps_float, _arch_lift(x), n, tail)


def deviation_sequence(place: Place, lift: HomogeneousLift, x, n: int):
    """[g(x), g(phi x), ..., g(phi^{n-1} x)] along the orbit.

    At an archimedean place x may be a point array; each entry is then an
    array (see the module docstring).
    """
    return _orbit(place, lift, x, n)[2]


def lambda_n(place: Place, lift: HomogeneousLift, x, n: int) -> LogValue:
    """n-th potential deviation from the standard metric at x.

    lambda_0 = 0 and lambda_{n+1}(x) = (1/d) lambda_n(phi(x)) - (1/d) g(xhat).
    Exact rational at ultrametric places; an array for a point array at an
    archimedean place.
    """
    return _orbit(place, lift, x, n)[0]


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


def _tail_constants(place: Place, lift: HomogeneousLift):
    """(t*, log|f0[d]|, log|f1[0]|) for the closed tails of a polynomial map
    at an exact place (module docstring).

    For log|T| > t*, past every crossing of the top Newton line of F0, the
    top monomial strictly dominates, so g equals log|f0[d]| at every later
    step.  Both logs are finite: ``_plan`` calls this only where G_max is.
    At a residue place p | f0[d] or p | f1[0] would give the reductions of
    F0 and F1 a common zero, hence no p-integral cofactors and an infinite
    G_max; at the other exact places a nonzero rational has a finite log.
    """
    d = lift.d
    c_bot = abs_log_value(place, lift.f1[0])
    *lines, (a_top, _) = newton_lines(place, lift.f0)  # the top line is f0[d]'s
    bounds = [Fraction(0)] + [Fraction(a - a_top, d - i) for a, i in lines]
    bounds.append(Fraction(c_bot - a_top, d))      # ||F|| carried by F0
    bounds.append(Fraction(c_bot - a_top, d - 1))  # orbit log|T| grows
    return vmax(*bounds), a_top, c_bot


def _closed_tail(place: Place, lift: HomogeneousLift, tails, prev, y: BerkPoint, t_log):
    """The constant value of g at y and at every later orbit point, or None.

    y is an orbit point of a polynomial map at an exact place with
    t_log = log|T|(y), and tails its ``_tail_constants``; prev is the orbit
    point before y when that one lies in the closed unit disk, else None.
    Tests the escape tail on y, then the trap on B = join(prev, y) (module
    docstring).
    """
    t_esc, g_esc, g_trap = tails
    if t_log > t_esc:
        return g_esc
    # log r(phi(B)) >= log r(y) + log r(B) - log r(prev): a growing disk is not trapped
    if prev is not None and not (y.t == DISK and y.logr > prev.logr):
        b = join_points(place, prev, y)
        if contains(place, GAUSS, b) and contains(place, b, apply_point(place, lift, b)):
            return g_trap
    return None


@functools.cache
def _plan(place: Place, lift: HomogeneousLift, tol: float):
    """(n, err, certificate, G_max, tail) after the bound checks: the least n
    with err = G_max / (d^n (d-1)) <= tol, "exact" iff G_max = 0, and the
    closed tail of a polynomial map, ``_tail_constants`` at an exact place
    and the ``_arch_point`` escape constants elsewhere (None if f0[d] underflows)."""
    bound, d = deviation_bound(place, lift), lift.d
    if not math.isfinite(bound.gmax):
        raise GreenError(_VANISHING_RES if is_neg_inf(bound.lower) else _INFINITE_BOUND)
    gmax, n, err = bound.gmax, 0, bound.gmax / (d - 1)
    while err > tol:
        n, err = n + 1, err / d
    plan = (n, err, "certified" if gmax else "exact", gmax)
    if place.is_ultrametric:
        return plan + (_tail_constants(place, lift) if lift.is_polynomial else None,)
    (f0, f1), eps = lift.complex_coeffs, place.eps_float
    top = abs(f0[d])
    if not lift.is_polynomial or not top:
        return plan + (None,)
    big_a = float(np.abs(f0[:d]).sum() / top)
    r = max(1.0, 2 * big_a, float(4 * abs(f1[0]) / top) ** (1 / (d - 1)))
    m = d - max((i for i in range(d) if f0[i]), default=0)
    stop = min(err, MACH_EPS * gmax / (d - 1))
    return plan + ((1 / r, eps * (4 * big_a), m, stop * d, eps * math.log(top)),)


def lambda_limit(place: Place, lift: HomogeneousLift, x, tol: float) -> PotentialState:
    """Canonical potential at x with a certified tail.

    Chooses n with G_max/(d^n (d-1)) <= tol, which is n = 0 with a
    zero-error certificate when the deviation bound vanishes.  At an exact
    place the orbit of a polynomial map stops early, with error 0, when it
    enters the strict-escape region or a disk of the closed unit disk that
    the map sends into itself (exact geometric tails, module docstring).  At
    an archimedean place the orbit of a polynomial map stops once its escape
    tail is closed to rounding, and x may be a point array: ``value`` is then
    an array (see the module docstring).
    """
    if not tol > 0:  # also a NaN tol
        raise GreenError("tolerance must be positive")
    n, err, certificate, gmax, tail = _plan(place, lift, tol)
    value, n_used, _ = _orbit(place, lift, x, n, tail)
    if place.is_ultrametric and n_used < n:  # closed: the tail was summed exactly
        err, certificate = 0.0, "exact"
    return PotentialState(value, n_used, err, certificate, gmax)


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
        gs = _arch_limit(lift, place.eps_float, zhat, depth)[2]
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
