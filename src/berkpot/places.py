"""Base places and exact absolute-value arithmetic.

A place is a point of a base spectrum such as M(Z), whose points are of
four kinds (Ostrowski): trivial, archimedean |.|^eps, p-adic |.|_p^eps and
residue seminorms |.|_p^{+inf}; or of the hybrid segment M(C_hyb) =
{trivial} u {|.|^eps : 0 < eps <= 1}.  ``Place`` has exactly these kinds.

Log-magnitudes are kept on a per-place scale so ultrametric arithmetic stays
exact: at a p-adic place the stored value is the rational coefficient of
log(p), at trivial and residue places the coefficient of 1, and at
archimedean places a plain float.  ``Place.log_unit`` converts to real
numbers at the boundary (integration, CSV output).

Exact numbers have one canonical form: an ``int`` where the denominator is
1, else a ``Fraction`` (``_num``).  It is made where exact values are made,
not downstream: ``Place.eps``, ``abs_log_value`` and the centres and radii
of ``points.disk``, ``points.reduce_center`` and ``points.classical``.  At
eps = 1 almost every log-value and radius is an integer, so ultrametric
arithmetic mostly runs on ints.  Since ``int / int`` is a float in Python,
every exact division of two values that may both be ints goes through
``Fraction`` (``exact_div``).  Values the library promises as ``Fraction``
stay so: restriction values, ``lambda_limit`` values, measure weights and
lift coefficients.

``valuation`` is the one p-adic valuation: v_p(q) read from the numerator
and denominator of an int or Fraction.  ``abs_log_value`` reads -v_p(q) eps
from it at p-adic places and its sign at residue places, and
``points.reduce_center`` reads it for the digits a disk centre keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

# A log-magnitude coefficient: exact (int or Fraction) at ultrametric places,
# float at archimedean ones; +/-inf floats are the extended values at every kind.
LogValue = Union[Fraction, int, float]

NEG_INF = float("-inf")
POS_INF = float("inf")

ARCH = "arch"
PADIC = "padic"
TRIVIAL = "trivial"
RESIDUE = "res"


class PlaceError(ValueError):
    """Operation applied at an incompatible place."""


def _num(x):
    """An exact number in the canonical form: an int where its denominator is 1."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _as_exact(x):
    """An int, Fraction or fraction string in the canonical form (no bools)."""
    if type(x) is int:
        return x
    if isinstance(x, (int, str)):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return _num(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}: {x!r}")


def exact_div(a, b):
    """a / b, through Fraction where both are ints (``int / int`` is a float)."""
    return Fraction(a, b) if type(a) is int and type(b) is int else a / b


@dataclass(frozen=True)
class Place:
    """One point of a base spectrum.

    kind is one of "arch", "padic", "trivial", "res"; p is set for
    padic/res kinds; eps is the exponent (exact rational, canonical).
    """

    kind: str
    p: int | None = None
    eps: int | Fraction = 1

    # hash(eps) once (places key the caches); hash(hash(q)) == hash(q) keeps the generated hash
    _eps_hash = cached_property(lambda self: hash(self.eps))
    eps_float = cached_property(lambda self: float(self.eps))  # float(eps) once, correctly rounded

    def __hash__(self):
        return hash((self.kind, self.p, self._eps_hash))

    def __post_init__(self):
        if self.kind not in (ARCH, PADIC, TRIVIAL, RESIDUE):
            raise PlaceError(f"unknown place kind {self.kind!r}")
        if self.kind in (PADIC, RESIDUE):
            if self.p is None or self.p < 2 or not _is_prime(self.p):
                raise PlaceError(f"{self.kind} place needs a prime, got {self.p}")
        if self.kind == ARCH and not (0 < self.eps <= 1):
            raise PlaceError(f"archimedean exponent must lie in (0,1], got {self.eps}")
        if self.kind == PADIC and not self.eps > 0:
            raise PlaceError(f"padic exponent must be positive, got {self.eps}")

    @staticmethod
    def archimedean(eps=1) -> "Place":
        return Place(ARCH, None, _as_exact(eps))

    @staticmethod
    def padic(p: int, eps=1) -> "Place":
        return Place(PADIC, p, _as_exact(eps))

    @staticmethod
    def trivial() -> "Place":
        return Place(TRIVIAL)

    @staticmethod
    def residue(p: int) -> "Place":
        return Place(RESIDUE, p)

    @property
    def is_ultrametric(self) -> bool:
        """Ultrametric, which is also when log-magnitudes are exact rationals."""
        return self.kind != ARCH

    @property
    def log_unit(self) -> float:
        """Real scale of one coefficient unit of log-magnitude."""
        if self.kind == PADIC:
            return math.log(self.p)
        return 1.0

    def describe(self) -> tuple[str, str]:
        """(kind, parameter) pair used in sweep tables."""
        if self.kind == ARCH:
            return ARCH, str(self.eps)
        if self.kind == PADIC:
            return PADIC, f"p={self.p},eps={self.eps}"
        if self.kind == RESIDUE:
            return RESIDUE, f"p={self.p}"
        return TRIVIAL, ""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def valuation(q, p: int) -> int:
    """v_p of a nonzero int or Fraction, read from its numerator and
    denominator (coprime, so at most one of them is divisible by p)."""
    n, d, v = q.numerator, q.denominator, 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def abs_log_value(place: Place, q) -> LogValue:
    """Raw log|q| at the place, in coefficient units (see module docstring).

    An int or Fraction is read as it is; anything else goes through
    ``_as_exact``.  Canonical at ultrametric places: an int at a p-adic
    place with integral eps, 0 at residue and trivial ones."""
    if not isinstance(q, (int, Fraction)):
        q = _as_exact(q)
    if q == 0:
        return NEG_INF
    if place.kind == ARCH:
        return place.eps_float * (math.log(abs(q.numerator)) - math.log(q.denominator))
    if place.kind == PADIC:
        return _num(-valuation(q, place.p) * place.eps)
    if place.kind == RESIDUE:
        v = valuation(q, place.p)
        return NEG_INF if v > 0 else POS_INF if v < 0 else 0
    return 0  # trivial


def flow_place(place: Place, eps) -> Place:
    """Raise the place's absolute value to the power eps in (0,1].

    Exponents multiply; trivially valued and residue places are fixed points
    and flow(., 1) is the identity.
    """
    eps = _as_exact(eps)
    if not (0 < eps <= 1):
        raise PlaceError(f"flow exponent must lie in (0,1], got {eps}")
    if place.kind == ARCH:
        return Place.archimedean(place.eps * eps)
    if place.kind == PADIC:
        return Place.padic(place.p, place.eps * eps)
    return place


# -- extended-value helpers (coefficient scale) ------------------------------
#
# The one rule for log infinities: at exact places +/-inf are the only floats
# a log value can be, so every test below checks ``type(a) is float`` before
# comparing.  An exact Fraction is never compared with a float, which would
# go through the ``numbers`` ABCs.  At archimedean places every value is a
# float and the tests are plain float comparisons.

def is_neg_inf(a: LogValue) -> bool:
    return type(a) is float and a == NEG_INF


def is_pos_inf(a: LogValue) -> bool:
    return type(a) is float and a == POS_INF


def is_inf(a: LogValue) -> bool:
    return type(a) is float and (a == NEG_INF or a == POS_INF)


def vplus(a: LogValue, b: LogValue) -> LogValue:
    """a + b with -inf absorbing (never add opposite infinities)."""
    if type(a) is float or type(b) is float:
        if a == NEG_INF or b == NEG_INF:
            if a == POS_INF or b == POS_INF:
                raise PlaceError("adding opposite log infinities")
            return NEG_INF
        if a == POS_INF or b == POS_INF:
            return POS_INF
    return a + b


def vscale(c, a: LogValue) -> LogValue:
    """c * a for a nonzero int or Fraction c, with infinities flipped when c < 0."""
    if type(a) is float:
        if a == NEG_INF or a == POS_INF:
            return a if c > 0 else -a
        return float(c) * a
    return c * a


def vmax(*values: LogValue) -> LogValue:
    out = NEG_INF
    for v in values:
        if is_neg_inf(out) or (not is_neg_inf(v) and v > out):
            out = v
    return out


# -- (de)serialization --------------------------------------------------------

def place_from_json(obj: dict) -> Place:
    try:
        kind = obj["kind"]
        if kind == "arch":
            return Place.archimedean(snap_rational(obj["eps"]))
        if kind == "padic":
            return Place.padic(int(obj["p"]), snap_rational(obj["eps"]))
        if kind == "res":
            return Place.residue(int(obj["p"]))
        if kind == "trivial":
            return Place.trivial()
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise PlaceError(f"bad place JSON {obj!r}: {exc}") from exc
    raise PlaceError(f"bad place JSON {obj!r}")


def snap_rational(x) -> Fraction:
    """Snap a CLI-supplied real to a rational with denominator <= 10^6.

    Keeps the flow identities exact; exact fraction strings pass through
    unchanged.
    """
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x).limit_denominator(10**6)
