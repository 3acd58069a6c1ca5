"""Base places and exact absolute-value arithmetic.

A place is a point of a base spectrum such as M(Z) (Ostrowski: trivial,
archimedean |.|^eps, p-adic |.|_p^eps, residue seminorms |.|_p^{+inf}) or the
hybrid segment M(C_hyb) = {trivial} u {|.|^eps : 0 < eps <= 1}.

Log-magnitudes are kept on a per-place scale so ultrametric arithmetic stays
exact: at a p-adic place the stored value is the rational coefficient of
log(p), at t-adic/trivial/residue places the coefficient of 1, and at
archimedean places a plain float.  ``Place.log_unit`` converts to real
numbers at the boundary (integration, CSV output).

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

# A log-magnitude coefficient: exact Fraction at ultrametric places, float at
# archimedean ones; +/-inf floats are the extended values at every kind.
LogValue = Union[Fraction, int, float]

NEG_INF = float("-inf")
POS_INF = float("inf")

ARCH = "arch"
PADIC = "padic"
TADIC = "tadic"
TRIVIAL = "trivial"
RESIDUE = "res"


class PlaceError(ValueError):
    """Operation applied at an incompatible place."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}: {x!r}")


@dataclass(frozen=True)
class Place:
    """One point of a base spectrum.

    kind is one of "arch", "padic", "tadic", "trivial", "res"; p is set for
    padic/res kinds; eps is the exponent (exact rational).
    """

    kind: str
    p: int | None = None
    eps: Fraction = Fraction(1)

    # hash(eps) once (places key the caches); hash(hash(q)) == hash(q) keeps the generated hash
    _eps_hash = cached_property(lambda self: hash(self.eps))

    def __hash__(self):
        return hash((self.kind, self.p, self._eps_hash))

    def __post_init__(self):
        if self.kind not in (ARCH, PADIC, TADIC, TRIVIAL, RESIDUE):
            raise PlaceError(f"unknown place kind {self.kind!r}")
        if self.kind in (PADIC, RESIDUE):
            if self.p is None or self.p < 2 or not _is_prime(self.p):
                raise PlaceError(f"{self.kind} place needs a prime, got {self.p}")
        if self.kind == ARCH and not (0 < self.eps <= 1):
            raise PlaceError(f"archimedean exponent must lie in (0,1], got {self.eps}")
        if self.kind in (PADIC, TADIC) and not self.eps > 0:
            raise PlaceError(f"{self.kind} exponent must be positive, got {self.eps}")

    @staticmethod
    def archimedean(eps=Fraction(1)) -> "Place":
        return Place(ARCH, None, _as_fraction(eps))

    @staticmethod
    def padic(p: int, eps=Fraction(1)) -> "Place":
        return Place(PADIC, p, _as_fraction(eps))

    @staticmethod
    def tadic(eps=Fraction(1)) -> "Place":
        return Place(TADIC, None, _as_fraction(eps))

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
        if self.kind == TADIC:
            return TADIC, str(self.eps)
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
    ``_as_fraction``."""
    if not isinstance(q, (int, Fraction)):
        q = _as_fraction(q)
    if q == 0:
        return NEG_INF
    if place.kind == ARCH:
        return float(place.eps) * (math.log(abs(q.numerator)) - math.log(q.denominator))
    if place.kind == PADIC:
        return -valuation(q, place.p) * place.eps
    if place.kind == RESIDUE:
        v = valuation(q, place.p)
        return NEG_INF if v > 0 else POS_INF if v < 0 else Fraction(0)
    # trivial and t-adic: rational constants have trivial valuation
    return Fraction(0)


def flow_place(place: Place, eps) -> Place:
    """Raise the place's absolute value to the power eps in (0,1].

    Exponents multiply; trivially valued and residue places are fixed points
    and flow(., 1) is the identity.
    """
    eps = _as_fraction(eps)
    if not (0 < eps <= 1):
        raise PlaceError(f"flow exponent must lie in (0,1], got {eps}")
    if place.kind == ARCH:
        return Place.archimedean(place.eps * eps)
    if place.kind == PADIC:
        return Place.padic(place.p, place.eps * eps)
    if place.kind == TADIC:
        return Place.tadic(place.eps * eps)
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
                raise ArithmeticError("adding opposite log infinities")
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
        if kind == "tadic":
            return Place.tadic(snap_rational(obj["eps"]))
        if kind == "res":
            return Place.residue(int(obj["p"]))
        if kind == "trivial":
            return Place.trivial()
    except (KeyError, TypeError, ValueError) as exc:
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
