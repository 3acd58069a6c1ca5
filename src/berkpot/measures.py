"""Desk-scale Radon measures on the fiber line and equilibrium measures.

Two representations, one per regime:

- ``Measure``: a list of point atoms (BerkPoint, weight), exact weights
  allowed.  Ultrametric measures are always of this kind; their circle
  measures are Dirac masses at disk points, never Haar components.
- ``ArchMeasure``: an archimedean measure held as numpy arrays, finite atoms
  at the complex points ``z`` with real weights ``w``, any mass at infinity
  as its own weight ``inf_mass``, plus circle components carrying
  normalized Haar mass.  Circle components store the Euclidean radius of
  the underlying set, so the unit circle means the same set at every
  archimedean exponent.

Integrands follow the regime: at an archimedean place ``integrate`` calls f
once on a complex ndarray of points (all atoms, or all nodes of one
quadrature level; complex ``inf`` is the point at infinity) and expects one
real value per point; at an ultrametric place it calls f on each BerkPoint
atom, in exact arithmetic where f is exact.

Equilibrium measures come in two regimes: over C as normalized preimage
trees d^{-n} (phi^*)^n delta_seed, one batched preimage solve per tree
level, and over ultrametric fields as chi_{0,1} - (graph Laplacian of the
canonical potential restricted to a skeleton).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graphs import PLFunction, graph_laplacian
from .green import lambda_limit
from .places import Place, PlaceError
from .points import ARCH_INF, GAUSS, BerkPoint, MetricGraph, arch_point, classical, disk, infinity
from .rmaps import HomogeneousLift, MapError, preimages_arch


QUAD_TOL = 1e-9  # circle quadrature stops when two levels agree this well
QUAD_CAP = 1 << 16  # ... or at this many nodes
PAIRING_SEED = 2  # preimage-tree seed of the archimedean energy pairing


class MeasureError(RuntimeError):
    pass


class ExceptionalSeedWarning(UserWarning):
    """Preimage tree collapsed; the seed looks exceptional."""


@dataclass
class Measure:
    """Finite point atoms plus weighted unit-mass circle (Haar) components."""

    atoms: list = field(default_factory=list)   # (BerkPoint, weight)
    haars: list = field(default_factory=list)   # (complex center, euclidean radius, weight)

    @property
    def total_mass(self):
        return sum(w for _, w in self.atoms) + sum(w for _, _, w in self.haars)


@dataclass
class ArchMeasure:
    """Archimedean measure: atoms at complex points ``z`` with real weights
    ``w``, a weight at infinity, and circle (Haar) components."""

    z: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    w: np.ndarray = field(default_factory=lambda: np.zeros(0))
    inf_mass: float = 0.0
    haars: list = field(default_factory=list)   # (complex center, euclidean radius, weight)

    @property
    def atoms(self) -> list:
        """(BerkPoint, weight) pairs, built on demand: finite atoms, then infinity."""
        out = [(classical(complex(z)), float(w)) for z, w in zip(self.z, self.w)]
        if self.inf_mass:
            out.append((infinity(), self.inf_mass))
        return out

    @property
    def total_mass(self) -> float:
        return float(self.w.sum()) + self.inf_mass + sum(w for _, _, w in self.haars)


def _as_arch(mu) -> ArchMeasure:
    """The array form of a measure of classical points and circles."""
    if isinstance(mu, ArchMeasure):
        return mu
    z, w, inf_mass = [], [], 0.0
    for x, wt in mu.atoms:
        if x.t == "disk":
            raise MeasureError("archimedean measures need classical atoms")
        if x.t == "inf":
            inf_mass += float(wt)
        else:
            z.append(complex(x.z))
            w.append(float(wt))
    return ArchMeasure(np.array(z, dtype=complex), np.array(w, dtype=float), inf_mass,
                       list(mu.haars))


def dirac(x: BerkPoint, weight=1) -> Measure:
    return Measure([(x, weight)])


def haar_circle(center, euclid_radius, weight=1) -> ArchMeasure:
    return ArchMeasure(haars=[(complex(center), float(euclid_radius), weight)])


def chi_measure(place: Place, center, radius_log, euclid_radius=None):
    """The circle family member at this place: Haar on the circle at
    archimedean places, Dirac at the disk point eta_{center, radius}
    at ultrametric ones.  ``radius_log`` is on the place's coefficient scale;
    archimedean callers pass the Euclidean radius explicitly.
    """
    if place.is_ultrametric:
        return dirac(disk(center, radius_log))
    if euclid_radius is None:
        raise MeasureError("archimedean circle needs a Euclidean radius")
    return haar_circle(complex(Fraction(center)), euclid_radius)


def integrate(place: Place, mu, f, quad_n: int = 64):
    """Integral of f against mu: (value, quad_error).

    At an archimedean place f maps a complex ndarray of points to real
    values (see the module docstring); atoms take one call and each circle
    one call per quadrature level, doubling the nodes until stable.  At an
    ultrametric place f maps each BerkPoint atom to a real.  A non-finite
    integrand value raises ``MeasureError``.
    """
    if place.is_ultrametric:
        if mu.haars:
            raise MeasureError("ultrametric measures carry no Haar circles")
        total = 0.0
        for x, w in mu.atoms:
            v = f(x)
            if v is None or (isinstance(v, float) and not math.isfinite(v)):
                raise MeasureError(f"integrand is not finite at atom {x!r}")
            total += float(w) * float(v)
        return total, 0.0
    mu = _as_arch(mu)
    z, w = mu.z, mu.w
    if mu.inf_mass:
        z, w = np.append(z, ARCH_INF), np.append(w, mu.inf_mass)
    total = float(w @ _values(f, z)) if len(z) else 0.0
    err = 0.0
    for c, r, wt in mu.haars:
        val, e = _circle_quadrature(f, c, r, quad_n, QUAD_TOL, QUAD_CAP)
        total += float(wt) * val
        err += abs(float(wt)) * e
    return total, err


def _values(f, z):
    """f on the point array z, one finite real per point."""
    v = np.broadcast_to(np.asarray(f(z), dtype=float), z.shape)
    bad = ~np.isfinite(v)
    if bad.any():
        raise MeasureError(f"integrand is not finite at {arch_point(z[bad][0])!r}")
    return v


def _circle_quadrature(f, center, radius, n, tol, cap):
    """Midpoint rule with n, 2n, 4n, ... nodes until two levels agree within
    tol or the cap is reached.  Returns the last estimate and, as its error,
    the last doubling difference (infinite when no doubling fits under the
    cap) plus machine epsilon times sum |f| over the last nodes, which
    bounds the rounding of the two means."""

    def estimate(m):
        nodes = center + radius * np.exp(2j * np.pi * (np.arange(m) + 0.5) / m)
        vals = _values(f, nodes)
        return float(vals.sum()) / m, float(np.finfo(float).eps * np.abs(vals).sum())

    cur, rounding = estimate(n)
    diff = math.inf
    m = n
    while m < cap and not diff < tol:
        m *= 2
        prev, (cur, rounding) = cur, estimate(m)
        diff = abs(cur - prev)
    return cur, diff + rounding


def pushforward_measure(map_fn, mu: Measure, circle_image=None, haar_samples: int = 256) -> Measure:
    """Transport atoms; Haar components move exactly only under maps that
    preserve circles (pass ``circle_image`` mapping (center, radius) to the
    image circle), otherwise they are discretized into ``haar_samples`` atoms.
    """
    atoms = [(map_fn(x), w) for x, w in mu.atoms]
    haars = []
    for z, r, w in mu.haars:
        if circle_image is not None:
            zc, rc = circle_image(z, r)
            haars.append((complex(zc), float(rc), w))
        else:
            for k in range(haar_samples):
                pt = classical(z + r * cmath.exp(2j * math.pi * (k + 0.5) / haar_samples))
                atoms.append((map_fn(pt), w / haar_samples))
    return Measure(atoms, haars)


def pullback_measure(place: Place, lift: HomogeneousLift, mu) -> ArchMeasure:
    """Atoms pulled back with multiplicities; total mass multiplies by d.

    One batched preimage solve for all finite atoms, one for infinity.
    """
    if place.is_ultrametric:
        raise PlaceError("measure pullback uses complex preimages")
    mu = _as_arch(mu)
    if mu.haars:
        raise MeasureError("pullback implemented for atomic measures")
    pre = preimages_arch(lift, mu.z)
    z = [pre.z]
    w = [mu.w[pre.parent] * pre.mult]
    inf_mass = float(mu.w @ pre.inf_mult)
    if mu.inf_mass:
        top = preimages_arch(lift, "inf")
        z.append(top.z)
        w.append(mu.inf_mass * top.mult)
        inf_mass += mu.inf_mass * float(top.inf_mult[0])
    return ArchMeasure(np.concatenate(z), np.concatenate(w).astype(float), inf_mass)


def _rounded(z):
    """Atom keys: real and imaginary parts rounded to 12 decimals."""
    return np.round(z.real, 12), np.round(z.imag, 12)


def equilibrium_arch(place: Place, lift: HomogeneousLift, seed, n: int) -> ArchMeasure:
    """d^{-n} (phi^*)^n delta_seed as an atomic measure with d^n atoms,
    sorted by position (infinity last).

    Warns when the preimage tree collapses to <= 2 points across three
    consecutive levels: the seed is then (numerically) exceptional.
    """
    if place.is_ultrametric:
        raise PlaceError("preimage-tree equilibrium is archimedean")
    if n < 0:
        raise MeasureError("n must be nonnegative")
    mu = _as_arch(dirac(seed if isinstance(seed, BerkPoint) else classical(complex(seed))))
    collapse_streak = 0
    for level in range(n):
        mu = pullback_measure(place, lift, mu)  # weights are multiplicity products
        re, im = _rounded(mu.z)
        distinct = len(np.unique(re + 1j * im)) + (mu.inf_mass != 0)
        if distinct <= 2:
            collapse_streak += 1
            if collapse_streak >= 3:
                warnings.warn(
                    f"preimage tree collapsed to {distinct} points at level {level + 1}; "
                    "seed looks exceptional",
                    ExceptionalSeedWarning,
                )
                collapse_streak = 0
        else:
            collapse_streak = 0
    # deterministic atom order
    re, im = _rounded(mu.z)
    order = np.lexsort((im, re))
    scale = lift.d**n
    return ArchMeasure(mu.z[order], mu.w[order] / scale, mu.inf_mass / scale)


@dataclass
class NonArchReport:
    total_mass: object
    min_atom_weight: object
    negative_atoms: bool
    potential: PLFunction
    states: list


def equilibrium_nonarch(place: Place, lift: HomogeneousLift, skeleton: MetricGraph,
                        tol: float = 1e-9):
    """chi_{0,1} minus the skeleton Laplacian of the canonical potential.

    Returns (measure, report).  The potential is PL-interpolated between
    vertices, so a kink inside an edge smears its mass onto the flanking
    vertices; total mass is exactly 1 regardless (telescoping).  Negative
    atoms are reported, not clamped: they flag a skeleton too coarse for
    the potential's kinks.
    """
    if not place.is_ultrametric:
        raise PlaceError("nonarchimedean equilibrium needs an ultrametric place")
    gauss_idx = skeleton.vertex_of_point(place, GAUSS)
    if gauss_idx is None:
        raise MeasureError("skeleton must contain the Gauss point")
    values = []
    states = []
    for idx, lbl in enumerate(skeleton.labels):
        if lbl is None:
            raise MeasureError(f"skeleton vertex {idx} carries no point")
        try:
            st = lambda_limit(place, lift, lbl, tol)
        except MapError as exc:
            raise MeasureError(f"potential transport failed at vertex {idx} ({lbl!r}): {exc}") from exc
        values.append(st.value)
        states.append(st)
    potential = PLFunction(skeleton, values)
    lap = graph_laplacian(potential)
    atoms = []
    for v, w in lap.atoms:
        weight = -w
        if v == gauss_idx:
            weight = weight + 1
        if weight != 0:
            atoms.append((skeleton.labels[v], weight))
    mu = Measure(atoms)
    weights = [w for _, w in atoms]
    report = NonArchReport(
        total_mass=mu.total_mass,
        min_atom_weight=min(weights) if weights else 0,
        negative_atoms=any(w < 0 for w in weights),
        potential=potential,
        states=states,
    )
    return mu, report


def measure_to_rows(place: Place, mu):
    """CSV rows: kind, point_or_center, logr_or_radius, weight."""
    rows = []
    for x, w in mu.atoms:
        if x.t == "cls":
            rows.append(("atom", str(x.z), "", float(w)))
        elif x.t == "inf":
            rows.append(("atom", "inf", "", float(w)))
        else:
            rows.append(("atom", str(x.center), str(x.logr), float(w)))
    for z, r, w in mu.haars:
        rows.append(("haar", str(z), repr(r), float(w)))
    return rows


def energy_pairing(place: Place, lift_f: HomogeneousLift, lift_g: HomogeneousLift,
                   n: int = 10, tol: float = 1e-8,
                   skeleton: MetricGraph = None) -> float:
    """Mutual energy <mu_f, mu_g> = int (lambda_f - lambda_g) d(mu_f - mu_g).

    Vanishes when the maps coincide and behaves like a squared distance
    between the two equilibrium measures; with the Laplacian oriented
    positive at zeros this orientation of the integrand is the nonnegative
    one (it is the Dirichlet energy of the potential difference).  At an
    archimedean place each integral evaluates both potentials once, on the
    whole atom array.
    """
    if place.is_ultrametric:
        if skeleton is None:
            raise MeasureError("ultrametric pairing needs a skeleton")
        mu_f, _ = equilibrium_nonarch(place, lift_f, skeleton, tol)
        mu_g, _ = equilibrium_nonarch(place, lift_g, skeleton, tol)
    else:
        mu_f = equilibrium_arch(place, lift_f, PAIRING_SEED, n)
        mu_g = equilibrium_arch(place, lift_g, PAIRING_SEED, n)
    unit = place.log_unit

    def integrand(x):
        diff = lambda_limit(place, lift_f, x, tol).value - lambda_limit(place, lift_g, x, tol).value
        return (float(diff) if place.is_ultrametric else diff) * unit

    return integrate(place, mu_f, integrand)[0] - integrate(place, mu_g, integrand)[0]
