"""Output checks.  Each takes plain outputs and returns True when they are
correct; a job or sweep row that fails its check counts as failed, so a
change that is fast but wrong shows in ``ok_frac``.  ``selftest.py``
confirms that each check rejects a perturbed output.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

PAIRING_FLOOR = -1e-6          # criterion 10: pairings are nonnegative
CONTRACTION_CAP = 0.5 + 1e-6   # criterion 4: ratios contract by 1/d, d = 2
CRITERION_1_TOL = 2e-3         # criterion 1: |value - eps log 2| on arch rows


def chebyshev_lambda(z: complex) -> float:
    """Closed form of lambda for z^2 - 2: log max(|z|,1) - log|w|, z = w + 1/w, |w| >= 1."""
    w = (z + cmath.sqrt(z * z - 4)) / 2
    if abs(w) < 1:
        w = 1 / w
    return math.log(max(abs(z), 1.0)) - math.log(abs(w))


def closed_form_ok(z: complex, value: float, err: float) -> bool:
    return abs(value - chebyshev_lambda(z)) <= err


def poly_deviation(coeffs, z: complex) -> float:
    """g(z) = log max(|phi(z)|, 1) - d log max(|z|, 1) for a polynomial phi."""
    d = len(coeffs) - 1
    image = sum(c * z**j for j, c in enumerate(coeffs))
    return math.log(max(abs(image), 1.0)) - d * math.log(max(abs(z), 1.0))


def functional_equation_ok(d: int, lam_x: float, err_x: float, lam_fx: float, err_fx: float,
                           g_x: float) -> bool:
    """d lambda(x) = lambda(phi x) - g(x), within the two reported errors."""
    return abs(d * lam_x - (lam_fx - g_x)) <= d * err_x + err_fx


def pairings_ok(values) -> list:
    """Per pairing: nonnegative (to 1e-6) and strictly below the previous k."""
    out = []
    for i, v in enumerate(values):
        out.append(v >= PAIRING_FLOOR and (i == 0 or v < values[i - 1]))
    return out


def contraction_ok(rows) -> bool:
    return all(ratio is None or ratio <= CONTRACTION_CAP for _, ratio in rows)


def finite_row(row: dict) -> bool:
    return math.isfinite(row["value"]) and math.isfinite(row["cert_err"])


def rows_agree(a: dict, b: dict) -> bool:
    """Two rows for one (place, function) agree within the sum of their errors."""
    return abs(a["value"] - b["value"]) <= a["cert_err"] + b["cert_err"]


def row_eps(row: dict) -> float:
    """eps of an archimedean row, 1 elsewhere."""
    return float(Fraction(row["place_param"])) if row["place_kind"] == "arch" else 1.0


def values_agree(a: dict, b: dict) -> bool:
    """Two rows for one (place, function) agree within the sum of their errors
    divided by eps.  The certificate is the quadrature error plus the potential
    tail times ``mass_bound``; the tail carries the fiber's factor eps, and
    ``mass_bound`` carries it a second time, although the Laplacian mass of a
    test function on the eps fiber does not depend on eps.  Dividing by eps
    takes that second factor out (and only enlarges the quadrature part), so
    this bounds the true error of a correct value at every eps."""
    return abs(a["value"] - b["value"]) <= (a["cert_err"] + b["cert_err"]) / row_eps(a)


def mass_row_ok(row: dict, unit: float = 1.0) -> bool:
    """The constant test function integrates to the total mass, 1, times the
    place's log unit (affable constants live on the coefficient scale)."""
    return row["fn_id"] != "one" or abs(row["value"] - unit) <= row["cert_err"] + 1e-9


def criterion_1_ok(row: dict) -> bool:
    """z^2 rows of max(0, log|T-2|): eps log 2 on the archimedean branch, 0 at the end."""
    if row["fn_id"] != "clip_log_T_minus_2":
        return True
    if row["place_kind"] == "arch":
        eps = float(Fraction(row["place_param"]))
        return abs(row["value"] - eps * math.log(2)) <= CRITERION_1_TOL
    return row["value"] == 0


def skeleton_ok(vertex_of, inputs) -> bool:
    """The convex hull keeps every input disk as a vertex."""
    return all(vertex_of(x) is not None for x in inputs)


def restriction_ok(values, expected) -> bool:
    """Restriction keeps the original vertices first, with the exact values of f."""
    return list(values[:len(expected)]) == list(expected)


def unit_mass_ok(total_mass) -> bool:
    """Ultrametric equilibrium mass is exactly 1 (exact rational arithmetic)."""
    return total_mass == 1


def gauss_atom_ok(atoms, is_gauss) -> bool:
    """Good reduction: a single atom of weight exactly 1 at the Gauss point."""
    return len(atoms) == 1 and atoms[0][1] == 1 and is_gauss(atoms[0][0])
