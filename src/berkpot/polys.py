"""Dense univariate polynomial helpers (ascending coefficient lists).

Coefficients are exact ``Fraction``s or complex floats; the routines are
generic over both.  Nothing here knows about places or points.
"""

from __future__ import annotations

from fractions import Fraction


def trim(coeffs):
    """Drop trailing zero coefficients (the zero polynomial becomes [])."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_eval(coeffs, x):
    out = 0 * x
    for c in reversed(list(coeffs)):
        out = out * x + c
    return out


def taylor_shift(coeffs, z):
    """Coefficients of P(z + T) given those of P(T); exact for Fractions.

    Synthetic division by (T - z) in place, O(deg^2): pass i runs Horner's
    rule down to c[i], which is then the i-th Taylor coefficient, and leaves
    the quotient above it for the next pass.
    """
    c = list(coeffs)
    n = len(c)
    for i in range(n - 1):
        for k in range(n - 2, i - 1, -1):
            c[k] += z * c[k + 1]
    return c


def sylvester_matrix(f, g, m: int, n: int):
    """Sylvester matrix of f, g taken at formal degrees (m, n).

    Rows hold shifted copies of the coefficient vectors, giving an
    (m+n) x (m+n) matrix whose determinant is the resultant of the
    degree-(m, n) homogenizations.
    """
    f = list(f) + [0] * (m + 1 - len(f))
    g = list(g) + [0] * (n + 1 - len(g))
    size = m + n
    rows = []
    for i in range(n):  # n rows of f-coefficients
        row = [0] * size
        for j in range(m + 1):
            row[i + j] = f[m - j]
        rows.append(row)
    for i in range(m):  # m rows of g-coefficients
        row = [0] * size
        for j in range(n + 1):
            row[i + j] = g[n - j]
        rows.append(row)
    return rows


def _eliminate(matrix, rhs=()):
    """Elimination of [A | rhs] over Q with exact pivoting, then back
    substitution for each right-hand column.

    The one elimination loop behind ``exact_det``, ``exact_solve`` and the
    resultant cofactors of ``rmaps``.  ``rhs`` is a sequence of right-hand
    columns, possibly empty.  Returns (det A, [x per column]), or (0, None)
    when A is singular.
    """
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(col[r]) for col in rhs] for r, row in enumerate(matrix)]
    width = n + len(rhs)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        support = [c for c in range(col, width) if a[col][c] != 0]  # sparse pivot rows are common
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] * inv
            for c in support:
                a[r][c] -= factor * a[col][c]
    solutions = []
    for k in range(n, width):
        x = [Fraction(0)] * n
        for r in range(n - 1, -1, -1):
            x[r] = (a[r][k] - sum(a[r][c] * x[c] for c in range(r + 1, n) if a[r][c] != 0)) / a[r][r]
        solutions.append(x)
    return det, solutions


def exact_det(matrix) -> Fraction:
    """Determinant over Q, the product of the elimination pivots."""
    return _eliminate(matrix)[0]


def exact_solve(matrix, rhs):
    """Solve A x = b over Q: elimination, then back substitution."""
    det, solutions = _eliminate(matrix, [rhs])
    if det == 0:
        raise ZeroDivisionError("singular exact system")
    return solutions[0]
