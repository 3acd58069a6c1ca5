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

    Synthetic-division form, O(deg^2).
    """
    c = list(coeffs)
    n = len(c)
    out = []
    for _ in range(n):
        # divide c by (T - z) via Horner; remainder is next Taylor coefficient
        rem = c[-1]
        quotient = [c[-1]]
        for k in range(n - 2, -1, -1):
            rem = c[k] + rem * z
            quotient.append(rem)
        quotient.reverse()
        out.append(quotient[0])
        c = quotient[1:]
        n -= 1
        if n == 0:
            break
    return out


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
    """Forward elimination of [A | rhs] over Q with exact pivoting.

    The one elimination loop behind ``exact_det`` and ``exact_solve``.
    ``rhs`` is a sequence of right-hand columns, possibly empty.  Returns
    (det A, upper triangular rows), or (0, None) when A is singular.
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
    return det, a


def exact_det(matrix) -> Fraction:
    """Determinant over Q, the product of the elimination pivots."""
    return _eliminate(matrix)[0]


def exact_solve(matrix, rhs):
    """Solve A x = b over Q: elimination, then back substitution."""
    det, a = _eliminate(matrix, [rhs])
    if det == 0:
        raise ZeroDivisionError("singular exact system")
    n = len(a)
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        x[r] = (a[r][n] - sum(a[r][c] * x[c] for c in range(r + 1, n) if a[r][c] != 0)) / a[r][r]
    return x
