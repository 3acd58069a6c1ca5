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


def exact_det(matrix) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def exact_solve(matrix, rhs):
    """Solve A x = b over Q by Gaussian elimination with exact pivoting."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            raise ZeroDivisionError("singular exact system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]
