import itertools
import random
from fractions import Fraction as F

import pytest

from berkpot.polys import exact_det, exact_solve


def leibniz(m):
    """det m as the signed sum over permutations."""
    n = len(m)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = F(-1) ** inversions
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def _matrix(rng, n):
    return [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]


def test_exact_det_matches_leibniz():
    rng = random.Random(17)
    for n in range(1, 6):
        for _ in range(6):
            m = _matrix(rng, n)
            assert exact_det(m) == leibniz(m)


def test_exact_det_zero_leading_pivot_and_singular():
    # the first pivot is 0: elimination swaps rows, and the swap flips the sign
    m = [[F(0), F(1), F(2)], [F(3), F(4), F(5)], [F(6), F(7), F(9)]]
    assert exact_det(m) == leibniz(m) == -3
    assert exact_det([m[1], m[0], m[2]]) == 3
    singular = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(1), F(0), F(1)]]
    assert exact_det(singular) == leibniz(singular) == 0


def test_exact_solve_satisfies_the_system():
    rng = random.Random(23)
    solved = 0
    while solved < 20:
        n = rng.randint(1, 6)
        a = _matrix(rng, n)
        if exact_det(a) == 0:
            continue
        b = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
        x = exact_solve(a, b)
        assert [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)] == b
        solved += 1
    # zero leading pivot
    m = [[F(0), F(1)], [F(1), F(0)]]
    assert exact_solve(m, [F(2), F(3)]) == [3, 2]


def test_exact_solve_singular_raises():
    singular = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(1), F(0), F(1)]]
    with pytest.raises(ZeroDivisionError):
        exact_solve(singular, [F(1), F(0), F(0)])
