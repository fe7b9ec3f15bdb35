import random
from fractions import Fraction

import pytest

from unitwist import linalg


def _random_sparse(rng, nrows, ncols, density):
    """A sparse rational matrix with at least one zero and one duplicate row."""
    rows = []
    for _ in range(nrows):
        rows.append([Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(1, 4))
                     if rng.random() < density else Fraction(0) for _ in range(ncols)])
    rows.insert(rng.randrange(len(rows) + 1), [Fraction(0)] * ncols)
    rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    return rows


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for k in range(60):
        rng = random.Random(4000 + k)
        rows = _random_sparse(rng, rng.randint(1, 16), rng.randint(1, 12),
                              rng.choice([0.05, 0.15, 0.3, 0.6]))
        red, pivots = linalg.rref(rows)
        want, want_pivots = sympy.Matrix(rows).rref()
        assert pivots == list(want_pivots), k
        assert red == [[Fraction(int(x.p), int(x.q)) for x in want.row(i)]
                       for i in range(len(want_pivots))], k


def test_rref_leaves_its_input_alone():
    rows = [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]]
    copy = [list(r) for r in rows]
    assert linalg.rref(rows) == ([[1, 0], [0, 1]], [0, 1])
    assert rows == copy
    assert linalg.rref([[Fraction(0)] * 3] * 2) == ([], [])
