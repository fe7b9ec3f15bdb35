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


def _cases():
    for k in range(60):
        rng = random.Random(5000 + k)
        yield k, rng, _random_sparse(rng, rng.randint(1, 16), rng.randint(1, 12),
                                     rng.choice([0.05, 0.15, 0.3, 0.6]))


def test_nullspace_and_rank_match_sympy():
    sympy = pytest.importorskip("sympy")
    for k, _, rows in _cases():
        ncols = len(rows[0])
        want = sympy.Matrix(rows)
        assert linalg.matrix_rank(rows) == want.rank(), k
        basis = linalg.nullspace(rows, ncols)
        assert len(basis) == len(want.nullspace()) == ncols - want.rank(), k
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows), k
        if basis:
            assert sympy.Matrix(basis).rank() == len(basis), k


def test_rref_depends_only_on_the_row_space():
    for k, rng, rows in _cases():
        want = linalg.rref(rows)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert linalg.rref(shuffled) == want, k
        assert linalg.rref(shuffled + rows[::-1]) == want, k
        # the sparse form reduces to the same rows
        sparse = [{c: x for c, x in enumerate(r) if x} for r in shuffled]
        red, pivots = linalg.rref(sparse)
        assert pivots == want[1], k
        assert [[r.get(c, 0) for c in range(len(rows[0]))] for r in red] == want[0], k


def test_rref_leaves_sparse_input_alone():
    rows = [{1: Fraction(2)}, {0: Fraction(3), 1: Fraction(1)}, {0: Fraction(6)}]
    copy = [dict(r) for r in rows]
    assert linalg.rref(rows) == ([{0: 1}, {1: 1}], [0, 1])
    assert rows == copy
    assert linalg.nullspace(rows, 3) == [[0, 0, 1]]
    assert rows == copy
