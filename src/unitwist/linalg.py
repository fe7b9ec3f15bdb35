"""Exact linear algebra over the rationals.

A matrix is a list of rows.  A row is a list of its entries, or a dict
{column: entry} that may leave out zero entries; the coset-function systems
are sparse enough that the dict form saves most of the work.

One kernel, `_echelon`, reduces every matrix.  It keeps the rows seen so far
in reduced row echelon form and reduces each incoming row against them at
the pivot columns that row holds.  The reduced row echelon form of a matrix
depends only on its row space, so results are deterministic: they do not
depend on the order the rows arrive in or on which row supplies a pivot.
"""

from fractions import Fraction

ZERO = Fraction(0)


def _sparse(row):
    return row if isinstance(row, dict) else dict(enumerate(row))


def _subtract(row, f, pivot_row):
    """row -= f * pivot_row, in place, keeping only nonzero entries."""
    for k, x in pivot_row.items():
        v = row.get(k, ZERO) - f * x
        if v:
            row[k] = v
        else:
            row.pop(k, None)


def _echelon(rows):
    """The reduced row echelon form of the rows' span, as {pivot column: row dict}."""
    basis = {}
    for row in rows:
        row = {c: x for c, x in _sparse(row).items() if x}
        # basis rows vanish at each other's pivots, so one pass clears them all
        for c in [c for c in row if c in basis]:
            _subtract(row, row[c], basis[c])
        if not row:
            continue
        p = min(row)
        inv = 1 / Fraction(row[p])
        row = {k: x * inv for k, x in row.items()}
        for other in basis.values():
            if p in other:
                _subtract(other, other[p], row)
        basis[p] = row
    return basis


def rref(rows):
    """Reduced row echelon form. Returns (new_rows, pivot_columns).

    The nonzero rows come back in pivot order, as lists if the rows are
    lists and as dicts otherwise.  The input is left alone.
    """
    if not rows:
        return [], []
    basis = _echelon(rows)
    pivots = sorted(basis)
    if isinstance(rows[0], dict):
        return [basis[p] for p in pivots], pivots
    return [[basis[p].get(c, ZERO) for c in range(len(rows[0]))] for p in pivots], pivots


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix, one vector per free column.

    Vectors are dense, normalized with a 1 in their free coordinate and
    listed in increasing free-column order.
    """
    red, pivots = rref([_sparse(r) for r in rows])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row.get(free, ZERO)
        basis.append(v)
    return basis


def matrix_rank(rows):
    return len(rref(rows)[1])
