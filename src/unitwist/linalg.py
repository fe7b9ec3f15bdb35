"""Exact linear algebra over the rationals.

Everything here works on lists of lists of Fraction and is deterministic:
pivots are always chosen as the first nonzero entry in column order, so
repeated runs produce identical echelon forms and nullspace bases.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form. Returns (new_rows, pivot_columns)."""
    if not rows:
        return [], []
    m = [list(r) for r in rows]
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        prow = m[r] = [x * inv for x in m[r]]
        # the matrices met here are sparse: touch only the pivot row's support
        support = [k for k in range(c, ncols) if prow[k]]
        for i in range(len(m)):
            row = m[i]
            f = row[c]
            if i != r and f:
                for k in support:
                    row[k] -= f * prow[k]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix, one vector per free column.

    Vectors are normalized with a 1 in their free coordinate and listed in
    increasing free-column order.
    """
    if not rows:
        return [[Fraction(1 if i == j else 0) for i in range(ncols)] for j in range(ncols)]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to 0, so the answer is deterministic.
    """
    if not rows:
        return None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0])
    for row, pc in zip(red, pivots):
        if pc == ncols:
            return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[-1]
    return x


def matrix_rank(rows):
    if not rows:
        return 0
    red, pivots = rref(rows)
    return len(pivots)
