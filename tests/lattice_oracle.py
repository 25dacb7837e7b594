"""The Bareiss determinant, the Fraction Gauss-Jordan solver, the first
fraction-free Gauss-Jordan loop and the adjugate read off it, kept as
oracles.

``logskel.lattice`` computes ranks and rational solutions with one
fraction-free Gauss-Jordan elimination; ``gauss_jordan`` is that
elimination as first written, row for row, which the tuned one must match
exactly.  The determinant and the solver check it independently, and
serve, with ``adjugate``, the other oracles that need a determinant, an
adjugate or an exact solve.
"""

from fractions import Fraction


def gauss_jordan(rows, ncols, zero_factors=None):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968), pivoting on
    the first ``ncols`` columns: (reduced rows, pivot columns, d, sign),
    every other row recomputed at every pivot.  ``zero_factors``, a set,
    collects piv == d for each such row that is 0 in the pivot column."""
    m = [list(map(int, row)) for row in rows]
    pivots, d, sign = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        top, piv = m[r], m[r][c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(piv * x - f * y) // d for x, y in zip(row, top)]
                if zero_factors is not None and not f:
                    zero_factors.add(piv == d)
        pivots.append(c)
        d = piv
        if len(pivots) == len(m):
            break
    return m, pivots, d, sign


def adjugate(a):
    """(det a, adj a) for a square integer matrix, adj read off the reduced
    [a | I] so that a adj = det I; adj is None when det a = 0."""
    n = len(a)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    red, pivots, d, sign = gauss_jordan([list(row) + e for row, e in zip(a, eye)], n)
    if len(pivots) < n:
        return 0, None
    return sign * d, [[sign * x for x in row[n:]] for row in red]


def rat_solve(a, b):
    """Solve a x = b exactly over Q; returns None if inconsistent.

    ``a`` is m x n (rows), ``b`` length m.  When the solution is not unique
    an arbitrary representative (free variables set to 0) is returned.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    aug = [[Fraction(x) for x in a[i]] + [Fraction(b[i])] for i in range(m)]
    pivots = []
    row = 0
    for c in range(n):
        piv = None
        for r in range(row, m):
            if aug[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pr = aug[row]
        inv = 1 / pr[c]
        aug[row] = [x * inv for x in pr]
        for r in range(m):
            if r != row and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(c)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = aug[r][n]
    return x


def det(a) -> int:
    """Determinant of an integer matrix by Bareiss fraction-free elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
