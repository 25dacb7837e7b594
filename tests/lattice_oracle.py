"""The Bareiss determinant and the Fraction Gauss-Jordan solver, kept as
oracles.

``logskel.lattice`` computes determinants, adjugates and rational solutions
with one fraction-free Gauss-Jordan elimination; these two independent
routines check it, and serve the other oracles that need a determinant or
an exact solve.
"""

from fractions import Fraction


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
