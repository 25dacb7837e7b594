"""Exact integer and rational linear algebra for lattice computations.

Everything here works over Python ints and Fractions; no floating point.
Matrices are lists of row lists.  One fraction-free Gauss-Jordan elimination
gives ranks, rational solutions and the vertices and rays of simplicial
cones; the Smith normal form pivots by smallest nonzero magnitude; the
sparse variant is the elimination backend for boundary matrices of
simplicial complexes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def _gauss_jordan(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of an integer
    matrix, pivoting on its first ``ncols`` columns only.

    Returns (reduced rows, pivot columns, d, sign): with P the row swaps,
    of sign ``sign``, and B the pivot block of P times the input, the rows
    are d B^-1 P times the input and d = det B, so pivot row k holds d at
    column ``pivots[k]`` and the other rows 0.  Every division is exact.
    A row with 0 in the pivot column is only rescaled by piv / d, and left
    as it is when piv = d.
    """
    m = [list(map(int, row)) for row in rows]
    pivots, d, sign = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        for p in range(r, len(m)):
            if m[p][c]:
                break
        else:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        top, piv = m[r], m[r][c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = [(piv * x - f * y) // d for x, y in zip(row, top)]
            elif not f and piv != d:
                m[i] = [piv * x // d for x in row]
        pivots.append(c)
        d = piv
        if len(pivots) == len(m):
            break
    return m, pivots, d, sign


def rat_solve(a, b):
    """Solve a x = b exactly over Q; returns None if inconsistent.

    ``a`` is m x n (rows), ``b`` length m; entries may be Fractions, and
    each row of [a | b] is scaled to integers first.  When the solution is
    not unique, the free variables are set to 0.
    """
    n = len(a[0]) if a else 0
    aug = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    scale = [lcm(*(x.denominator for x in row)) for row in aug]
    red, pivots, d, _ = _gauss_jordan([[x * k for x in row] for row, k in zip(aug, scale)], n)
    if any(row[n] for row in red[len(pivots):]):
        return None
    sol = dict(zip(pivots, red))
    return [Fraction(sol[c][n], d) if c in sol else Fraction(0) for c in range(n)]


def _snf(a, transforms):
    """Smith normal form of the integer matrix ``a``.

    Returns (U, D, V) with unimodular U, V and U a V = D when ``transforms``
    is true, else the nonzero diagonal of D alone.  The pivot is always the
    smallest nonzero magnitude of the remaining block, re-chosen whenever a
    reduction leaves a remainder; reductions use the nearest quotient, so a
    remainder is at most half the pivot.  Row t is reduced only once column
    t is clear, so that its column operations change row t alone; column
    operations against a column that still has entries spread the growth of
    row t to the whole block (millions of bits on some 8 x 8 inputs).  A
    break in the divisibility chain at k is repaired by adding column k+1
    to column k and reducing the tail again; the entry at k then falls to a
    smaller value, so the repair ends.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    d = [list(map(int, row)) for row in a]
    u = identity(m) if transforms else []
    v = identity(n) if transforms else []

    def reduce_from(t):
        while t < min(m, n):
            piv = None
            best = None
            for i in range(t, m):
                row = d[i]
                for j in range(t, n):
                    x = row[j]
                    if x != 0 and (best is None or abs(x) < best):
                        best = abs(x)
                        piv = (i, j)
                if best == 1:
                    break
            if piv is None:
                break
            i, j = piv
            d[t], d[i] = d[i], d[t]
            if u:
                u[t], u[i] = u[i], u[t]
            if j != t:
                for row in d + v:
                    row[t], row[j] = row[j], row[t]
            top = d[t]
            p = top[t]
            clear = True
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    qq = (2 * d[i][t] + p) // (2 * p)
                    if qq:
                        d[i] = [x - qq * y for x, y in zip(d[i], top)]
                        if u:
                            u[i] = [x - qq * y for x, y in zip(u[i], u[t])]
                    clear = clear and d[i][t] == 0
            if not clear:
                continue
            for j in range(t + 1, n):
                qq = (2 * top[j] + p) // (2 * p)
                if qq:
                    top[j] -= qq * p
                    for row in v:
                        row[j] -= qq * row[t]
            if any(top[t + 1:]):
                continue
            if p < 0:
                top[t] = -p
                if u:
                    u[t] = [-x for x in u[t]]
            t += 1
        return t

    r = reduce_from(0)
    k = 0
    while k < r - 1:
        if d[k + 1][k + 1] % d[k][k] != 0:
            for row in d + v:
                row[k] += row[k + 1]
            reduce_from(k)
            k = 0
            continue
        k += 1
    return (u, d, v) if transforms else [d[i][i] for i in range(r)]


def snf_with_transforms(a):
    """Smith normal form U a V = D with unimodular U, V; returns (U, D, V)."""
    return _snf(a, True)


def snf_diagonal(a):
    """Nonzero diagonal of the Smith normal form of ``a``, without transforms."""
    return _snf(a, False)


def span_snf(vectors):
    """SNF of the matrix whose columns are the (nonempty) ``vectors``.

    Returns (U, nonzero diagonal).  With s the length of the diagonal, the
    first s rows of U are coordinates on the span of the vectors, the other
    rows vanish on its saturation, and the span is saturated exactly when
    every diagonal entry is 1.
    """
    u, d, _ = snf_with_transforms(transpose(list(vectors)))
    return u, [d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i] != 0]


def int_kernel_basis(a):
    """Basis of the saturated integer kernel of the m x n matrix ``a``.

    Returns a list of length-n integer vectors spanning ker(a) over Q whose
    Z-span is ker(a) over Z (saturation follows from the SNF construction).
    """
    m = len(a)
    n = len(a[0]) if a else 0
    if m == 0:
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    u, d, v = snf_with_transforms(a)
    r = sum(1 for i in range(min(m, n)) if d[i][i] != 0)
    # columns r..n-1 of V span the kernel
    return [[v[i][j] for i in range(n)] for j in range(r, n)]


def saturation_quotient_map(vectors, rank):
    """Projection matrix T: Z^rank -> Z^(rank-s) with kernel the saturation
    of the span of ``vectors`` (s = rational dimension of that span)."""
    if not vectors:
        return identity(rank)
    u, diag = span_snf(vectors)
    return u[len(diag):]


def primitive(vec):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = gcd(*vec)
    if g == 0:
        return tuple(vec)
    return tuple(x // g for x in vec)


class SparseIntMatrix:
    """Sparse integer matrix supporting the elimination used for homology.

    Stored as dict-of-dicts both ways.  ``diagonal_snf`` eliminates with
    unit pivots first (no fraction growth, little fill on boundary
    matrices), then finishes the remaining dense core with the exact SNF.
    """

    def __init__(self, columns, nrows):
        """``columns[j]`` maps the rows of column j to its nonzero values.
        The matrix takes these dicts over and changes them as it eliminates."""
        self.nrows, self.ncols, self.pivot_rows = nrows, len(columns), []
        self.cols, self.rows = {}, {}
        for j, col in enumerate(columns):
            if not all(col.values()):
                raise ValueError(f"column {j} holds a zero")
            if col:
                self.cols[j] = col
                for i, val in col.items():
                    self.rows.setdefault(i, {})[j] = val

    def _eliminate(self, pi, pj):
        """Pivot on entry (pi, pj) (must be +-1) and delete every line it
        empties; returns the other entries of its column and row."""
        piv = self.rows[pi][pj]
        col_entries = [(i, v) for i, v in self.cols[pj].items() if i != pi]
        row_entries = [(j, v) for j, v in self.rows[pi].items() if j != pj]
        # col_j <- col_j - (a_pi_j / piv) * col_pj  for every other column j
        for j, a in row_entries:
            f = a * piv  # piv in {1,-1}: a / piv == a * piv
            for i, b in col_entries:
                new = self.cols[j].get(i, 0) - f * b
                if new:
                    self.cols[j][i] = new
                    self.rows[i][j] = new
                else:
                    self.cols[j].pop(i, None)
                    self.rows[i].pop(j, None)
        for i, _ in col_entries:
            self.rows[i].pop(pj, None)
            if not self.rows[i]:
                del self.rows[i]
        for j, _ in row_entries:
            self.cols[j].pop(pi, None)
            if not self.cols[j]:
                del self.cols[j]
        del self.rows[pi]
        del self.cols[pj]
        self.pivot_rows.append(pi)
        return col_entries, row_entries

    def diagonal_snf(self):
        """Nonzero SNF diagonal entries (with multiplicity), sorted by divisibility.

        Unit-pivot elimination driven by a lazy min-heap over column sizes
        (singleton columns are zero-fill and come first); rows that drop to
        a single entry are also consumed eagerly.  A column popped without a
        +-1 entry is dropped: it changes only when a pivot row crosses it,
        which pushes it again.  Every line a pivot empties is deleted, so what
        is left is exactly the non-unit remainder; the dense transform-free
        SNF runs on it only when it is nonempty.  The rows removed by unit
        pivots, by either route, are recorded in ``self.pivot_rows``: for a
        coboundary matrix they are the cells whose rows the next higher
        boundary matrix may drop.
        """
        import heapq
        from collections import deque

        heap = [(len(col), j) for j, col in self.cols.items()]
        heapq.heapify(heap)
        rowq = deque(i for i, row in self.rows.items() if len(row) == 1)

        def eliminate_tracked(pi, pj):
            col_entries, row_entries = self._eliminate(pi, pj)
            for i, _ in col_entries:
                row = self.rows.get(i)
                if row is not None and len(row) == 1:
                    rowq.append(i)
            for j, _ in row_entries:
                col = self.cols.get(j)
                if col is not None:
                    heapq.heappush(heap, (len(col), j))

        while rowq or heap:
            if rowq:
                i = rowq.popleft()
                row = self.rows.get(i)
                if row is not None and len(row) == 1:
                    (j, v), = row.items()
                    if v in (1, -1):
                        eliminate_tracked(i, j)
                continue
            sz, j = heapq.heappop(heap)
            col = self.cols.get(j)
            if col is None or len(col) != sz:
                continue  # stale heap entry
            pick = None
            best_rowlen = None
            for i, v in col.items():
                if v in (1, -1):
                    rl = len(self.rows[i])
                    if best_rowlen is None or rl < best_rowlen:
                        best_rowlen = rl
                        pick = i
            if pick is not None:
                eliminate_tracked(pick, j)

        diag = [1] * len(self.pivot_rows)
        if self.rows:
            col_ids = sorted(self.cols)
            dense = [[self.rows[i].get(j, 0) for j in col_ids] for i in sorted(self.rows)]
            diag += snf_diagonal(dense)
        return diag
