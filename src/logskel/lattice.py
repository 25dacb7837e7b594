"""Exact integer and rational linear algebra for lattice computations.

Everything here works over Python ints and Fractions; no floating point.
Matrices are lists of row lists.  The Smith normal form follows the dense
scheme with pivoting by smallest nonzero magnitude; the sparse variant is
the elimination backend for boundary matrices of simplicial complexes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def mat_mult(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] += c * bt[j]
    return out


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def rat_rank(rows) -> int:
    """Rank over Q by fraction-free elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c] != 0:
                f = m[r][c] / pr[c]
                m[r] = [x - f * y for x, y in zip(m[r], pr)]
        rank += 1
        if rank == len(m):
            break
    return rank


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


def snf_with_transforms(a):
    """Smith normal form U a V = D with unimodular U, V.

    Returns (U, D, V).  Pivot selection: smallest nonzero absolute value in
    the remaining block.  Diagonal is fixed up to a divisibility chain.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    d = [list(map(int, row)) for row in a]
    u = identity(m)
    v = identity(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        # col_i += c * col_j
        for row in d:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def pivot_and_clear(t) -> bool:
        """Bring the smallest nonzero entry of the t-block to (t, t) and
        clear its row and column; False when the block is zero."""
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            return False
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            done = True
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    qq = d[i][t] // d[t][t]
                    add_row(i, t, -qq)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    qq = d[t][j] // d[t][t]
                    add_col(j, t, -qq)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        if d[t][t] < 0:
            negate_row(t)
        return True

    r = 0
    while r < min(m, n) and pivot_and_clear(r):
        r += 1

    # enforce the divisibility chain: a violation at k is repaired by mixing
    # column k+1 into column k and re-clearing the whole tail (re-clearing
    # only the two slots could leave later diagonal entries displaced);
    # d[k][k] shrinks to a proper divisor each round, so this terminates
    k = 0
    guard = 0
    while k < r - 1:
        if d[k + 1][k + 1] % d[k][k] != 0:
            guard += 1
            if guard > 10000:
                raise RuntimeError("divisibility sweep failed to converge")
            add_col(k, k + 1, 1)
            for t in range(k, r):
                pivot_and_clear(t)
            k = 0
            continue
        k += 1
    return u, d, v


def snf_diagonal(a):
    """Diagonal of the Smith normal form (no transforms), nonzero entries only.

    In-place reduction without tracking U and V.  The pivot is always the
    smallest nonzero magnitude of the remaining block, re-chosen whenever a
    reduction leaves a remainder; reductions use the nearest quotient, so a
    remainder is at most half the pivot.  Row t is reduced only once column
    t is clear, so that its column operations change row t alone; column
    operations against a column that still has entries spread the growth of
    row t to the whole block (millions of bits on some 8 x 8 inputs).
    """
    m = len(a)
    n = len(a[0]) if a else 0
    d = [list(map(int, row)) for row in a]
    diag = []
    t = 0
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
        if j != t:
            for row in d:
                row[t], row[j] = row[j], row[t]
        top = d[t]
        p = top[t]
        clear = True
        for i in range(t + 1, m):
            if d[i][t] != 0:
                qq = (2 * d[i][t] + p) // (2 * p)
                if qq:
                    d[i] = [x - qq * y for x, y in zip(d[i], top)]
                clear = clear and d[i][t] == 0
        if not clear:
            continue
        for j in range(t + 1, n):
            top[j] -= (2 * top[j] + p) // (2 * p) * p
        if any(top[t + 1:]):
            continue
        diag.append(abs(p))
        t += 1
    # divisibility chain via gcd/lcm smoothing
    changed = True
    while changed:
        changed = False
        for k in range(len(diag) - 1):
            if diag[k + 1] % diag[k] != 0:
                g = gcd(diag[k], diag[k + 1])
                l = diag[k] // g * diag[k + 1]
                diag[k], diag[k + 1] = g, l
                changed = True
    return diag


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


def is_unimodular(a) -> bool:
    return len(a) == len(a[0]) and abs(det(a)) == 1


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
    a = [list(v) for v in vectors]  # rows are the spanning vectors
    # SNF of the transpose: columns of the d x k matrix are the vectors
    at = transpose(a)  # rank x k
    u, d, v = snf_with_transforms(at)
    s = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    # U * at has image inside Z^s x 0, so the last rank-s rows of U kill the
    # saturated span; they form the quotient map.
    return [u[i] for i in range(s, rank)]


def lattice_saturation_is_trivial(vectors, rank) -> bool:
    """True when the Z-span of ``vectors`` is saturated in Z^rank."""
    if not vectors:
        return True
    at = transpose([list(v) for v in vectors])
    _, d, _ = snf_with_transforms(at)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i] != 0]
    return all(x == 1 for x in diag)


def content(vec) -> int:
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    return g


def primitive(vec):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = content(vec)
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
        self.rows = {}
        self.cols = {}
        self.nrows = nrows
        self.ncols = len(columns)
        for j, col in enumerate(columns):
            for i, val in col:
                if val:
                    self.rows.setdefault(i, {})[j] = self.rows.get(i, {}).get(j, 0) + val
                    self.cols.setdefault(j, {})[i] = self.rows[i][j]
        # clean explicit zeros produced by cancelling input pairs
        for i in list(self.rows):
            for j in list(self.rows[i]):
                if self.rows[i][j] == 0:
                    del self.rows[i][j]
                    del self.cols[j][i]
            if not self.rows[i]:
                del self.rows[i]
        for j in list(self.cols):
            if not self.cols[j]:
                del self.cols[j]
        self.pivot_rows = []

    def _eliminate(self, pi, pj):
        """Pivot on entry (pi, pj) (must be +-1) and delete its row/column,
        and every other line the pivot empties."""
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

    def diagonal_snf(self):
        """Nonzero SNF diagonal entries (with multiplicity), sorted by divisibility.

        Unit-pivot elimination driven by a lazy min-heap over column sizes
        (singleton columns are zero-fill and come first); rows that drop to
        a single entry are also consumed eagerly.  Every line a pivot empties
        is deleted, so what is left is exactly the non-unit remainder; the
        dense transform-free SNF runs on it only when it is nonempty.  The
        rows removed by unit pivots, by either route, are recorded in
        ``self.pivot_rows``: for a boundary matrix they are the cells whose
        boundaries the next lower boundary matrix may skip.
        """
        import heapq
        from collections import deque

        heap = [(len(col), j) for j, col in self.cols.items()]
        heapq.heapify(heap)
        rowq = deque(i for i, row in self.rows.items() if len(row) == 1)
        deferred = []
        eliminated_since_resurrect = 1

        def eliminate_tracked(pi, pj):
            nonlocal eliminated_since_resurrect
            touched_rows = set(self.cols[pj]) - {pi}
            touched_cols = set(self.rows[pi]) - {pj}
            self._eliminate(pi, pj)
            eliminated_since_resurrect += 1
            for i in touched_rows:
                row = self.rows.get(i)
                if row is not None and len(row) == 1:
                    rowq.append(i)
            for j in touched_cols:
                col = self.cols.get(j)
                if col is not None:
                    heapq.heappush(heap, (len(col), j))

        while self.rows:
            if rowq:
                i = rowq.popleft()
                row = self.rows.get(i)
                if row is not None and len(row) == 1:
                    (j, v), = row.items()
                    if v in (1, -1):
                        eliminate_tracked(i, j)
                continue
            if not heap:
                if deferred and eliminated_since_resurrect:
                    heap = [(len(self.cols[j]), j) for _, j in deferred if j in self.cols]
                    heapq.heapify(heap)
                    deferred = []
                    eliminated_since_resurrect = 0
                    continue
                break
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
            if pick is None:
                deferred.append((sz, j))
                continue
            eliminate_tracked(pick, j)

        diag = [1] * len(self.pivot_rows)
        if self.rows:
            col_ids = sorted(self.cols)
            dense = [[self.rows[i].get(j, 0) for j in col_ids] for i in sorted(self.rows)]
            diag += snf_diagonal(dense)
        return diag
