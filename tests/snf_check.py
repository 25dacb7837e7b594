"""Independent checks of the integer Smith normal form with transforms.

Shared by the lattice tests and the acceptance suite; nothing in ``logskel``
multiplies matrices or tests unimodularity itself.
"""

from lattice_oracle import det
from logskel.lattice import snf_with_transforms


def mat_mult(a, b):
    m = len(b[0]) if b else 0
    return [[sum(row[t] * b[t][j] for t in range(len(b))) for j in range(m)] for row in a]


def is_unimodular(a) -> bool:
    return len(a) == len(a[0]) and abs(det(a)) == 1


def snf_self_check(matrix) -> bool:
    """U A V = D with unimodular U, V and a divisibility chain on the diagonal."""
    u, d, v = snf_with_transforms(matrix)
    if not (is_unimodular(u) and is_unimodular(v)):
        return False
    prod = mat_mult(mat_mult(u, [list(map(int, row)) for row in matrix]), v)
    if prod != d:
        return False
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0 and (diag[i] == 0 or diag[i + 1] % diag[i] != 0):
            return False
        if diag[i] == 0 and diag[i + 1] != 0:
            return False
    return all(x >= 0 for x in diag)
