"""Reference homology engine: top-down elimination with column clearing.

The engine that ``logskel.complexes._homology_from_boundaries`` replaced,
kept as written so that the bottom-up engine can be compared with it
degree for degree.  It builds one ``{row: value}`` dict per boundary
column and hands every degree whole to ``SparseIntMatrix``: tests only.
It lists simplices with ``simplices_by_dim``, a set of
``itertools.combinations`` per dimension, independent of the simplex table
of ``SimplicialComplex``; the other oracles list them the same way.
``peel`` keeps the engine's unit-pivot peel as it was before its gathers
and compactions went chunked.
"""

import itertools

import numpy as np

from logskel.complexes import HomologyProfile
from logskel.lattice import SparseIntMatrix


def simplices_by_dim(k):
    """Sorted simplex tuples per dimension, by enumerating every face of
    every facet into a set: the listing that ``SimplicialComplex``'s simplex
    table replaced, with the same order (vertices ranked by str, then
    lexicographic rank tuples)."""
    order = sorted(k.vertices, key=str)
    rank = {v: i for i, v in enumerate(order)}
    by_dim = [set() for _ in range(k.dim() + 1)]
    for f in k.facets:
        fl = sorted(rank[v] for v in f)
        for size in range(1, len(fl) + 1):
            by_dim[size - 1].update(itertools.combinations(fl, size))
    return [[tuple(order[i] for i in t) for t in sorted(s)] for s in by_dim]


def homology_from_boundaries(counts, boundary):
    """Homology of a chain complex from per-dim cell counts and
    ``boundary(d, skip)``, the columns of boundary_d for the d-cells not in
    ``skip``, one {row: value} dict each.

    Reduces from the top degree down with clearing: a d-cell that is a unit
    pivot row of boundary_{d+1} has a boundary in the Z-span of the
    boundaries of the unpivoted d-cells (the pivot block is unimodular and
    boundary_d boundary_{d+1} = 0), so its column of boundary_d is dropped
    before it is computed, without changing the image lattice or the
    nonzero SNF diagonal.
    """
    dims = len(counts)
    diag = [[] for _ in range(dims)]
    cleared = set()
    for d in range(dims - 1, 0, -1):
        mat = SparseIntMatrix(boundary(d, cleared), counts[d - 1])
        diag[d] = mat.diagonal_snf()
        cleared = set(mat.pivot_rows)
    ranks = [len(dg) for dg in diag]  # rank of boundary_d
    degrees = []
    for d in range(dims):
        rank_d = ranks[d]
        rank_up = ranks[d + 1] if d + 1 < dims else 0
        free = counts[d] - rank_d - rank_up
        torsion = sorted(x for x in (diag[d + 1] if d + 1 < dims else []) if x > 1)
        degrees.append((free, torsion))
    return HomologyProfile(degrees)


def homology(k):
    """Simplicial homology of a complex through the reference engine."""
    simplices = simplices_by_dim(k)
    ids = [{s: i for i, s in enumerate(level)} for level in simplices]

    def boundary(d, skip):
        return [{ids[d - 1][s[:i] + s[i + 1:]]: (-1) ** i for i in range(len(s))}
                for j, s in enumerate(simplices[d]) if j not in skip]

    return homology_from_boundaries([len(level) for level in simplices], boundary)


def homology_of_faces(counts, faces):
    """The reference engine on a chain complex given by face arrays:
    entry [j, i] of ``faces(d)`` is the (d-1)-cell of face i of d-cell j,
    with sign (-1)^i."""
    def boundary(d, skip):
        return [{row: (-1) ** i for i, row in enumerate(cell)}
                for j, cell in enumerate(faces(d).tolist()) if j not in skip]

    return homology_from_boundaries(counts, boundary)


def peel(cells, cleared):
    """The unit-pivot peel of ``logskel.complexes._peel`` with boolean-mask
    compaction and whole-array gathers, as the engine ran it before its
    gathers went chunked: same arguments, same ``cleared`` update, same
    (dead, rank, rows, cols, face) result."""
    d = cells.shape[1] - 1
    rows, face = cells.ravel(), np.tile(np.arange(d + 1, dtype=np.int8), len(cells))
    cols = np.repeat(np.arange(len(cells), dtype=np.int32), d + 1)
    dead, rank, before = np.zeros(len(cells), dtype=bool), 0, np.inf
    while True:
        live = ~(cleared[rows] | dead[cols])
        rows, cols, face = rows[live], cols[live], face[live]
        if 16 * len(rows) >= 15 * before:
            break
        single = (np.bincount(rows, minlength=len(cleared))[rows] == 1) | \
            (np.bincount(cols, minlength=len(cells))[cols] == 1)
        pr, pc, before = rows[single], cols[single], len(rows)
        for side, n in ((0, len(cleared)), (1, len(cells))):  # distinct rows, then columns
            slot, at = np.empty(n, dtype=np.intp), np.arange(len(pr))
            slot[(pr, pc)[side]] = at
            keep = slot[(pr, pc)[side]] == at  # one entry per line, the last written
            pr, pc = pr[keep], pc[keep]
        cleared[pr], dead[pc] = True, True
        rank += len(pr)
    return dead, rank, rows, cols, face
