"""Reference implementation of the orbit cells of a barycentric subdivision.

The materializing algorithm that ``logskel.complexes._OrbitCells`` replaced,
kept as written so that its orbit-first enumeration can be compared with it
cell for cell and column for column.  It stores every chain of the
subdivision with a chain -> index dict and applies every group element to
every chain: tests only.  ``orbit_space_flags`` is the subchain flag
construction that the face-path flags of ``orbit_space_complex`` replaced,
``barycentric_subdivision`` materializes the subdivided complex itself,
``chains`` unpacks the library's packed cell keys for the comparison, and
``vertex_maps`` reads a group's rank permutations as vertex-label dicts.
"""

import itertools

import numpy as np

from homology_oracle import simplices_by_dim
from logskel.complexes import SimplicialComplex


def barycentric_subdivision(k):
    """Order complex of the face poset; vertices are the simplices of ``k``."""
    facets = []
    for f in k.facets:
        fl = sorted(f, key=str)
        for perm in itertools.permutations(fl):
            chain = tuple(tuple(sorted(perm[: i + 1], key=str)) for i in range(len(perm)))
            facets.append(frozenset(chain))
    return SimplicialComplex.from_facets(facets)


def vertex_maps(action):
    """The elements of a ``GroupAction`` as dicts from vertex to image vertex."""
    verts = action.complex.vertices
    return [dict(zip(verts, map(verts.__getitem__, row))) for row in action.elements.tolist()]


def chains(cells, d, keys):
    """Top-first chains of simplex ids (rows) of the packed level-d keys of
    the ``_OrbitCells`` ``cells``."""
    tops, masks = cells._masks(d, keys)
    return np.vstack([tops, cells._ids(tops, masks)]).T


class OrbitCellsOracle:
    """Orbit cells by brute force: cell d is the orbit of a (d+1)-chain of
    faces, represented by its member of least index in the chain order."""

    def __init__(self, base, action):
        simplices = simplices_by_dim(base)
        self.ids = {}
        self.sims = []
        for dim_list in simplices:
            for s in dim_list:
                self.ids[s] = len(self.sims)
                self.sims.append(s)
        # vertex permutations as simplex-id permutations
        self.perms = []
        for g in vertex_maps(action):
            arr = [0] * len(self.sims)
            for s, i in self.ids.items():
                arr[i] = self.ids[tuple(sorted((g[v] for v in s), key=str))]
            self.perms.append(arr)
        # chains by dimension
        self.dim = base.dim()
        self.chains = [[] for _ in range(self.dim + 1)]
        self.chain_ids = [dict() for _ in range(self.dim + 1)]
        self._enumerate_chains()
        self.reps = [self._orbits(d) for d in range(self.dim + 1)]

    def _enumerate_chains(self):
        # proper-face id lists per simplex
        faces_of = [[] for _ in self.sims]
        for s, i in self.ids.items():
            sl = list(s)
            n = len(sl)
            for kk in range(1, n):
                for sub in itertools.combinations(sl, kk):
                    faces_of[i].append(self.ids[tuple(sorted(sub, key=str))])
        ending = [[] for _ in self.sims]  # chains with top element s, as tuples
        order = sorted(range(len(self.sims)), key=lambda i: len(self.sims[i]))
        for i in order:
            mine = [(i,)]
            for f in faces_of[i]:
                for c in ending[f]:
                    mine.append(c + (i,))
            ending[i] = mine
        for chains in ending:
            for c in chains:
                d = len(c) - 1
                self.chain_ids[d][c] = len(self.chains[d])
                self.chains[d].append(c)

    def _orbits(self, d):
        """Canonical representative index per chain, plus the list of reps."""
        chains = self.chains[d]
        ids = self.chain_ids[d]
        rep_of = [-1] * len(chains)
        reps = []
        for i, c in enumerate(chains):
            if rep_of[i] >= 0:
                continue
            orbit = {i}
            for arr in self.perms:
                img = tuple(arr[x] for x in c)
                orbit.add(ids[img])
            r = len(reps)
            reps.append(min(orbit))
            for j in orbit:
                rep_of[j] = r
        return rep_of, reps

    def cell_counts(self):
        return [len(reps) for _, reps in self.reps]

    def rep_chains(self, d):
        """Representative chain of each d-cell, bottom to top, in cell order."""
        return [self.chains[d][r] for r in self.reps[d][1]]

    def boundary_columns(self, d, skip):
        """Boundary matrix of the orbit cell complex in dimension d >= 1,
        without the columns of the cells indexed in ``skip``."""
        rep_of_low, _ = self.reps[d - 1]
        low_ids = self.chain_ids[d - 1]
        cols = []
        for ridx, r in enumerate(self.reps[d][1]):
            if ridx in skip:
                continue
            chain = self.chains[d][r]
            col = {}
            for i in range(len(chain)):
                face = chain[:i] + chain[i + 1:]
                row = rep_of_low[low_ids[face]]
                col[row] = col.get(row, 0) + (-1) ** i
            cols.append([(row, val) for row, val in col.items() if val])
        return cols

    def maximal_cells(self):
        """Per dimension, the cells that are a face of no cell one dimension up."""
        out = []
        for d in range(self.dim + 1):
            faces = set()
            if d < self.dim:
                rep_of, _ = self.reps[d]
                for chain in self.rep_chains(d + 1):
                    faces.update(rep_of[self.chain_ids[d][chain[:i] + chain[i + 1:]]]
                                 for i in range(len(chain)))
            out.append([c for c in range(len(self.reps[d][1])) if c not in faces])
        return out

    def orbit_space_flags(self, maximal):
        """The maximal flags of the orbit cell poset through the given maximal
        cells: per representative chain, the labels of all its subchains, then
        one flag per order in which its positions are added."""
        out = []
        for d, cells in enumerate(maximal):
            n = d + 1
            for chain in (self.rep_chains(d)[c] for c in cells):
                labels = {}  # bitmask of chain positions -> label of that subchain
                for k in range(1, n + 1):
                    rep_of, _ = self.reps[k - 1]
                    for sub in itertools.combinations(range(n), k):
                        cell = rep_of[self.chain_ids[k - 1][tuple(chain[i] for i in sub)]]
                        labels[sum(1 << i for i in sub)] = ("cell", k - 1, cell)
                for perm in itertools.permutations(range(n)):
                    out.append(frozenset(labels[p] for p in itertools.accumulate(1 << i for i in perm)))
        return out
