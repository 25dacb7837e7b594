"""Simplicial complexes, group quotients, integral homology, sphere pipelines.

The group quotient is the delicate part.  Identifying vertex orbits in a raw
complex can collapse distinct cells of the orbit space (an antipodal action
on a 4-cycle would yield a segment instead of a circle), so ``quotient``
works on the barycentric subdivision: the size order of a chain of faces is
group-invariant, which turns the subdivided complex into a simplicial set on
which any simplicial action may be quotiented levelwise, and geometric
realization commutes with that quotient.  Cell orbits then form a regular CW
complex whose order complex is an honest triangulation of the orbit space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .lattice import SparseIntMatrix
from .logstructure import tate_strata  # noqa: F401  (still importable from here)
from .polyhedra import Fan, _derived_pieces, dual_rays, maximal_sets, primitive
from .rationals import json_value

_FACE_BLOCK = 1 << 12  # chains per block in _OrbitCells; bounds its peak memory
_GATHER_BLOCK = 1 << 14  # entries per chunk of the homology peel's gathers; bounds their index copies
_MAX_GROUP_ORDER = 20_000  # group closure bound
_MAX_LABEL_DEPTH = 300  # lists nested in a JSON vertex label; each level takes two of Python's 1000 frames
_MAX_FACETS = 2_000_000  # orbit-space triangulation bound, in (d+1)! flags per maximal d-cell
_MAX_SIMPLICES = 1 << 20  # simplex enumeration bound, sum of 2^|f| - 1 over facets f


class ComplexError(ValueError):
    pass


class SimplicialComplex:
    """Abstract simplicial complex: hashable vertex labels plus facets.

    ``vertices`` are ranked by str, then repr where str collides, and facets
    are rows of vertex ranks (indices into ``vertices``): ``_rows`` maps each
    facet size to one int32 array of sorted rows in lexicographic order, the
    simplex table's order.  ``facets``, their frozensets of labels in that
    order, is built on first use, so homology never builds it.
    """

    def __init__(self, vertices, facets):
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) < len(vertices):  # labels that compare equal would merge vertices
            a, b = next((i, index[v]) for i, v in enumerate(vertices) if index[v] != i)
            raise ComplexError(f"vertices {a} and {b} have equal labels {vertices[a]!r} and {vertices[b]!r}")
        fs, rows = maximal_sets({frozenset(f) for f in facets}), {}
        try:
            for f in fs:
                rows.setdefault(len(f), []).append(list(map(index.__getitem__, f)))
        except KeyError:
            f = next(f for f in fs if not f <= index.keys())
            raise ComplexError(f"facet {sorted(f, key=str)} uses undeclared vertices") from None
        self._store(vertices, {size: np.array(r, dtype=np.int32) for size, r in rows.items()})

    def _store(self, vertices, rows):
        """Ranks ``vertices`` into ``self.vertices``, keeps the facets ``rows``
        (by size int arrays of indices into ``vertices``, one distinct facet
        per row in any order) and returns the complex: the one path every
        complex is built by.  Refuses a repeated facet and a vertex in none."""
        order = sorted(range(len(vertices)), key=lambda i: (str(vertices[i]), repr(vertices[i])))
        self.vertices, self._rows, used = tuple(vertices[i] for i in order), {}, np.zeros(len(order), dtype=bool)
        rank = np.empty(len(order), dtype=np.int32)
        rank[order] = np.arange(len(order))
        for size in sorted(rows):
            self._rows[size], inverse = _unique_rows(np.sort(rank[rows[size]], axis=1))
            if len(self._rows[size]) < len(inverse):
                raise ComplexError(f"a facet of {size} vertices repeats")
            used[self._rows[size].ravel()] = True
        if not used.all():
            raise ComplexError("every declared vertex must appear in some facet")
        return self

    @cached_property
    def facets(self):
        return tuple(frozenset(map(self.vertices.__getitem__, row))
                     for block in self._rows.values() for row in block.tolist())

    @staticmethod
    def from_facets(facets) -> "SimplicialComplex":
        facets = [frozenset(f) for f in facets]
        return SimplicialComplex(set().union(*facets), facets)

    def dim(self) -> int:
        return max(self._rows, default=0) - 1

    def _simplex_table(self):
        """The simplices as rows of vertex ranks.

        Returns (rows, faces): rows[d] holds the d-simplices as sorted int32
        rows in lexicographic order, the simplex order, and faces[d][j, i]
        (d >= 1) is the row of rows[d - 1] that is row j without column i.
        Built top-down: each level is the rows above with one column dropped
        plus the facets of its size, deduplicated by one lexsort whose
        inverse is the face array of the level above.
        """
        bound = sum(len(block) * ((1 << size) - 1) for size, block in self._rows.items())
        if bound > _MAX_SIMPLICES:
            raise ComplexError(f"the facets have up to {bound} faces, over the desk-scale {_MAX_SIMPLICES}")
        rows, faces, top = [], [np.empty((0, 0), dtype=np.int32)], self.dim()
        above = np.empty((0, top + 2), dtype=np.int32)
        for d in range(top, -1, -1):
            facets = self._rows.get(d + 1, np.empty((0, d + 1), dtype=np.int32))
            level, inverse = _unique_rows(np.concatenate([np.delete(above, i, axis=1) for i in range(d + 2)]
                                                         + [facets]))
            faces.insert(1, inverse[:len(above) * (d + 2)].reshape(d + 2, len(above)).T.astype(np.int32))
            rows.insert(0, level)
            above = level
        return rows, faces[:len(rows)]

    def simplices_by_dim(self):
        """List of sorted simplex tuples per dimension (0..dim)."""
        return [[tuple(map(self.vertices.__getitem__, row)) for row in level.tolist()]
                for level in self._simplex_table()[0]]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(level) for d, level in enumerate(self._simplex_table()[0]))

    def to_json_dict(self):
        return {"schema": "1", "vertices": [_label_json(v) for v in self.vertices],
                "facets": [row for rows in self._rows.values() for row in rows.tolist()]}

    @staticmethod
    def from_json_dict(doc) -> "SimplicialComplex":
        for key in ("vertices", "facets"):
            json_value(doc[key], key, ComplexError, list)
        verts = [_label_unjson(v) for v in doc["vertices"]]
        for f in doc["facets"]:
            json_value(f, "facet", ComplexError, list, what="a list of vertex indices")
            bad = [i for i in f if type(i) is not int or not 0 <= i < len(verts)]
            if bad:
                raise ComplexError(f"facet {f}: {bad[0]!r} is not an index into the {len(verts)} vertices")
        return SimplicialComplex(verts, [frozenset(verts[i] for i in f) for f in doc["facets"]])

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return set(self.vertices) == set(other.vertices) and set(self.facets) == set(other.facets)

    def __repr__(self):
        return f"SimplicialComplex(v={len(self.vertices)}, facets={sum(map(len, self._rows.values()))}, dim={self.dim()})"


def _unique_rows(rows):
    """The distinct rows of a 2-d nonnegative int array in lexicographic
    order, and the index among them of each input row.  Runs of columns are
    packed into int64 sort keys, as many as fit in each, for one argsort
    when one key holds them all and one lexsort otherwise."""
    bits = int(rows.max(initial=0)).bit_length() or 1
    keys = np.zeros((-(-rows.shape[1] // (63 // bits)) or 1, len(rows)), dtype=np.int64)
    for j, column in enumerate(rows.T):
        keys[j // (63 // bits)] = keys[j // (63 // bits)] * (1 << bits) + column
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    keys = keys[:, order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return rows[order[new]], inverse


def _row_ids(table, rows):
    """The index of each row of ``rows`` in ``table``, whose rows are distinct
    and sorted and include every one of them."""
    return _unique_rows(np.concatenate([table, rows]))[1][len(table):]


def _label_json(v):
    if isinstance(v, tuple):
        return list(_label_json(x) for x in v)
    if isinstance(v, frozenset):
        return sorted(_label_json(x) for x in v)
    return v


def _label_unjson(v, depth=0):
    if isinstance(v, dict):
        raise ComplexError(f"vertex label {v!r} is not a string, number or list of them")
    if isinstance(v, list):
        if depth == _MAX_LABEL_DEPTH:
            raise ComplexError(f"a vertex label nests lists more than {_MAX_LABEL_DEPTH} deep")
        return tuple(_label_unjson(x, depth + 1) for x in v)
    return v


def cycle_complex(n: int) -> SimplicialComplex:
    """The n-cycle graph as a triangulated circle (n >= 3)."""
    if n < 3:
        raise ComplexError("a triangulated circle needs at least 3 vertices")
    return SimplicialComplex.from_facets([(i, (i + 1) % n) for i in range(n)])


def simplex_boundary_complex(n: int) -> SimplicialComplex:
    """Boundary of the n-simplex, a triangulated (n-1)-sphere."""
    verts = list(range(n + 1))
    return SimplicialComplex.from_facets(itertools.combinations(verts, n))


class GroupAction:
    """Finite permutation group on the vertices of a complex, by generators.

    ``elements`` is the group as an (order x V) int32 array of rank
    permutations: row g maps vertex i of ``complex.vertices`` to g[i].  Row 0
    is the identity, and the rest follow in breadth-first order of the
    generators' compositions."""

    def __init__(self, complex_: SimplicialComplex, generators):
        self.complex = complex_
        index = {v: i for i, v in enumerate(complex_.vertices)}
        gens = []
        for g in generators:
            g = dict(g)
            if g.keys() != index.keys() or set(g.values()) != index.keys():
                raise ComplexError("generator is not a permutation of the vertex set")
            gens.append(np.array([index[g[v]] for v in complex_.vertices], dtype=np.int32))
        for g in gens:
            if any(not np.array_equal(_unique_rows(np.sort(g[rows], axis=1))[0], rows)
                   for rows in complex_._rows.values()):
                raise ComplexError("generator does not map facets to facets (non-simplicial action)")
        ident = np.arange(len(index), dtype=np.int32)
        seen, frontier = {ident.tobytes(): ident}, [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    comp = g[p]
                    if (key := comp.tobytes()) not in seen:
                        seen[key] = comp
                        nxt.append(comp)
                        if len(seen) > _MAX_GROUP_ORDER:
                            raise ComplexError("group closure exceeds the desk-scale bound")
            frontier = nxt
        self.elements = np.array(list(seen.values()), dtype=np.int32).reshape(len(seen), len(index))

    def order(self) -> int:
        return len(self.elements)


def _join(parts, vertices) -> SimplicialComplex:
    """The join of ``parts`` on ``vertices``, their labels in part order: its
    facets are the products of the parts' rank rows, each part's shifted past
    the vertices before it.  These are distinct and maximal (f + g <= f' + g'
    forces f <= f' and g <= g'), so ``_store`` takes them as they are."""
    rows, shift = {0: np.zeros((1, 0), dtype=np.int32)}, 0
    for part in parts:
        product = {}
        for (s, left), (t, right) in itertools.product(rows.items(), part._rows.items()):
            product.setdefault(s + t, []).append(
                np.hstack([np.repeat(left, len(right), axis=0), np.tile(right + shift, (len(left), 1))]))
        rows, shift = {size: np.concatenate(blocks) for size, blocks in product.items()}, shift + len(part.vertices)
    return SimplicialComplex.__new__(SimplicialComplex)._store(vertices, rows)


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Join: facets are unions of one facet from each side (labels made disjoint)."""
    return join_all([a, b]) if set(a.vertices) & set(b.vertices) else _join([a, b], a.vertices + b.vertices)


def join_all(complexes) -> SimplicialComplex:
    """n-fold join with factor-indexed labels (i, v)."""
    parts = list(complexes)
    if not parts:
        raise ComplexError("empty join")
    return _join(parts, [(i, v) for i, c in enumerate(parts) for v in c.vertices])


# --------------------------------------------------------------------------
# Orbit machinery.  ``_OrbitCells`` is the levelwise quotient of the
# subdivided complex viewed as a simplicial set: cells in dimension d are
# orbits of (d+1)-chains of faces; the i-th face of a chain drops its i-th
# element from the bottom, and the size order makes the boundary signs
# canonical.
#
# Simplex ids are the rows of the base's simplex table, by dimension and then
# in row order.  Group elements act on the table as rank permutations: each
# level's images are re-sorted and found with one row lookup per level
# (``_perms``).  A cell is represented by the member of its orbit whose
# top-first tuple (top, next, ..., bottom) of ids is least: its top t is
# the least simplex of the top's G-orbit, and the rest is least
# under the stabilizer Stab(t).  Cells are numbered in that order, kept per
# level as one sorted int64 array of keys: the top, then each element's
# index among the faces of the one above, so key order is tuple order.
#
# Below its top a chain is worked on as nested bit masks over t's sorted
# vertex positions, t = m0 > m1 > ... > md.  Ids run by size and then by
# rank row, so the faces of an element, in id order, are its position
# subsets by size and then in combinations order, and a key digit is the
# rank of m_j among the nonempty subsets of m_{j-1} in that order: one
# (M x M) table lookup, M = 2^(dim+1), with its inverse and the compression
# of a subset into its superset's positions as two more tables
# (``_mask_tables``).  The id of each subset of each simplex is one table
# over the masks of the simplex (``_sub``), read off the simplex table's
# face arrays.  Stab(t) acts below t only by permuting t's positions, and
# ``_moves`` takes each simplex to the least of its orbit by a map of
# positions; each of these maps is one table over the masks of its simplex.
# ``_least`` is the one Stab(top) minimisation, for face lookups.  The
# enumeration is by canonical augmentation (Read 1978; McKay 1998): a
# representative p is least under Stab(t), so g p > p, and then g c > c for
# every extension c, unless g fixes every element of p, an automorphism of
# p.  So the level-(d+1) keys are the one-element extensions of the level-d
# keys that no automorphism of their prefix moves to a lower last digit, and
# each keeps those that fix its last element.  Of the faces of a cell, face
# 0 is its prefix, whose key is its own without the last digit; faces 1..d-1
# keep the top, already least, and drop one mask, all read off one image per
# stabilizer element; only face d takes m1 as its new top, in whose positions
# the rest is compressed, and moves it to the least of its orbit first.
# --------------------------------------------------------------------------

def _chain_radices(simplices: int, dim: int):
    """Key radices below the top (position j indexes the faces of an element
    with at most dim + 2 - j vertices); refuses sizes that overflow int64."""
    radices = [2 ** (dim + 2 - j) - 2 for j in range(1, dim + 1)]
    if simplices * max(simplices, math.prod(radices)) > 2 ** 63:  # chain and face-table keys
        raise ComplexError(f"packed orbit-cell keys overflow int64 ({simplices} simplices, dim {dim})")
    return radices


def _mask_tables(width):
    """(digit, subset, compress) over the masks of ``width`` positions, each
    indexed by (superset p, subset m) in the narrowest unsigned dtype.
    digit[p, m] is the rank of m among the nonempty subsets of p by size and
    then in combinations order (of equal-size sets, the one whose reversed
    bit string is larger comes first), so digit[p, p] counts the proper ones;
    subset[p, i] is the subset of rank i; compress[p, m] is m in p's
    positions, the subset of that rank of the first popcount(p) positions."""
    masks = np.arange(1 << width)
    bits = (masks[:, None] >> np.arange(width)) & 1
    order = np.lexsort((-(bits @ (1 << np.arange(width)[::-1])), bits.sum(axis=1)))[1:]
    inside = (masks[:, None] & order) == order  # [p, i]: order[i] is a subset of p
    digit = np.zeros((len(masks), len(masks)), dtype=np.min_scalar_type(masks[-1]))
    subset = np.zeros_like(digit)
    digit[:, order] = np.cumsum(inside, axis=1) - inside
    p, i = np.nonzero(inside)
    subset[p, digit[p, order[i]]] = order[i]
    compress = subset[((1 << bits.sum(axis=1)) - 1)[:, None], digit]
    return digit, subset, compress


def _position_maps(rows, starts, moved, sims, elements, images):
    """One mask table per (simplex, group element) row, concatenated in row
    order (rows sorted by simplex id): row r's 2^k entries map each mask over
    the k sorted vertex positions of simplex sims[r] to the mask of the
    positions of their images under elements[r] in simplex images[r]."""
    tables = []
    for d, level in enumerate(rows):
        lo, hi = np.searchsorted(sims, starts[d:d + 2])
        image = moved[elements[lo:hi, None], level[sims[lo:hi] - starts[d]]]
        target = level[images[lo:hi] - starts[d]]
        positions = (target[:, None, :] < image[:, :, None]).sum(axis=2)
        masks = np.arange(1 << (d + 1))
        tables.append(sum((masks >> i & 1) << positions[:, i, None] for i in range(d + 1)).ravel())
    return np.concatenate(tables).astype(np.min_scalar_type((1 << len(rows)) - 1))


def _at(table, p, m):
    """table[p, m] of a square mask table, as one flat gather (a third of the
    time of numpy's two-array index)."""
    return table.ravel()[np.multiply(p, len(table), dtype=np.intp) + m]


class _OrbitCells:
    def __init__(self, base: SimplicialComplex, action: GroupAction):
        self.dim = base.dim()
        rows, faces = base._simplex_table()
        starts = np.cumsum([0] + [len(level) for level in rows])  # simplex id of each level's row 0
        n = int(starts[-1])
        self._radices = _chain_radices(n, self.dim)
        moved = action.elements
        # one row per group element; per simplex, a row taking it to the least of its orbit
        self._perms = np.concatenate([
            _row_ids(level, np.sort(moved[:, level], axis=2).reshape(-1, d + 1)).reshape(len(moved), -1)
            + starts[d] for d, level in enumerate(rows)], axis=1)
        self._moves = self._perms.argmin(axis=0)
        fixed = self._perms == np.arange(n)
        fixed[fixed.all(axis=1)] = False
        tops, self._stab = np.nonzero(fixed.T)
        self._stab_sizes = np.bincount(tops, minlength=n)
        self._stab_offsets = np.cumsum(self._stab_sizes) - self._stab_sizes
        # mask tables: simplex s's 2^|s| entries (the id of each subset, its move
        # to the least of its orbit) start at _mask_starts[s]; row r of _stab's at _stab_starts[r]
        self._digit, self._subset, self._compress = _mask_tables(self.dim + 1)
        widths = 1 << np.repeat(np.arange(1, len(rows) + 1), np.diff(starts))
        self._mask_starts = np.concatenate([[0], np.cumsum(widths)])
        # a proper subset that misses position i is that subset of face i
        self._sub = np.zeros(self._mask_starts[-1], dtype=np.min_scalar_type(n))
        for d in range(len(rows)):
            full = (2 << d) - 1
            sub = self._sub[self._mask_starts[starts[d]]:self._mask_starts[starts[d + 1]]].reshape(-1, full + 1)
            sub[:, full] = np.arange(starts[d], starts[d + 1])
            if d:
                masks = np.arange(full)
                miss = np.array([((m + 1) & ~m).bit_length() - 1 for m in range(full)])  # lowest one missed
                within = self._compress[full ^ (1 << miss), masks]
                sub[:, :full] = self._sub[self._mask_starts[faces[d][:, miss] + starts[d - 1]] + within]
        self._full = (widths - 1).astype(self._subset.dtype)  # the mask of all of each simplex's positions
        ids = np.arange(n)
        self._move_masks = _position_maps(rows, starts, moved, ids, self._moves, self._perms[self._moves, ids])
        self._stab_masks = _position_maps(rows, starts, moved, tops, self._stab, tops)
        self._stab_starts = np.cumsum(widths[tops]) - widths[tops]
        self.keys = [np.flatnonzero(least := self._perms.min(axis=0) == ids)]
        # automorphisms of each level's cells, as (cell, _stab row), by cell
        stabs = np.flatnonzero(least[tops]).astype(np.int32)
        cells = np.searchsorted(self.keys[0], tops[stabs]).astype(np.int32)
        for d in range(self.dim):
            level, autos = [], []
            for lo in range(0, len(self.keys[d]), _FACE_BLOCK):
                a, b = np.searchsorted(cells, [lo, lo + _FACE_BLOCK])
                children, (cell, stab) = self._children(d, self.keys[d][lo:lo + _FACE_BLOCK], cells[a:b] - lo, stabs[a:b])
                autos.append((cell + sum(map(len, level)), stab))
                level.append(children)
            self.keys.append(np.concatenate(level))
            cells, stabs = (np.concatenate(column) for column in zip(*autos))
            cells, stabs = np.sort(cells).astype(np.int32), stabs[np.argsort(cells)]

    def _children(self, d, parents, owners, stabs):
        """The extensions of the level-d cells ``parents`` that are cells, and their
        automorphisms, by the rule above; automorphisms come as (cell index, _stab row)."""
        tops, masks = self._masks(d, parents)
        last = masks[-1] if d else self._full[tops]
        counts = _at(self._digit, last, last).astype(np.intp)  # the last element's proper subsets
        slots = np.cumsum(counts) - counts  # each parent's first child
        children = np.repeat(parents * self._radices[d] - slots, counts) + np.arange(counts.sum())
        fan = counts[owners]  # one entry per (automorphism, child)
        parent, stab = np.repeat(owners, fan), np.repeat(stabs, fan)
        digit = np.arange(len(parent)) - np.repeat(np.cumsum(fan) - fan, fan)
        image = self._stab_masks[self._stab_starts[stab] + _at(self._subset, last[parent], digit)]
        moved = _at(self._digit, last[parent], image)
        child = slots[parent] + digit
        keep = np.ones(len(children), dtype=bool)
        keep[child[moved < digit]] = False
        drop = np.flatnonzero(~keep)
        fixed = np.flatnonzero((moved == digit) & keep[child])  # the kept children's automorphisms
        return children[keep], (child[fixed] - np.searchsorted(drop, child[fixed]), stab[fixed])

    def cell_counts(self):
        return [len(keys) for keys in self.keys]

    def _ids(self, tops, masks):
        """Simplex ids of subsets (masks) of tops."""
        return self._sub[self._mask_starts[tops] + masks]

    def _masks(self, d, keys):
        """Tops and top-relative masks of packed level-d keys; masks[j] holds
        chain element j + 1's, top-first."""
        masks = np.empty((d, len(keys)), dtype=self._subset.dtype)
        for j in range(d - 1, -1, -1):
            keys, masks[j] = np.divmod(keys, self._radices[j])  # the digits first
        above = self._full[keys]
        for mask in masks:
            above = mask[:] = _at(self._subset, above, mask)
        return keys, masks

    def _encode(self, tops, full, masks, drops=(None,)):
        """Packed keys of chains (tops, their full masks, masks as from _masks):
        row i of the chains without mask row drops[i] (None drops none), which
        share every digit but the one of the row after the dropped one."""
        above = np.concatenate([full[None], masks[:-1]])
        digits = _at(self._digit, above, masks)
        spans = _at(self._digit, above[:-1], masks[1:])  # spans[r]: row r + 1's digit in the row above r
        keys = np.empty((len(drops), len(tops)), dtype=np.int64)
        for key, r in zip(keys, drops):
            r = len(masks) if r is None else r
            key[:] = tops
            for radix, digit in zip(self._radices, itertools.chain(digits[:r], spans[r:r + 1], digits[r + 2:])):
                key *= radix
                key += digit
        return keys

    def _least(self, tops, masks, drops=(None,)):
        """The least packed keys over the images of chains (tops, with masks as
        from _masks) under the stabilizer of their top, itself the least of its
        orbit, one block per drop as in _encode, all from one image per element."""
        full = self._full[tops]
        key = self._encode(tops, full, masks, drops)  # key order is tuple order
        # rows under a nontrivial stabilizer, largest first: the rows whose top
        # has a j-th non-identity element are the first hits[j]
        sizes = self._stab_sizes[tops]
        rows = np.argsort(-sizes)[:np.count_nonzero(sizes)]
        hits = len(tops) - np.cumsum(np.bincount(sizes))[:-1]
        tops, full, masks, best = tops.take(rows), full.take(rows), masks.take(rows, axis=1), key[:, rows]
        starts = self._stab_offsets[tops]
        for j, hit in enumerate(hits):
            image = self._stab_masks.take(self._stab_starts.take(starts[:hit] + j) + masks[:, :hit])
            np.minimum(best[:, :hit], self._encode(tops[:hit], full[:hit], image, drops), out=best[:, :hit])
        key[:, rows] = best
        return key.ravel()

    def faces(self, d):
        """Face array of the d-cells, d >= 1: entry [j, i] is the (d-1)-cell of
        face i of d-cell j, its chain without the i-th element from the bottom,
        looked up _FACE_BLOCK chains at a time.  Faces drop elements of
        distinct sizes, so they lie in distinct orbits."""
        keys, out = self.keys[d], np.empty((len(self.keys[d]), d + 1), dtype=np.int32)
        for lo in range(0, len(keys), _FACE_BLOCK):
            block = keys[lo:lo + _FACE_BLOCK]
            tops, masks = self._masks(d, block)
            second = self._ids(tops, masks[0])  # face d's top, moved to the least of its orbit
            rest = self._move_masks[self._mask_starts[second] + _at(self._compress, masks[0], masks[1:])]
            middle = self._least(tops, masks, range(d - 2, -1, -1)) if d > 1 else block[:0]  # faces 1..d-1 keep the top
            last = self._least(self._perms[self._moves[second], second], rest)
            cells = np.searchsorted(self.keys[d - 1], np.concatenate([block // self._radices[d - 1], middle, last]))
            out[lo:lo + _FACE_BLOCK] = cells.reshape(d + 1, len(block)).T
        return out

    def orbit_space_complex(self) -> SimplicialComplex:
        """Order complex of the orbit cell poset: triangulates the orbit space.

        The orbit cells form a regular CW complex (faces of a chain lie in
        pairwise distinct orbits), so its barycentric subdivision is a
        genuine simplicial complex homeomorphic to the orbit space.
        """
        # face poset: orbit [c'] <= [c] iff some subchain of (a representative
        # of) [c] lies in [c'].  A maximal d-cell is a face of no (d+1)-cell,
        # and its (d+1)! flags drop one element at a time: the paths cell ->
        # faces(d)[cell, i] -> faces(d-1)[., j] -> ...  The group keeps simplex
        # sizes, so face i of a representative drops the same position as face
        # i of any chain in its orbit, and each path is one flag of subchains.
        est = len(self.keys[-1]) * math.factorial(self.dim + 1)  # top cells alone, all maximal
        if est <= _MAX_FACETS:
            faces = [None] + [self.faces(d) for d in range(1, self.dim + 1)] + [np.empty(0, dtype=np.int32)]
            maximal = [np.flatnonzero(np.bincount(up.ravel(), minlength=len(keys)) == 0)
                       for keys, up in zip(self.keys, faces[1:])]
            est = sum(len(cells) * math.factorial(d + 1) for d, cells in enumerate(maximal))
        if est > _MAX_FACETS:
            raise ComplexError(
                f"orbit-space triangulation would need ~{est} facets (> {_MAX_FACETS})")
        cells = [("cell", d, c) for d, keys in enumerate(self.keys) for c in range(len(keys))]
        starts, rows = np.cumsum([0] + self.cell_counts(), dtype=np.int32), {}  # index in cells of each level's 0
        for d, paths in enumerate(maximal):
            paths = paths[:, None].astype(np.int32)  # column j holds (d - j)-cells
            for e in range(d, 0, -1):
                paths = np.column_stack([np.repeat(paths, e + 1, axis=0), faces[e][paths[:, -1]].ravel()])
            if len(paths):
                rows[d + 1] = paths + starts[d::-1]
        # flags of maximal cells are distinct maximal chains
        return SimplicialComplex.__new__(SimplicialComplex)._store(cells, rows)


def _orbit_cells(k: SimplicialComplex, action_generators):
    """Orbit cells of ``k`` under the group generated by vertex maps; None for
    the trivial group, whose quotient is ``k``."""
    action = GroupAction(k, action_generators)
    return None if action.order() == 1 else _OrbitCells(k, action)


def quotient(k: SimplicialComplex, action_generators) -> SimplicialComplex:
    """Quotient of a complex by a finite simplicial group action.

    Subdivides once (making the action rigid on the chain model), forms the
    orbit cell complex, and returns its order complex, which triangulates
    the orbit space.  The trivial group returns the complex unchanged.
    """
    cells = _orbit_cells(k, action_generators)
    return k if cells is None else cells.orbit_space_complex()


def quotient_homology(k: SimplicialComplex, action_generators) -> "HomologyProfile":
    """Integral homology of the orbit space, computed on orbit cells directly."""
    cells = _orbit_cells(k, action_generators)
    return homology(k) if cells is None else _homology_from_boundaries(cells.cell_counts(), cells.faces)


@dataclass
class HomologyProfile:
    """Per-degree free rank and torsion orders (sorted divisibility chain)."""

    degrees: list = field(default_factory=list)  # list of (rank, [torsion orders])

    def rank(self, d: int) -> int:
        return self.degrees[d][0] if 0 <= d < len(self.degrees) else 0

    def torsion(self, d: int):
        return self.degrees[d][1] if 0 <= d < len(self.degrees) else []

    def is_sphere(self, n: int) -> bool:
        """Profile of S^n: free rank 1 in degrees 0 and n, nothing else."""
        return self == sphere_profile(n)

    def to_json_dict(self):
        return {"degree": [{"rank": r, "torsion": list(t)} for r, t in self.degrees]}

    def __eq__(self, other):
        if not isinstance(other, HomologyProfile):
            return NotImplemented
        a, b = ([(r, list(t)) for r, t in p.degrees] for p in (self, other))
        n = max(len(a), len(b))  # trailing zero degrees do not count
        return a + [(0, [])] * (n - len(a)) == b + [(0, [])] * (n - len(b))

    def __repr__(self):
        return "H(" + ", ".join("+".join([f"Z^{r}" if r else "0"] + [f"Z/{x}" for x in t])
                                for r, t in self.degrees) + ")"


def sphere_profile(n: int) -> HomologyProfile:
    return HomologyProfile([(2 if n == 0 else int(d in (0, n)), []) for d in range(n + 1)])


def _homology_from_boundaries(counts, faces):
    """Homology of a chain complex from per-dim cell counts and ``faces(d)``,
    an int array of shape (counts[d], d + 1): entry [j, i] is the (d-1)-cell
    of face i of d-cell j, with sign (-1)^i; distinct faces make it a unit.

    Runs from degree 1 up, clearing in the cohomology direction (de Silva,
    Morozov, Vejdemo-Johansson 2011): delta_d = boundary_{d+1}^T has the same
    SNF, and delta_d delta_{d-1} = 0.  If d-cells P and (d-1)-cells Q index a
    unimodular pivot block of delta_{d-1} (P the unit pivot columns of
    boundary_d), then delta_d[:, P] = -delta_d[:, ~P] delta_{d-1}[~P, Q]
    delta_{d-1}[P, Q]^-1, so dropping the rows P of boundary_{d+1} keeps its
    image lattice and its nonzero SNF diagonal.

    Degree 1 takes a spanning forest of the 1-cells (``_spanning_forest``):
    rank boundary_1 = |forest|, with no torsion, and P = the forest edges, Q =
    the vertices other than the component roots.  delta_0[P, Q] is unimodular:
    match each q in Q with the tree edge to its parent and order both by
    depth; that edge's other vertex is the parent, earlier or a root, so the
    block is triangular with diagonal entries +-1.

    Every higher degree is first peeled in numpy rounds (Kaczynski, Mrozek,
    Slusarek 1998): a line with one live entry is a unit pivot without fill,
    so each round pivots on all of them, on distinct rows and columns, and
    drops their lines, until a round removes under 1/16 of the live entries.
    The rest (a triangle strip's slow collapse, say) goes to
    ``SparseIntMatrix``, linear on singleton chains, as delta_{d-1}'s columns;
    its pivot rows are cleared too.
    """
    dims = len(counts)
    ranks, torsion = [0] * (dims + 1), [[] for _ in range(dims + 1)]  # of boundary_d
    for d in range(1, dims):
        cells = faces(d)
        if any((cells[:, i] == cells[:, j]).any() for j in range(d + 1) for i in range(j)):
            raise ComplexError(f"a {d}-cell has a repeated face")
        if d == 1:
            cleared = _spanning_forest(counts[0], cells)
            ranks[1] = int(np.count_nonzero(cleared))
            continue
        dead, ranks[d], rows, cols, face = _peel(cells, cleared)
        if len(rows):
            cobound = {}
            for r, c, i in zip(rows.tolist(), cols.tolist(), face.tolist()):
                cobound.setdefault(r, {})[c] = (-1) ** i
            mat = SparseIntMatrix(list(cobound.values()), counts[d])
            diag = mat.diagonal_snf()
            ranks[d], torsion[d] = ranks[d] + len(diag), sorted(x for x in diag if x > 1)
            dead[mat.pivot_rows] = True
        cleared = dead
    return HomologyProfile([(counts[d] - ranks[d] - ranks[d + 1], torsion[d + 1])
                            for d in range(dims)])


def _peel(cells, cleared):
    """The unit-pivot peel of boundary_d, d >= 2, from its face array (shape
    (d-cells, d + 1)) and ``cleared``, the mask of (d-1)-cells already pivot
    rows below, which it extends with this degree's pivot rows.  Returns the
    mask of pivot columns (d-cells), their count, and the (row, col, face)
    entries left live, in entry order.

    Every gather from a cell-indexed table and every compaction is a
    ``take`` over chunks of _GATHER_BLOCK entries into a preallocated output.
    ``take`` gathers faster than an index array does, but by an int32 index
    it first copies the whole index to intp; and a boolean mask about half
    dense costs several times flatnonzero plus take.  Row degrees are counted
    by ``np.add.at`` over the same chunks (``np.bincount`` would copy the rows
    to intp), and column degrees read off runs of the sorted columns.
    """
    d = cells.shape[1] - 1
    rows, face = cells.ravel(), np.tile(np.arange(d + 1, dtype=np.int8), len(cells))
    cols = np.repeat(np.arange(len(cells), dtype=np.int32), d + 1)
    dead, rank, before = np.zeros(len(cells), dtype=bool), 0, np.inf  # dead: the d-cells to clear
    # allocated once: the live entries (each round compacts them in place), the
    # unit pivot candidates, and a table over rows, of live degrees and then slots
    out, pivots = [np.empty_like(a) for a in (rows, cols, face)], [np.empty_like(rows), np.empty_like(cols)]
    table = np.empty(len(cleared), dtype=np.intp)
    while True:
        rows, cols, face = out = _select(lambda s: ~(cleared.take(rows[s]) | dead.take(cols[s])),
                                         (rows, cols, face), out)
        if 16 * len(rows) >= 15 * before:  # under 1/16 peeled; a round costs O(live + cells)
            break
        table[:] = 0
        for lo in range(0, len(rows), _GATHER_BLOCK):
            np.add.at(table, rows[lo:lo + _GATHER_BLOCK], 1)
        # cols stays sorted, so each column's live entries are one run: a run
        # of one is a unit pivot, and a run's last entry is its last written
        run = np.ones(len(cols) + 1, dtype=bool)
        np.not_equal(cols[1:], cols[:-1], out=run[1:-1])  # run[i]: a run starts at i, or i = len
        pr, pc = _select(lambda s: (table.take(rows[s]) == 1) | (run[:-1][s] & run[1:][s]),
                         (rows, cols), pivots)
        before, at = len(rows), np.arange(len(pr))
        table[pr] = at
        # one entry per row, the last written; then per column, the last of its
        # run (pc keeps its repeats, which mark the same columns dead)
        pr, pc = _select(lambda s: table.take(pr[s]) == at[s], (pr, pc), (pr, pc))
        last = np.ones(len(pc), dtype=bool)
        np.not_equal(pc[1:], pc[:-1], out=last[:-1])
        pr = pr.take(last.nonzero()[0])
        cleared[pr], dead[pc] = True, True
        rank += len(pr)
    return dead, rank, rows.copy(), cols.copy(), face.copy()  # not views of the full-size buffers


def _select(keep, arrays, out):
    """The entries of equal-length ``arrays`` where ``keep(s)``, a bool array
    over the chunk s of them, holds, written in order to the front of ``out``
    and returned as views.  ``out`` may be ``arrays`` themselves: a chunk's
    entries are taken before they are written, never past the chunk."""
    n = 0
    for lo in range(0, len(arrays[0]), _GATHER_BLOCK):
        s = slice(lo, lo + _GATHER_BLOCK)
        at = keep(s).nonzero()[0]
        for a, o in zip(arrays, out):
            o[n:n + len(at)] = a[s].take(at)
        n += len(at)
    return [o[:n] for o in out]


def _spanning_forest(vertices, edges):
    """A spanning forest of the graph on ``vertices`` with the (E, 2) int
    array ``edges``, as a boolean mask over the edges, in numpy rounds
    (hooking and pointer jumping, Shiloach and Vishkin 1982).  Each round,
    every component with a neighbour of lower label hooks onto the least such
    neighbour through the least-numbered edge to it, so the hooks form a
    forest over the components, and then labels jump to their roots.  A
    component that does not hook has only higher neighbours; each hooks onto
    it or below it, so it merges by the next round, and O(log V) rounds merge
    everything.  The least edge, rather than any, keeps the forest fixed; it
    also lets the degree-2 peel of the sl n = 4 orbit cells run to the end,
    where the greatest edge left 50,216 x 564,160 to sparse elimination."""
    label, forest = np.arange(vertices), np.zeros(len(edges), dtype=bool)
    ids, ends = np.arange(len(edges)), edges
    while True:
        ends = label[ends]
        cross = ends[:, 0] != ends[:, 1]  # an edge inside a component stays inside
        ids, ends = ids[cross], ends[cross]
        if not len(ids):
            return forest
        # per higher label, the least (lower label, edge id) packed in one int
        none = vertices * len(edges)
        least = np.full(vertices, none)
        np.minimum.at(least, ends.max(axis=1), ends.min(axis=1) * len(edges) + ids)
        hooked = np.flatnonzero(least < none)
        label[hooked], edge = np.divmod(least[hooked], len(edges))
        forest[edge] = True
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def homology(k: SimplicialComplex) -> HomologyProfile:
    """Simplicial homology with integer coefficients via Smith normal form."""
    rows, faces = k._simplex_table()
    return _homology_from_boundaries([len(level) for level in rows], faces.__getitem__)


# --------------------------------------------------------------------------
# Fans -> complexes
# --------------------------------------------------------------------------

def link_complex(fan: Fan) -> SimplicialComplex:
    """Link of a fan: vertices are rays, facets are the non-zero maximal cones
    of its derived subdivision, the pieces of ``_derived_pieces``."""
    facets = _derived_pieces([fan.cone_geometry(c).rays for c in fan.maximal_cones()], fan.rank)
    if not facets:
        raise ComplexError("link of the zero fan is empty")
    return SimplicialComplex.from_facets(facets)


# --------------------------------------------------------------------------
# Character-variety pipelines
# --------------------------------------------------------------------------

def _gl_join_and_action(n: int):
    k = join_all([cycle_complex(4) for _ in range(n)])
    gens = []
    if n >= 2:  # swap the first two factors
        gens.append({(i, v): ((1, v) if i == 0 else (0, v) if i == 1 else (i, v)) for (i, v) in k.vertices})
    if n >= 3:  # cycle the factors
        gens.append({(i, v): ((i + 1) % n, v) for (i, v) in k.vertices})
    return k, gens


def _sl_link_and_action(n: int):
    """The sl link and its block permutations, fresh from a link built once per n."""
    facets, gens = _sl_link_data(n)
    return SimplicialComplex.from_facets(facets), [dict(g) for g in gens]


@lru_cache(maxsize=None)
def _sl_link_data(n: int):
    """The link facets as sorted ray tuples and each generator as (ray, image) pairs.

    The kernel fan cuts each maximal cone of the model fan of (P^1 x P^1)^n,
    a sign orthant of Z^2n listed in the product fan's order, with the
    kernel: the cone dual to the orthant's signed coordinates of the
    difference basis.  The opposite orthant gives the negated cone.  No
    ``Fan`` is built: a cut cone inside another is a face of it."""
    # ker alpha_n = {sum x_i = 0, sum y_i = 0}; saturated difference basis e[2i + t] - e[2i + 2 + t]
    basis = [tuple((j == 2 * i + t) - (j == 2 * i + 2 + t) for j in range(2 * n))
             for i in range(n - 1) for t in (0, 1)]
    k, signs = len(basis), [sum(s, ()) for s in itertools.product(((1, 1), (1, -1), (-1, 1), (-1, -1)), repeat=n)]
    # kernel coordinates c lie in the orthant s when sum_i c_i s_j basis[i][j] >= 0 for every j
    half = [tuple(dual_rays([[x * b[j] for b in basis] for j, x in enumerate(s)], k))
            for s in signs[:len(signs) // 2]]
    # the orthant listed 4^n - 1 - i is minus the one listed i
    cones = half + [tuple(sorted(tuple(-x for x in r) for r in rays)) for rays in reversed(half)]
    facets = _derived_pieces([tuple(sorted(c)) for c in maximal_sets(dict.fromkeys(map(frozenset, cones)))], k)
    # block permutations of (x_i, y_i) expressed in kernel coordinates
    perms = []
    if n >= 2:
        perms.append({0: 1, 1: 0, **{i: i for i in range(2, n)}})
    if n >= 3:
        perms.append({i: (i + 1) % n for i in range(n)})

    def moved(p, ray):
        # w = sum_j ray[j] p(basis[j]), with basis[2i + t] = e[2i + t] - e[2i + 2 + t]
        w = [0] * (2 * n)
        for j, c in enumerate(ray):
            i, t = divmod(j, 2)
            w[2 * p[i] + t] += c
            w[2 * p[i + 1] + t] -= c
        # its difference-basis coordinates are the prefix sums of its x- and
        # y-parts, the last of which are 0
        sums = zip(itertools.accumulate(w[0::2]), itertools.accumulate(w[1::2]))
        return primitive([c for xy in list(sums)[:-1] for c in xy])

    rays = sorted(set().union(*facets), key=str)
    return tuple(facets), tuple(tuple((ray, moved(p, ray)) for ray in rays) for p in perms)


def _character_variety_action(group: str, n: int):
    """The complex and the generators of the group acting on it.

    gl: (n-fold join of 4-cycles) / factor permutations; sl: link of the
    kernel fan of the coordinatewise sum map, quotiented the same way.
    """
    limits = {"gl": (1, 4), "sl": (2, 4)}  # sl needs n >= 2
    if group not in limits:
        raise ComplexError(f"unknown group {group!r}")
    lo, hi = limits[group]
    if not lo <= n <= hi:
        raise ComplexError(f"desk scale handles {group} with {lo} <= n <= {hi}")
    return (_gl_join_and_action if group == "gl" else _sl_link_and_action)(n)


def character_variety_complex(group: str, n: int) -> SimplicialComplex:
    """Quotient complex underlying the genus-one character-variety boundary."""
    return quotient(*_character_variety_action(group, n))


def character_variety_homology(group: str, n: int) -> HomologyProfile:
    """Homology profile of the orbit space, via orbit cells (no triangulation)."""
    return quotient_homology(*_character_variety_action(group, n))


# --------------------------------------------------------------------------
# Sphere quotient map (numeric check)
# --------------------------------------------------------------------------

def _monic_coefficients(z):
    """prod_i (w - z_i) for each row z of an (N, n) array, degree n-1 .. 0 (leading 1 dropped)."""
    poly = np.zeros((len(z), z.shape[1] + 1), dtype=complex)
    poly[:, 0] = 1.0
    for i in range(z.shape[1]):
        poly[:, 1:] -= z[:, i:i + 1] * poly[:, :-1]
    return poly[:, 1:]


def _sphere_images(z, tolerance):
    """The sphere map of ``sphere_quotient_map_check`` on each row of z."""
    c = _monic_coefficients(z)
    r = np.abs(c)
    phi = r ** (1.0 / np.arange(1, c.shape[1] + 1)) * (c / np.where(r > 0, r, 1.0))  # c = 0 where r = 0
    nv = np.linalg.norm(phi, axis=1)
    if np.any(nv < tolerance):
        raise ArithmeticError("map degenerate at a sample (zero coefficient vector)")
    return phi / nv[:, None]


def _close_pairs(images, tolerance):
    """Index pairs (a, b), a < b, with sum |images[a] - images[b]|^2 <= tolerance^2:
    close images have keys (first-coordinate real parts) within tolerance, so in
    key order each image meets only those within 2 * tolerance ahead, one batched
    step per offset.  O(N log N) time, O(N) memory while keys do not crowd."""
    order = np.argsort(images[:, 0].real, kind="stable")
    key = images[order, 0].real
    ahead = np.searchsorted(key, key + 2 * tolerance, side="right") - np.arange(len(key)) - 1
    pairs = [np.empty((0, 2), dtype=np.intp)]
    for step in range(1, int(ahead.max(initial=0)) + 1):
        i = np.flatnonzero(ahead >= step)
        d2 = np.sum(np.abs(images[order[i]] - images[order[i + step]]) ** 2, axis=1)
        hit = i[d2 <= tolerance ** 2]
        pairs.append(np.sort(np.stack([order[hit], order[hit + step]], axis=1), axis=1))
    return np.concatenate(pairs)


def sphere_quotient_map_check(n: int, samples, tolerance: float = 1e-9):
    """Numeric verification of the symmetric-quotient sphere map.

    The map sends unit vectors z in C^n to the normalized vector whose j-th
    entry is the coefficient of the degree-(n-j) term of prod (w - z_i),
    with the modulus replaced by its j-th root.  Checks: permutation orbits
    collapse, sampled distinct orbits stay distinct, images are unit vectors.

    The tolerance is also the degeneracy threshold of the map, so it must
    pass ``check_sphere_tolerance``.
    """
    pts = np.asarray(samples, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != n or len(pts) == 0:
        raise ValueError("samples must be a nonempty (N, n) complex array")
    check_sphere_tolerance(n, tolerance)
    if not np.all(np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= tolerance):  # NaN fails too
        raise ValueError("sample points must lie on the unit sphere")
    images = _sphere_images(pts, tolerance)
    # the same stream as one rng.permutation(n) per sample, in sample order
    perms = np.random.default_rng(20960).permuted(np.tile(np.arange(n), (len(pts), 1)), axis=1)
    moved = _sphere_images(np.take_along_axis(pts, perms, axis=1), tolerance)
    orbit_failures = int(np.sum(np.linalg.norm(moved - images, axis=1) > tolerance))
    unit_failures = int(np.sum(np.abs(np.linalg.norm(images, axis=1) - 1.0) > tolerance))

    # sampled injectivity: a pair with (near-)equal images must be one orbit,
    # i.e. have (near-)equal samples once each is sorted by (real, imag)
    canon = np.take_along_axis(pts, np.lexsort((pts.imag, pts.real)), axis=1)
    a, b = _close_pairs(images, tolerance).T
    injectivity_failures = int(np.sum(~(np.max(np.abs(canon[a] - canon[b]), axis=1) < 1e-6)))
    return {
        "n": n,
        "samples": len(pts),
        "orbit_collapse_failures": orbit_failures,
        "injectivity_failures": injectivity_failures,
        "unit_norm_failures": unit_failures,
        "passed": orbit_failures == 0 and injectivity_failures == 0 and unit_failures == 0,
        "tolerance": tolerance,
    }


def check_sphere_tolerance(n: int, tolerance: float):
    """Refuses (ValueError) a sphere-check tolerance not below 1/(1 + 2 sqrt(n)).

    Below it no sample trips the degeneracy threshold: every root of a monic
    polynomial has modulus at most 2 max_j |c_j|^(1/j) (Fujiwara 1916), and a
    sample within the tolerance of the unit sphere has an entry of modulus at
    least (1 - tolerance)/sqrt(n), so its image has norm above the tolerance.
    """
    if not tolerance * (1 + 2 * math.sqrt(n)) < 1:  # NaN and inf fail too
        raise ValueError(f"tolerance {tolerance} is not below 1/(1 + 2 sqrt(n)) = "
                         f"{1 / (1 + 2 * math.sqrt(n)):.4g} at n = {n}")
