"""Exact rational polyhedral geometry: cones, fans, dual cones, Hilbert bases.

All cones are rational and stored by primitive ray generators in canonical
(lexicographically sorted) order, so cone equality is tuple comparison.
Kernels and span coordinates come from the integer Smith normal form in
``lattice``, ranks from one fraction-free Gauss-Jordan pass, and every dual
cone from double description in integers, straight in Z^rank when the
vectors span it; no Fraction arithmetic happens here.  Independent
generators are their cone's extreme rays.  A cone's walls, the rays of its
dual, are computed once per ray tuple, and so are its facets as masks of
the rays on them.  Faces, face tests, pointedness, the Hilbert basis's
membership test and the facets of each face, its maximal meets with them,
are read off those, so triangulations recurse over faces with no second
dualization; parallelepiped points come off a Smith normal form.  Each cone
a fan holds is the index set of its extreme rays; ambient ranks stay <= 8.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

from .lattice import (
    _gauss_jordan,
    identity,
    int_kernel_basis,
    primitive,
    saturation_quotient_map,
    snf_with_transforms,
    span_snf,
    transpose,
)
from .rationals import json_value

DIM_LIMIT = 8
_MAX_INDEX = 1 << 20  # Hilbert basis bound: lattice indices summed over the simplicial pieces


class DimensionLimitError(ValueError):
    pass


class NotPointedError(ValueError):
    pass


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _check_rank(rank: int):
    if rank > DIM_LIMIT:
        raise DimensionLimitError(f"ambient rank {rank} exceeds desk-scale limit {DIM_LIMIT}")


def dual_rays(vectors, rank):
    """Generators of {m : <m, v> >= 0 for all v}, the cone dual to cone(vectors),
    sorted: one double description, straight in Z^rank when the vectors span
    Q^rank.  Otherwise the lineality space (span of the vectors)^perp gives
    +- pairs of basis vectors, and the pointed part is double description in
    coordinates on the span, lifted back to Z^rank.
    """
    _check_rank(rank)
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        basis = identity(rank)
        return [tuple(b) for b in basis] + [tuple(-x for x in b) for b in basis]
    rays = _double_description(vectors, rank)
    if rays is not None:
        return sorted(rays)
    out = [primitive(x) for b in int_kernel_basis(vectors) for x in (b, [-y for y in b])]
    # the first s rows of u are coordinates on span(vectors), and y . u
    # extends a functional y on them by 0 on a complement
    u, diag = span_snf(vectors)
    u = u[:len(diag)]
    rays = _double_description([tuple(dot(row, v) for row in u) for v in vectors], len(u))
    return sorted(set(out + [primitive([dot(y, col) for col in zip(*u)]) for y in rays]))


def _double_description(rows, s):
    """Extreme rays of the pointed cone {y : <y, a> >= 0 for a in rows} by
    double description (Motzkin-Raiffa-Thompson-Thrall 1953; Fukuda-Prodon
    1996), or None when the rows do not span Q^s; a ray carries the mask of
    rows tight on it.

    The first s independent rows (the pivots of one fraction-free Gauss-Jordan
    pass over [rows^T | I]) cut out a simplicial cone whose rays are their
    adjugate columns, and s rows stop there.  Each further row a keeps the
    rays y with <y, a> >= 0 and adds <p, a> n - <n, a> p for each p, n with
    <p, a> > 0 > <n, a> that are adjacent: no third ray is tight on every
    row tight on both.
    """
    k = len(rows)
    red, basis, d, _ = _gauss_jordan([list(c) + e for c, e in zip(zip(*rows), identity(s))], k)
    if len(basis) < s:
        return None
    full = sum(1 << i for i in basis)
    # reduced row t: d on rows[basis[t]], 0 on the other basis rows
    rays = {primitive([d * x for x in row[k:]]): full & ~(1 << j) for row, j in zip(red, basis)}
    for i, a in enumerate(rows):
        if full >> i & 1:
            continue
        value = {y: dot(y, a) for y in rays}
        kept = {y: z | 1 << i if value[y] == 0 else z for y, z in rays.items() if value[y] >= 0}
        for (p, zp), (n, zn) in itertools.product(rays.items(), repeat=2):
            common = zp & zn
            if value[p] > 0 > value[n] and common.bit_count() >= s - 2 and not any(
                    z & common == common for y, z in rays.items() if y != p and y != n):
                kept[primitive([value[p] * x - value[n] * w for x, w in zip(n, p)])] = common | 1 << i
        rays = kept
    return list(rays)


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone given by primitive extreme-ray generators.

    Canonical form: rays primitive, deduplicated, lexicographically sorted.
    ``rays`` may contain +-v pairs when the cone has lineality (duals of
    non-full-dimensional cones); such cones are carried but most operations
    (Hilbert basis, fan membership) require pointedness.
    """

    rays: tuple
    rank: int

    @staticmethod
    def from_generators(generators, rank) -> "Cone":
        _check_rank(rank)
        gens = tuple(sorted({primitive(g) for g in generators if any(g)}))
        if len(gens) <= rank and len(_gauss_jordan(gens, rank)[1]) == len(gens):
            return Cone(rays=gens, rank=rank)  # independent: each is an extreme ray
        # extreme rays via double dualization (canonical for pointed cones)
        return Cone(rays=_walls(_walls(gens, rank), rank), rank=rank)

    def dim(self) -> int:
        return len(_gauss_jordan(self.rays, self.rank)[1])

    def facet_normals(self):
        """H-representation; includes +- pairs forcing span membership."""
        return _walls(self.rays, self.rank)

    def is_pointed(self) -> bool:
        return () in _faces(self.rays, self.rank)

    def __repr__(self):
        return f"Cone{list(map(list, self.rays))}"


def dual_cone(c: Cone) -> Cone:
    """The cone of linear functionals nonnegative on ``c``."""
    _check_rank(c.rank)
    return Cone(rays=_walls(c.rays, c.rank), rank=c.rank)


@lru_cache(maxsize=None)
def _walls(rays, rank):
    """The rays of the dual of the cone on ``rays``, sorted: its facet
    normals and the +- pairs of its lineality, once per ray tuple."""
    return tuple(sorted(dual_rays(rays, rank)))


@lru_cache(maxsize=None)
def _facets(rays, rank):
    """The facets of the cone on the sorted ``rays`` as masks of the rays on
    them, bit i for rays[i]: the walls that are not zero on every ray."""
    masks = (sum(1 << i for i, r in enumerate(rays) if dot(m, r) == 0) for m in _walls(rays, rank))
    return tuple(w for w in masks if w != (1 << len(rays)) - 1)


@lru_cache(maxsize=None)
def _faces(rays, rank):
    """Ray tuples of the faces of the cone on the sorted ``rays``, by size
    then rays: every subset of independent rays, otherwise the closure of
    the cone under intersection with its facets, one facet at a time.  The
    least face is the lineality space, so () is a face exactly when the cone
    is pointed."""
    if len(_gauss_jordan(rays, rank)[1]) == len(rays):
        return tuple(f for size in range(len(rays) + 1) for f in itertools.combinations(rays, size))
    faces = {(1 << len(rays)) - 1}
    for w in _facets(rays, rank):
        faces |= {f & w for f in faces}
    faces = (tuple(r for i, r in enumerate(rays) if f >> i & 1) for f in faces)
    return tuple(sorted(faces, key=lambda f: (len(f), f)))


def _facet_masks(face, walls):
    """The facets of a face of a pointed cone as ray masks: the maximal
    proper meets of the mask ``face`` with the cone's facet masks ``walls``,
    since every face of a face is a face of the cone."""
    meets = dict.fromkeys(face & w for w in walls if face & w != face)
    return [m for m in meets if not any(m != o and m & o == m for o in meets)]


def _simplicial_subcones(rays, rank):
    """Triangulate a pointed cone into simplicial subcones on its rays: the
    cones from its first ray over the triangulated facets that miss it.  A
    pointed cone is simplicial exactly when each facet misses one ray."""
    def cut(face, facets):
        if all((face & ~f).bit_count() == 1 for f in facets):
            return [face]
        apex = face & -face  # the face's first ray
        return [sub | apex for f in facets if not f & apex for sub in cut(f, _facet_masks(f, walls))]

    walls = _facets(rays, rank)  # the facets of the cone itself
    return [tuple(r for i, r in enumerate(rays) if m >> i & 1) for m in cut((1 << len(rays)) - 1, walls)]


def _class_group(rays):
    """(d, V) from the Smith normal form U R V = D of the independent
    ``rays`` as the columns of R: (span of R meet Z^rank) / R Z^s is the
    product of the Z / d_i, so its order, the lattice index of the rays, is
    the product of d."""
    _, d, v = snf_with_transforms(transpose(rays))
    return [d[i][i] for i in range(len(rays))], v


def _parallelepiped_points(rays, group, walls):
    """Lattice points of {sum t_i r_i : 0 <= t_i < 1} for independent rays,
    one per class, mapped to their values on ``walls``: the point of class
    c in prod [0, d_i) has t = V D^-1 c mod 1.  Every d_i divides the last
    one, e, so e t is sum_i c_i (e / d_i) V_i mod e, and only the d_i > 1
    contribute.  A mixed-radix walk steps one digit at a time, carrying e t
    and e p with its wall values, less e r_j and its values where e t_j wraps."""
    diag, v = group
    e, rank = diag[-1], len(rays[0])
    units = [list(r) + [dot(m, r) for m in walls] for r in rays]  # r_j and its wall values
    steps = [(d, [row[i] * (e // d) % e for row in v]) for i, d in enumerate(diag) if d > 1]
    deltas = [[sum(c * u for c, u in zip(col, column)) for column in zip(*units)] for _, col in steps]
    t, scaled, digits, points = [0] * len(rays), [0] * len(units[0]), [0] * len(steps), {}
    for _ in range(math.prod(d for d, _ in steps)):
        point = [x // e for x in scaled]
        points[tuple(point[:rank])] = tuple(point[rank:])
        for k in range(len(steps) - 1, -1, -1):  # step the last digit, carrying past each wrap
            scaled = [x + y for x, y in zip(scaled, deltas[k])]
            for j, c in enumerate(steps[k][1]):
                wrap, t[j] = divmod(t[j] + c, e)
                if wrap:
                    scaled = [x - e * y for x, y in zip(scaled, units[j])]
            digits[k] = (digits[k] + 1) % steps[k][0]
            if digits[k]:
                break
    return points


def hilbert_basis(c: Cone):
    """Unique minimal generating set of the monoid of lattice points of ``c``.

    Bounded enumeration: candidates are the primitive rays plus the lattice
    points of the fundamental parallelepipeds of a triangulation, one per
    class of the piece's lattice modulo its rays; reduction removes every
    element that splits as a sum of two nonzero monoid points, comparing
    the values the candidates take on the walls of ``c``, read off the
    class walk.  The class counts are summed first, and past ``_MAX_INDEX``
    nothing is enumerated.
    """
    if not c.is_pointed():
        raise NotPointedError("Hilbert basis requires a pointed cone (units present)")
    if not c.rays:
        return []
    pieces = [(sub, _class_group(sub)) for sub in _simplicial_subcones(c.rays, c.rank)]
    index = sum(math.prod(group[0]) for _, group in pieces)
    if index > _MAX_INDEX:
        raise DimensionLimitError(
            f"the simplicial pieces have lattice index {index}, over the desk-scale {_MAX_INDEX}")
    normals = c.facet_normals()
    values = {v: tuple(dot(m, v) for m in normals) for v in c.rays}
    for sub, group in pieces:
        values.update(_parallelepiped_points(sub, group, normals))
    values.pop((0,) * c.rank)
    ordered = sorted(values, key=lambda v: (sum(values[v]), v))
    basis = []
    for x in ordered:  # reducible when x - y is in the cone (0 included): no wall value of x below y's
        if not any(all(a >= b for a, b in zip(values[x], values[y])) for y in basis):
            basis.append(x)
    return sorted(basis)


class FanError(ValueError):
    pass


def maximal_sets(sets):
    """The members of a collection of frozensets that no other member
    strictly contains, in collection order.

    Only a larger set strictly contains f, and if one does, a maximal one
    does.  So sizes run from the largest down, and f is compared only with
    the maximal sets of larger sizes that hold the element of f the fewest
    of them hold.  Sets of the smallest size are not indexed, so a family of
    one size does no subset test.
    """
    sets, by_size = list(sets), {}
    for i, f in enumerate(sets):
        by_size.setdefault(len(f), []).append(i)
    keep, at, larger = [], {}, []
    for size in sorted(by_size, reverse=True):
        found = [i for i in by_size[size] if not larger or not any(
            sets[i] < g for g in min((at.get(v, ()) for v in sets[i]), key=len, default=larger))]
        keep += found
        if size > min(by_size):
            for f in map(sets.__getitem__, found):
                larger.append(f)
                for v in f:
                    at.setdefault(v, []).append(f)
    return [sets[i] for i in sorted(keep)]


def _sorted_cones(cones):
    """Ray-index sets, deduplicated, with the zero cone, by size then indices."""
    return sorted({frozenset(c) for c in cones} | {frozenset()}, key=lambda c: (len(c), sorted(c)))


class Fan:
    """Finite fan: shared primitive ray pool plus cones as ray-index sets.

    Cones are pointed, so the extreme-ray index set determines the cone.
    The zero cone (empty index set) is always present.  Rays are distinct,
    each declared index set must be the extreme rays of a pointed cone, and
    the faces of every cone are added; ``from_cones`` adds them the same way.
    """

    def __init__(self, rank: int, rays=None, cones=None):
        _check_rank(rank)
        self.rank = rank
        self.rays = [tuple(r) for r in (rays or [])]
        self._ray_index = {r: i for i, r in enumerate(self.rays)}
        if len(self._ray_index) < len(self.rays):  # one ray under two indices makes two cones of one
            a, b = next((i, self._ray_index[r]) for i, r in enumerate(self.rays) if self._ray_index[r] != i)
            raise FanError(f"rays {a} and {b} are equal: {list(self.rays[a])}")
        self.cones = _sorted_cones(cones or [])
        for idx in list(self.cones):
            c = Cone.from_generators([self.rays[i] for i in idx], rank)
            if set(c.rays) != {self.rays[i] for i in idx}:
                raise FanError(f"generators {sorted(idx)} are not the extreme rays of their cone")
            self._add_cone_with_faces(c)
        self.cones = _sorted_cones(self.cones)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_cones(cones, rank) -> "Fan":
        fan = Fan(rank)
        for c in cones:
            fan._add_cone_with_faces(c)
        fan.cones = _sorted_cones(fan.cones)
        return fan

    def _add_cone_with_faces(self, c: Cone):
        faces = _faces(c.rays, c.rank)
        if faces[0]:  # the least face is the lineality space
            raise FanError(f"fan cones must be pointed: {c}")
        # new rays, primitive as a Cone's are, are numbered in the order the sorted faces first list them
        for r in dict.fromkeys(r for face in faces for r in face):
            if r not in self._ray_index:
                self._ray_index[r] = len(self.rays)
                self.rays.append(r)
        for face in faces:
            self.cones.append(frozenset(self._ray_index[r] for r in face))

    # -- geometry ------------------------------------------------------

    def cone_geometry(self, idx) -> Cone:
        # every index set held is the extreme rays of its cone, all primitive
        return Cone(rays=tuple(sorted(self.rays[i] for i in idx)), rank=self.rank)

    def dim(self) -> int:
        return max((self.cone_geometry(c).dim() for c in self.cones), default=0)

    def maximal_cones(self):
        return maximal_sets(self.cones)

    def _is_face(self, small, big) -> bool:
        return small <= big and self.cone_geometry(small).rays in _faces(
            self.cone_geometry(big).rays, self.rank)

    def validate(self):
        """Check that maximal cones meet in a common face, and that every
        cone is a face of each maximal cone holding its rays.  Faces of a
        cone meet in faces, so then any two cones do."""
        maximal = self.maximal_cones()
        for a, b in itertools.combinations(maximal, 2):
            ca, cb = self.cone_geometry(a), self.cone_geometry(b)
            # the meet of two pointed cones is pointed: these are its extreme rays
            meet = tuple(dual_rays(ca.facet_normals() + cb.facet_normals(), self.rank))
            if meet not in _faces(ca.rays, self.rank) or meet not in _faces(cb.rays, self.rank):
                raise FanError(f"intersection of {sorted(a)} and {sorted(b)} is not a common face")
        for c, m in itertools.product(self.cones, maximal):
            if c <= m and not self._is_face(c, m):
                raise FanError(f"cone {sorted(c)} lies in the cone {sorted(m)} but is not a face of it")

    # -- serialization ---------------------------------------------------

    def to_json_dict(self):
        order = sorted(range(len(self.rays)), key=lambda i: self.rays[i])
        renum = {old: new for new, old in enumerate(order)}
        return {
            "schema": "1",
            "rank": self.rank,
            "rays": [list(self.rays[i]) for i in order],
            "cones": sorted([sorted(renum[i] for i in c) for c in self.cones],
                            key=lambda c: (len(c), c)),
        }

    @staticmethod
    def from_json_dict(doc) -> "Fan":
        rank = doc["rank"]
        if type(rank) is not int or rank < 0:
            raise FanError(f"rank {rank!r} is not an integer >= 0")
        for key in ("rays", "cones"):
            json_value(doc[key], key, FanError, list)
        shape = f"a list of {rank} integers"
        for r in doc["rays"]:
            if len(json_value(r, "ray", FanError, list, int, shape)) != rank:
                raise FanError(f"ray {r!r} is not {shape}")
        rays = [tuple(r) for r in doc["rays"]]
        for c in doc["cones"]:
            json_value(c, "cone", FanError, list, what="a list of ray indices")
            bad = [i for i in c if type(i) is not int or not 0 <= i < len(rays)]
            if bad:
                raise FanError(f"cone {c}: {bad[0]!r} is not an index into the {len(rays)} rays")
        fan = Fan(rank, rays, [frozenset(c) for c in doc["cones"]])
        fan.validate()
        for r in rays:  # a ray in no cone has not been through a Cone yet
            if math.gcd(*r) != 1:
                raise FanError(f"ray {list(r)} is not primitive")
        return fan

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()

    def __repr__(self):
        return f"Fan(rank={self.rank}, rays={len(self.rays)}, cones={len(self.cones)})"


def cone_faces(c: Cone):
    """All faces of a pointed cone (including 0 and the cone itself)."""
    return [Cone(rays=f, rank=c.rank) for f in _faces(c.rays, c.rank)]


def star_fan(fan: Fan, sigma) -> Fan:
    """Fan in N / <sigma> whose cones are images of the cones containing sigma."""
    sigma = frozenset(sigma)
    if sigma not in set(map(frozenset, fan.cones)):
        raise FanError("sigma is not a cone of the fan")
    span_rays = [list(fan.rays[i]) for i in sigma]
    proj = saturation_quotient_map(span_rays, fan.rank)
    new_rank = len(proj)
    cones = []
    for tau in fan.cones:
        if not sigma <= frozenset(tau):
            continue
        imgs = [tuple(dot(row, fan.rays[i]) for row in proj) for i in tau]
        cones.append(Cone.from_generators(imgs, new_rank))
    return Fan.from_cones(cones, new_rank)


def compactified_fan_strata(fan: Fan):
    """One stratum per cone: (sigma, star fan of sigma in the quotient lattice).

    The zero-cone stratum is the fan itself; deeper cones give the boundary
    strata of the compactified fan.
    """
    return [(fan.cone_geometry(sigma), star_fan(fan, sigma)) for sigma in fan.cones]


def _derived_pieces(cones, rank):
    """The non-zero maximal cones of the derived subdivision of the fan with
    the maximal ``cones`` (sorted ray tuples), as ray tuples: the fan starred
    once at the barycentre ray of each non-simplicial cone, largest dimension
    first.  That cuts each maximal cone by recursion over its faces: a face
    H of dimension d is one piece when it has d rays, its rays plus the
    barycentres collected above it; otherwise H's barycentre is collected
    and each facet of H, of dimension d - 1, is cut the same way.  Only the
    non-simplicial maximal cones are dualized; ``cut`` memoizes the pieces
    below each face, less the barycentres above it."""
    memo = {}

    def cut(rays, face, dim):
        key = tuple(r for i, r in enumerate(rays) if face >> i & 1)
        if key not in memo:
            if len(key) == dim:
                memo[key] = [key]
            else:  # reached only below a non-simplicial maximal cone, the only ones dualized
                centre = primitive([sum(col) for col in zip(*key)])
                memo[key] = [p + (centre,) for f in _facet_masks(face, _facets(rays, rank))
                             for p in cut(rays, f, dim - 1)]
        return memo[key]

    pieces = []
    for rays in cones:
        dim = len(_gauss_jordan(rays, rank)[1])
        pieces += [tuple(sorted(p)) for p in cut(rays, (1 << len(rays)) - 1, dim) if p]
    return pieces


def intersect_fan_subspace(fan: Fan, basis) -> Fan:
    """Fan {tau meet V} on the subspace V spanned by a saturated lattice basis.

    Result cones are expressed in the basis coordinates: a point c stands
    for sum_i c_i b_i in the ambient lattice.
    """
    basis = [tuple(b) for b in basis]
    diag = span_snf(basis)[1] if basis else []
    if len(diag) != len(basis):
        raise FanError("subspace basis is not linearly independent")
    if any(x != 1 for x in diag):
        raise FanError("subspace lattice is not saturated; coordinates would be fractional")
    k = len(basis)
    cones = {}
    for tau in fan.maximal_cones():
        restricted = [tuple(dot(m, b) for b in basis) for m in fan.cone_geometry(tau).facet_normals()]
        # tau meet V is pointed, so these are its extreme rays
        rays = tuple(dual_rays(restricted, k))
        cones.setdefault(rays, Cone(rays=rays, rank=k))
    return Fan.from_cones(list(cones.values()), k)


# -- standard fans used by fixtures and tests ---------------------------

def fan_p2() -> Fan:
    rays = [(1, 0), (0, 1), (-1, -1)]
    return Fan(2, rays, [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})])


def fan_p1() -> Fan:
    return Fan(1, [(1,), (-1,)], [frozenset({0}), frozenset({1})])


def fan_p1xp1() -> Fan:
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    quads = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({0, 3})]
    return Fan(2, rays, quads)


def fan_a2() -> Fan:
    return Fan(2, [(1, 0), (0, 1)], [frozenset({0, 1})])


def product_fan(f1: Fan, f2: Fan) -> Fan:
    """Product fan in the direct-sum lattice; cones are products of cones."""
    rank = f1.rank + f2.rank
    rays = [r + (0,) * f2.rank for r in f1.rays] + [(0,) * f1.rank + r for r in f2.rays]
    shift = len(f1.rays)
    cones = []
    for c1 in f1.cones:
        for c2 in f2.cones:
            cones.append(frozenset(c1) | frozenset(i + shift for i in c2))
    return Fan(rank, rays, cones)
