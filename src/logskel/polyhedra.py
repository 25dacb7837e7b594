"""Exact rational polyhedral geometry: cones, fans, dual cones, Hilbert bases.

All cones are rational and stored by primitive ray generators in canonical
(lexicographically sorted) order, so cone equality is tuple comparison.
Ranks, kernels and span coordinates come from the integer Smith normal
form in ``lattice``, facet normals from integer maximal minors; Fractions
appear only in the parallelepiped membership test of the Hilbert basis.
Declared and built fans are closed under faces by one helper, and each
cone a fan holds is the index set of its extreme rays, so the fan reads a
cone's geometry off its rays.  ``derived_subdivision`` refines a fan to a
simplicial one in a single pass.  Ambient ranks stay small (<= 8).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .lattice import (
    det,
    identity,
    int_kernel_basis,
    primitive,
    rat_solve,
    saturation_quotient_map,
    span_snf,
    transpose,
)

DIM_LIMIT = 8


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
    """Generators of {m : <m, v> >= 0 for all v}, the cone dual to cone(vectors).

    The pointed part is computed in coordinates on the span of the vectors
    (dimension s): each (s-1)-subset of the input gives the candidate
    normal y_j = (-1)^j det(subset without column j), the vector of signed
    maximal minors, which is zero exactly when the subset has rank below
    s-1.  The lineality space (span of the vectors)^perp is appended as +-
    pairs of basis vectors.
    """
    _check_rank(rank)
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        basis = identity(rank)
        return [tuple(b) for b in basis] + [tuple(-x for x in b) for b in basis]

    # lineality of the dual = orthogonal complement of span(vectors)
    perp = int_kernel_basis([list(v) for v in vectors])
    out = []
    for b in perp:
        out.append(primitive(b))
        out.append(primitive([-x for x in b]))

    # pointed part, computed inside span(vectors)
    u, diag = span_snf(vectors)
    s = len(diag)
    # rows of u are a unimodular change of coordinates; the first s rows
    # restrict to coordinates on span(vectors).
    vecs_s = [tuple(dot(u[i], v) for i in range(s)) for v in vectors]
    rays_s = set()
    for subset in itertools.combinations(vecs_s, s - 1) if s else ():
        y = primitive([(-1) ** j * det([v[:j] + v[j + 1:] for v in subset]) for j in range(s)])
        if not any(y):
            continue
        if all(dot(y, v) >= 0 for v in vecs_s):
            rays_s.add(y)
        if all(dot(y, v) <= 0 for v in vecs_s):
            rays_s.add(tuple(-x for x in y))
    # lift y (functional on span coordinates) back to Z^rank: y . (first s
    # rows of u) is an integer functional extending y by 0 on the complement.
    for y in rays_s:
        lifted = tuple(sum(y[i] * u[i][j] for i in range(s)) for j in range(rank))
        out.append(primitive(lifted))
    return sorted(set(out))


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
        gens = [primitive(g) for g in generators if any(g)]
        if not gens:
            return Cone(rays=(), rank=rank)
        # extreme rays via double dualization (canonical for pointed cones)
        halfspaces = dual_rays(gens, rank)
        rays = dual_rays(halfspaces, rank)
        return Cone(rays=tuple(sorted(set(rays))), rank=rank)

    def dim(self) -> int:
        if not self.rays:
            return 0
        return len(span_snf(self.rays)[1])

    def facet_normals(self):
        """H-representation; includes +- pairs forcing span membership."""
        return dual_rays(self.rays, self.rank)

    def contains(self, vec) -> bool:
        return all(dot(m, vec) >= 0 for m in self.facet_normals())

    def is_pointed(self) -> bool:
        # pointed iff the dual cone is full-dimensional
        duals = self.facet_normals()
        if not duals:
            return self.rank == 0
        return len(span_snf(duals)[1]) == self.rank

    def is_simplicial(self) -> bool:
        if not self.rays:
            return True
        return len(self.rays) == self.dim()

    def __repr__(self):
        return f"Cone{list(map(list, self.rays))}"


def dual_cone(c: Cone) -> Cone:
    """The cone of linear functionals nonnegative on ``c``."""
    _check_rank(c.rank)
    return Cone(rays=tuple(sorted(set(dual_rays(c.rays, c.rank)))), rank=c.rank)


def _simplicial_subcones(c: Cone):
    """Triangulate a pointed cone into simplicial subcones on its rays."""
    if c.is_simplicial():
        return [c.rays]
    d = c.dim()
    # placing triangulation: cone over triangulated facets from a fixed ray
    apex = c.rays[0]
    normals = c.facet_normals()
    pieces = []
    for m in normals:
        if dot(m, apex) == 0:
            continue
        face_rays = tuple(r for r in c.rays if dot(m, r) == 0)
        if not face_rays:
            continue
        face = Cone(rays=face_rays, rank=c.rank)
        if face.dim() != d - 1:
            continue
        for sub in _simplicial_subcones(face):
            pieces.append(tuple(sorted(set(sub) | {apex})))
    return pieces


def _parallelepiped_points(rays, rank):
    """Lattice points of {sum t_i r_i : 0 <= t_i < 1} for independent rays."""
    cols = transpose([list(r) for r in rays])
    lo = [sum(min(0, r[j]) for r in rays) for j in range(rank)]
    hi = [sum(max(0, r[j]) for r in rays) for j in range(rank)]
    pts = []
    for coords in itertools.product(*[range(lo[j], hi[j] + 1) for j in range(rank)]):
        t = rat_solve(cols, list(coords))
        if t is None:
            continue
        # membership in span and half-open box
        if all(0 <= ti < 1 for ti in t):
            residual = [coords[j] - sum(Fraction(rays[i][j]) * t[i] for i in range(len(rays))) for j in range(rank)]
            if all(x == 0 for x in residual):
                pts.append(tuple(coords))
    return pts


def hilbert_basis(c: Cone):
    """Unique minimal generating set of the monoid of lattice points of ``c``.

    Bounded enumeration: candidates are the primitive rays plus the lattice
    points of the fundamental parallelepipeds of a triangulation; reduction
    removes every element that splits as a sum of two nonzero monoid points.
    """
    if not c.is_pointed():
        raise NotPointedError("Hilbert basis requires a pointed cone (units present)")
    if not c.rays:
        return []
    candidates = set(c.rays)
    for sub in _simplicial_subcones(c):
        for p in _parallelepiped_points(sub, c.rank):
            if any(p):
                candidates.add(p)
    normals = c.facet_normals()
    grading = [sum(m[j] for m in normals) for j in range(c.rank)]

    def inside(v):
        return all(dot(m, v) >= 0 for m in normals)

    ordered = sorted(candidates, key=lambda v: (dot(grading, v), v))
    basis = []
    for x in ordered:
        reducible = False
        for y in basis:
            diff = tuple(a - b for a, b in zip(x, y))
            if any(diff) and inside(diff):
                reducible = True
                break
            if not any(diff):
                reducible = True
                break
        if not reducible:
            basis.append(x)
    return sorted(basis)


class FanError(ValueError):
    pass


def maximal_sets(sets):
    """The members of a collection of frozensets that no other member
    strictly contains, in collection order.

    A proper superset of f contains every element of f, so it is enough to
    look among the sets at the element of f that the fewest share.
    """
    at = {}
    for f in sets:
        for v in f:
            at.setdefault(v, []).append(f)
    return [f for f in sets if not any(f < g for g in min((at[v] for v in f), key=len, default=sets))]


def _sorted_cones(cones):
    """Ray-index sets, deduplicated, with the zero cone, by size then indices."""
    return sorted({frozenset(c) for c in cones} | {frozenset()}, key=lambda c: (len(c), sorted(c)))


class Fan:
    """Finite fan: shared primitive ray pool plus cones as ray-index sets.

    Cones are pointed, so the extreme-ray index set determines the cone.
    The zero cone (empty index set) is always present.  With ``validate``
    each declared index set must be the extreme rays of a pointed cone, and
    the faces of every cone are added; ``from_cones`` adds them the same way.
    """

    def __init__(self, rank: int, rays=None, cones=None, validate: bool = True):
        _check_rank(rank)
        self.rank = rank
        self.rays = [tuple(r) for r in (rays or [])]
        self._ray_index = {r: i for i, r in enumerate(self.rays)}
        self.cones = _sorted_cones(cones or [])
        if validate:
            for idx in list(self.cones):
                c = Cone.from_generators([self.rays[i] for i in idx], rank)
                if set(c.rays) != {self.rays[i] for i in idx}:
                    raise FanError(f"generators {sorted(idx)} are not the extreme rays of their cone")
                self._add_cone_with_faces(c)
            self.cones = _sorted_cones(self.cones)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_cones(cones, rank) -> "Fan":
        fan = Fan(rank, validate=False)
        for c in cones:
            fan._add_cone_with_faces(c)
        fan.cones = _sorted_cones(fan.cones)
        return fan

    def _ray_id(self, ray):
        ray = primitive(ray)
        if ray not in self._ray_index:
            self._ray_index[ray] = len(self.rays)
            self.rays.append(ray)
        return self._ray_index[ray]

    def _add_cone_with_faces(self, c: Cone):
        faces = cone_faces(c)
        if faces[0].rays:  # the least face is the lineality space
            raise FanError(f"fan cones must be pointed: {c}")
        for face in faces:
            self.cones.append(frozenset(self._ray_id(r) for r in face.rays))

    # -- geometry ------------------------------------------------------

    def cone_geometry(self, idx) -> Cone:
        # every index set held is the extreme rays of its cone, all primitive
        return Cone(rays=tuple(sorted(self.rays[i] for i in idx)), rank=self.rank)

    def dim(self) -> int:
        return max((self.cone_geometry(c).dim() for c in self.cones), default=0)

    def maximal_cones(self):
        return maximal_sets(self.cones)

    def _is_face(self, small, big) -> bool:
        if not small <= big:
            return False
        if small == big:
            return True
        cb = self.cone_geometry(big)
        rays_small = [self.rays[i] for i in small]
        active = [m for m in cb.facet_normals() if all(dot(m, r) == 0 for r in rays_small)]
        face_rays = {r for r in cb.rays if all(dot(m, r) == 0 for m in active)}
        return face_rays == set(rays_small)

    def validate(self):
        """Check the fan axioms pairwise (quadratic; for small fans)."""
        for a, b in itertools.combinations(self.cones, 2):
            ca, cb = self.cone_geometry(a), self.cone_geometry(b)
            normals = list(ca.facet_normals()) + list(cb.facet_normals())
            # the meet of two pointed cones is pointed: these are its extreme rays
            meet_rays = dual_rays(normals, self.rank)
            idx = frozenset(self._ray_index.get(r, -1) for r in meet_rays)
            if -1 in idx or idx not in set(map(frozenset, self.cones)):
                raise FanError(f"intersection of {sorted(a)} and {sorted(b)} is not a common face")
            if not (self._is_face(idx, a) and self._is_face(idx, b)):
                raise FanError(f"intersection of {sorted(a)} and {sorted(b)} is not a common face")

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
        if type(rank) is not int:
            raise FanError(f"rank {rank!r} is not an integer")
        for r in doc["rays"]:
            if type(r) is not list or len(r) != rank or any(type(x) is not int for x in r):
                raise FanError(f"ray {r!r} is not a list of {rank} integers")
        rays = [tuple(r) for r in doc["rays"]]
        for c in doc["cones"]:
            if type(c) is not list:
                raise FanError(f"cone {c!r} is not a list of ray indices")
            bad = [i for i in c if type(i) is not int or not 0 <= i < len(rays)]
            if bad:
                raise FanError(f"cone {c}: {bad[0]!r} is not an index into the {len(rays)} rays")
        return Fan(rank, rays, [frozenset(c) for c in doc["cones"]])

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()

    def __repr__(self):
        return f"Fan(rank={self.rank}, rays={len(self.rays)}, cones={len(self.cones)})"


@lru_cache(maxsize=None)
def _cone_faces_cached(rays, rank):
    c = Cone(rays=rays, rank=rank)
    normals = c.facet_normals()
    faces = set()
    for k in range(len(normals) + 1):
        for subset in itertools.combinations(normals, k):
            face_rays = tuple(sorted(r for r in c.rays if all(dot(m, r) == 0 for m in subset)))
            faces.add(face_rays)
    return tuple(Cone(rays=f, rank=rank) for f in sorted(faces, key=lambda f: (len(f), f)))


def cone_faces(c: Cone):
    """All faces of a pointed cone (including 0 and the cone itself)."""
    return list(_cone_faces_cached(c.rays, c.rank))


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


def derived_subdivision(fan: Fan) -> Fan:
    """Simplicial refinement with the same support: the fan starred once at
    the barycentre ray of each non-simplicial cone, largest dimension first.

    Starring at a cone keeps its proper faces, so the smaller non-simplicial
    cones are still there to be starred, and the pass ends simplicial.  The
    barycentre of primitive rays commutes with every lattice automorphism
    of the fan.  A simplicial fan is returned as it is.
    """
    def non_simplicial(c):
        return len(c) > 2 and not fan.cone_geometry(c).is_simplicial()

    maximal = fan.maximal_cones()
    bad = {d for c in maximal if non_simplicial(c) for d in fan.cones if d <= c and non_simplicial(d)}
    if not bad:
        return fan
    cones = [fan.cone_geometry(c).rays for c in maximal]
    for face in sorted((fan.cone_geometry(d) for d in bad), key=lambda f: (-f.dim(), f.rays)):
        ray = primitive([sum(col) for col in zip(*face.rays)])
        face_rays = set(face.rays)
        starred = []
        for rays in cones:
            if not face_rays <= set(rays):
                starred.append(rays)
                continue
            # one piece per facet missing the new ray: its rays plus the ray
            for m in dual_rays(rays, fan.rank):
                if dot(m, ray) > 0:
                    starred.append(tuple(sorted([r for r in rays if dot(m, r) == 0] + [ray])))
        cones = starred
    return Fan.from_cones([Cone(rays=c, rank=fan.rank) for c in cones], fan.rank)


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
    cones = []
    seen = set()
    for tau in fan.maximal_cones():
        geom = fan.cone_geometry(tau)
        normals = geom.facet_normals()
        restricted = [tuple(dot(m, b) for b in basis) for m in normals]
        # tau meet V is pointed, so these are its extreme rays
        c = Cone(rays=tuple(dual_rays(restricted, k)), rank=k)
        if c.rays not in seen:
            seen.add(c.rays)
            cones.append(c)
    return Fan.from_cones(cones, k)


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
    return Fan(rank, rays, cones, validate=False)
