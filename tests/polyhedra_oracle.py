"""The subset-enumerating polyhedral kernels, kept as oracles.

``dual_rays`` tests every (s-1)-subset of its inputs, in coordinates on
their span, by the vector of signed maximal minors; ``cone_faces``
intersects a cone with every subset of its normals, lineality +- pairs
included.  Both are exponential in the input size.  They check the double
description and the facet closure of ``logskel.polyhedra``.  ``parallelepiped_points`` solves for the
coordinates of each bounding-box point in Fractions; it checks the class
enumeration of the parallelepiped step of the Hilbert basis.
``derived_pieces`` stars the whole cone list once per non-simplicial face;
it checks the recursion over faces of the derived subdivision.
``derived_subdivision`` builds the subdivided fan from the library's pieces:
the library needs only the pieces (``link_complex``), the tests the fan.
``is_simplicial`` checks that the pieces are simplicial.
"""

from __future__ import annotations

import itertools

from lattice_oracle import det, rat_solve
from logskel.lattice import identity, int_kernel_basis, primitive, span_snf, transpose
from logskel.polyhedra import Cone, Fan, _derived_pieces, _walls, dot


def dual_rays(vectors, rank):
    """Generators of the cone dual to cone(vectors), sorted: the +- pairs of
    a basis of (span of the vectors)^perp, and in span coordinates every
    signed-minor normal y of an (s-1)-subset that is >= 0 or <= 0 on every
    vector."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        basis = identity(rank)
        return [tuple(b) for b in basis] + [tuple(-x for x in b) for b in basis]
    out = []
    for b in int_kernel_basis([list(v) for v in vectors]):
        out.append(primitive(b))
        out.append(primitive([-x for x in b]))
    u, diag = span_snf(vectors)
    s = len(diag)
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
    for y in rays_s:
        out.append(primitive([sum(y[i] * u[i][j] for i in range(s)) for j in range(rank)]))
    return sorted(set(out))


def cone_faces(rays, normals):
    """Ray tuples of every face of the cone on ``rays`` with the given
    normals (``dual_rays(rays, rank)``), by (size, rays): the rays tight on
    each subset of the normals."""
    faces = set()
    for k in range(len(normals) + 1):
        for subset in itertools.combinations(normals, k):
            faces.add(tuple(sorted(r for r in rays if all(dot(m, r) == 0 for m in subset))))
    return sorted(faces, key=lambda f: (len(f), f))


def is_pointed(normals, rank):
    """A cone is pointed when its dual, generated by ``normals``, is
    full-dimensional."""
    if not normals:
        return rank == 0
    return len(span_snf(normals)[1]) == rank


def is_face(rays, normals, small):
    """``small``, a subset of ``rays``, spans a face of the cone on ``rays``
    with the given normals when the rays tight on every normal tight on
    ``small`` are ``small``."""
    active = [m for m in normals if all(dot(m, r) == 0 for r in small)]
    return {r for r in rays if all(dot(m, r) == 0 for m in active)} == set(small)


def parallelepiped_points(rays, rank):
    """Lattice points of {sum t_i r_i : 0 <= t_i < 1} for independent rays:
    the points of the bounding box whose exact coordinates t exist (the
    point is in the span) and lie in [0, 1)."""
    cols = transpose([list(r) for r in rays])
    lo = [sum(min(0, r[j]) for r in rays) for j in range(rank)]
    hi = [sum(max(0, r[j]) for r in rays) for j in range(rank)]
    pts = []
    for coords in itertools.product(*[range(lo[j], hi[j] + 1) for j in range(rank)]):
        t = rat_solve(cols, list(coords))
        if t is not None and all(0 <= ti < 1 for ti in t):
            pts.append(tuple(coords))
    return pts


def is_simplicial(cone):
    """Whether the extreme rays of ``cone`` are linearly independent."""
    return len(cone.rays) == cone.dim()


def derived_pieces(fan):
    """The maximal cones of the derived subdivision as ray tuples, and
    whether any cone was starred: every current cone that holds the rays of
    a non-simplicial face, largest dimension first, is replaced by the
    cones over its facets that miss the face's barycentre ray."""
    bad = [g for g in map(fan.cone_geometry, fan.cones) if len(g.rays) > 2 and not is_simplicial(g)]
    cones = [fan.cone_geometry(c).rays for c in fan.maximal_cones()]
    for face in sorted(bad, key=lambda f: (-f.dim(), f.rays)):
        ray = primitive([sum(col) for col in zip(*face.rays)])
        face_rays = set(face.rays)
        starred = []
        for rays in cones:
            if not face_rays <= set(rays):
                starred.append(rays)
                continue
            for m in _walls(rays, fan.rank):
                if dot(m, ray) > 0:
                    starred.append(tuple(sorted([r for r in rays if dot(m, r) == 0] + [ray])))
        cones = starred
    return cones, bool(bad)


def derived_subdivision(fan):
    """Simplicial refinement with the same support, which commutes with every
    lattice automorphism of the fan.  A simplicial fan, whose pieces are its
    non-zero maximal cones, is returned as it is."""
    cones = [fan.cone_geometry(c).rays for c in fan.maximal_cones()]
    pieces = _derived_pieces(cones, fan.rank)
    if pieces == [c for c in cones if c]:
        return fan
    return Fan.from_cones([Cone(rays=c, rank=fan.rank) for c in pieces], fan.rank)
