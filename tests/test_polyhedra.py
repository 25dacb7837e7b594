import collections
import itertools
import math
import random

import pytest

from logskel.complexes import HomologyProfile, SimplicialComplex, homology, link_complex, sphere_profile
from lattice_oracle import adjugate
from logskel.lattice import primitive, span_snf
from logskel import polyhedra
from logskel.polyhedra import (
    _class_group,
    _derived_pieces,
    _facet_masks,
    _facets,
    _faces,
    _gauss_jordan,
    _parallelepiped_points,
    _walls,
    Cone,
    DimensionLimitError,
    Fan,
    NotPointedError,
    FanError,
    compactified_fan_strata,
    cone_faces,
    dual_cone,
    dual_rays,
    dot,
    fan_a2,
    fan_p1,
    fan_p1xp1,
    fan_p2,
    hilbert_basis,
    intersect_fan_subspace,
    product_fan,
    star_fan,
)
import polyhedra_oracle as oracle
from polyhedra_oracle import derived_subdivision


# -- dual cone -------------------------------------------------------------

def brute_force_dual(generators, rank, box=4):
    """Oracle: primitive vectors in a box nonnegative on the generators,
    reduced to extreme rays."""
    from logskel.lattice import primitive

    kept = set()
    for v in itertools.product(range(-box, box + 1), repeat=rank):
        if not any(v):
            continue
        if all(dot(v, g) >= 0 for g in generators):
            kept.add(primitive(v))
    return Cone.from_generators(sorted(kept), rank)


def test_dual_first_quadrant_self_dual():
    c = Cone.from_generators([(1, 0), (0, 1)], 2)
    assert dual_cone(c) == c


def test_dual_slanted_cone_against_brute_force():
    c = Cone.from_generators([(1, 0), (1, 2)], 2)
    assert dual_cone(c).rays == ((0, 1), (2, -1))
    assert dual_cone(c) == brute_force_dual(c.rays, 2)


def test_dual_of_ray_is_half_space():
    c = Cone.from_generators([(1, 0)], 2)
    assert dual_cone(c).rays == ((0, -1), (0, 1), (1, 0))


def test_dual_dual_identity_on_random_pointed_cones():
    rng = random.Random(3)
    for _ in range(100):
        rank = rng.choice([2, 3])
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rank + 1)]
        c = Cone.from_generators(gens, rank)
        if c.dim() != rank or not c.is_pointed():
            continue
        assert dual_cone(dual_cone(c)) == c


def brute_force_dual_rays_rank3(generators, box=8):
    """Oracle for a full-dimensional pointed cone in Z^3: the primitive m in
    a box, nonnegative on the generators, whose plane m^perp holds two
    generators with a nonzero cross product.  Generators with entries in
    [-2, 2] give dual rays with entries in [-8, 8]."""
    from logskel.lattice import primitive

    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])

    rays = set()
    for m in itertools.product(range(-box, box + 1), repeat=3):
        if primitive(m) != m or not any(m) or any(dot(m, g) < 0 for g in generators):
            continue
        wall = [g for g in generators if dot(m, g) == 0]
        if any(any(cross(a, b)) for a, b in itertools.combinations(wall, 2)):
            rays.add(m)
    return tuple(sorted(rays))


def test_dual_random_cones_against_brute_force():
    rng = random.Random(9)
    for _ in range(40):
        gens = [tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2)]
        c = Cone.from_generators(gens, 2)
        if not c.is_pointed() or not c.rays:
            continue
        assert dual_cone(c) == brute_force_dual(c.rays, 2)
    done = 0
    for _ in range(100):  # full-dimensional rank-3 cones, simplicial or not
        gens = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.choice([3, 4, 5]))]
        c = Cone.from_generators(gens, 3)
        if c.dim() != 3 or not c.is_pointed():
            continue
        assert dual_cone(c).rays == brute_force_dual_rays_rank3(c.rays)
        done += 1
    assert done >= 30


# Literal dual_rays values computed by the earlier subset-kernel method (a
# rank test and an SNF kernel per subset), independent of the minor formula:
# ranks 1-5, span dimensions 0 to rank, lineality pairs, zero and duplicate
# vectors.
DUAL_RAYS_PINNED = [
    ([(3,)], 1, [(1,)]),
    ([(2,), (-1,)], 1, []),
    ([(1, 2)], 2, [(-2, 1), (1, 0), (2, -1)]),
    ([(1, 0), (1, 2), (0, 0), (1, 2)], 2, [(0, 1), (2, -1)]),
    ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3,
     [(0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0)]),
    ([(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)], 3,
     [(1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1)]),
    ([(2, 1, 0), (0, 1, 2), (1, 0, 1)], 3, [(-1, 2, 1), (1, -2, 1), (1, 2, -1)]),
    ([(1, -1, 0)], 3, [(-1, -1, 0), (0, 0, -1), (0, 0, 1), (1, 0, 0), (1, 1, 0)]),
    ([(0, 0, 0)], 3, [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0)]),
    ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)], 4,
     [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]),
    ([(1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 2, 2), (0, 0, 0, 0)], 4,
     [(-1, 0, 1, 0), (-1, 1, 1, -1), (1, -1, -1, 1), (1, 1, -1, 0), (2, 0, -1, 0)]),
    ([(1, 2, 0, -1), (0, 1, 1, 0), (-1, 0, 2, 1), (1, 1, 1, 1), (0, 1, 1, 0)], 4,
     [(-2, 1, 1, 0), (-2, 3, -1, 0), (-1, 1, -1, 1), (1, -1, 1, -1), (2, -1, 1, 0)]),
    ([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1),
      (1, 1, -1, 0, 0)], 5,
     [(0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 1, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, 0, 0, 0),
      (1, 0, 1, 0, 0)]),
    ([(1, 1, 0, 0, 2), (0, 1, 1, 0, 0), (2, 0, -1, 1, 0)], 5,
     [(-2, 4, -4, 0, -1), (-1, 1, -1, 1, 0), (-1, 2, -2, 0, 0), (1, -1, 1, -1, 0),
      (1, -1, 1, 0, 0), (1, -1, 2, 0, 0), (2, -4, 4, 0, 1)]),
]


@pytest.mark.parametrize("vectors,rank,expected", DUAL_RAYS_PINNED)
def test_dual_rays_pinned_values(vectors, rank, expected):
    assert dual_rays(vectors, rank) == expected


def _oracle_draws(seed, count):
    """Seeded generator lists at ranks 1-6: up to 10 vectors in [-3, 3],
    with zero, repeated and opposite vectors mixed in."""
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(1, 6)
        vectors = []
        for _ in range(rng.randint(0, 10)):
            roll = rng.random()
            if vectors and roll < 0.1:
                vectors.append(rng.choice(vectors))
            elif vectors and roll < 0.2:
                vectors.append(tuple(-x for x in rng.choice(vectors)))
            elif roll < 0.25:
                vectors.append((0,) * rank)
            else:
                vectors.append(tuple(rng.randint(-3, 3) for _ in range(rank)))
        yield vectors, rank


def test_dual_rays_match_subset_oracle():
    """Double description against the subset-minor kernel on 3,000 draws."""
    kinds = collections.Counter()
    for vectors, rank in _oracle_draws(41, 3000):
        got = dual_rays(vectors, rank)
        assert got == oracle.dual_rays(vectors, rank), (vectors, rank)
        kinds["more vectors than rank" if len({v for v in vectors if any(v)}) > rank
              else "dual with lineality" if len(got) > rank else "other"] += 1
    assert min(kinds.values()) > 300, kinds


def test_dual_rays_of_square_independent_vectors_match_subset_oracle():
    """Double description with no rows past the first pass against the
    subset-minor kernel: rank independent vectors, ranks 1-8, entries in
    [-5, 5], some of them not primitive."""
    rng = random.Random(2001)
    done = collections.Counter()
    while sum(done.values()) < 400:
        rank = rng.randint(1, 8)
        vectors = [tuple(rng.randint(-5, 5) for _ in range(rank)) for _ in range(rank)]
        if adjugate(vectors)[1] is None:
            continue
        got = dual_rays(vectors, rank)
        assert got == oracle.dual_rays(vectors, rank), (vectors, rank)
        assert len(got) == rank and all(sum(dot(m, v) > 0 for v in vectors) == 1 for m in got)
        done[rank] += 1
    assert min(done[r] for r in range(1, 9)) >= 30, done


def test_dual_rays_of_spanning_vectors_match_subset_oracle(monkeypatch):
    """Vectors that span Q^rank, more distinct ones than the rank, take the
    double description straight in Z^rank, with no kernel basis and no span
    coordinates: ranks 1-8, entries in [-3, 3], repeated and zero vectors
    mixed in, against the subset-minor kernel."""
    def span_route(*args):
        raise AssertionError("span route taken")

    monkeypatch.setattr(polyhedra, "int_kernel_basis", span_route)
    monkeypatch.setattr(polyhedra, "span_snf", span_route)
    rng = random.Random(2101)
    done = collections.Counter()
    while min(done[r] for r in range(1, 9)) < 30:
        rank = rng.randint(1, 8)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rank + rng.randint(1, 3))]
        vectors += rng.choice(([], [(0,) * rank], [rng.choice(vectors)]))
        if len({v for v in vectors if any(v)}) <= rank or len(span_snf(vectors)[1]) < rank:
            continue
        assert dual_rays(vectors, rank) == oracle.dual_rays(vectors, rank), (vectors, rank)
        done[rank] += 1


def test_independent_generators_are_their_double_dual():
    """Independent generators, once primitive and deduplicated, are the
    extreme rays; with positive multiples, zero generators and +-v pairs
    mixed in, every draw must agree with double dualization."""
    rng = random.Random(2002)
    kinds = collections.Counter()
    while min(kinds.values(), default=0) < 100 or len(kinds) < 2:
        rank = rng.randint(1, 8)
        gens = [tuple(rng.choice((0, 0, -2, -1, 1, 2)) for _ in range(rank))
                for _ in range(rng.randint(1, rank))]
        roll = rng.random()
        if roll < 0.3:
            gens.append(tuple(rng.randint(2, 3) * x for x in rng.choice(gens)))
        elif roll < 0.45:
            gens.append((0,) * rank)
        elif roll < 0.6:
            gens.append(tuple(-x for x in rng.choice(gens)))
        rng.shuffle(gens)
        prim = tuple(sorted({primitive(g) for g in gens if any(g)}))
        if not prim:
            continue
        independent = len(span_snf(prim)[1]) == len(prim)
        rays = Cone.from_generators(gens, rank).rays
        assert rays == _walls(_walls(prim, rank), rank), gens
        if independent:
            assert rays == prim, gens
        kinds[independent] += 1


def test_faces_match_normal_subset_oracle():
    """Faces, pointedness and face tests against the 2^k normal-subset
    enumeration, on the draws whose normals number at most 10."""
    compared = pointed = 0
    for vectors, rank in _oracle_draws(43, 2000):
        c = Cone.from_generators(vectors, rank)
        normals = oracle.dual_rays(c.rays, rank)
        assert c.is_pointed() == oracle.is_pointed(normals, rank), c
        if len(normals) > 10:
            continue
        faces = [f.rays for f in cone_faces(c)]
        assert faces == oracle.cone_faces(c.rays, normals), c
        compared += 1
        if not c.is_pointed():
            continue
        pointed += 1
        fan = Fan.from_cones([c], rank)
        big = frozenset(range(len(fan.rays)))
        for k in range(len(fan.rays) + 1):
            for small in itertools.combinations(range(len(fan.rays)), k):
                rays_small = [fan.rays[i] for i in small]
                assert fan._is_face(frozenset(small), big) == oracle.is_face(c.rays, normals, rays_small)
    assert compared > 1500 and pointed > 800


def test_square_pyramid_faces_are_pinned():
    c = Cone.from_generators([(1, 1, 0, 1), (1, -1, 0, 1), (-1, 1, 0, 1), (-1, -1, 0, 1), (0, 0, 1, 1)], 4)
    faces = cone_faces(c)
    assert len(faces) == 20  # 0, 5 rays, 8 edges, 4 triangles and the square, the cone
    assert [len(f.rays) for f in faces] == [0] + [1] * 5 + [2] * 8 + [3] * 4 + [4, 5]
    assert [f.rays for f in faces] == oracle.cone_faces(c.rays, oracle.dual_rays(c.rays, 4))


def test_rank_limit():
    with pytest.raises(DimensionLimitError):
        Cone.from_generators([tuple([1] + [0] * 8)], 9)


# -- hilbert basis -----------------------------------------------------------

def zonotope_hilbert_oracle(c: Cone):
    """Oracle for a simplicial full-rank cone: lattice points of the
    generator zonotope (exact membership test), decomposables removed."""
    from fractions import Fraction

    from lattice_oracle import rat_solve

    rank = c.rank
    gens = c.rays
    assert len(gens) == rank
    cols = [[g[j] for g in gens] for j in range(rank)]  # rank x rank, x = G t
    lo = [sum(min(0, g[j]) for g in gens) for j in range(rank)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(rank)]
    pts = set()
    for v in itertools.product(*[range(lo[j], hi[j] + 1) for j in range(rank)]):
        if not any(v):
            continue
        t = rat_solve(cols, list(v))
        if t is not None and all(Fraction(0) <= ti <= 1 for ti in t):
            pts.add(v)
    normals = c.facet_normals()

    def in_monoid(x):
        return all(dot(m, x) >= 0 for m in normals)

    basis = []
    for x in sorted(pts):
        decomposable = False
        for y in sorted(pts):
            z = tuple(a - b for a, b in zip(x, y))
            if any(y) and any(z) and in_monoid(z):
                decomposable = True
                break
        if not decomposable:
            basis.append(x)
    return sorted(basis)


def brute_force_irreducible(c: Cone, element, bound=8):
    """No decomposition element = y + z with nonzero monoid points y, z."""
    normals = c.facet_normals()

    def inside(v):
        return all(dot(m, v) >= 0 for m in normals)

    rank = c.rank
    rng = [range(-bound, bound + 1)] * rank
    for y in itertools.product(*rng):
        if not any(y) or not inside(y):
            continue
        z = tuple(a - b for a, b in zip(element, y))
        if any(z) and inside(z):
            return False
    return True


def test_hilbert_free_quadrant():
    c = Cone.from_generators([(1, 0), (0, 1)], 2)
    assert hilbert_basis(c) == [(0, 1), (1, 0)]


def test_hilbert_slanted():
    c = Cone.from_generators([(0, 1), (2, -1)], 2)
    assert hilbert_basis(c) == [(0, 1), (1, 0), (2, -1)]


def test_hilbert_single_ray_primitive():
    c = Cone.from_generators([(2, 4)], 2)
    assert hilbert_basis(c) == [(1, 2)]


def test_hilbert_requires_pointed():
    c = Cone.from_generators([(1, 0), (-1, 0)], 2)
    with pytest.raises(NotPointedError):
        hilbert_basis(c)


def test_hilbert_irreducibility_random_sweep():
    rng = random.Random(23)
    done = 0
    while done < 200:
        rank = rng.choice([2, 2, 3])
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rank)]
        c = Cone.from_generators(gens, rank)
        if not c.rays or not c.is_pointed():
            continue
        basis = hilbert_basis(c)
        for el in basis:
            assert brute_force_irreducible(c, el, bound=6)
        # every ray's primitive generator appears
        for r in c.rays:
            assert r in basis
        done += 1


def test_hilbert_matches_zonotope_oracle_small():
    for gens in ([(1, 0), (1, 3)], [(1, 1), (2, -1)], [(0, 1), (3, -1)]):
        c = Cone.from_generators(gens, 2)
        assert hilbert_basis(c) == zonotope_hilbert_oracle(c)


def box_hilbert_oracle(c: Cone):
    """Oracle for a full-dimensional pointed cone: every Hilbert basis element
    lies in the zonotope of the rays, so in its bounding box; scanning the
    box's cone points by a positive grading, a point is irreducible exactly
    when no smaller irreducible one is below it in the cone order."""
    normals = c.facet_normals()
    grading = [sum(col) for col in zip(*normals)]

    def inside(v):
        return all(dot(m, v) >= 0 for m in normals)

    box = [range(sum(min(0, r[j]) for r in c.rays), sum(max(0, r[j]) for r in c.rays) + 1)
           for j in range(c.rank)]
    basis = []
    for x in sorted((p for p in itertools.product(*box) if any(p) and inside(p)),
                    key=lambda p: dot(grading, p)):
        if not any(inside(tuple(a - b for a, b in zip(x, y))) for y in basis):
            basis.append(x)
    return sorted(basis)


@pytest.mark.parametrize("gens,expected", [
    ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
     [(-1, 0, 1), (0, -1, 1), (0, 0, 1), (0, 1, 1), (1, 0, 1)]),
    ([(-1, -2, 1), (-1, 1, 0), (1, 0, -2), (1, 1, -2)],
     [(-1, -2, 1), (-1, 0, 0), (-1, 1, 0), (0, 0, -1), (0, 1, -1), (1, 0, -2), (1, 1, -2)]),
], ids=["square", "skew"])
def test_hilbert_non_simplicial_pinned(gens, expected):
    c = Cone.from_generators(gens, 3)
    assert len(c.rays) == 4 and c.dim() == 3
    assert hilbert_basis(c) == box_hilbert_oracle(c) == expected


def test_parallelepiped_walls_match_fraction_solve_off_full_rank():
    """On simplicial cones of dimension below the rank, the class
    enumeration finds exactly the box points in the span whose exact
    coordinates lie in [0, 1), one per class.  Sparse entries keep the
    boxes small."""
    rng = random.Random(41)
    entries = (0, 0, 0, 0, -3, -2, -1, 1, 2, 3)
    done, nontrivial = collections.Counter(), collections.Counter()
    while sum(done.values()) < 240:
        rank = rng.choice([2, 3, 4, 5])
        gens = [tuple(rng.choice(entries) for _ in range(rank)) for _ in range(rng.randint(1, rank - 1))]
        c = Cone.from_generators(gens, rank)
        box = 1
        for j in range(rank):
            box *= sum(abs(r[j]) for r in c.rays) + 1
        if not c.rays or c.dim() != len(c.rays) or box > 1000:
            continue
        group = _class_group(c.rays)
        walls = c.facet_normals()
        got = _parallelepiped_points(c.rays, group, walls)
        assert sorted(got) == oracle.parallelepiped_points(c.rays, rank), c
        assert len(got) == math.prod(group[0]), c
        assert all(values == tuple(dot(m, p) for m in walls) for p, values in got.items()), c
        nontrivial[rank] += len(got) > 1
        done[rank] += 1
    assert min(done.values()) >= 40 and len(done) == 4
    assert min(nontrivial[r] for r in (3, 4, 5)) >= 5  # a rank-2 cone here is one primitive ray


def test_parallelepiped_classes_match_fraction_solve_full_rank():
    """On full-rank simplicial cones of ranks 2-5 the classes number |det|,
    the product of the SNF diagonal, and are the box points whose exact
    coordinates lie in [0, 1), in the box's order.  Two pinned cones have
    two nontrivial invariant factors; entries and box sizes per rank keep
    the Fraction scans short."""
    from lattice_oracle import det

    rng = random.Random(2003)
    draws = {2: (range(-25, 26), 1600, 20), 3: (range(-6, 7), 2000, 15),
             4: ((0, 0, 0, -3, -2, -1, 1, 2, 3), 1500, 12), 5: ((0, 0, 0, 0, -2, -1, 1, 2), 1500, 8)}
    pinned = [((-2, 0, -1), (0, -2, -1), (0, 0, -1)),
              ((-1, 0, 0, 0), (0, -2, 1, 0), (0, 0, -1, 2), (0, 0, 1, 0))]
    done, indices = collections.Counter(), []
    while pinned or any(done[r] < draws[r][2] for r in draws):
        if pinned:
            rays = pinned.pop()
        else:
            rank = rng.choice([r for r in draws if done[r] < draws[r][2]])
            entries, box, _ = draws[rank]
            rays = tuple(sorted({primitive([rng.choice(entries) for _ in range(rank)]) for _ in range(rank)}))
            index = abs(det([list(r) for r in rays])) if len(rays) == rank else 0
            if not 1 < index <= 500 or math.prod(sum(abs(r[j]) for r in rays) + 1 for j in range(rank)) > box:
                continue
            done[rank] += 1
        group = _class_group(rays)
        walls = _walls(rays, len(rays))
        got = _parallelepiped_points(rays, group, walls)
        assert len(got) == math.prod(group[0]) == abs(det([list(r) for r in rays])), rays
        assert sorted(got) == oracle.parallelepiped_points(rays, len(rays)), rays
        assert all(values == tuple(dot(m, p) for m in walls) for p, values in got.items()), rays
        indices.append(group[0])
    assert sum(d[-2] > 1 for d in indices) >= 2 and max(map(math.prod, indices)) >= 300


def test_hilbert_rank4_cone_matches_box_oracle():
    c = Cone.from_generators([(5, -3, 2, 1), (-4, 5, 1, -2), (1, 2, 5, -3), (-2, -1, -3, 5)], 4)
    basis = hilbert_basis(c)
    assert len(basis) == 36
    assert basis == box_hilbert_oracle(c)


def test_hilbert_non_simplicial_random_against_box():
    rng = random.Random(31)
    done = 0
    while done < 30:
        gens = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.choice([4, 5]))]
        c = Cone.from_generators(gens, 3)
        if len(c.rays) <= 3 or c.dim() != 3 or not c.is_pointed():
            continue
        assert hilbert_basis(c) == box_hilbert_oracle(c)
        done += 1


# -- fans --------------------------------------------------------------------

def test_p2_compactified_strata():
    strata = compactified_fan_strata(fan_p2())
    assert len(strata) == 7
    dims = sorted((s.dim() for _, s in strata), reverse=True)
    assert dims == [2, 1, 1, 1, 0, 0, 0]


def test_zero_fan_single_stratum():
    f = Fan(2, [], [])
    strata = compactified_fan_strata(f)
    assert len(strata) == 1
    assert strata[0][1] == f


def test_p1_three_strata():
    strata = compactified_fan_strata(fan_p1())
    assert len(strata) == 3
    assert sorted((s.dim() for _, s in strata), reverse=True) == [1, 0, 0]


def test_strata_cone_count_matches_double_loop():
    for fan in (fan_p2(), fan_p1xp1(), fan_a2()):
        total = sum(len(star.cones) for _, star in compactified_fan_strata(fan))
        pairs = 0
        cone_sets = [frozenset(c) for c in fan.cones]
        for sigma in cone_sets:
            for tau in cone_sets:
                if sigma <= tau and fan._is_face(sigma, tau):
                    pairs += 1
        assert total == pairs


def test_star_fan_of_ray_is_p1():
    star = star_fan(fan_p2(), [0])
    assert star.rank == 1
    assert sorted(star.rays) == [(-1,), (1,)]
    assert len(star.cones) == 3


def test_star_fan_identity_and_dims():
    f = fan_p2()
    assert star_fan(f, []) == f
    for sigma in f.cones:
        star = star_fan(f, sigma)
        assert star.dim() == f.dim() - f.cone_geometry(sigma).dim()


def test_star_fan_of_maximal_cone_is_zero_fan():
    star = star_fan(fan_p2(), [0, 1])
    assert star.rank == 0
    assert star.cones == [frozenset()]


def test_star_membership_error():
    with pytest.raises(Exception):
        star_fan(fan_p2(), [0, 1, 2])


def test_intersect_p1xp1_with_antidiagonal():
    out = intersect_fan_subspace(fan_p1xp1(), [(1, -1)])
    assert out.rank == 1
    assert sorted(out.rays) == [(-1,), (1,)]


def test_intersect_whole_space_identity():
    f = fan_p2()
    assert intersect_fan_subspace(f, [(1, 0), (0, 1)]) == f


def test_intersect_p2_squared_kernel_link_is_circle():
    pp = product_fan(fan_p2(), fan_p2())
    out = intersect_fan_subspace(pp, [(1, 0, -1, 0), (0, 1, 0, -1)])
    assert out.rank == 2
    assert homology(link_complex(out)) == sphere_profile(1)
    out.validate()  # fan axioms hold post hoc


def _sl_kernel_fan(n):
    model = fan_p1xp1()
    for _ in range(n - 1):
        model = product_fan(model, fan_p1xp1())
    basis = []
    for i in range(n - 1):
        for j in (0, 1):
            v = [0] * (2 * n)
            v[2 * i + j], v[2 * i + 2 + j] = 1, -1
            basis.append(v)
    return intersect_fan_subspace(model, basis)


def test_derived_subdivision_leaves_simplicial_fans_alone():
    import json
    import os

    fix = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")
    fans = [fan_p1(), fan_p2(), fan_p1xp1(), fan_a2(), Fan(0), product_fan(fan_p2(), fan_p1xp1()),
            _sl_kernel_fan(2), _sl_kernel_fan(3)]
    for name in sorted(os.listdir(fix)):
        if name.endswith("_fan.json"):
            with open(os.path.join(fix, name)) as fh:
                fans.append(Fan.from_json_dict(json.load(fh)))
    assert len(fans) > 8
    for f in fans:
        assert derived_subdivision(f) is f


def _glued_pyramids():
    rays = [(x, y, 0, 1) for x in (1, -1) for y in (1, -1)] + [(0, 0, 1, 1), (0, 0, -1, 1)]
    return Fan(4, rays, [frozenset({0, 1, 2, 3, 4}), frozenset({0, 1, 2, 3, 5})])


def test_derived_subdivision_of_glued_pyramids():
    """Two square pyramids glued along their base: each pyramid and the
    shared square are starred once."""
    f = _glued_pyramids()
    out = derived_subdivision(f)
    maximal = [out.cone_geometry(c) for c in out.maximal_cones()]
    assert len(out.rays) == 9 and len(maximal) == 16
    assert all(oracle.is_simplicial(out.cone_geometry(c)) for c in out.cones)
    assert homology(link_complex(f)) == homology(link_complex(out)) == HomologyProfile([(1, [])])
    # same support, on every lattice point of a box
    old = [f.cone_geometry(c).facet_normals() for c in f.maximal_cones()]
    new = [c.facet_normals() for c in maximal]

    def covered(normal_sets, v):
        return any(all(dot(m, v) >= 0 for m in ms) for ms in normal_sets)

    for v in itertools.product(range(-2, 3), range(-2, 3), range(-2, 3), range(-1, 3)):
        assert covered(old, v) == covered(new, v)
    # invariant under z -> -z and under the quarter turn (x, y) -> (-y, x)
    cones = {frozenset(c.rays) for c in maximal}
    for g in (lambda r: (r[0], r[1], -r[2], r[3]), lambda r: (-r[1], r[0], r[2], r[3])):
        assert {frozenset(map(g, c)) for c in cones} == cones


def _face_fan(points, rank):
    """The face fan of the polytope on ``points``, which holds the origin
    inside: the cones over its facets, read off the facets of the cone over
    the points at height 1."""
    lifted = Cone.from_generators([p + (1,) for p in points], rank + 1)
    cones = [[r[:-1] for i, r in enumerate(lifted.rays) if w >> i & 1] for w in _facets(lifted.rays, rank + 1)]
    rays = sorted({r for c in cones for r in c})
    return Fan(rank, rays, [frozenset(map(rays.index, c)) for c in cones])


def _seeded_face_fans():
    """Face fans of polytopes with vertices in {-1, 0, 1}^rank, six each of
    ranks 3 and 4, seeded: the unit vectors and about 30% of the rest."""
    rng = random.Random(2102)
    fans = []
    for rank in (3, 4) * 6:
        units = [tuple(s * (i == j) for j in range(rank)) for i in range(rank) for s in (1, -1)]
        fans.append(_face_fan(units + [p for p in itertools.product((-1, 0, 1), repeat=rank)
                                       if any(p) and rng.random() < 0.3], rank))
    return fans


def test_facet_masks_match_the_face_oracle():
    """The facets of every face of each maximal cone, read off the cone's
    wall masks, are the maximal proper faces the normal-subset oracle finds
    from the face's own rays: on the glued pyramids, the sl 3 kernel fan and
    the seeded face fans.  The faces are listed by ``_faces``, which
    ``test_faces_match_normal_subset_oracle`` checks."""
    count, expected = 0, {}
    for fan in [_glued_pyramids(), _sl_kernel_fan(3), *_seeded_face_fans()]:
        for c in fan.maximal_cones():
            rays = fan.cone_geometry(c).rays
            walls = _facets(rays, fan.rank)
            for face in _faces(rays, fan.rank):
                masks = _facet_masks(sum(1 << rays.index(r) for r in face), walls)
                got = [tuple(r for i, r in enumerate(rays) if m >> i & 1) for m in masks]
                if face not in expected:  # a face of two maximal cones is checked in each
                    proper = oracle.cone_faces(face, oracle.dual_rays(face, fan.rank))[:-1]
                    expected[face] = {f for f in proper if not any(set(f) < set(g) for g in proper)}
                assert len(got) == len(set(got)) and set(got) == expected[face], face
                count += 1
    assert count > 1000, count


def test_derived_pieces_match_the_starring_oracle():
    """The recursion over faces against starring the whole cone list once
    per non-simplicial face: the same pieces, which differ from the maximal
    cones exactly when the oracle starred a cone, on the sl 3 and sl 4
    kernel fans, the glued pyramids and seeded face fans of polytopes with
    vertices in {-1, 0, 1}^rank, ranks 3 and 4, whose square and cube faces
    are not simplicial.  Each maximal cone cut alone gives its own pieces,
    each as many independent rays as the cone's dimension."""
    kinds = collections.Counter()
    for fan in [_sl_kernel_fan(3), _sl_kernel_fan(4), _glued_pyramids(), *_seeded_face_fans()]:
        maximal = [fan.cone_geometry(c).rays for c in fan.maximal_cones()]
        pieces = _derived_pieces(maximal, fan.rank)
        expected, starred = oracle.derived_pieces(fan)
        assert len(pieces) == len(set(pieces)) and set(pieces) == set(expected)
        alone = [_derived_pieces([rays], fan.rank) for rays in maximal]
        assert sorted(itertools.chain(*alone)) == sorted(pieces)
        for rays, cut in zip(maximal, alone):
            dim = len(_gauss_jordan(rays, fan.rank)[1])
            assert all(len(p) == dim == len(_gauss_jordan(p, fan.rank)[1]) for p in cut), rays
        assert starred == (set(pieces) != set(maximal))
        deep = any(not oracle.is_simplicial(g) and g.rays not in maximal for g in map(fan.cone_geometry, fan.cones))
        kinds["deep" if deep else "starred" if starred else "simplicial"] += 1
    assert kinds["deep"] >= 6 and kinds["starred"] >= 5 and kinds["simplicial"] >= 1, kinds


def test_link_is_the_derived_fan_link():
    """The link read off the subdivision's pieces equals the link of the
    built derived fan: its non-zero maximal cones as ray sets."""
    # a square cone next to a ray: a non-simplicial maximal cone in a fan
    # that is not pure, so the pieces of unequal dimensions all stay facets
    square = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1), (0, 0, -1)]
    square_and_ray = Fan(3, square, [frozenset({0, 1, 2, 3}), frozenset({4})])
    fans = [fan_p2(), fan_p1xp1(), product_fan(fan_p2(), fan_p2()), product_fan(fan_p2(), fan_p1xp1()),
            product_fan(fan_p1xp1(), fan_p1xp1()), _glued_pyramids(), square_and_ray,
            _sl_kernel_fan(2), _sl_kernel_fan(3)]
    for f in fans:
        out = derived_subdivision(f)
        reference = SimplicialComplex.from_facets(
            [frozenset(out.rays[i] for i in c) for c in out.maximal_cones() if c])
        assert link_complex(f).to_json_dict() == reference.to_json_dict()
    assert len(link_complex(square_and_ray).facets) == 5  # four triangles and the ray


def test_intersect_rejects_non_saturated():
    with pytest.raises(Exception):
        intersect_fan_subspace(fan_p1xp1(), [(2, 0)])


def test_fan_json_roundtrip_and_sorted_emission():
    f = fan_p2()
    doc = f.to_json_dict()
    assert doc["rays"] == sorted(doc["rays"])
    assert Fan.from_json_dict(doc) == f


@pytest.mark.parametrize("rays", [[(1,), (-1,)], [(1, 0), (0, 1), (-1, 0)]])
def test_fan_rejects_non_pointed_cones(rays):
    """A line and a half-plane: declared and built fans fail the same way."""
    rank = len(rays[0])
    with pytest.raises(FanError, match="fan cones must be pointed"):
        Fan(rank, rays, [frozenset(range(len(rays)))])
    with pytest.raises(FanError, match="fan cones must be pointed"):
        Fan.from_cones([Cone.from_generators(rays, rank)], rank)


def _all_pairs_fan_check(fan):
    """Every two cones meet in a cone that is a face of both, by the
    normal-subset face test: the check over all pairs that ``validate``
    replaces by maximal pairs."""
    normals, faces = {}, {}
    for c in fan.cones:
        rays = fan.cone_geometry(c).rays
        normals[c] = oracle.dual_rays(rays, fan.rank)
        faces[c] = oracle.cone_faces(rays, normals[c])
    for a, b in itertools.combinations(fan.cones, 2):
        meet = tuple(oracle.dual_rays(normals[a] + normals[b], fan.rank))
        if meet not in faces[a] or meet not in faces[b]:
            return False
    return True


def test_validate_checks_maximal_pairs_like_all_pairs():
    fans = [fan_p1(), fan_p2(), fan_p1xp1(), fan_a2(), _sl_kernel_fan(2)]
    rays = [(1, 0), (0, 1), (1, 1), (-1, 0)]
    for cones in ([[0, 1], [1, 2]], [[0, 2], [1, 2]], [[0, 2], [1, 3]], [[0, 2], [2, 1], [1, 3]],
                  [[0, 1], [2, 3]], [[0, 1], [2]]):
        fans.append(Fan(2, rays, [frozenset(c) for c in cones]))
    verdicts = []
    for f in fans:
        try:
            f.validate()
            verdicts.append(True)
        except FanError as exc:
            assert "is not a common face" in str(exc)
            verdicts.append(False)
        assert verdicts[-1] == _all_pairs_fan_check(f), f
    assert verdicts == [True] * 5 + [False, True, True, True, False, False]


def test_declared_overlapping_fan_is_rejected():
    doc = {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]], "cones": [[0, 1], [1, 2]]}
    with pytest.raises(FanError, match=r"intersection of \[0, 1\] and \[1, 2\] is not a common face"):
        Fan.from_json_dict(doc)


@pytest.mark.parametrize("cone", [[0, True], [0, 1.0]])
def test_fan_json_rejects_non_int_ray_index(cone):
    """Out-of-range indices are covered through the CLI (tests/test_cli.py)."""
    doc = fan_p2().to_json_dict()
    doc["cones"].append(cone)
    with pytest.raises(FanError, match="is not an index into the 3 rays"):
        Fan.from_json_dict(doc)
