import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from logskel.complexes import (
    ComplexError,
    GroupAction,
    SimplicialComplex,
    character_variety_complex,
    character_variety_homology,
    cycle_complex,
    homology,
    join,
    join_all,
    link_complex,
    quotient,
    quotient_homology,
    simplex_boundary_complex,
    sphere_profile,
    sphere_quotient_map_check,
    tate_strata,
)
from logskel.complexes import (
    _chain_radices,
    _character_variety_action,
    _close_pairs,
    _homology_from_boundaries,
    _monic_coefficients,
    _OrbitCells,
    _sl_link_and_action,
    _sl_link_data,
    _sphere_images,
    _unique_rows,
)
from logskel import complexes, logstructure, polyhedra
from logskel.logstructure import kato_fan_toric, product
from logskel.polyhedra import Cone, Fan, fan_p1xp1, fan_p2, maximal_sets, primitive
import homology_oracle
import join_oracle
from lattice_oracle import rat_solve
from orbit_oracle import OrbitCellsOracle, barycentric_subdivision, chains, vertex_maps
from polyhedra_oracle import derived_subdivision, is_simplicial
from sphere_oracle import all_close_pairs, sphere_check_oracle
from test_polyhedra import _sl_kernel_fan


# -- link complexes ---------------------------------------------------------

def test_link_p2_is_circle():
    lk = link_complex(fan_p2())
    assert len(lk.vertices) == 3
    assert homology(lk) == sphere_profile(1)


def test_link_single_ray_is_point():
    f = Fan(2, [(1, 0)], [frozenset({0})])
    lk = link_complex(f)
    assert len(lk.vertices) == 1
    assert lk.dim() == 0


def test_link_octant_contractible():
    f = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [frozenset({0, 1, 2})])
    lk = link_complex(f)
    assert homology(lk).degrees[0][0] == 1
    assert all(r == 0 and not t for r, t in homology(lk).degrees[1:])


def test_link_nonsimplicial_cone_subdivides():
    # cone over a square: one stellar ray makes four triangles
    f = Fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
            [frozenset({0, 1, 2, 3})])
    out = derived_subdivision(f)
    assert all(is_simplicial(out.cone_geometry(c)) for c in out.cones)
    lk = link_complex(f)
    prof = homology(lk)
    assert prof.degrees[0][0] == 1 and all(r == 0 for r, _ in prof.degrees[1:])


def test_link_of_product_fan_is_join_of_links():
    from logskel.polyhedra import fan_p1xp1, product_fan

    left = link_complex(fan_p2())
    right = link_complex(fan_p1xp1())
    prod = link_complex(product_fan(fan_p2(), fan_p1xp1()))
    assert homology(prod) == homology(join(left, right))


# -- joins --------------------------------------------------------------------

def test_join_s0_s0_is_square():
    s0 = SimplicialComplex.from_facets([(0,), (1,)])
    j = join(s0, s0)
    assert homology(j) == sphere_profile(1)
    assert len(j.facets) == 4


def test_join_of_two_triangles_is_s3():
    t = cycle_complex(3)
    assert homology(join(t, t)) == sphere_profile(3)


def test_join_with_point_is_cone():
    t = cycle_complex(3)
    prof = homology(join(t, SimplicialComplex.from_facets([("p",)])))
    assert prof.degrees[0][0] == 1
    assert all(r == 0 and not tor for r, tor in prof.degrees[1:])


def test_join_homology_rule_through_s5():
    models = {
        0: [SimplicialComplex.from_facets([(0,), (1,)])],
        1: [cycle_complex(3), cycle_complex(4), cycle_complex(5)],
        2: [simplex_boundary_complex(3)],
        3: [simplex_boundary_complex(4)],
        4: [simplex_boundary_complex(5)],
    }
    rng = random.Random(83)
    for _ in range(200):
        a = rng.choice([0, 1, 2, 3])
        b = rng.randint(0, 4 - a)
        left = rng.choice(models[a])
        right = rng.choice(models[b])
        assert homology(join(left, right)) == sphere_profile(a + b + 1)


def test_joins_match_the_frozenset_oracle(monkeypatch):
    """``join`` and ``join_all`` against pairwise facet unions and their
    maximal sets, on seeded complexes of mixed facet sizes drawn from label
    families that share labels or not, with the empty facet among them; the
    joins themselves run no constructor and no maximal-set search."""
    rng = random.Random(3203)
    empty = SimplicialComplex.from_facets([frozenset()])  # one facet, the empty one
    ks = [_random_labelled_complex(rng) for _ in range(60)] + [empty, cycle_complex(3)]
    pairs = [tuple(rng.sample(ks, 2)) for _ in range(150)] + [(empty, empty), (empty, ks[0]), (ks[0], ks[0])]
    parts = [rng.sample(ks, 3) for _ in range(20)] + [[empty, cycle_complex(3), empty], [ks[1]]]
    expected = ([join_oracle.join(a, b) for a, b in pairs]
                + [join_oracle.join_all(p) for p in parts])

    def refuse(*args):
        raise AssertionError("a join left the rank rows")

    monkeypatch.setattr(SimplicialComplex, "__init__", refuse)
    monkeypatch.setattr(complexes, "maximal_sets", refuse)
    got = [join(a, b) for a, b in pairs] + [join_all(p) for p in parts]
    for k, want in zip(got, expected):
        assert k.vertices == want.vertices
        assert k.to_json_dict() == want.to_json_dict()
    shared = sum(bool(set(a.vertices) & set(b.vertices)) for a, b in pairs)
    assert 20 <= shared <= len(pairs) - 20, shared  # both label paths of join
    assert max(len({len(f) for f in k.facets}) for k in got) >= 3  # facets of three sizes in one join
    assert got[len(pairs) - 3].facets == (frozenset(),)  # the join of two empty facets


def test_join_refusals_are_kept():
    with pytest.raises(ComplexError, match="empty join"):
        join_all([])
    with pytest.raises(ComplexError, match="every declared vertex must appear in some facet"):
        join(SimplicialComplex([], []), cycle_complex(3))


# -- homology ------------------------------------------------------------------

def test_boundary_of_3_simplex():
    prof = homology(simplex_boundary_complex(3))
    assert prof == sphere_profile(2)


def test_three_cycle():
    assert homology(cycle_complex(3)) == sphere_profile(1)


def test_join_of_three_squares_is_s5():
    j = join_all([cycle_complex(4)] * 3)
    prof = homology(j)
    assert prof == sphere_profile(5)
    # cross-check the Euler characteristic against the f-vector
    assert j.euler_characteristic() == 0


def test_gl_join_is_the_dual_complex_of_the_product_kato_fan():
    """The n-fold join of 4-cycles is the dual complex of the boundary of
    (P^1 x P^1)^n: vertices are the rank-1 points of the product Kato fan,
    and each closed point gives the facet of rank-1 points it lies under."""
    def factors(key):  # product keys nest to the left: ((k0, k1), k2)
        return (key,) if key[0] == "cone" else factors(key[0]) + (key[1],)

    def vertex(key):  # the rank-1 point with ray v in factor i is (i, v)
        [(i, v)] = [(i, c[1][0]) for i, c in enumerate(factors(key)) if c[1]]
        return i, v

    factor = kato_fan_toric(fan_p1xp1())
    k = factor
    for n in (1, 2, 3):
        if n > 1:
            k = product(k, factor)
        rank1 = [x for x, p in k.points.items() if p.rank == 1]
        closed = set(k.points) - {y for _, y in k.order}
        dual = SimplicialComplex.from_facets(
            [frozenset(vertex(y) for y in rank1 if k.specializes(x, y)) for x in closed])
        join = join_all([cycle_complex(4)] * n)
        assert sorted(map(vertex, rank1)) == sorted(join.vertices)
        assert len(closed) == len(join.facets) == 4 ** n
        assert dual == join


def _rp2():
    return SimplicialComplex.from_facets([
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)])


def test_torsion_detected_rp2():
    prof = homology(_rp2())
    assert prof.degrees[0] == (1, [])
    assert prof.degrees[1] == (0, [2])
    assert prof.degrees[2] == (0, [])


def _sympy_homology(k):
    """Ranks and torsion from sympy's SNF of every full dense boundary matrix."""
    from sympy import ZZ, zeros
    from sympy.matrices.normalforms import smith_normal_form

    simplices = homology_oracle.simplices_by_dim(k)
    ids = [{s: i for i, s in enumerate(level)} for level in simplices]
    diags = [[] for _ in simplices] + [[]]
    for d in range(1, len(simplices)):
        m = zeros(len(simplices[d - 1]), len(simplices[d]))
        for j, s in enumerate(simplices[d]):
            for i in range(len(s)):
                m[ids[d - 1][s[:i] + s[i + 1:]], j] = (-1) ** i
        snf = smith_normal_form(m, domain=ZZ)
        diags[d] = [abs(int(snf[t, t])) for t in range(min(snf.shape)) if snf[t, t] != 0]
    return [(len(level) - len(diags[d]) - len(diags[d + 1]),
             sorted(x for x in diags[d + 1] if x > 1)) for d, level in enumerate(simplices)]


def test_clearing_matches_unreduced_sympy_snf():
    import json
    import os

    from logskel.polyhedra import Fan

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "fixtures", "p2xp2_fan.json")
    with open(path) as fh:
        link = link_complex(Fan.from_json_dict(json.load(fh)))
    two_points = SimplicialComplex.from_facets([(0,), (1,)])
    cases = [_rp2(), cycle_complex(5), simplex_boundary_complex(3),
             join(_rp2(), two_points), join(_rp2(), cycle_complex(3)), link]
    torsion_seen = 0
    for k in cases:
        expect = _sympy_homology(k)
        assert homology(k).degrees == expect
        assert homology_oracle.homology(k).degrees == expect
        torsion_seen += sum(len(t) for _, t in expect)
    assert torsion_seen >= 3  # RP^2 and its two joins carry Z/2


def _random_complex(rng):
    """A small random complex; about half of them start from a relabelled RP^2
    (so Z/2 torsion is common) and add random facets or a join factor."""
    facets = [tuple(rng.sample(range(8), rng.randint(1, 4))) for _ in range(rng.randint(1, 9))]
    if rng.random() < 0.5:
        label = rng.sample(range(8), 6)
        facets = [tuple(label[v] for v in f) for f in _rp2().facets] + facets[:rng.randint(0, 3)]
    k = SimplicialComplex.from_facets(facets)
    if rng.random() < 0.25:
        k = join(k, rng.choice([cycle_complex(3), SimplicialComplex.from_facets([(0,), (1,)])]))
    return k


def test_bottom_up_engine_matches_top_down_oracle_on_random_complexes():
    rng = random.Random(13)
    torsion_seen = 0
    for _ in range(320):
        k = _random_complex(rng)
        got = homology(k)
        assert got.degrees == homology_oracle.homology(k).degrees
        torsion_seen += any(t for _, t in got.degrees)
    assert torsion_seen >= 60, torsion_seen  # the torsion path is exercised


# label families whose str order is not their natural order: 10 < 9 as
# strings, tuples compare by their text, and the strings mix lengths
LABELS = {
    "ints": list(range(13)),
    "tuples": [(i, j) for i in (1, 10, 9) for j in (0, 2, 11)],
    "strings": ["a", "a10", "a9", "B", "b", "b2", "ab", "z", "Z1"],
}


def _random_labelled_complex(rng):
    """Facets of 1 to 5 vertices drawn from one label family."""
    labels = LABELS[rng.choice(sorted(LABELS))]
    return SimplicialComplex.from_facets(
        rng.sample(labels, rng.randint(1, 5)) for _ in range(rng.randint(1, 7)))


def test_simplex_table_matches_enumeration_oracle():
    rng = random.Random(1801)
    cases = [SimplicialComplex([], []), SimplicialComplex.from_facets([(10,)]),
             SimplicialComplex.from_facets([(9,), (10, 11), (9, 10, 2)])]
    cases += [_random_labelled_complex(rng) for _ in range(200)]
    sizes_seen = set()
    for k in cases:
        simplices = homology_oracle.simplices_by_dim(k)
        assert k.simplices_by_dim() == simplices
        ids = [{s: i for i, s in enumerate(level)} for level in simplices]
        rows, faces = k._simplex_table()
        assert [len(level) for level in rows] == [len(level) for level in simplices]
        assert len(faces) == len(rows)
        for d in range(1, len(rows)):
            assert faces[d].dtype == np.int32 and faces[d].shape == (len(simplices[d]), d + 1)
            assert faces[d].tolist() == [[ids[d - 1][s[:i] + s[i + 1:]] for i in range(d + 1)]
                                         for s in simplices[d]]
        assert homology(k).degrees == homology_oracle.homology(k).degrees
        assert k.euler_characteristic() == sum((-1) ** d * len(level) for d, level in enumerate(simplices))
        sizes_seen.add(len({len(f) for f in k.facets}))
    assert max(sizes_seen) >= 3  # facets of three or more sizes in one complex
    assert repr(homology(cases[0])) == "H()" and cases[0].simplices_by_dim() == []
    assert homology(cases[1]).degrees == [(1, [])]  # a single vertex


def test_unique_rows_matches_numpy_unique():
    # values up to 2^k - 1 pack 63 // k columns per sort key: one key, two
    # keys (k = 5, 20 columns) and one column per key (k = 40)
    rng = np.random.default_rng(1802)
    for bits, width in ((1, 3), (5, 20), (10, 6), (40, 3)):
        rows = rng.integers(0, 2 ** bits, size=(300, width), dtype=np.int64)
        rows = np.concatenate([rows, rows[::3]])  # every third row twice
        distinct, inverse = _unique_rows(rows)
        expect, expect_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(distinct, expect)
        assert np.array_equal(inverse, expect_inverse.ravel())
    distinct, inverse = _unique_rows(np.empty((0, 2), dtype=np.int32))
    assert distinct.shape == (0, 2) and inverse.shape == (0,)


def test_unique_rows_orders_rows_that_tie_on_the_first_key():
    """Rows of 0 and 2^k - 1 tie often on the columns of the first sort key,
    so the later keys must order them; one key (k = 5, 12 columns) sorts by
    one argsort, two and three keys by one lexsort."""
    rng = np.random.default_rng(2103)
    for bits, width in ((5, 12), (5, 20), (40, 3)):
        rows = rng.integers(0, 2, size=(400, width), dtype=np.int64) * (2 ** bits - 1)
        distinct, inverse = _unique_rows(rows)
        expect, expect_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(distinct, expect)
        assert np.array_equal(inverse, expect_inverse.ravel())


def test_bottom_up_engine_matches_oracle_on_rp2_joins():
    rp2 = _rp2()
    for k in (rp2, join(rp2, rp2), join(rp2, cycle_complex(4)), barycentric_subdivision(rp2)):
        got = homology(k)
        assert got.degrees == homology_oracle.homology(k).degrees
    assert homology(join(rp2, rp2)).torsion(3) == [2]  # the join carries H_3 = Z/2


def test_engine_refuses_a_repeated_face():
    faces = {1: np.array([[0, 1], [1, 1]], dtype=np.int32)}
    with pytest.raises(ComplexError, match="repeated face"):
        _homology_from_boundaries([2, 2], faces.get)


@pytest.fixture
def sparse_built(monkeypatch):
    """(columns, rows) of every SparseIntMatrix the homology engine builds."""
    from logskel import complexes

    built = []
    real = complexes.SparseIntMatrix

    def spy(columns, nrows):
        built.append((len(columns), nrows))
        return real(columns, nrows)

    monkeypatch.setattr(complexes, "SparseIntMatrix", spy)
    return built


def test_only_the_degree_one_remainder_reaches_sparse_elimination(sparse_built):
    assert character_variety_homology("gl", 3) == sphere_profile(5)
    # degree 1 (164 vertices, 2,596 edges) is a spanning forest and every
    # higher degree is peeled away by unit pivots: no sparse elimination
    assert sparse_built == []


def test_slow_collapse_is_left_to_sparse_elimination(sparse_built):
    # degree 1 never reaches sparse elimination, not even a 20,000-edge path
    path = SimplicialComplex.from_facets([(i, i + 1) for i in range(20_000)])
    assert homology(path).degrees == [(1, []), (0, [])]
    assert sparse_built == []
    # a triangle strip collapses two triangles per peel round; after the first
    # round the peel hands the coboundary of the 19,982 live edges into the
    # 20,000 triangles over instead of running 10,000 rounds of O(strip) each
    strip = SimplicialComplex.from_facets([(i, i + 1, i + 2) for i in range(20_000)])
    assert homology(strip).degrees == [(1, []), (0, []), (0, [])]
    assert sparse_built == [(19_982, 20_000)]


def _components(vertices, edges):
    parent = list(range(vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        parent[find(a)] = find(b)
    return [find(v) for v in range(vertices)]


def test_spanning_forest_matches_union_find():
    rng = random.Random(1901)
    shuffled = rng.sample(range(20_000), 20_000)
    graphs = [(20_000, [(i, i + 1) for i in range(19_999)]),  # a path
              (20_000, list(zip(shuffled, shuffled[1:]))),  # the path under random labels
              (2_001, [(0, i) for i in range(1, 2_001)]),  # a star
              (5, []), (1, []), (0, [])]
    for _ in range(200):
        vertices = rng.randint(1, 40)
        edges = [tuple(rng.sample(range(vertices), 2)) for _ in range(rng.randint(0, vertices))
                 if vertices > 1]
        edges += [edges[i] for i in range(0, len(edges), 4)]  # parallel edges
        rng.shuffle(edges)
        graphs.append((vertices, edges))
    isolated = parallel = several = 0
    for vertices, edges in graphs:
        forest = complexes._spanning_forest(vertices, np.array(edges, dtype=np.int32).reshape(-1, 2))
        root = _components(vertices, edges)
        tree = [e for e, kept in zip(edges, forest.tolist()) if kept]
        assert len(tree) == vertices - len(set(root))
        # the tree's edges are the graph's, so with as many components it meets
        # every component, and V - c edges on c components make no cycle
        assert len(set(_components(vertices, tree))) == len(set(root))
        touched = {v for e in edges for v in e}
        isolated += vertices - len(touched)
        parallel += len(edges) > len(set(map(frozenset, edges)))
        several += len({root[v] for v in touched}) > 1
    assert isolated > 100 and parallel > 100 and several > 100


def test_maximal_sets_match_brute_force_in_order():
    rng = random.Random(1902)
    for _ in range(500):
        family = []
        for _ in range(rng.randint(0, 12)):
            f = frozenset(rng.sample(range(9), rng.randint(0, 5)))
            family.append(f)
            while rng.random() < 0.4:  # a nested chain
                f = frozenset(rng.sample(sorted(f), rng.randint(0, len(f))))
                family.append(f)
            if rng.random() < 0.2:  # a duplicate
                family.append(frozenset(family[rng.randrange(len(family))]))
        if rng.random() < 0.2:
            family.insert(rng.randint(0, len(family)), frozenset())
        rng.shuffle(family)
        assert maximal_sets(family) == [f for f in family if not any(f < g for g in family)]
    assert maximal_sets([frozenset(), frozenset()]) == [frozenset(), frozenset()]
    pure = [frozenset(rng.sample(range(9), 3)) for _ in range(50)]
    assert maximal_sets(pure) == pure


def test_facets_keep_the_str_order_of_distinct_labels():
    rng = random.Random(1903)
    pool = list(range(12)) + [(i, "x") for i in range(8)] + ["a", "B", "1x", "(0, 'x')0", "ä"]
    for _ in range(200):
        facets = [rng.sample(pool, rng.randint(1, 5)) for _ in range(rng.randint(1, 8))]
        k = SimplicialComplex.from_facets(facets)
        assert len({str(v) for v in k.vertices}) == len(k.vertices)
        old = sorted({f for f in k.facets}, key=lambda f: (len(f), sorted(map(str, f))))
        assert list(k.facets) == old


def test_facet_order_of_colliding_labels_is_fixed(tmp_path):
    # vertices 1 and "1" share their str; the order must not come from the
    # input order or from string hashing
    docs = [{"vertices": [1, "1", 2, "x"], "facets": [[0, 2], [1, 2], [0, 3], [1, 3]]},
            {"vertices": ["x", 2, "1", 1], "facets": [[1, 3], [0, 2], [1, 2], [0, 3]]}]
    orders = set()
    for i, doc in enumerate(docs):
        path = tmp_path / f"k{i}.json"
        path.write_text(json.dumps(doc))
        script = ("import json, sys; from logskel.complexes import SimplicialComplex; "
                  "k = SimplicialComplex.from_json_dict(json.load(open(sys.argv[1]))); "
                  "print([sorted(map(repr, f)) for f in k.facets])")
        for seed in ("0", "3", "4"):  # three different set orders of these facets
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(sys.path)}
            run = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                                 capture_output=True, text=True, check=True)
            orders.add(run.stdout)
    assert len(orders) == 1, orders
    # ranks by (str, repr): "1" < 1 < 2 < "x"
    assert orders.pop().strip() == str([["'1'", "2"], ["'1'", "'x'"], ["1", "2"], ["'x'", "1"]])


def test_vertex_order_of_colliding_labels_is_fixed():
    # "1" and 1, "2" and 2 share their str; from_facets must not take the
    # order of such a pair from string hashing (set order)
    script = ("from logskel.complexes import SimplicialComplex; "
              "k = SimplicialComplex.from_facets([('1', 1, 'b'), ('b', 2, '2'), tuple('xyzwvuq')]); "
              "print(k.vertices, k.to_json_dict())")
    outputs = set()
    for seed in ("0", "8"):  # two different set orders of these labels
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1, outputs
    vertices = ("'1'", "1", "'2'", "2", "'b'", "'q'", "'u'", "'v'", "'w'", "'x'", "'y'", "'z'")
    assert outputs.pop().startswith("(" + ", ".join(vertices) + ")")


def test_vertex_labels_nest_at_most_300_lists():
    def doc(depth):
        return {"vertices": [json.loads("[" * depth + "0" + "]" * depth), 1], "facets": [[0, 1]]}

    edge = SimplicialComplex.from_json_dict(doc(300))
    assert homology(edge) == homology(SimplicialComplex.from_facets([(0, 1)]))
    with pytest.raises(ComplexError, match="nests lists more than 300 deep"):
        SimplicialComplex.from_json_dict(doc(301))


def test_dense_core_gets_no_empty_lines(monkeypatch):
    from logskel import lattice

    calls = []
    real = lattice.snf_diagonal

    def spy(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(lattice, "snf_diagonal", spy)

    def empty_lines(a):
        return sum(not any(row) for row in a) + sum(not any(col) for col in zip(*a))

    # control: RP^2 leaves its Z/2 to the dense core, so the spy must see it
    assert homology(_rp2()).torsion(1) == [2]
    assert calls and all(empty_lines(a) == 0 for a in calls)
    calls.clear()
    assert character_variety_homology("gl", 2) == sphere_profile(3)
    assert homology(character_variety_complex("sl", 3)) == sphere_profile(3)
    assert all(empty_lines(a) == 0 for a in calls)
    # both reduce by unit pivots alone: no dense core at all
    assert calls == []


def test_maximal_facets_match_brute_force():
    rng = random.Random(23)
    for _ in range(300):
        family = []
        for _ in range(rng.randint(1, 12)):
            f = frozenset(rng.sample(range(9), rng.randint(0, 5)))
            family.append(f)
            if rng.random() < 0.3:  # a nested facet
                family.append(frozenset(rng.sample(sorted(f), rng.randint(0, len(f)))))
            if rng.random() < 0.2:  # a duplicate
                family.append(frozenset(f))
        if rng.random() < 0.2:
            family.append(frozenset())
        fs = set(family)
        brute = {f for f in fs if not any(f < g for g in fs)}
        assert set(SimplicialComplex.from_facets(family).facets) == brute
    assert SimplicialComplex.from_facets([frozenset()]).facets == (frozenset(),)
    assert SimplicialComplex.from_facets([(), (0,), (0,)]).facets == (frozenset({0}),)


def test_barycentric_subdivision_preserves_homology():
    for k in (cycle_complex(4), simplex_boundary_complex(3),
              join(cycle_complex(3), SimplicialComplex.from_facets([("p",)]))):
        assert homology(barycentric_subdivision(k)) == homology(k)


# -- quotients --------------------------------------------------------------------

def test_quotient_trivial_group_identity():
    k = cycle_complex(4)
    assert quotient(k, []) == k


def test_quotient_antipodal_circle():
    k = cycle_complex(4)
    anti = {0: 2, 1: 3, 2: 0, 3: 1}
    q = quotient(k, [anti])
    assert homology(q) == sphere_profile(1)
    assert quotient_homology(k, [anti]) == sphere_profile(1)


def test_quotient_swap_join_is_s3():
    k = join_all([cycle_complex(4)] * 2)
    swap = {(i, v): (1 - i, v) for (i, v) in k.vertices}
    q = quotient(k, [swap])
    assert homology(q) == sphere_profile(3)
    assert quotient_homology(k, [swap]) == sphere_profile(3)


def test_quotient_euler_characteristic_equals_orbit_count_sum():
    k = join_all([cycle_complex(4)] * 2)
    swap = {(i, v): (1 - i, v) for (i, v) in k.vertices}
    action = GroupAction(k, [swap])
    cells = _OrbitCells(k, action)
    counts = cells.cell_counts()
    alt = sum((-1) ** d * c for d, c in enumerate(counts))
    assert quotient(k, [swap]).euler_characteristic() == alt


def _swap_on_join_of_squares():
    k = join_all([cycle_complex(4)] * 2)
    return k, [{(i, v): (1 - i, v) for (i, v) in k.vertices}]


# Functions returning (complex, generators).  Of the five small actions,
# the reflection fixes two vertices, the S5 action and the swap fix
# simplices with faces below them, and the antipodal map and the rotation
# act freely.
ORBIT_CASES = {
    **{f"{g}{n}": (lambda g=g, n=n: _character_variety_action(g, n))
       for g, n in (("gl", 1), ("gl", 2), ("gl", 3), ("sl", 2), ("sl", 3))},
    "reflected-square": lambda: (cycle_complex(4), [{0: 0, 1: 3, 2: 2, 3: 1}]),
    "s5-on-simplex-boundary": lambda: (simplex_boundary_complex(4), [
        {0: 1, 1: 0, 2: 2, 3: 3, 4: 4}, {i: (i + 1) % 5 for i in range(5)}]),
    "antipodal-square": lambda: (cycle_complex(4), [{0: 2, 1: 3, 2: 0, 3: 1}]),
    "rotated-triangle": lambda: (cycle_complex(3), [{0: 1, 1: 2, 2: 0}]),
    "swap-on-join-of-squares": _swap_on_join_of_squares,
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_cells_match_materializing_oracle(case, monkeypatch):
    from logskel import complexes

    k, gens = ORBIT_CASES[case]()
    action = GroupAction(k, gens)
    cells, oracle = _OrbitCells(k, action), OrbitCellsOracle(k, action)
    assert cells.cell_counts() == oracle.cell_counts()
    for d in range(cells.dim + 1):
        reps = chains(cells, d, cells.keys[d]).tolist()
        assert [tuple(chain[::-1]) for chain in reps] == oracle.rep_chains(d)
    whole = [cells.faces(d) for d in range(1, cells.dim + 1)]
    monkeypatch.setattr(complexes, "_FACE_BLOCK", 7)  # several blocks per level
    blocked = _OrbitCells(k, action)
    assert len(blocked.keys) == len(cells.keys)
    for keys, expect in zip(blocked.keys, cells.keys):
        assert keys.dtype == np.int64 and np.array_equal(keys, expect)
    for d in range(1, cells.dim + 1):
        faces = cells.faces(d)
        assert faces.dtype == np.int32 and faces.shape == (cells.cell_counts()[d], d + 1)
        assert [[(row, (-1) ** i) for i, row in enumerate(cell)] for cell in faces.tolist()] == \
            oracle.boundary_columns(d, set())
        assert np.array_equal(faces, whole[d - 1])


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_space_flags_match_subchain_oracle(case):
    # the face-path flags against every subchain of every maximal representative,
    # looked up by brute force; the stabilizer-heavy cases test that face i of
    # a representative drops the position that face i of its orbit's chains does
    from logskel import complexes

    k, gens = ORBIT_CASES[case]()
    action = GroupAction(k, gens)
    oracle = OrbitCellsOracle(k, action)
    maximal = oracle.maximal_cells()
    if sum(len(cells) * math.factorial(d + 1) for d, cells in enumerate(maximal)) > complexes._MAX_FACETS:
        with pytest.raises(ComplexError, match="facets"):  # gl3: 7,680 top cells, 720 flags each
            _OrbitCells(k, action).orbit_space_complex()
        return
    assert _OrbitCells(k, action).orbit_space_complex() == \
        SimplicialComplex.from_facets(oracle.orbit_space_flags(maximal))


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_bottom_up_engine_matches_top_down_oracle_on_orbit_cells(case):
    k, gens = ORBIT_CASES[case]()
    cells = _OrbitCells(k, GroupAction(k, gens))
    expect = homology_oracle.homology_of_faces(cells.cell_counts(), cells.faces)
    assert quotient_homology(k, gens).degrees == expect.degrees


def _random_complexes():
    rng = random.Random(2301)
    return [_random_complex(rng) for _ in range(120)]


# (complexes, or an ORBIT_CASES action, whose homology runs the peel)
PEEL_CASES = {
    **ORBIT_CASES,
    "gl2-materialized": lambda: [character_variety_complex("gl", 2)],
    "sl3-materialized": lambda: [character_variety_complex("sl", 3)],
    "triangle-strip": lambda: [SimplicialComplex.from_facets([(i, i + 1, i + 2) for i in range(20_000)])],
    "random": _random_complexes,
}


@pytest.mark.parametrize("case", sorted(PEEL_CASES))
def test_chunked_peel_matches_mask_indexed_oracle(case, monkeypatch):
    # every peel the engine runs, next to the mask-indexed peel of
    # homology_oracle on copies of its input, with 7-entry gather chunks so
    # that every gather and compaction spans several chunks
    real, runs = complexes._peel, []

    def spy(cells, cleared):
        expect_cleared = cleared.copy()
        expect = homology_oracle.peel(cells, expect_cleared)
        got = real(cells, cleared)
        assert np.array_equal(cleared, expect_cleared)  # the pivot rows
        assert np.array_equal(got[0], expect[0]) and got[1] == expect[1]  # pivot columns, rank
        for array, oracle in zip(got[2:], expect[2:]):  # remainder rows, cols, faces, in order
            assert array.dtype == oracle.dtype and np.array_equal(array, oracle)
        runs.append(cells.size)
        return got

    monkeypatch.setattr(complexes, "_GATHER_BLOCK", 7)
    monkeypatch.setattr(complexes, "_peel", spy)
    made = PEEL_CASES[case]()
    if case in ORBIT_CASES:
        k, gens = made
        levels = [len(_OrbitCells(k, GroupAction(k, gens)).cell_counts())]
        quotient_homology(k, gens)
    else:
        levels = [k.dim() + 1 for k in made]
        for k in made:
            homology(k)
    assert len(runs) == sum(max(n - 2, 0) for n in levels)  # one peel per degree from 2 up
    assert not runs or max(runs) > 7  # the gathers span several chunks


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_group_tables_match_frozenset_construction(case):
    # the simplex-id permutations and the id of every subset of every simplex
    # by position mask, built one simplex at a time from a frozenset -> id dict
    k, gens = ORBIT_CASES[case]()
    action = GroupAction(k, gens)
    cells = _OrbitCells(k, action)
    sims = [s for level in homology_oracle.simplices_by_dim(k) for s in level]
    ids = {frozenset(s): i for i, s in enumerate(sims)}
    perms = [[ids[frozenset(map(g.__getitem__, s))] for s in sims] for g in vertex_maps(action)]
    assert cells._perms.tolist() == perms
    rank = {v: i for i, v in enumerate(sorted(k.vertices, key=lambda v: (str(v), repr(v))))}
    assert cells._mask_starts[-1] == len(cells._sub) == sum(2 ** len(s) for s in sims)
    for t, s in enumerate(sims):
        verts = sorted(s, key=rank.__getitem__)
        table = cells._sub[cells._mask_starts[t]:cells._mask_starts[t + 1]]
        assert table[1:].tolist() == [ids[frozenset(v for i, v in enumerate(verts) if m >> i & 1)]
                                      for m in range(1, 1 << len(verts))]


def _stabilizers(k, action):
    """Per simplex id, the indices of the non-identity group elements fixing it."""
    sims = [s for level in homology_oracle.simplices_by_dim(k) for s in level]
    maps = vertex_maps(action)
    moving = [i for i, g in enumerate(maps) if any(g[v] != v for v in g)]
    return sims, [[i for i in moving if {maps[i][v] for v in s} == set(s)] for s in sims]


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_stabilizer_tables_match_brute_force(case):
    k, gens = ORBIT_CASES[case]()
    action = GroupAction(k, gens)
    cells = _OrbitCells(k, action)
    _, stabs = _stabilizers(k, action)
    assert cells._stab_sizes.tolist() == [len(stab) for stab in stabs]
    assert len(cells._stab) == sum(map(len, stabs))
    for t, stab in enumerate(stabs):
        start = cells._stab_offsets[t]
        assert cells._stab[start:start + len(stab)].tolist() == stab


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_mask_tables_match_face_pairs_and_group_images(case):
    # masks over a simplex's vertices, bit i its i-th vertex by rank: each
    # digit is the face's index among the proper faces in id order, subset
    # inverts digit, compress renumbers into the superset's vertices, and
    # the stabilizer and move tables are the images of the vertex sets
    k, gens = ORBIT_CASES[case]()
    action = GroupAction(k, gens)
    cells = _OrbitCells(k, action)
    sims, stabs = _stabilizers(k, action)
    ids = {frozenset(s): i for i, s in enumerate(sims)}
    rank = {v: i for i, v in enumerate(sorted(k.vertices, key=lambda v: (str(v), repr(v))))}
    digit, subset, compress, maps = cells._digit, cells._subset, cells._compress, vertex_maps(action)
    assert digit.shape == subset.shape == compress.shape == (2 ** (cells.dim + 1),) * 2

    def mask_over(verts, vs):
        return sum(1 << verts.index(v) for v in vs)

    def faces_of(s):  # proper faces in id order
        return sorted((ids[frozenset(f)] for size in range(1, len(s)) for f in itertools.combinations(s, size)))

    stab_rows = iter(range(len(cells._stab)))
    for t, s in enumerate(sims):
        verts = sorted(s, key=rank.__getitem__)
        for p in range(1, 1 << len(verts)):
            upper = [v for i, v in enumerate(verts) if p >> i & 1]
            below = faces_of(upper)
            for m in range(1, p):
                if m & p == m:
                    lower = [v for i, v in enumerate(verts) if m >> i & 1]
                    assert below[digit[p, m]] == ids[frozenset(lower)]
                    assert subset[p, digit[p, m]] == m
                    assert compress[p, m] == mask_over(upper, lower)
            assert digit[p, p] == len(below)
        g = maps[cells._moves[t]]
        image = sims[cells._perms[cells._moves[t], t]]
        assert set(map(g.__getitem__, s)) == set(image)
        table = cells._move_masks[cells._mask_starts[t]:cells._mask_starts[t + 1]]
        image = sorted(image, key=rank.__getitem__)
        assert table.tolist() == [mask_over(image, [g[v] for i, v in enumerate(verts) if m >> i & 1])
                                  for m in range(1 << len(verts))]
        for e in stabs[t]:
            r = next(stab_rows)
            table = cells._stab_masks[cells._stab_starts[r]:cells._stab_starts[r] + (1 << len(verts))]
            assert table.tolist() == [mask_over(verts, [maps[e][v] for i, v in enumerate(verts)
                                                        if m >> i & 1]) for m in range(1 << len(verts))]
    assert next(stab_rows, None) is None
    assert len(cells._stab_masks) == sum(2 ** len(s) * len(stab) for s, stab in zip(sims, stabs))


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_least_matches_brute_force_minimum_over_the_whole_group(case):
    # random top-first chains under least-of-orbit tops, half of them under a
    # top with the largest stabilizer; gl3 has simplices fixed by all of G
    k, gens = ORBIT_CASES[case]()
    action = GroupAction(k, gens)
    cells = _OrbitCells(k, action)
    sims, stabs = _stabilizers(k, action)
    ids = {frozenset(s): i for i, s in enumerate(sims)}
    tops = cells.keys[0].tolist()
    most = max(len(stabs[t]) for t in tops)
    widest = [t for t in tops if len(stabs[t]) == most]
    if case == "gl3":
        assert len(stabs[widest[0]]) == action.order() - 1
    rng = random.Random(f"least-{case}")
    by_length = {}
    for _ in range(400):
        top = sims[rng.choice(rng.choice((tops, widest)))]
        chain, below = [top], list(top)
        for size in sorted(rng.sample(range(1, len(top)), rng.randint(0, len(top) - 1)), reverse=True):
            below = rng.sample(below, size)
            chain.append(below)
        by_length.setdefault(len(chain), []).append([ids[frozenset(s)] for s in chain])
    rank = {v: i for i, v in enumerate(sorted(k.vertices, key=lambda v: (str(v), repr(v))))}
    maps = vertex_maps(action)
    for length, rows in by_length.items():
        # each chain below its top as masks: bit i is the top's i-th vertex by rank
        where = [{v: i for i, v in enumerate(sorted(sims[row[0]], key=rank.__getitem__))} for row in rows]
        masks = [[sum(1 << at[v] for v in sims[c]) for c in row[1:]] for row, at in zip(rows, where)]
        least = chains(cells, length - 1, cells._least(
            np.array([row[0] for row in rows]), np.array(masks, dtype=np.intp).reshape(len(rows), length - 1).T))
        expect = [min(tuple(ids[frozenset(map(g.__getitem__, sims[c]))] for c in row)
                      for g in maps) for row in rows]
        assert [tuple(row) for row in least.tolist()] == expect


@pytest.mark.parametrize("block", [4096, 7])
@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_enumeration_keeps_the_extensions_that_least_leaves_in_place(case, block, monkeypatch):
    # the keep rule, which tries only each chain's own automorphisms, against
    # the minimisation over all of Stab(top): every key is its own _least, and
    # the next level is every one-element extension that _least leaves in
    # place; the S5 action has chains with automorphisms two levels deep
    from logskel import complexes

    monkeypatch.setattr(complexes, "_FACE_BLOCK", block)
    k, gens = ORBIT_CASES[case]()
    cells = _OrbitCells(k, GroupAction(k, gens))
    deepest = -1
    for d, keys in enumerate(cells.keys):
        tops, masks = cells._masks(d, keys)
        assert np.array_equal(cells._least(tops, masks), keys)
        sizes = cells._stab_sizes[tops]  # does an element of Stab(top) fix the whole chain?
        owner = np.repeat(np.arange(len(keys)), sizes)
        rows = np.arange(sizes.sum()) + np.repeat(cells._stab_offsets[tops] - np.cumsum(sizes) + sizes, sizes)
        images = cells._stab_masks[cells._stab_starts[rows] + masks[:, owner]]
        deepest = d if (images == masks[:, owner]).all(axis=0).any() else deepest
        if d < cells.dim:
            radix, last = cells._radices[d], masks[-1] if d else cells._full[tops]
            extensions = (keys[:, None] * radix + np.arange(radix))[np.arange(radix) < cells._digit[last, last][:, None]]
            least = cells._least(*cells._masks(d + 1, extensions))
            assert np.array_equal(cells.keys[d + 1], extensions[least == extensions])
    if case == "s5-on-simplex-boundary":
        assert deepest == 2


def test_orbit_cells_share_one_move_per_group_element():
    # the antipodal map of a 2000-cycle: 4,000 simplices, half of them off
    # their orbit's least simplex by the one nontrivial element, so the table
    # holds the |G| = 2 permutations and each simplex indexes one of them
    m = 1000
    k = cycle_complex(2 * m)
    anti = {v: (v + m) % (2 * m) for v in range(2 * m)}
    cells = _OrbitCells(k, GroupAction(k, [anti]))
    assert cells.cell_counts() == [2 * m, 2 * m]
    assert cells._perms.shape == (2, 4 * m) and cells._moves.shape == (4 * m,)
    least = cells._perms[cells._moves, np.arange(4 * m)]
    assert np.array_equal(least, np.minimum(*cells._perms))
    assert np.bincount(cells._moves).tolist() == [2 * m, 2 * m]
    assert quotient_homology(k, [anti]) == sphere_profile(1)


def test_orbit_cell_keys_refuse_int64_overflow():
    # gl n = 4: 6,560 simplices of dimension up to 7, keys below 6560 * 1e10
    assert _chain_radices(6560, 7) == [254, 126, 62, 30, 14, 6, 2]
    assert _chain_radices(1, 0) == []
    for simplices, dim in ((6560, 10), (2 ** 32, 1), (2 ** 63 + 1, 0)):
        with pytest.raises(ComplexError, match="overflow int64"):
            _chain_radices(simplices, dim)


@pytest.mark.parametrize("case, counts", [("reflected-square", [5, 4]),
                                          ("s5-on-simplex-boundary", [4, 6, 4, 1])])
def test_orbit_cells_under_nontrivial_stabilizers(case, counts):
    k, gens = ORBIT_CASES[case]()
    assert _OrbitCells(k, GroupAction(k, gens)).cell_counts() == counts


# sha256 of the sorted-key JSON of each orbit-space triangulation, with its
# vertex and facet counts
ORBIT_SPACE_DIGESTS = {
    ("gl", 1): (4, 4, "4b1e2cf9366cd74af5908cec6cab7371af0d4684b88e26d6208e31e682444959"),
    ("gl", 2): (856, 4608, "b5bd9aff28c7033f0107483b1a87518385ca4d5608845c7f02a37ba6114b9cb9"),
    ("sl", 2): (8, 8, "94b3ad7980266e64fdaebe1d743cf25c26a68c286e888721b5d4a4f9e890d81a"),
    ("sl", 3): (640, 3456, "648ab036b0c59d5485ca18d57d8b2aacdb85d749bdb9f8de4ff9862d5f0aea28"),
}


@pytest.mark.parametrize("group, n", sorted(ORBIT_SPACE_DIGESTS))
def test_orbit_space_triangulation_is_pinned(group, n):
    c = character_variety_complex(group, n)
    doc = json.dumps(c.to_json_dict(), sort_keys=True)
    assert (len(c.vertices), len(c.facets), hashlib.sha256(doc.encode()).hexdigest()) == \
        ORBIT_SPACE_DIGESTS[(group, n)]


def test_orbit_space_facet_bound_counts_every_maximal_cell(monkeypatch):
    from logskel import complexes

    # a fixed triangle (6 top cells, 3! flags each) plus an edge whose ends
    # are swapped (one maximal 1-cell, 2! flags): 38 facets
    k = SimplicialComplex.from_facets([(0, 1, 2), (3, 4)])
    swap = {0: 0, 1: 1, 2: 2, 3: 4, 4: 3}
    monkeypatch.setattr(complexes, "_MAX_FACETS", 37)
    with pytest.raises(ComplexError):
        quotient(k, [swap])
    monkeypatch.setattr(complexes, "_MAX_FACETS", 38)
    q = quotient(k, [swap])
    assert len(q.facets) == 38
    assert homology(q) == homology(SimplicialComplex.from_facets([(0, 1, 2), (3,)]))


def test_orbit_space_facet_bound_refuses_on_top_cells_before_any_face_lookup(monkeypatch):
    from logskel import complexes

    k, gens = ORBIT_CASES["gl2"]()
    cells = _OrbitCells(k, GroupAction(k, gens))
    calls, faces = [], _OrbitCells.faces
    monkeypatch.setattr(_OrbitCells, "faces", lambda self, d: calls.append(d) or faces(self, d))
    with pytest.raises(ComplexError, match="~5529600 facets"):  # gl 3: 7,680 top cells, 6! flags each
        character_variety_complex("gl", 3)
    assert calls == []
    monkeypatch.setattr(complexes, "_MAX_FACETS", len(cells.keys[-1]) * math.factorial(cells.dim + 1) - 1)
    with pytest.raises(ComplexError, match="facets"):
        cells.orbit_space_complex()
    assert calls == []


@pytest.mark.parametrize("case", ["gl1", "gl2", "sl2", "sl3", "antipodal-square"])
def test_materialized_quotient_rows_match_the_frozenset_route(case):
    # orbit_space_complex writes its rank rows straight into the complex; the
    # same facets as frozensets through __init__ must give the same complex
    k, gens = ORBIT_CASES[case]()
    q = quotient(k, gens)
    oracle = SimplicialComplex.from_facets(q.facets)
    assert (q.vertices, q.facets) == (oracle.vertices, oracle.facets)
    assert q.to_json_dict() == oracle.to_json_dict()
    rank = {v: i for i, v in enumerate(sorted(q.vertices, key=lambda v: (str(v), repr(v))))}
    assert list(q.facets) == sorted(set(q.facets), key=lambda f: (len(f), sorted(map(rank.get, f))))
    for mine, theirs in zip(q._simplex_table(), oracle._simplex_table()):  # rows, faces
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            assert a.dtype == b.dtype == np.int32 and np.array_equal(a, b)
    assert q._rows.keys() == oracle._rows.keys()
    assert all(q._rows[size].dtype == np.int32 and np.array_equal(q._rows[size], oracle._rows[size])
               for size in q._rows)
    assert homology(q) == homology(oracle)


@pytest.mark.parametrize("group", ["gl", "sl"])
def test_group_action_builds_no_facet_frozensets(group):
    # the action is checked and closed on rank rows; its elements are the
    # int32 rank permutations that _OrbitCells reads as they are
    k, gens = _character_variety_action(group, 3)
    action = GroupAction(k, gens)
    assert "facets" not in vars(k)
    assert action.elements.dtype == np.int32 and action.elements.shape == (6, len(k.vertices))
    assert action.elements[0].tolist() == list(range(len(k.vertices)))
    assert vertex_maps(action)[1:1 + len(gens)] == gens
    _OrbitCells(k, action)
    assert "facets" not in vars(k)


def test_materialized_quotient_builds_no_frozensets_for_homology():
    q = character_variety_complex("sl", 3)
    assert "facets" not in vars(q)  # built on first use only
    assert homology(q) == sphere_profile(3) and q.dim() == 3 and "facets" not in vars(q)
    assert repr(q) == "SimplicialComplex(v=640, facets=3456, dim=3)" and "facets" not in vars(q)
    assert len(q.facets) == 3456 and "facets" in vars(q)


def test_complex_core_refuses_repeated_rows_and_unused_vertices():
    k = SimplicialComplex.__new__(SimplicialComplex)
    with pytest.raises(ComplexError, match="repeats"):
        k._store(["a", "b", "c"], {2: np.array([[0, 1], [2, 1], [1, 0]], dtype=np.int32)})
    with pytest.raises(ComplexError, match="every declared vertex"):
        k._store(["a", "b", "c"], {2: np.array([[0, 1]], dtype=np.int32)})
    k._store(["a", "b", "c"], {1: np.array([[2]], dtype=np.int32), 2: np.array([[1, 0]], dtype=np.int32)})
    assert [r.tolist() for r in k._rows.values()] == [[[2]], [[0, 1]]]
    assert k.facets == (frozenset("c"), frozenset("ab")) and k.dim() == 1


def test_non_simplicial_action_rejected():
    k = cycle_complex(4)
    bad = {0: 0, 1: 2, 2: 1, 3: 3}  # maps the edge {0,1} to the non-edge {0,2}
    with pytest.raises(ComplexError):
        GroupAction(k, [bad])


def test_quotient_rotation_of_triangle():
    k = cycle_complex(3)
    rot = {0: 1, 1: 2, 2: 0}
    # the rotation acts freely on the circle; the quotient is again a circle
    assert homology(quotient(k, [rot])) == sphere_profile(1)


# -- character varieties -------------------------------------------------------------

def test_gl_1_is_square_circle():
    c = character_variety_complex("gl", 1)
    assert len(c.vertices) == 4 and len(c.facets) == 4 and c.dim() == 1
    assert homology(c) == sphere_profile(1)
    assert character_variety_homology("gl", 1) == sphere_profile(1)


def test_gl_2_sphere_profile():
    assert character_variety_homology("gl", 2) == sphere_profile(3)


def test_gl_2_complex_route_agrees():
    c = character_variety_complex("gl", 2)
    assert homology(c) == sphere_profile(3)


def test_sl_2_is_circle():
    assert character_variety_homology("sl", 2) == sphere_profile(1)
    c = character_variety_complex("sl", 2)
    assert homology(c) == sphere_profile(1)


def test_sl_3_sphere_profile():
    assert character_variety_homology("sl", 3) == sphere_profile(3)


def test_sl_link_cache_hands_out_fresh_objects():
    """The link is computed once per n, but mutating the complex and the
    generator dicts one call returns changes nothing a later call returns:
    it equals a link computed afresh."""
    link, gens = _sl_link_and_action(3)
    ray = link.vertices[0]
    link.vertices, link.facets = link.vertices[1:], link.facets[:1]
    for rows in link._rows.values():  # the facet rows, in place, then their table
        rows[:] = 0
    link._rows.clear()
    gens[0][ray] = None
    gens[1].clear()
    gens.append({})
    again, again_gens = _sl_link_and_action(3)
    facets, pairs = _sl_link_data.__wrapped__(3)
    fresh = SimplicialComplex.from_facets(facets)
    assert again is not link and again.to_json_dict() == fresh.to_json_dict()
    assert (again.vertices, again.facets) == (fresh.vertices, fresh.facets)
    assert again._rows.keys() == fresh._rows.keys() and len(again._rows) == 1
    assert all(np.array_equal(again._rows[size], fresh._rows[size]) for size in fresh._rows)
    assert again_gens == [dict(p) for p in pairs] and len(again_gens) == 2
    assert homology(again) == sphere_profile(3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sl_link_matches_the_model_fan_route(n, monkeypatch):
    """The maximal cones cut from the sign orthants are those of the
    model-fan route's fan, the n-fold product of P^1 x P^1 met with the
    kernel, each once; with that fan's pieces in their place, the link keeps
    its facets and generator pairs."""
    facets, pairs = _sl_link_data.__wrapped__(n)
    real, model, seen = complexes._derived_pieces, _sl_kernel_fan(n), []
    maximal = [model.cone_geometry(c).rays for c in model.maximal_cones()]
    monkeypatch.setattr(complexes, "_derived_pieces",
                        lambda cones, rank: seen.append((cones, rank)) or real(maximal, model.rank))
    again, again_pairs = _sl_link_data.__wrapped__(n)
    assert set(again) == set(facets) and len(again) == len(facets) and again_pairs == pairs
    ((cones, rank),) = seen
    assert rank == model.rank and set(cones) == set(maximal) and len(cones) == len(maximal)


@pytest.mark.parametrize("n", [3, 4])
def test_sl_link_dualizes_only_its_maximal_cut_cones(n, monkeypatch):
    """Cold, the sl link builds no fan and dualizes no proper face: each
    cone whose walls it looks up is a maximal cone of the kernel fan."""
    model = _sl_kernel_fan(n)
    maximal = {model.cone_geometry(c).rays for c in model.maximal_cones()}
    for cache in (polyhedra._walls, polyhedra._facets, polyhedra._faces):
        cache.cache_clear()

    def no_fan(cones, rank):
        raise AssertionError("the sl link built a Fan")

    real, walled = polyhedra.dual_rays, []  # the cones _walls is called on, its cache keys
    monkeypatch.setattr(polyhedra.Fan, "from_cones", staticmethod(no_fan))
    monkeypatch.setattr(polyhedra, "dual_rays", lambda rays, rank: walled.append(rays) or real(rays, rank))
    _sl_link_data.__wrapped__(n)
    assert len(walled) == polyhedra._walls.cache_info().currsize and set(walled) <= maximal


@pytest.mark.parametrize("n", [2, 3])
def test_sl_generators_match_per_vertex_solve(n):
    """Each generator, one integer matrix in kernel coordinates, maps every
    link vertex where the exact solve of its block-permuted ambient vector
    against the kernel basis does."""
    link, gens = _sl_link_and_action(n)
    basis = []  # the difference basis of {sum x_i = 0, sum y_i = 0}
    for i in range(n - 1):
        for off in (0, 1):
            v = [0] * (2 * n)
            v[2 * i + off], v[2 * (i + 1) + off] = 1, -1
            basis.append(v)
    cols = [list(row) for row in zip(*basis)]
    perms = [[1, 0, *range(2, n)]] + ([[(i + 1) % n for i in range(n)]] if n >= 3 else [])
    assert len(gens) == len(perms)
    for vmap, p in zip(gens, perms):
        expect = {}
        for ray in link.vertices:
            amb = [sum(c * x for c, x in zip(row, ray)) for row in cols]
            moved = [0] * (2 * n)
            for i in range(n):
                moved[2 * p[i]], moved[2 * p[i] + 1] = amb[2 * i], amb[2 * i + 1]
            sol = rat_solve(cols, moved)
            assert sol is not None and all(x.denominator == 1 for x in sol)
            expect[ray] = primitive([x.numerator for x in sol])
        assert vmap == expect
        assert sorted(vmap.values()) == sorted(link.vertices)  # a permutation of the vertices


def test_character_variety_range_check():
    for group, n in (("gl", 0), ("gl", 5), ("sl", 1), ("sl", 5), ("pgl", 2)):
        with pytest.raises(ComplexError):
            character_variety_homology(group, n)


# -- sphere quotient map ------------------------------------------------------------

def unit_samples(rng, count, n):
    z = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def test_sphere_check_n1_bijection():
    rng = np.random.default_rng(1)
    rep = sphere_quotient_map_check(1, unit_samples(rng, 500, 1))
    assert rep["passed"]


def test_sphere_check_orbit_pair():
    z0 = (0.6 + 0.8j) / np.sqrt(2)
    pts = np.array([[z0, -z0], [-z0, z0]])
    rep = sphere_quotient_map_check(2, pts)
    assert rep["orbit_collapse_failures"] == 0
    assert rep["injectivity_failures"] == 0


def test_sphere_check_rejects_non_unit():
    with pytest.raises(ValueError):
        sphere_quotient_map_check(2, np.array([[1.0 + 0j, 1.0 + 0j]]))


def test_sphere_check_n3_small_sweep():
    rng = np.random.default_rng(3)
    rep = sphere_quotient_map_check(3, unit_samples(rng, 1500, 3))
    assert rep["passed"]


def test_sphere_check_rejects_empty_and_nan_samples():
    with pytest.raises(ValueError, match="samples must be a nonempty"):
        sphere_quotient_map_check(2, np.empty((0, 2)))
    with pytest.raises(ValueError, match="unit sphere"):
        sphere_quotient_map_check(2, np.array([[np.nan, 1.0 + 0j]]))


# (n, tolerance) where 1,500 random samples give close images of distinct
# orbits, so the comparison with the oracle covers the injectivity count
LOOSE_WITH_FAILURES = {(1, 1e-2), (2, 1e-2), (1, 5e-2), (2, 5e-2), (3, 5e-2)}


@pytest.mark.parametrize("tolerance", [1e-9, 1e-2, 5e-2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_check_matches_per_sample_oracle(n, tolerance):
    z = unit_samples(np.random.default_rng(100 + n), 1500, n)
    rep = sphere_quotient_map_check(n, z, tolerance=tolerance)
    assert rep == sphere_check_oracle(n, z, tolerance=tolerance)
    if (n, tolerance) in LOOSE_WITH_FAILURES:
        assert rep["injectivity_failures"] > 0


@pytest.mark.parametrize("tolerance", [1e-9, 1e-2])
def test_close_pairs_matches_all_pairs_on_planted_probes(tolerance):
    rng = np.random.default_rng(11)
    z = unit_samples(rng, 600, 3)
    # near-permutations: permuted copies of samples with 1e-12 noise
    noisy = z[:40, [2, 0, 1]] + 1e-12 * (rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3)))
    noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
    images = _sphere_images(np.concatenate([z, noisy]), 1e-9)
    # exact duplicates tie in the sort key
    images = np.concatenate([images, images[40:80]])
    # decoys: key 1.5 * tolerance ahead, so inside the sweep window but not close
    decoys = images[80:120].copy()
    decoys[:, 0] += 1.5 * tolerance
    images = np.concatenate([images, decoys])
    planted = {(i, 600 + i) for i in range(40)} | {(40 + i, 640 + i) for i in range(40)}
    found = {(int(a), int(b)) for a, b in _close_pairs(images, tolerance)}
    assert found == all_close_pairs(images, tolerance)
    assert planted <= found
    assert not found & {(80 + i, 680 + i) for i in range(40)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monic_coefficients_match_np_poly(n):
    z = unit_samples(np.random.default_rng(40 + n), 200, n)
    expected = np.array([np.poly(row)[1:] for row in z])
    assert np.max(np.abs(_monic_coefficients(z) - expected)) < 1e-12


# -- tate strata -----------------------------------------------------------------------

def test_tate_positive_total_generic():
    assert tate_strata(2, (1, 1))["case"] == "generic"


def test_tate_zero_total_single_divisor():
    out = tate_strata(2, (1, -1))
    assert out["case"] == "single_divisor"
    assert out["local_model"] == "Gm^(n-1) x A1"


def test_tate_negative_total_case_table():
    out = tate_strata(2, (-1, -1))
    table = {(tuple(s["J"]), s["j"]): s for s in out["strata"]}
    assert table[((1, 2), 1)]["contained"] and table[((1, 2), 2)]["contained"]
    assert table[((1, 2), 1)]["divisor_coordinate"] == "x"  # |J| + |alpha| = 0
    assert not table[((1,), 1)]["contained"]  # |J| + |alpha| = -1
    assert not table[((2,), 2)]["contained"]


def test_tate_divisor_coordinate_split():
    out = tate_strata(3, (-2, 0, 0))
    table = {(tuple(s["J"]), s["j"]): s for s in out["strata"]}
    assert table[((1, 2), 1)]["contained"]
    assert table[((1, 2), 1)]["divisor_coordinate"] == "x"
    assert table[((1, 2, 3), 1)]["contained"]
    assert table[((1, 2, 3), 1)]["divisor_coordinate"] == "y"
    for entry in out["strata"]:
        if entry["contained"]:
            assert entry["codim_two_boundary"]


def test_tate_input_validation():
    with pytest.raises(ValueError):
        tate_strata(2, ())
    with pytest.raises(ValueError):
        tate_strata(1, (0,))


def test_tate_negative_case_is_bounded_up_front(monkeypatch):
    with pytest.raises(ValueError, match="strata"):
        tate_strata(17, [-1] + [0] * 16)  # 17 * 2^16 rows, over 2^20
    assert tate_strata(17, [1] * 17)["case"] == "generic"
    assert tate_strata(17, [0] * 17)["case"] == "single_divisor"
    # the bound is on n 2^(n-1) rows: 3 * 2^2 = 12 is accepted, 4 * 2^3 is not
    monkeypatch.setattr(logstructure, "_MAX_TATE_ROWS", 12)
    assert len(tate_strata(3, (-1, 0, 0))["strata"]) == 12
    with pytest.raises(ValueError, match="strata"):
        tate_strata(4, (-1, 0, 0, 0))
