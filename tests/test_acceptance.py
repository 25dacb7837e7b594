"""Acceptance criteria, one test per criterion, printing PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from logskel.complexes import (
    character_variety_homology,
    cycle_complex,
    homology,
    join,
    simplex_boundary_complex,
    sphere_profile,
    sphere_quotient_map_check,
    tate_strata,
)
from logskel import fixtures as fx
from logskel.fixtures import (
    STRICT_INCLUSION_DIVISORIAL,
    a2_pair,
    strict_inclusion_form,
    strict_inclusion_pair,
)
from logskel.polyhedra import Cone, dot, fan_p2, hilbert_basis
from logskel.rationals import INF
from logskel.valuations import (
    LaurentRational,
    SkeletonPoint,
    classify_closure_point_toric,
    evaluate,
    monomial_value,
    retract,
    scale,
)
from logskel.weights import gauss_weight_identity, weight
from snf_check import snf_self_check


def announce(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_example_regression():
    start = time.time()
    weights_ok = fx.strict_inclusion_weights()
    ks_ok = fx.strict_inclusion_ks()
    res_ok = fx.strict_inclusion_residue()
    whole_ok = fx.residue_ks_is_whole_trace()
    elapsed = time.time() - start
    announce(1, weights_ok and ks_ok and res_ok and whole_ok and elapsed < 1.0,
             f"weights 2/3/3, ks = {{v_D1}} at 2, residue + whole-trace ks "
             f"({elapsed:.2f}s < 1s)")


def test_criterion_2_theorem_e_gl_spheres():
    start = time.time()
    ok = all(character_variety_homology("gl", n) == sphere_profile(2 * n - 1)
             for n in (1, 2, 3))
    elapsed = time.time() - start
    announce(2, ok and elapsed < 300,
             f"gl n=1,2,3 give S^1, S^3, S^5 profiles ({elapsed:.1f}s < 300s)")


def test_criterion_3_theorem_f_sl_spheres():
    start = time.time()
    ok = all(character_variety_homology("sl", n) == sphere_profile(2 * n - 3)
             for n in (2, 3))
    elapsed = time.time() - start
    announce(3, ok and elapsed < 300,
             f"sl n=2,3 give S^1, S^3 profiles ({elapsed:.1f}s < 300s)")


def test_criterion_4_p2_closure_decomposition():
    fan = fan_p2()
    strata_ok = fx.p2_strata()

    # classify extended points sampled on every face with every infinity
    # pattern; the resulting strata must exhaust the seven cones and stay
    # consistent with the stratification
    rng = random.Random(4)
    seen = {}
    cone_keys = {frozenset(c) for c in fan.cones}
    consistent = True
    for cone in fan.cones:
        kf_key = sorted(cone)
        from logskel.logstructure import kato_fan_toric

        point = kato_fan_toric(fan).points[("cone", tuple(kf_key))]
        gens = point.generators
        for pattern in itertools.product([False, True], repeat=len(gens)):
            values = [INF if inf else Fraction(rng.randint(1, 9), rng.randint(1, 4))
                      for inf in pattern]
            stratum, _ = classify_closure_point_toric(fan, kf_key, values)
            if frozenset(stratum) not in cone_keys:
                consistent = False
            if not frozenset(stratum) <= frozenset(cone):
                consistent = False
            seen.setdefault(frozenset(stratum), 0)
            seen[frozenset(stratum)] += 1
    exhaustive = len(seen) == 7
    announce(4, strata_ok and consistent and exhaustive,
             "7 strata with dimensions {2,1,1,1,0,0,0}; sampled closure "
             "points classify consistently into all of them")


def test_criterion_5_dwork_slice_circle():
    announce(5, fx.dwork_slice_circle(),
             "Dwork essential-skeleton slice has the S^1 homology profile")


def test_criterion_6_gauss_identity_sweep():
    rng = random.Random(20960)
    good = 0
    for _ in range(100):
        c = Fraction(rng.randint(1, 60), rng.randint(1, 23))
        a = Fraction(rng.randint(0, 45), rng.randint(1, 13))
        l = rng.randint(1, 11)
        m = rng.randint(1, 11)
        if gauss_weight_identity(c, a, l, m)["identity_holds"]:
            good += 1
    announce(6, good == 100, f"exact Gauss exponent identity holds {good}/100")


def test_criterion_7_sphere_map_numeric_checks():
    rng = np.random.default_rng(7)
    ok = True
    details = []
    for n in (1, 2, 3):
        z = rng.normal(size=(10000, n)) + 1j * rng.normal(size=(10000, n))
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        rep = sphere_quotient_map_check(n, z, tolerance=1e-9)
        ok = ok and rep["passed"]
        details.append(f"n={n}:{'ok' if rep['passed'] else 'FAIL'}")
    announce(7, ok, "orbit collapse, sampled injectivity, unit norms at 1e-9 "
                    f"on 10^4 samples ({', '.join(details)})")


def test_criterion_8_tate_sweep():
    ok = True
    for alpha in itertools.product(range(-3, 4), repeat=2):
        out = tate_strata(2, alpha)
        total = sum(alpha)
        if total > 0:
            ok = ok and out["case"] == "generic" and out["strata"] == []
        elif total == 0:
            ok = ok and (out["case"] == "single_divisor"
                         and out["local_model"] == "Gm^(n-1) x A1")
        else:
            ok = ok and out["case"] == "negative"
            for entry in out["strata"]:
                want = (len(entry["J"]) + total) in (0, 1)
                ok = ok and entry["contained"] == want
                if entry["contained"]:
                    coord = "x" if len(entry["J"]) + total == 0 else "y"
                    ok = ok and entry["divisor_coordinate"] == coord
    announce(8, ok, "n=2 sweep over |alpha_i| <= 3 matches the case table")


def test_criterion_9_property_suites():
    rng = random.Random(99)
    a2 = a2_pair()
    chart = a2.charts[0]

    def rand_poly(arity=2, max_terms=3):
        return LaurentRational([
            (tuple(rng.randint(0, 4) for _ in range(arity)), 0, rng.randint(1, 9))
            for _ in range(rng.randint(1, max_terms))])

    def rand_point():
        return SkeletonPoint.make(("B1", "B2"),
                                  [Fraction(rng.randint(0, 10), rng.randint(1, 5)),
                                   Fraction(rng.randint(0, 10), rng.randint(1, 5))])

    failures = {}

    n = 0
    for _ in range(200):
        f, v = rand_poly(), rand_point()
        a = Fraction(rng.randint(0, 9), rng.randint(1, 5))
        if evaluate(scale(a, v), f, chart) != a * evaluate(v, f, chart):
            n += 1
    failures["homogeneity"] = n

    n = 0
    for _ in range(200):
        f, g, v = rand_poly(), rand_poly(), rand_point()
        fg = LaurentRational(list(f.numerator) + list(g.numerator))
        lhs = evaluate(v, fg, chart)
        rhs = min(evaluate(v, f, chart), evaluate(v, g, chart))
        if lhs < rhs:
            n += 1
    failures["ultrametric"] = n

    n = 0
    for _ in range(200):
        f, g, v = rand_poly(), rand_poly(), rand_point()
        if evaluate(v, f * g, chart) != evaluate(v, f, chart) + evaluate(v, g, chart):
            n += 1
    failures["multiplicativity"] = n

    from logskel.logstructure import BoundaryComponent, LogChart, PairDescription

    chart3 = LogChart(coordinates=("z1", "z2", "z3"),
                      cut={"z1": "B1", "z2": "B2"},
                      equations={"B1": LaurentRational.coordinate(0, 3),
                                 "B2": LaurentRational.coordinate(1, 3)})
    n = 0
    for _ in range(200):
        f = rand_poly(arity=3)
        w = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(3)]
        if monomial_value(f, w) < evaluate(retract(chart3, w), f, chart3):
            n += 1
    failures["retraction"] = n

    pair = strict_inclusion_pair()
    base = strict_inclusion_form()
    n = 0
    for _ in range(200):
        k = rng.randint(1, 4)
        pt = STRICT_INCLUSION_DIVISORIAL[rng.choice(list(STRICT_INCLUSION_DIVISORIAL))]
        if weight(base.power(k), pair, pt) != k * weight(base, pair, pt):
            n += 1
    failures["tensor-power"] = n

    models = {0: [lambda: None], }  # placeholder replaced below
    sphere_models = {
        0: [simplex_boundary_complex(1)],
        1: [cycle_complex(3), cycle_complex(4)],
        2: [simplex_boundary_complex(3)],
        3: [simplex_boundary_complex(4)],
        4: [simplex_boundary_complex(5)],
    }
    n = 0
    for _ in range(200):
        a = rng.choice([0, 1, 2, 3])
        b = rng.randint(0, 4 - a)
        j = join(rng.choice(sphere_models[a]), rng.choice(sphere_models[b]))
        if homology(j) != sphere_profile(a + b + 1):
            n += 1
    failures["join-homology"] = n

    n = 0
    for _ in range(200):
        m = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
             for _ in range(rng.randint(1, 5))]
        cols = len(m[0])
        m = [row[:cols] + [0] * (cols - len(row)) for row in m]
        if not snf_self_check(m):
            n += 1
    failures["snf"] = n

    n = 0
    done = 0
    while done < 200:
        rank = rng.choice([2, 2, 3])
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rank)]
        c = Cone.from_generators(gens, rank)
        if not c.rays or not c.is_pointed():
            continue
        basis = hilbert_basis(c)
        normals = c.facet_normals()
        for el in basis:
            for y in basis:
                z = tuple(a - b for a, b in zip(el, y))
                if any(y) and any(z) and all(dot(mm, z) >= 0 for mm in normals):
                    n += 1
        done += 1
    failures["hilbert-irreducibility"] = n

    total = sum(failures.values())
    announce(9, total == 0,
             "8 property suites x >= 200 instances, failures: "
             + ", ".join(f"{k}={v}" for k, v in failures.items()))
