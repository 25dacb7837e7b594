"""Bundled fixtures: the worked examples the regression suite pins down.

Builders return fresh objects; expected values live next to them, and
``CHECKS`` holds the checks on them, so the CLI ``fixtures`` command and the
acceptance tests share one source of truth.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .logstructure import BoundaryComponent, LogChart, PairDescription, kato_fan_toric, tate_strata
from .polyhedra import compactified_fan_strata, fan_p2
from .valuations import LaurentRational, SkeletonPoint, normalize_dvf
from .weights import (
    PluriForm,
    essential_skeleton,
    face_slice_polytope,
    gauss_weight_identity,
    ks_skeleton,
    residue,
    slice_dvf,
    toric_essential_skeleton,
    weight,
)


def coordinate_eq(axis: int, arity: int) -> LaurentRational:
    return LaurentRational.coordinate(axis, arity)


def strict_inclusion_pair() -> PairDescription:
    """The degeneration pi = T1^2 T2 T3 with a horizontal section T1 = 1.

    Components D1, D2, D3 are vertical with multiplicities (2, 1, 1); D4 is
    the horizontal divisor cut by T1 - 1 (a unit constant term keeps its
    valuation zero on the vertical faces).  Chart 0 uses coordinates
    (T1, T2, T3); chart 1 recenters along D4 with S = T1 - 1.
    """
    comps = {
        "D1": BoundaryComponent("D1", Fraction(1), 2),
        "D2": BoundaryComponent("D2", Fraction(1), 1),
        "D3": BoundaryComponent("D3", Fraction(1), 1),
        "D4": BoundaryComponent("D4", Fraction(1), 0),
    }
    chart0 = LogChart(
        coordinates=("T1", "T2", "T3"),
        cut={"T1": "D1", "T2": "D2", "T3": "D3"},
        equations={
            "D1": coordinate_eq(0, 3),
            "D2": coordinate_eq(1, 3),
            "D3": coordinate_eq(2, 3),
            # T1 - 1 (the fixture takes a = 1)
            "D4": LaurentRational([((1, 0, 0), 0, 1), ((0, 0, 0), 0, -1)]),
        },
        relative_dimension=2,
    )
    chart1 = LogChart(
        coordinates=("S", "T2", "T3"),
        cut={"S": "D4", "T2": "D2", "T3": "D3"},
        equations={
            "D4": coordinate_eq(0, 3),
            "D2": coordinate_eq(1, 3),
            "D3": coordinate_eq(2, 3),
            # D1 is cut by T1 = S + 1, a unit along the D4 strata
            "D1": LaurentRational([((1, 0, 0), 0, 1), ((0, 0, 0), 0, 1)]),
        },
        relative_dimension=2,
    )
    strata = [
        frozenset(), frozenset({"D1"}), frozenset({"D2"}), frozenset({"D3"}),
        frozenset({"D4"}),
        frozenset({"D1", "D2"}), frozenset({"D1", "D3"}), frozenset({"D2", "D3"}),
        frozenset({"D1", "D2", "D3"}),
        frozenset({"D2", "D4"}), frozenset({"D3", "D4"}),
        frozenset({"D2", "D3", "D4"}),
    ]
    return PairDescription(mode="dvf", components=comps, charts=[chart0, chart1],
                           strata=strata)


def strict_inclusion_form() -> PluriForm:
    """eta = (T1^2 T2^2 T3^2 / (T1 - 1)) dlog T2 ^ dlog T3.

    On the D4 chart the same form reads 2 (S + 1) T2^2 T3^2 dlog S ^ dlog T3:
    the hypersurface relation trades dlog T2 for dlog S up to the unit 2, so
    that chart carries its own dlog pattern {D4, D3}.
    """
    chart0_num = LaurentRational(
        [((2, 2, 2), 0, 1)],
        [((1, 0, 0), 0, 1), ((0, 0, 0), 0, -1)],
    )
    chart1_num = LaurentRational(
        [((1, 2, 2), 0, 2), ((0, 2, 2), 0, 2)],
    )
    return PluriForm(m=1, dlog=frozenset({"D2", "D3"}),
                     numerators={0: chart0_num, 1: chart1_num},
                     chart_dlog={1: frozenset({"D4", "D3"})})


STRICT_INCLUSION_DIVISORIAL = {
    "D1": SkeletonPoint.make(("D1",), [Fraction(1, 2)], mode="dvf"),
    "D2": SkeletonPoint.make(("D2",), [Fraction(1)], mode="dvf"),
    "D3": SkeletonPoint.make(("D3",), [Fraction(1)], mode="dvf"),
}

STRICT_INCLUSION_WEIGHTS = {"D1": Fraction(2), "D2": Fraction(3), "D3": Fraction(3)}

STRICT_INCLUSION_RESIDUE_NUMERATOR = LaurentRational([((2, 2), 0, 2)])


def dwork_pair() -> PairDescription:
    """Three corner charts of the degenerating plane cubic x y z = pi.

    The special fibre is a triangle of lines; each corner chart carries two
    vertical components with multiplicity one.  The total-space pair is
    logCY with reduced boundary, so its essential skeleton is the whole
    skeleton: the cone over the triangle.
    """
    comps = {k: BoundaryComponent(k, Fraction(1), 1) for k in ("E0", "E1", "E2")}
    names = ["E0", "E1", "E2"]
    charts = []
    for i in range(3):
        a, b = names[i], names[(i + 1) % 3]
        charts.append(LogChart(
            coordinates=(f"u{i}", f"v{i}"),
            cut={f"u{i}": a, f"v{i}": b},
            equations={a: coordinate_eq(0, 2), b: coordinate_eq(1, 2)},
            relative_dimension=1,
        ))
    strata = [frozenset(), frozenset({"E0"}), frozenset({"E1"}), frozenset({"E2"}),
              frozenset({"E0", "E1"}), frozenset({"E1", "E2"}), frozenset({"E0", "E2"})]
    return PairDescription(mode="dvf", components=comps, charts=charts,
                           strata=strata, logcy=True)


def a2_pair(coefficients=(1, 1), logcy=False) -> PairDescription:
    """The affine plane with its two coordinate lines as boundary."""
    a1, a2 = (Fraction(x) for x in coefficients)
    comps = {
        "B1": BoundaryComponent("B1", a1, 0),
        "B2": BoundaryComponent("B2", a2, 0),
    }
    chart = LogChart(
        coordinates=("z1", "z2"),
        cut={"z1": "B1", "z2": "B2"},
        equations={"B1": coordinate_eq(0, 2), "B2": coordinate_eq(1, 2)},
        relative_dimension=2,
    )
    strata = [frozenset(), frozenset({"B1"}), frozenset({"B2"}), frozenset({"B1", "B2"})]
    return PairDescription(mode="trivial", components=comps, charts=[chart],
                           strata=strata, logcy=logcy)


def a2_form(numerator_terms, dlog=("B1", "B2"), m=1) -> PluriForm:
    return PluriForm(m=m, dlog=frozenset(dlog),
                     numerators={0: LaurentRational(numerator_terms)})


def tate_alpha_sweep(n: int = 2, bound: int = 3):
    """All alpha vectors for the appendix sweep, |alpha_i| <= bound."""
    return [alpha for alpha in itertools.product(range(-bound, bound + 1), repeat=n)]


# -- the checks: (label, predicate) in report order --------------------------

CHECKS = []


def _check(label):
    def register(predicate):
        CHECKS.append((label, predicate))
        return predicate
    return register


@_check("compactified P2: 7 strata of dimensions {2,1,1,1,0,0,0}")
def p2_strata():
    dims = sorted((s.dim() for _, s in compactified_fan_strata(fan_p2())), reverse=True)
    return dims == [2, 1, 1, 1, 0, 0, 0]


@_check("strict-inclusion pair: Kato points match the figure's faces")
def strict_inclusion_kato_points():
    # the intersection patterns the charts cut: every subset of a chart's components
    pair = strict_inclusion_pair()
    want = set()
    for chart in pair.charts:
        comps = sorted(chart.coordinate_components())
        for k in range(len(comps) + 1):
            want.update(itertools.combinations(comps, k))
    return set(pair.kato_fan().points) == want


@_check("toric P2: 7 Kato points")
def toric_p2_kato_points():
    return len(kato_fan_toric(fan_p2())) == 7


@_check("normalize: ord_D1 with multiplicity 2 -> (1/2,0,0)")
def normalize_d1():
    pt = SkeletonPoint.make(("D1", "D2", "D3"), [1, 0, 0])
    out = normalize_dvf(pt, {"D1": 2, "D2": 1, "D3": 1})
    return out.weights == (Fraction(1, 2), Fraction(0), Fraction(0))


@_check("weights at v_D1, v_D2, v_D3 are exactly 2, 3, 3")
def strict_inclusion_weights():
    pair, form = strict_inclusion_pair(), strict_inclusion_form()
    got = {d: weight(form, pair, pt) for d, pt in STRICT_INCLUSION_DIVISORIAL.items()}
    return got == STRICT_INCLUSION_WEIGHTS


@_check("ks: minimum 2 attained exactly at v_D1")
def strict_inclusion_ks():
    sub = ks_skeleton(strict_inclusion_pair(), strict_inclusion_form())
    return (sub.min_value == 2 and len(sub.faces) == 1
            and sub.faces[0].kato == ("D1",)
            and sub.faces[0].vertices == ((Fraction(1, 2),),))


@_check("residue along D4 is 2a T2^2 T3^2 dlog T3 (a = 1, up to the unit)")
def strict_inclusion_residue():
    res = residue(strict_inclusion_form(), strict_inclusion_pair(), {"D4"})
    got = res.numerators[0].numerator
    (want,) = STRICT_INCLUSION_RESIDUE_NUMERATOR.numerator
    return (sorted(res.dlog) == ["D3"] and len(got) == 1
            and got[0].exps == want.exps and abs(got[0].coeff) == want.coeff)


@_check("ks of the residue is the whole D4-trace skeleton")
def residue_ks_is_whole_trace():
    pair = strict_inclusion_pair()
    tracep = pair.trace_pair({"D4"})
    sub = ks_skeleton(tracep, residue(strict_inclusion_form(), pair, {"D4"}))
    want = {k: set(face_slice_polytope(tracep, k, tracep.pi_vector(k))[0])
            for k in tracep.kato_fan().points if k}
    return {f.kato: set(f.vertices) for f in sub.faces} == want


@_check("toric essential skeleton is the whole skeleton")
def toric_essential_is_whole():
    fan = fan_p2()
    return len(toric_essential_skeleton(fan).faces) == len(kato_fan_toric(fan))


@_check("Dwork slice at <b,alpha>=1 is a circle")
def dwork_slice_circle():
    from .complexes import homology, sphere_profile

    pair = dwork_pair()
    sc = slice_dvf(pair, essential_skeleton(pair, []))
    return homology(sc.to_simplicial()) == sphere_profile(1)


@_check("gauss exponents at (1,1,2,1) are (-2,-2,-4), identity holds")
def gauss_exponents():
    rec = gauss_weight_identity(1, 1, 2, 1)
    return (rec["log_r"] == -2 and rec["log_norm_trivial"] == -2
            and rec["log_norm_discrete"] == -4 and rec["identity_holds"])


@_check("link of P2 is a circle")
def p2_link_circle():
    from .complexes import homology, link_complex, sphere_profile

    return homology(link_complex(fan_p2())) == sphere_profile(1)


@_check("gl n=2 has the S^3 homology profile")
def gl2_sphere():
    from .complexes import character_variety_homology, sphere_profile

    return character_variety_homology("gl", 2) == sphere_profile(3)


@_check("sl n=2 has the S^1 homology profile")
def sl2_sphere():
    from .complexes import character_variety_homology, sphere_profile

    return character_variety_homology("sl", 2) == sphere_profile(1)


@_check("tate cases: |a|>0 generic, |a|=0 single divisor, |a|<0 table")
def tate_cases():
    a, b, c = (tate_strata(2, alpha) for alpha in ((1, 1), (1, -1), (-1, -1)))
    neg_ok = all(s["contained"] == (len(s["J"]) - 2 in (0, 1)) for s in c["strata"])
    return (a["case"] == "generic" and b["case"] == "single_divisor"
            and b["local_model"] == "Gm^(n-1) x A1" and neg_ok)
