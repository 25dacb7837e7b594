import itertools
import random
from fractions import Fraction

import pytest

from logskel.complexes import homology, sphere_profile
from logskel.fixtures import (
    STRICT_INCLUSION_DIVISORIAL,
    STRICT_INCLUSION_WEIGHTS,
    a2_form,
    a2_pair,
    dwork_pair,
    strict_inclusion_form,
    strict_inclusion_pair,
)
from logskel.logstructure import BoundaryComponent, LogChart, PairDescription
from logskel.rationals import INF
from logskel.valuations import LaurentRational, SkeletonPoint, classify_closure_point
from logskel.weights import (
    NormalFormError,
    PluriForm,
    WeightError,
    essential_skeleton,
    face_slice_polytope,
    gauss_weight_identity,
    ks_skeleton,
    log_discrepancy,
    residue,
    slice_dvf,
    toric_essential_skeleton,
    weight,
)

import ks_oracle

A2 = a2_pair()


def a2_point(w1, w2, mode="trivial"):
    return SkeletonPoint.make(("B1", "B2"), [w1, w2], mode=mode)


# -- log discrepancy ---------------------------------------------------------

def test_log_discrepancy_vanishes_on_reduced_pair():
    for w in ((1, 2), (0, 5), (Fraction(7, 3), Fraction(1, 9))):
        assert log_discrepancy(A2, a2_point(*w)) == 0


def test_log_discrepancy_half_coefficient():
    pair = a2_pair((Fraction(1, 2), 1))
    assert log_discrepancy(pair, SkeletonPoint.make(("B1",), [1])) == Fraction(1, 2)


def test_log_discrepancy_blowup_oracle():
    # ordinary blow-up of the origin of the plane with empty boundary: the
    # exceptional divisor has discrepancy ord_E(K_{Y/X}) = 1, so A = 1+1 = 2
    pair = a2_pair((0, 0))
    blowup_oracle = 1 + 1
    assert log_discrepancy(pair, a2_point(1, 1)) == blowup_oracle


def test_log_discrepancy_rejects_extended_weights():
    with pytest.raises(WeightError):
        log_discrepancy(A2, a2_point(1, INF))


# -- weights ------------------------------------------------------------------

def test_example_weights_2_3_3():
    pair = strict_inclusion_pair()
    form = strict_inclusion_form()
    got = {d: weight(form, pair, pt) for d, pt in STRICT_INCLUSION_DIVISORIAL.items()}
    assert got == STRICT_INCLUSION_WEIGHTS


def test_example_weights_agree_across_charts():
    # the face {D2, D3} lies in both charts; the two presentations of the
    # form must assign it the same weight function
    pair = strict_inclusion_pair()
    form = strict_inclusion_form()
    single0 = PluriForm(m=1, dlog=form.dlog, numerators={0: form.numerators[0]})
    single1 = PluriForm(m=1, dlog=form.dlog_for(1), numerators={1: form.numerators[1]},
                        chart_dlog={1: form.dlog_for(1)})
    for w2, w3 in ((1, 0), (0, 1), (Fraction(1, 3), Fraction(2, 3)), (2, 5)):
        pt = SkeletonPoint.make(("D2", "D3"), [w2, w3], mode="dvf")
        assert weight(single0, pair, pt) == weight(single1, pair, pt)


def test_weight_toric_logcy_form_vanishes():
    # f = 1 with the full boundary in the dlog set: both summands vanish
    form = a2_form([((0, 0), 0, 1)])
    for w in ((0, 0), (1, 2), (Fraction(5, 7), 3)):
        assert weight(form, A2, a2_point(*w)) == 0


def test_weight_single_dlog_coordinate():
    form = a2_form([((1, 0), 0, 1)])
    assert weight(form, A2, a2_point(Fraction(3, 7), Fraction(2, 5))) == Fraction(3, 7)


def test_weight_alternative_expression_cross_check():
    # the direct formula must equal m * A of the pair whose boundary is the
    # reduced boundary minus the Q-divisor of the form; for monomial
    # numerators that pair is explicit, giving an independent route
    rng = random.Random(13)
    for _ in range(200):
        m = rng.randint(1, 3)
        a1 = Fraction(rng.randint(-2, 1))
        a2c = Fraction(rng.randint(-2, 1))
        pair = a2_pair((a1, a2c))
        g1, g2 = rng.randint(0, 3) * m, rng.randint(0, 3) * m
        dlog = rng.choice([("B1", "B2"), ("B1",), ("B2",), ()])
        form = a2_form([((g1, g2), 0, 1)], dlog=dlog, m=m)
        v = a2_point(Fraction(rng.randint(0, 6), rng.randint(1, 4)),
                     Fraction(rng.randint(0, 6), rng.randint(1, 4)))
        # boundary of the twisted pair: 1 - (ord_i(f)/m) - [i outside dlog]
        # - (1 - a_i); its log discrepancy is the alternative expression
        d1 = 1 - Fraction(g1, m) - (0 if "B1" in dlog else 1) - (1 - a1)
        d2 = 1 - Fraction(g2, m) - (0 if "B2" in dlog else 1) - (1 - a2c)
        twisted = PairDescription(
            mode="trivial",
            components={"B1": BoundaryComponent("B1", d1), "B2": BoundaryComponent("B2", d2)},
            charts=A2.charts,
            strata=A2.strata,
        )
        assert weight(form, pair, v) == m * log_discrepancy(twisted, v)


def test_weight_nonnegative_and_zero_at_trivial_valuation():
    rng = random.Random(29)
    for _ in range(200):
        terms = [(tuple(rng.randint(0, 4) for _ in range(2)), 0, 1)
                 for _ in range(rng.randint(1, 4))]
        form = a2_form(terms, m=rng.randint(1, 3))
        v = a2_point(Fraction(rng.randint(0, 9), rng.randint(1, 5)),
                     Fraction(rng.randint(0, 9), rng.randint(1, 5)))
        assert weight(form, A2, v) >= 0
        assert weight(form, A2, a2_point(0, 0)) == 0


def test_tensor_power_weight_linearity():
    rng = random.Random(41)
    pair = strict_inclusion_pair()
    base = strict_inclusion_form()
    for _ in range(200):
        k = rng.randint(1, 4)
        powered = base.power(k)
        d = rng.choice(list(STRICT_INCLUSION_DIVISORIAL))
        pt = STRICT_INCLUSION_DIVISORIAL[d]
        assert weight(powered, pair, pt) == k * weight(base, pair, pt)


def test_tensor_power_fixes_ks():
    pair = strict_inclusion_pair()
    base = strict_inclusion_form()
    sq = ks_skeleton(pair, base.power(3))
    assert sq.min_value == 6
    assert [f.kato for f in sq.faces] == [("D1",)]
    assert sq.faces[0].vertices == ((Fraction(1, 2),),)


def test_retraction_monotonicity_of_weights():
    from logskel.valuations import monomial_value, retract

    # chart with a free coordinate: weights on it are forgotten by retraction
    chart = LogChart(
        coordinates=("z1", "z2", "z3"),
        cut={"z1": "B1", "z2": "B2"},
        equations={"B1": LaurentRational.coordinate(0, 3),
                   "B2": LaurentRational.coordinate(1, 3)},
    )
    pair = PairDescription(
        mode="trivial",
        components={"B1": BoundaryComponent("B1"), "B2": BoundaryComponent("B2")},
        charts=[chart],
        strata=[frozenset(), frozenset({"B1"}), frozenset({"B2"}),
                frozenset({"B1", "B2"})],
    )
    rng = random.Random(59)
    for _ in range(200):
        terms = [(tuple(rng.randint(0, 3) for _ in range(3)), 0, 1)
                 for _ in range(rng.randint(1, 4))]
        f = LaurentRational(terms)
        form = PluriForm(m=rng.randint(1, 2), dlog=frozenset({"B1", "B2"}),
                         numerators={0: f})
        w = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(3)]
        # with the full boundary in the dlog set the weight is v(f), so the
        # monotonicity is exactly the tropical inequality under retraction
        assert f.value([Fraction(x) for x in w]) >= weight(form, pair, retract(chart, w))


def test_dvf_normal_form_rejection():
    pair = strict_inclusion_pair()
    bad = PluriForm(m=1, dlog=frozenset({"D1", "D2", "D3"}),
                    numerators={0: LaurentRational([((0, 0, 0), 0, 1)])})
    with pytest.raises(NormalFormError):
        weight(bad, pair, STRICT_INCLUSION_DIVISORIAL["D1"])


# -- Kontsevich-Soibelman skeletons -------------------------------------------

def test_ks_dvf_example_single_vertex():
    pair = strict_inclusion_pair()
    sub = ks_skeleton(pair, strict_inclusion_form())
    assert sub.min_value == 2
    assert len(sub.faces) == 1
    face = sub.faces[0]
    assert face.kato == ("D1",)
    assert face.vertices == ((Fraction(1, 2),),)
    assert face.rays == ()


def test_ks_trivial_two_rays():
    sub = ks_skeleton(A2, a2_form([((1, 0), 0, 1), ((0, 1), 0, 1)]))
    assert sub.min_value == 0
    got = {f.kato for f in sub.faces}
    assert ("B1",) in got and ("B2",) in got
    assert ("B1", "B2") not in got


def test_ks_trivial_whole_skeleton_for_unit():
    sub = ks_skeleton(A2, a2_form([((0, 0), 0, 1)]))
    got = {f.kato for f in sub.faces}
    assert got == {(), ("B1",), ("B2",), ("B1", "B2")}


def test_ks_reports_offending_ray():
    bad = a2_form([((-1, 0), 0, 1)])
    with pytest.raises(WeightError, match="ray"):
        ks_skeleton(A2, bad)


def test_ks_trivial_does_not_depend_on_presentation():
    # dz1 dz2 / z1 written without dlog poles and as z2 dlog z1 ^ dlog z2:
    # the pole of 1/z1 is cancelled by the equation of B1 outside the dlog set
    for form in (a2_form([((-1, 0), 0, 1)], dlog=()), a2_form([((0, 1), 0, 1)])):
        assert [f.kato for f in ks_skeleton(A2, form).faces] == [(), ("B1",)]


def _random_trivial_draw(rng):
    """One chart of A^(k+1) with k = 1..3 components cut by the first k
    coordinates, coordinate or non-coordinate equations, coefficients 1 or
    1/2, and a form whose numerator may have poles."""
    k = rng.randint(1, 3)
    ids = [f"B{i + 1}" for i in range(k)]
    arity = k + 1

    def mono(*axes):
        e = [0] * arity
        for i in axes:
            e[i] += 1
        return (tuple(e), 0, 1)

    equations = {}
    for i, cid in enumerate(ids):
        j = rng.choice([x for x in range(arity) if x != i])
        equations[cid] = LaurentRational(rng.choice(
            [[mono(i)], [mono(i), mono(i, j)], [mono(i), mono(i, i)]]))
    chart = LogChart(coordinates=tuple(f"z{i + 1}" for i in range(arity)),
                     cut={f"z{i + 1}": cid for i, cid in enumerate(ids)},
                     equations=equations)
    strata = [frozenset(s) for r in range(1, k + 1) for s in itertools.combinations(ids, r)]
    if k > 1 and rng.random() < 0.5:
        strata.remove(frozenset(ids))  # the components need not meet all at once
    pair = PairDescription(
        mode="trivial",
        components={c: BoundaryComponent(c, rng.choice([Fraction(1), Fraction(1, 2)]))
                    for c in ids},
        charts=[chart], strata=strata)
    terms = [(tuple(rng.randint(-1, 2) for _ in range(arity)), 0, 1)
             for _ in range(rng.randint(1, 3))]
    form = PluriForm(m=rng.randint(1, 2), dlog=frozenset(c for c in ids if rng.random() < 0.5),
                     numerators={0: LaurentRational(terms)})
    return pair, form


def test_trivial_ks_matches_grid_oracle():
    rng = random.Random(1717)
    regular = cancelled = draws = 0
    while regular < 500:
        draws += 1
        assert draws < 5000, f"only {regular} regular draws"
        pair, form = _random_trivial_draw(rng)
        want = ks_oracle.grid_ks_faces(pair, form)
        if want is None:  # negative on the grid, so negative on some ray
            with pytest.raises(WeightError, match="not regular"):
                ks_skeleton(pair, form)
            continue
        try:
            sub = ks_skeleton(pair, form)
        except WeightError as exc:
            assert "not regular" in str(exc)
            continue
        regular += 1
        got = [f.kato for f in sub.faces]
        assert set(got) == want, (pair, form)
        assert sub.min_value == 0
        # faces where the numerator has a pole that the rest of the weight cancels
        cancelled += sum(ks_oracle.value(form.numerators[0], ks_oracle.chart_weights(
            pair, dict.fromkeys(kato, 1))) < 0 for kato in got)
    assert cancelled >= 100, cancelled


# -- essential skeletons -------------------------------------------------------

def test_essential_toric_whole_skeleton():
    from logskel.logstructure import kato_fan_toric
    from logskel.polyhedra import fan_p2

    sub = toric_essential_skeleton(fan_p2())
    assert len(sub.faces) == len(kato_fan_toric(fan_p2()))


def test_essential_excludes_fractional_coefficient_ray():
    pair = a2_pair((Fraction(1, 2), 1), logcy=True)
    sub = essential_skeleton(pair, [])
    got = {f.kato for f in sub.faces}
    assert got == {(), ("B2",)}


def test_essential_union_of_ks():
    f1 = a2_form([((1, 0), 0, 1)], dlog=("B1", "B2"))
    f2 = a2_form([((0, 1), 0, 1)], dlog=("B1", "B2"))
    sub = essential_skeleton(A2, [f1, f2])
    got = {f.kato for f in sub.faces}
    assert ("B1",) in got and ("B2",) in got


def test_essential_product_pair_matches_product_of_factors():
    from logskel.logstructure import kato_fan_toric, product
    from logskel.polyhedra import fan_p1, fan_p1xp1

    via_product_fan = kato_fan_toric(fan_p1xp1())
    via_factors = product(kato_fan_toric(fan_p1()), kato_fan_toric(fan_p1()))
    assert len(via_product_fan) == len(via_factors) == 9
    sub = toric_essential_skeleton(fan_p1xp1())
    assert len(sub.faces) == 9


def test_essential_empty_forms_warns():
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sub = essential_skeleton(A2, [])
        assert sub.faces == []
        assert caught


# -- residue --------------------------------------------------------------------

def test_residue_paper_display():
    pair = strict_inclusion_pair()
    res = residue(strict_inclusion_form(), pair, {"D4"})
    assert sorted(res.dlog) == ["D3"]
    num = res.numerators[0]
    assert len(num.numerator) == 1
    assert num.numerator[0].exps == (2, 2)
    assert abs(num.numerator[0].coeff) == 2


def test_residue_term_by_term_without_vanishing():
    f = a2_form([((0, 1), 0, 1), ((0, 2), 0, 1)])
    res = residue(f, A2, {"B1"})
    assert sorted(res.dlog) == ["B2"]
    assert [t.exps for t in res.numerators[0].numerator] == [(1,), (2,)]


def test_residue_requires_log_pole():
    f = a2_form([((0, 1), 0, 1)], dlog=("B2",))
    with pytest.raises(WeightError):
        residue(f, A2, {"B1"})


def test_trivial_closure_law_equals_residue_ks():
    # closure of KS(z1 + z2) over each single-component stratum matches the
    # KS skeleton of the residue there (trivial mode: equality)
    form = a2_form([((1, 0), 0, 1), ((0, 1), 0, 1)])
    sub = ks_skeleton(A2, form)
    fan = A2.kato_fan()
    for stratum, other in ((("B1",), "B2"), (("B2",), "B1")):
        res = residue(form, A2, stratum)
        tracep = A2.trace_pair(stratum)
        res_sub = ks_skeleton(tracep, res)
        res_faces = {f.kato for f in res_sub.faces}
        # the closure point of the KS ray along this stratum classifies to
        # the trace vertex, which must be the residue's KS skeleton
        ray_face = next(f for f in sub.faces if f.kato == (other,))
        closure_pt = SkeletonPoint.make(stratum + ray_face.kato,
                                        {stratum[0]: INF, other: 0})
        got_stratum, residual = classify_closure_point(closure_pt, fan)
        assert got_stratum == stratum
        assert residual.kato in res_faces or () in res_faces
        # and the residue KS here is exactly the vertex
        assert res_sub.min_value == 0
        assert res_faces <= {()}


def test_dvf_strictness_of_closure_inclusion():
    # the KS skeleton is the single vertex v_D1, whose closure misses the
    # D4 stratum entirely, while the residue's KS skeleton there is the
    # whole trace skeleton: the inclusion is strict
    pair = strict_inclusion_pair()
    sub = ks_skeleton(pair, strict_inclusion_form())
    assert all("D4" not in f.kato for f in sub.faces)
    tracep = pair.trace_pair({"D4"})
    res = residue(strict_inclusion_form(), pair, {"D4"})
    res_sub = ks_skeleton(tracep, res)
    assert res_sub.faces  # nonempty: strict inclusion exhibited


# -- slices -----------------------------------------------------------------------

def test_slice_triangle_is_circle():
    pair = dwork_pair()
    sc = slice_dvf(pair, essential_skeleton(pair, []))
    assert homology(sc.to_simplicial()) == sphere_profile(1)


def test_slice_single_ray():
    comps = {"V": BoundaryComponent("V", Fraction(1), 2)}
    chart = LogChart(coordinates=("t",), cut={"t": "V"},
                     equations={"V": LaurentRational.coordinate(0, 1)})
    pair = PairDescription(mode="dvf", components=comps, charts=[chart],
                           strata=[frozenset(), frozenset({"V"})])
    sc = slice_dvf(pair)
    assert len(sc.cells) == 1
    assert sc.cells[0].vertices == ((Fraction(1, 2),),)


def test_slice_excludes_horizontal_faces_with_notice():
    pair = strict_inclusion_pair()
    sc = slice_dvf(pair)
    assert any("horizontal" in n for n in sc.notices)
    # mixed faces are kept with recession rays
    mixed = [c for c in sc.cells if not c.is_compact()]
    assert mixed


def test_trivial_weight_on_slice_equals_dvf_weight():
    # the trivially-valued twin multiplies the numerator by the chart's
    # uniformizer monomial and moves every vertical component into the dlog
    # set; restricted to <b, alpha> = 1 the two weights agree
    pair = strict_inclusion_pair()
    form = strict_inclusion_form()
    rng = random.Random(71)

    def twin(chart_index):
        chart = pair.charts[chart_index]
        arity = len(chart.coordinates)
        exps = [0] * arity
        for coord, cid in chart.cut.items():
            b = pair.components[cid].pi_multiplicity
            if b:
                exps[chart.coordinates.index(coord)] = b * form.m
        pi_monomial = LaurentRational.monomial(exps, 0, 1)
        verticals = {cid for cid in chart.coordinate_components()
                     if pair.components[cid].vertical}
        num = form.numerators[chart_index] * pi_monomial
        dlog = form.dlog_for(chart_index) | verticals
        return num, dlog

    trivial_components = {c: BoundaryComponent(c, Fraction(1), 0)
                          for c in pair.components}
    trivial_pair = PairDescription(mode="trivial", components=trivial_components,
                                   charts=pair.charts, strata=pair.strata)
    for key in pair.kato_fan().points:
        if not key:
            continue
        b = pair.pi_vector(key)
        if all(x == 0 for x in b):
            continue
        try:
            idx = next(i for i, ch in enumerate(pair.charts)
                       if ch.covers(key) and i in form.numerators)
        except StopIteration:
            continue
        num, dlog = twin(idx)
        tform = PluriForm(m=form.m, dlog=dlog, numerators={idx: num},
                          chart_dlog={idx: dlog})
        for _ in range(20):
            raw = [Fraction(rng.randint(0, 7) + 1, rng.randint(1, 5)) for _ in key]
            total = sum(x * w for x, w in zip(b, raw))
            if total == 0:
                continue
            alpha = [w / total for w in raw]
            pt_dvf = SkeletonPoint.make(key, alpha, mode="dvf")
            pt_triv = SkeletonPoint.make(key, alpha, mode="trivial")
            assert weight(form, pair, pt_dvf) == weight(tform, trivial_pair, pt_triv)


def test_slice_dwork_consistency_with_trivial_twin():
    pair = dwork_pair()
    # normal form on the corner chart: f = 1, dlog {E0}, E1 eliminated; the
    # trivially-valued twin multiplies by the uniformizer monomial u v and
    # moves both verticals into the dlog set
    form = PluriForm(m=1, dlog=frozenset({"E0"}),
                     numerators={0: LaurentRational([((0, 0), 0, 1)])})
    trivial_pair = PairDescription(
        mode="trivial",
        components={c: BoundaryComponent(c, Fraction(1), 0) for c in pair.components},
        charts=pair.charts, strata=pair.strata)
    twin = PluriForm(m=1, dlog=frozenset({"E0", "E1"}),
                     numerators={0: LaurentRational([((1, 1), 0, 1)])})
    for a in (0, Fraction(1, 3), Fraction(1, 2), 1):
        pt_dvf = SkeletonPoint.make(("E0", "E1"), [a, 1 - a], mode="dvf")
        pt_triv = SkeletonPoint.make(("E0", "E1"), [a, 1 - a])
        assert weight(form, pair, pt_dvf) == weight(twin, trivial_pair, pt_triv) == 1


# -- gauss ------------------------------------------------------------------------

def test_gauss_paper_values():
    rec = gauss_weight_identity(1, 1, 2, 1)
    assert rec["log_r"] == -2
    assert rec["log_norm_trivial"] == -2
    assert rec["log_norm_discrete"] == -4
    assert rec["identity_holds"]


def test_gauss_no_exceptional_multiplicity():
    rec = gauss_weight_identity(Fraction(3, 2), 0, 3, 2)
    assert rec["log_norm_trivial"] == -rec["c"] * rec["m"]
    assert rec["log_norm_discrete"] == -2 * rec["c"] * rec["m"]
    assert rec["log_r"] == -rec["c"]
    assert rec["identity_holds"]


def test_gauss_random_rational_sweep():
    rng = random.Random(20960)
    for _ in range(100):
        c = Fraction(rng.randint(1, 40), rng.randint(1, 17))
        a = Fraction(rng.randint(0, 30), rng.randint(1, 11))
        l = rng.randint(1, 9)
        m = rng.randint(1, 9)
        assert gauss_weight_identity(c, a, l, m)["identity_holds"]


def test_example_ks_residue_covers_whole_trace():
    pair = strict_inclusion_pair()
    tracep = pair.trace_pair({"D4"})
    res = residue(strict_inclusion_form(), pair, {"D4"})
    sub = ks_skeleton(tracep, res)
    want = {k: set(face_slice_polytope(tracep, k, tracep.pi_vector(k))[0])
            for k in tracep.kato_fan().points if k}
    got = {f.kato: set(f.vertices) for f in sub.faces}
    assert got == want
