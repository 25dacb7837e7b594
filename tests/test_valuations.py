import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logskel.fixtures import a2_pair
from logskel.logstructure import LogChart
from logskel.polyhedra import Fan, fan_a2, fan_p1xp1, fan_p2
from logskel.rationals import INF, is_inf, xdot, xmin
from logskel.valuations import (
    LaurentRational,
    SkeletonPoint,
    ValuationError,
    ZeroFunctionError,
    classify_closure_point,
    classify_closure_point_toric,
    evaluate,
    monomial_value,
    normalize_dvf,
    retract,
    scale,
)

A2 = a2_pair()
CHART = A2.charts[0]
FAN = A2.kato_fan()


def poly(*terms):
    return LaurentRational([(e, 0, 1) for e in terms])


def pt(w1, w2):
    return SkeletonPoint.make(("B1", "B2"), [w1, w2])


F_MIXED = poly((2, 0), (1, 1), (0, 3))  # x^2 + x y + y^3


def test_evaluate_trivial_valuation():
    assert evaluate(pt(0, 0), F_MIXED, CHART) == 0


def test_evaluate_min_over_monomials():
    assert evaluate(pt(1, 2), F_MIXED, CHART) == 2  # min{2, 3, 6}


def test_evaluate_drops_infinite_term():
    assert evaluate(pt(2, INF), poly((1, 0), (0, 1)), CHART) == 2


def test_negative_exponent_at_an_infinite_weight_is_refused_in_either_order():
    for exps in ((1, -1), (-1, 1)):
        with pytest.raises(ValueError, match="negative exponent at an infinite weight"):
            xdot(exps, (INF, INF))
        with pytest.raises(ValueError, match="negative exponent at an infinite weight"):
            poly(exps).value((INF, INF))
    assert xdot((1, 0, -1), (INF, INF, 2)) is INF and xdot((0, -1), (INF, 2)) == -2


def test_evaluate_zero_function_is_error():
    with pytest.raises(ZeroFunctionError):
        LaurentRational([]).value([Fraction(0), Fraction(0)])


def test_evaluate_shape_mismatch():
    with pytest.raises(ValuationError):
        evaluate(pt(1, 1), LaurentRational([((1,), 0, 1)]), CHART)


def test_scale_zero_gives_trivial_valuation():
    out = scale(0, pt(3, 5))
    assert out.weights == (Fraction(0), Fraction(0))


def test_scale_homogeneity_pinned():
    v = pt(1, 2)
    f = poly((1, 0), (0, 1))
    assert evaluate(scale(3, v), f, CHART) == 3 * evaluate(v, f, CHART)


def test_scale_half():
    v = pt(2, 4)
    f = poly((2, 1))  # z1^2 z2
    assert evaluate(scale(Fraction(1, 2), v), f, CHART) == Fraction(4)
    assert Fraction(4) == Fraction(1, 2) * evaluate(v, f, CHART)


def test_scale_rejects_dvf():
    with pytest.raises(ValuationError):
        scale(2, SkeletonPoint.make(("B1",), [1], mode="dvf"))


THREE_CHART = LogChart(
    coordinates=("z1", "z2", "z3"),
    cut={"z1": "B1", "z2": "B2"},
    equations={"B1": LaurentRational.coordinate(0, 3),
               "B2": LaurentRational.coordinate(1, 3)},
    relative_dimension=3,
)


def test_retract_projection_rule():
    out = retract(THREE_CHART, [1, 2, 5])
    assert out.kato == ("B1", "B2")
    assert out.weights == (Fraction(1), Fraction(2))


def test_retract_inequality_example():
    f = LaurentRational([((0, 0, 1), 0, 1), ((1, 0, 0), 0, 1)])  # z3 + z1
    original = monomial_value(f, [1, 2, 5])
    retracted = evaluate(retract(THREE_CHART, [1, 2, 5]), f, THREE_CHART)
    assert original == 1
    assert retracted == 0
    assert original >= retracted


def test_retract_fixes_boundary_points():
    out = retract(THREE_CHART, [1, 2, 0])
    f = poly((1, 1, 0))
    assert evaluate(out, f, THREE_CHART) == monomial_value(f, [1, 2, 0])


def test_retract_rejects_negative():
    with pytest.raises(ValuationError):
        retract(THREE_CHART, [1, -1, 0])


def test_classify_snc_single_infinite():
    stratum, residual = classify_closure_point(pt(2, INF), FAN)
    assert stratum == ("B2",)
    assert residual.kato == ("B1",)
    assert residual.weights == (Fraction(2),)


def test_classify_snc_all_infinite():
    stratum, residual = classify_closure_point(pt(INF, INF), FAN)
    assert stratum == ("B1", "B2")
    assert residual.kato == ()


def test_classify_finite_returns_generic():
    stratum, residual = classify_closure_point(pt(1, 2), FAN)
    assert stratum == ()
    assert residual == pt(1, 2)


def test_classify_toric_p2_strata_sampling():
    fan = fan_p2()
    seen = set()
    # the maximal cones are smooth, so the sharp monoids have 2 generators
    for cone in ([0, 1], [1, 2], [0, 2]):
        for values in (["1", "2"], ["inf", "1"], ["1", "inf"], ["inf", "inf"]):
            stratum, _ = classify_closure_point_toric(fan, cone, values)
            seen.add(stratum)
    for cone in ([0], [1], [2]):
        stratum, _ = classify_closure_point_toric(fan, cone, ["2"])
        assert stratum == ()
    # seven strata overall: the generic one, three rays, three maximal cones
    assert len(seen) == 7


def test_classify_toric_pinned_values():
    singular = Fan(3, [(1, 0, 0), (1, 2, 0), (0, 1, 3)],
                   [frozenset({0, 1}), frozenset({1, 2})])
    cases = [
        (fan_p2(), [0, 1], ["1", "inf"], ((0,), [((0, 1), 1)])),
        (fan_p2(), [0, 1], ["1/2", "3"], ((), [((0, 1), Fraction(1, 2)), ((1, 0), 3)])),
        (fan_p2(), [1, 2], ["inf", "0"], ((1,), [((1, 0), 0)])),
        (fan_p2(), [0], ["5/3"], ((), [((1,), Fraction(5, 3))])),
        (fan_a2(), [0, 1], ["2", "inf"], ((0,), [((0, 1), 2)])),
        (fan_p1xp1(), [0, 1], ["inf", "1/3"], ((1,), [((1, 0), Fraction(1, 3))])),
        (fan_p1xp1(), [1, 2], ["7", "inf"], ((2,), [((0, 1), 7)])),
        (singular, [0, 1], ["inf", "inf", "2"], ((1,), [((2, -1), 2)])),
        (singular, [0, 1], ["1", "inf", "inf"], ((0,), [((0, 1), 1)])),
        (singular, [0, 1], ["1", "2", "3"], ((), [((0, 1), 1), ((1, 0), 2), ((2, -1), 3)])),
        (singular, [0, 1], ["inf", "inf", "inf"], ((0, 1), [])),
        (singular, [1, 2], ["inf", "1"], ((2,), [((1, 0), 1)])),
    ]
    for fan, cone, values, want in cases:
        assert classify_closure_point_toric(fan, cone, values) == want
    with pytest.raises(ValuationError):
        classify_closure_point_toric(singular, [0, 1], ["inf", "1", "inf"])


def test_normalize_example_multiplicity_two():
    v = SkeletonPoint.make(("D1", "D2", "D3"), [1, 0, 0])
    out = normalize_dvf(v, {"D1": 2, "D2": 1, "D3": 1})
    assert out.weights == (Fraction(1, 2), Fraction(0), Fraction(0))
    assert out.mode == "dvf"


def test_normalize_balanced():
    v = SkeletonPoint.make(("a", "b"), [1, 1])
    out = normalize_dvf(v, [1, 1])
    assert out.weights == (Fraction(1, 2), Fraction(1, 2))


def test_normalize_horizontal_only_errors():
    v = SkeletonPoint.make(("a", "b"), [0, 3])
    with pytest.raises(ValuationError):
        normalize_dvf(v, [1, 0])


# -- randomized property suites ---------------------------------------------

def random_poly(rng, arity=2, terms=3, positive=True):
    out = []
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(0, 4) for _ in range(arity))
        coeff = rng.randint(1, 9) if positive else rng.choice([-3, -2, -1, 1, 2, 3])
        out.append((exps, 0, coeff))
    return LaurentRational(out)


def random_point(rng):
    return pt(Fraction(rng.randint(0, 12), rng.randint(1, 6)),
              Fraction(rng.randint(0, 12), rng.randint(1, 6)))


def test_ultrametric_bound_sweep():
    rng = random.Random(101)
    for _ in range(250):
        f = random_poly(rng)
        g = random_poly(rng)
        v = random_point(rng)
        fg = LaurentRational(list(f.numerator) + list(g.numerator))
        lhs = evaluate(v, fg, CHART)
        rhs = xmin([evaluate(v, f, CHART), evaluate(v, g, CHART)])
        assert lhs >= rhs
        supp_f = {t.exps for t in f.numerator}
        supp_g = {t.exps for t in g.numerator}
        if not (supp_f & supp_g):
            assert lhs == rhs
        # positive exact coefficients never cancel, so equality holds too
        assert evaluate(v, fg, CHART) == rhs


def test_cancellation_free_multiplicativity_sweep():
    rng = random.Random(55)
    for _ in range(250):
        f = random_poly(rng)
        g = random_poly(rng)
        v = random_point(rng)
        assert evaluate(v, f * g, CHART) == evaluate(v, f, CHART) + evaluate(v, g, CHART)


def test_homogeneity_sweep():
    rng = random.Random(77)
    for _ in range(250):
        f = random_poly(rng)
        v = random_point(rng)
        a = Fraction(rng.randint(0, 8), rng.randint(1, 5))
        assert evaluate(scale(a, v), f, CHART) == a * evaluate(v, f, CHART)


def test_retraction_monotone_sweep():
    rng = random.Random(31)
    for _ in range(250):
        f = random_poly(rng, arity=3)
        w = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(3)]
        assert monomial_value(f, w) >= evaluate(retract(THREE_CHART, w), f, THREE_CHART)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=4),
       st.fractions(min_value=0, max_value=10),
       st.fractions(min_value=0, max_value=10))
def test_specialization_compatibility(exps, w1, w2):
    # a point of a face evaluates identically through any larger face: the
    # pulled-back weight vector extends by zero on the extra components
    f = LaurentRational([(e, 0, 1) for e in exps])
    on_ray = SkeletonPoint.make(("B1",), [w1])
    on_face = SkeletonPoint.make(("B1", "B2"), [w1, 0])
    assert evaluate(on_ray, f, CHART) == evaluate(on_face, f, CHART)


def test_classify_then_embed_is_identity():
    stratum, residual = classify_closure_point(pt(Fraction(7, 3), 0), FAN)
    assert stratum == () and residual.weights == (Fraction(7, 3), Fraction(0))
