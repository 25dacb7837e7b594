import pytest

from logskel.fixtures import strict_inclusion_pair
from logskel.logstructure import (
    LogStructureError,
    kato_fan_snc,
    kato_fan_toric,
    product,
    toric_trace,
    trace,
)
from logskel.polyhedra import Fan, fan_a2, fan_p1, fan_p1xp1, fan_p2, product_fan


def check_poset(k):
    """The specializations of the Kato fan ``k`` compose."""
    for x, y in k.order:
        for z in k.points:
            assert (y, z) not in k.order or (x, z) in k.order, "specializations do not compose"


def snc_square():
    return kato_fan_snc(
        ["1", "2"],
        [frozenset(), frozenset({"1"}), frozenset({"2"}), frozenset({"1", "2"})])


def test_snc_two_components():
    k = snc_square()
    assert len(k) == 4
    assert sorted(p.rank for p in k.points.values()) == [0, 1, 1, 2]


def test_snc_one_component():
    k = kato_fan_snc(["1"], [frozenset(), frozenset({"1"})])
    assert len(k) == 2


def test_snc_strict_inclusion_figure():
    pair = strict_inclusion_pair()
    keys = set(pair.kato_fan().points)
    assert keys == {
        (), ("D1",), ("D2",), ("D3",), ("D4",),
        ("D1", "D2"), ("D1", "D3"), ("D2", "D3"), ("D1", "D2", "D3"),
        ("D2", "D4"), ("D3", "D4"), ("D2", "D3", "D4"),
    }


def test_snc_requires_meet_closed_family():
    with pytest.raises(LogStructureError):
        kato_fan_snc(["1", "2", "3"],
                     [frozenset(), frozenset({"1", "2"}), frozenset({"2", "3"})])


def test_toric_p2():
    assert len(kato_fan_toric(fan_p2())) == 7


def test_toric_generators_in_span_coordinates():
    # Hilbert generators are printed by ``closure --fan``; pin their span
    # coordinates, including a singular cone and a cone of a smaller span
    want = {
        fan_p2: {(): (), (0,): ((1,),), (1,): ((1,),), (2,): ((1,),),
                 (0, 1): ((0, 1), (1, 0)), (0, 2): ((0, 1), (1, 1)),
                 (1, 2): ((0, 1), (1, 0))},
        fan_p1xp1: {(): (), (0,): ((1,),), (1,): ((1,),), (2,): ((1,),), (3,): ((1,),),
                    (0, 1): ((0, 1), (1, 0)), (0, 3): ((0, 1), (1, 0)),
                    (1, 2): ((0, 1), (1, 0)), (2, 3): ((0, 1), (1, 0))},
        fan_a2: {(): (), (0,): ((1,),), (1,): ((1,),), (0, 1): ((0, 1), (1, 0))},
        lambda: Fan(3, [(1, 0, 0), (1, 2, 0), (0, 1, 3)],
                    [frozenset({0, 1}), frozenset({1, 2})]):
            {(): (), (0,): ((1,),), (1,): ((1,),), (2,): ((1,),),
             (0, 1): ((0, 1), (1, 0), (2, -1)), (1, 2): ((0, 1), (1, 0))},
    }
    for make, gens in want.items():
        k = kato_fan_toric(make())
        assert {key[1]: p.generators for key, p in k.points.items()} == gens


def test_toric_zero_fan():
    k = kato_fan_toric(Fan(2, [], []))
    assert len(k) == 1
    assert next(iter(k.points.values())).rank == 0


def test_toric_a2_agrees_with_snc():
    k = kato_fan_toric(fan_a2())
    assert len(k) == 4
    assert sorted(p.rank for p in k.points.values()) == [0, 1, 1, 2]
    # smooth cones present free monoids: generator counts match snc ranks
    snc = snc_square()
    assert sorted(p.rank for p in snc.points.values()) == \
        sorted(p.rank for p in k.points.values())


def test_trace_snc_simple():
    k = snc_square()
    t = trace(k, ("1",))
    assert sorted(t.points) == [(), ("2",)]
    assert sorted(p.rank for p in t.points.values()) == [0, 1]


def test_trace_generic_is_identity():
    k = snc_square()
    t = trace(k, ())
    assert set(t.points) == set(k.points)
    assert t.order == k.order


def test_trace_p2_ray_matches_star_fan():
    t = toric_trace(fan_p2(), [0])
    p1 = kato_fan_toric(fan_p1())
    assert len(t) == len(p1) == 3
    assert sorted(p.rank for p in t.points.values()) == \
        sorted(p.rank for p in p1.points.values())


def test_trace_of_trace_by_index_arithmetic():
    k = kato_fan_snc(
        ["1", "2", "3"],
        [frozenset(s) for s in
         [(), ("1",), ("2",), ("3",), ("1", "2"), ("1", "3"), ("2", "3"),
          ("1", "2", "3")]])
    once = trace(k, ("1",))
    twice = trace(once, ("2",))
    direct = trace(k, ("1", "2"))
    assert set(twice.points) == set(direct.points)
    assert twice.order == direct.order


def test_product_counts():
    a = kato_fan_snc(["1"], [frozenset(), frozenset({"1"})])
    assert len(product(a, a)) == 4
    p2 = kato_fan_toric(fan_p2())
    prod = product(p2, p2)
    assert len(prod) == 49
    check_poset(prod)


def test_product_matches_product_fan():
    p2 = kato_fan_toric(fan_p2())
    via_points = product(p2, p2)
    via_fan = kato_fan_toric(product_fan(fan_p2(), fan_p2()))
    assert len(via_points) == len(via_fan)
    ranks = sorted(p.rank for p in via_points.points.values())
    assert ranks == sorted(p.rank for p in via_fan.points.values())


def test_product_unit_law():
    unit = kato_fan_snc([], [frozenset()])
    k = snc_square()
    prod = product(k, unit)
    assert len(prod) == len(k)
    assert sorted(p.rank for p in prod.points.values()) == \
        sorted(p.rank for p in k.points.values())


def test_product_associative_commutative_up_to_iso():
    a = kato_fan_snc(["1"], [frozenset(), frozenset({"1"})])
    b = snc_square()
    ab = product(a, b)
    ba = product(b, a)
    assert len(ab) == len(ba)
    assert sorted(p.rank for p in ab.points.values()) == \
        sorted(p.rank for p in ba.points.values())
    assert len(ab.order) == len(ba.order)
    abc = product(product(a, b), a)
    acb = product(a, product(b, a))
    assert len(abc) == len(acb)
    assert sorted(p.rank for p in abc.points.values()) == \
        sorted(p.rank for p in acb.points.values())


def test_specialization_functoriality():
    pair = strict_inclusion_pair()
    check_poset(pair.kato_fan())


def test_pair_json_roundtrip():
    from logskel.logstructure import PairDescription

    pair = strict_inclusion_pair()
    doc = pair.to_json_dict()
    back = PairDescription.from_json_dict(doc)
    assert back.to_json_dict() == doc
    assert set(back.kato_fan().points) == set(pair.kato_fan().points)
