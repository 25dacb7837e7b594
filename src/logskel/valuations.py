"""Quasi-monomial (semi)valuations as weight vectors on Kato points.

A skeleton point is a Kato point plus nonnegative extended-rational weights
on the generators of its characteristic monoid.  Evaluation is tropical on
the presented expression: the minimum over monomials of coefficient
valuation plus the weight pairing.  Values are exact for admissible
expansions; for arbitrary presentations they are lower bounds that are
exact absent cancellation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .lattice import rat_solve
from .polyhedra import dot
from .rationals import INF, fmt, is_inf, json_value, parse_ext, q, xdot, xmin


class ValuationError(ValueError):
    pass


class ZeroFunctionError(ValuationError):
    """Raised when evaluating the zero function (v(0) is undefined here)."""


@dataclass(frozen=True)
class Term:
    """One monomial: exponent vector, coefficient valuation, optional exact
    rational coefficient for cancellation-aware checks."""

    exps: tuple
    coeff_val: Fraction = Fraction(0)
    coeff: Fraction = None

    def value(self, weights):
        return self.coeff_val + xdot(self.exps, weights)


def _terms_from(spec_list):
    out = []
    for item in spec_list:
        if isinstance(item, Term):
            out.append(item)
            continue
        exps, *rest = item
        exps = json_value(list(exps), "exponent vector", ValuationError, list, int, "a list of integers")
        cv = q(rest[0]) if rest else Fraction(0)
        coeff = q(rest[1]) if len(rest) > 1 and rest[1] is not None else None
        out.append(Term(exps=tuple(exps), coeff_val=cv, coeff=coeff))
    return tuple(out)


class LaurentRational:
    """Ratio of Laurent polynomials with valued coefficients.

    Terms are (exponent vector, coefficient valuation, optional exact
    coefficient); the denominator defaults to 1.  Exponents are allowed to
    be negative.
    """

    def __init__(self, numerator, denominator=None):
        self.numerator = _terms_from(numerator)
        if denominator is None:
            denominator = [Term(exps=(0,) * (len(self.numerator[0].exps) if self.numerator else 0))]
        self.denominator = _terms_from(denominator)
        if not self.denominator:
            raise ValuationError("denominator must be nonzero")
        arities = {len(t.exps) for t in self.numerator} | {len(t.exps) for t in self.denominator}
        if len(arities) > 1:
            raise ValuationError("exponent length mismatch inside one expression")

    @staticmethod
    def monomial(exps, coeff_val=0, coeff=None) -> "LaurentRational":
        return LaurentRational([(tuple(exps), coeff_val, coeff)])

    @staticmethod
    def coordinate(axis: int, arity: int) -> "LaurentRational":
        exps = [0] * arity
        exps[axis] = 1
        return LaurentRational.monomial(exps, 0, 1)

    def num_arity(self) -> int:
        terms = self.numerator or self.denominator
        return len(terms[0].exps)

    def is_zero(self) -> bool:
        return not self.numerator

    def is_coordinate(self) -> bool:
        if len(self.numerator) != 1 or len(self.denominator) != 1:
            return False
        num, den = self.numerator[0], self.denominator[0]
        return (any(den.exps) is False and num.coeff_val == 0
                and sorted(num.exps) == [0] * (len(num.exps) - 1) + [1])

    def coordinate_axis(self) -> int:
        if not self.is_coordinate():
            raise ValuationError("not a coordinate monomial")
        return self.numerator[0].exps.index(1)

    def value(self, weights):
        """Tropical value: min over numerator terms minus min over denominator."""
        if self.is_zero():
            raise ZeroFunctionError("the zero function has no valuation")
        arity = self.num_arity()
        if len(weights) != arity:
            raise ValuationError("exponent length mismatch")
        num = xmin(t.value(weights) for t in self.numerator)
        den = xmin(t.value(weights) for t in self.denominator)
        if is_inf(den):
            raise ValuationError("denominator has infinite value at this point")
        if is_inf(num):
            return INF
        return num - den

    def restrict(self, drop_axes):
        """Set the dropped coordinates to zero and delete their axes.

        Keeps exactly the terms with zero exponent on every dropped axis
        (the admissible-expansion restriction); returns None if the
        numerator or denominator vanishes identically.
        """
        drop = set(drop_axes)

        def keep(terms):
            out = []
            for t in terms:
                if all(t.exps[i] == 0 for i in drop):
                    out.append(Term(exps=tuple(e for i, e in enumerate(t.exps) if i not in drop),
                                    coeff_val=t.coeff_val, coeff=t.coeff))
            return tuple(out)

        num = keep(self.numerator)
        den = keep(self.denominator)
        if not num or not den:
            return None
        r = LaurentRational.__new__(LaurentRational)
        r.numerator = num
        r.denominator = den
        return r

    def __mul__(self, other: "LaurentRational") -> "LaurentRational":
        def conv(a, b):
            acc = {}
            for t in a:
                for s in b:
                    e = tuple(x + y for x, y in zip(t.exps, s.exps))
                    cv = t.coeff_val + s.coeff_val
                    coeff = None
                    if t.coeff is not None and s.coeff is not None:
                        coeff = t.coeff * s.coeff
                    if e in acc:
                        cv0, c0 = acc[e]
                        if coeff is not None and c0 is not None:
                            c = c0 + coeff
                            if c == 0:
                                del acc[e]
                                continue
                            acc[e] = (min(cv0, cv), c)
                        else:
                            acc[e] = (min(cv0, cv), None)
                    else:
                        acc[e] = (cv, coeff)
            return tuple(Term(exps=e, coeff_val=cv, coeff=c) for e, (cv, c) in sorted(acc.items()))

        r = LaurentRational.__new__(LaurentRational)
        r.numerator = conv(self.numerator, other.numerator)
        r.denominator = conv(self.denominator, other.denominator)
        if not r.denominator:
            raise ValuationError("denominator cancelled to zero")
        return r

    def __pow__(self, k: int) -> "LaurentRational":
        if k < 1:
            raise ValuationError("only positive powers")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    # -- serialization ------------------------------------------------

    def to_json_dict(self):
        def dump(terms):
            out = []
            for t in terms:
                entry = {"exp": list(t.exps), "coeff_val": fmt(t.coeff_val), "nonzero": True}
                if t.coeff is not None:
                    entry["coeff"] = fmt(t.coeff)
                out.append(entry)
            return out

        return {"num": dump(self.numerator), "den": dump(self.denominator)}

    @staticmethod
    def from_json_dict(doc) -> "LaurentRational":
        def load(entries):
            if type(entries) is not list or any(type(e) is not dict or type(e.get("exp")) is not list
                                                for e in entries):
                raise ValuationError(f"terms {entries!r} are not a list of objects with an exponent list")
            return [(tuple(e["exp"]), q(e.get("coeff_val", 0)),
                     q(e["coeff"]) if "coeff" in e else None) for e in entries]

        json_value(doc, "expression", ValuationError, dict)
        return LaurentRational(load(doc["num"]), load(doc["den"]) if doc.get("den") else None)

    def __repr__(self):
        return f"LaurentRational({self.to_json_dict()})"


@dataclass(frozen=True)
class SkeletonPoint:
    """Kato point plus extended weights on its monoid generators.

    Finite weights mean the point lies in the skeleton itself; infinite
    entries place it in the closure.  In dvf mode the pairing of weights
    with the pi multiplicities must equal 1.
    """

    kato: tuple  # sorted component ids of the stratum
    weights: tuple  # extended rationals aligned with ``kato``
    mode: str = "trivial"

    def __post_init__(self):
        if len(self.kato) != len(self.weights):
            raise ValuationError("one weight per monoid generator")
        for w in self.weights:
            if w < 0:
                raise ValuationError("weights must be nonnegative")

    @staticmethod
    def make(kato, weights, mode="trivial") -> "SkeletonPoint":
        kato = tuple(kato)
        if len(set(kato)) < len(kato):
            raise ValuationError(f"kato_point {list(kato)!r} names a component twice")
        weights = [weights[c] for c in kato] if isinstance(weights, dict) else list(weights)
        if len(kato) != len(weights):
            raise ValuationError("one weight per monoid generator")
        order = sorted(range(len(kato)), key=kato.__getitem__)
        return SkeletonPoint(kato=tuple(kato[i] for i in order),
                             weights=tuple(parse_ext(weights[i]) for i in order), mode=mode)

    def weight_of(self, cid):
        try:
            return self.weights[self.kato.index(cid)]
        except ValueError:
            return Fraction(0)

    def is_finite(self) -> bool:
        return not any(is_inf(w) for w in self.weights)

    def to_json_dict(self):
        return {
            "kato_point": list(self.kato),
            "weights": [fmt(w) for w in self.weights],
            "mode": self.mode,
        }

    @staticmethod
    def from_json_dict(doc) -> "SkeletonPoint":
        kato = json_value(doc["kato_point"], "kato_point", ValuationError, list)
        json_value(kato, "kato_point", ValuationError, list, str, "a list of component ids")
        weights = json_value(doc["weights"], "weights", ValuationError, list)
        return SkeletonPoint.make(kato, weights, doc.get("mode", "trivial"))


def chart_weight_vector(point: SkeletonPoint, chart):
    """Extended weights over the chart coordinates induced by a skeleton point.

    Coordinates cutting components outside the Kato point get weight 0 (they
    are units at the stratum's generic point); the chart must cover the
    point's stratum.
    """
    if not chart.covers(point.kato):
        raise ValuationError(
            f"chart does not contain the Kato point {list(point.kato)}")
    out = []
    for coord in chart.coordinates:
        cid = chart.cut.get(coord)
        out.append(point.weight_of(cid) if cid is not None else Fraction(0))
    return out


def evaluate(point: SkeletonPoint, f: LaurentRational, chart):
    """v(f) for f presented in a chart containing the Kato point."""
    return f.value(chart_weight_vector(point, chart))


def monomial_value(f: LaurentRational, coord_weights):
    """Tropical value at a chart-monomial point (weights on all coordinates)."""
    return f.value([parse_ext(w) for w in coord_weights])


def scale(a, point: SkeletonPoint) -> SkeletonPoint:
    """Rescale a trivially-valued point; dvf points are normalized."""
    if point.mode != "trivial":
        raise ValuationError("dvf points are normalized and not scalable")
    a = q(a)
    if a < 0:
        raise ValuationError("scaling factor must be nonnegative")
    if a == 0:
        return SkeletonPoint(kato=point.kato, weights=tuple(Fraction(0) for _ in point.weights),
                             mode="trivial")
    return SkeletonPoint(kato=point.kato,
                         weights=tuple(w if is_inf(w) else a * w for w in point.weights),
                         mode="trivial")


def retract(chart, coord_weights) -> SkeletonPoint:
    """Retraction of a chart-monomial point onto the skeleton.

    Keeps the weights of the boundary coordinates and forgets the rest; the
    resulting point sits on the stratum cut out by the chart's boundary.
    """
    weights = [q(w) for w in coord_weights]
    if len(weights) != len(chart.coordinates):
        raise ValuationError("one weight per chart coordinate")
    if any(w < 0 for w in weights):
        raise ValuationError("weights must be nonnegative")
    kato = []
    vals = {}
    for coord, cid in chart.cut.items():
        kato.append(cid)
        vals[cid] = weights[chart.coordinates.index(coord)]
    kato = tuple(sorted(kato))
    return SkeletonPoint(kato=kato, weights=tuple(vals[c] for c in kato))


def classify_closure_point(point: SkeletonPoint, fan):
    """Split a closure point into its stratum and a finite trace point.

    The stratum is the Kato point indexed by the components with infinite
    weight; the remaining finite weights define a point of the skeleton of
    the trace.  Finite points return the generic stratum unchanged.
    """
    unknown = [c for c in point.kato if not any(c in key for key in fan.points)]
    if unknown:
        raise ValuationError(f"{unknown} are not boundary components of the pair")
    infinite = tuple(sorted(c for c, w in zip(point.kato, point.weights) if is_inf(w)))
    if not infinite:
        return (), point
    if infinite not in fan:
        raise ValuationError(
            f"components {list(infinite)} do not cut a declared stratum")
    finite = {c: w for c, w in zip(point.kato, point.weights) if not is_inf(w)}
    residual = tuple(sorted(finite))
    return infinite, SkeletonPoint(kato=residual,
                                   weights=tuple(finite[c] for c in residual),
                                   mode=point.mode)


def classify_closure_point_toric(fan, cone_indices, generator_values):
    """Toric closure classification on the face of the cone ``cone_indices``.

    ``generator_values`` are extended rationals on the Hilbert generators of
    the sharp monoid at the cone.  Returns (stratum ray-index set, values of
    the finite generators on the trace monoid as a vector u in the star-fan
    lattice paired against them).
    """
    from .logstructure import kato_fan_toric  # local import to avoid a cycle

    for i in cone_indices:
        if type(i) is not int or not 0 <= i < len(fan.rays):
            raise ValuationError(f"{i!r} is not an index into the {len(fan.rays)} rays")
    kfan = kato_fan_toric(fan)
    key = ("cone", tuple(sorted(cone_indices)))
    if key not in kfan:
        raise ValuationError("not a cone of the fan")
    pt = kfan.points[key]
    if pt.monoid[0] == "free" and not pt.generators:
        return tuple(), []
    _, geom, span_rays, gens = pt.monoid
    values = [parse_ext(v) for v in generator_values]
    if len(values) != len(gens):
        raise ValuationError("one value per Hilbert generator")
    finite = [h for h, v in zip(gens, values) if not is_inf(v)]
    face_rays = [r for r, sr in zip(geom.rays, span_rays)
                 if all(dot(h, sr) == 0 for h in finite)]
    face_span = [sr for r, sr in zip(geom.rays, span_rays) if r in face_rays]
    # consistency: a generator is finite exactly when it vanishes on the face
    for h, v in zip(gens, values):
        perp = all(dot(h, sr) == 0 for sr in face_span)
        if perp != (not is_inf(v)):
            raise ValuationError("values do not define an extended monoid morphism")
    # the finite values must be additive: solve <h, u> = v_h
    if finite:
        sol = rat_solve([list(h) for h in finite],
                        [v for v in values if not is_inf(v)])
        if sol is None:
            raise ValuationError("finite generator values are not additive")
    stratum = frozenset(fan._ray_index[r] for r in face_rays)
    finite_pairs = [(h, v) for h, v in zip(gens, values) if not is_inf(v)]
    return tuple(sorted(stratum)), finite_pairs


def normalize_dvf(point: SkeletonPoint, pi_multiplicities) -> SkeletonPoint:
    """Rescale so that the uniformizer has value 1.

    ``pi_multiplicities`` pairs with the point's components (dict or
    aligned sequence); the pairing must be finite and positive.
    """
    if isinstance(pi_multiplicities, dict):
        b = [pi_multiplicities.get(c, 0) for c in point.kato]
    else:
        b = list(pi_multiplicities)
    if len(b) != len(point.kato):
        raise ValuationError("one multiplicity per component")
    total = xdot(b, point.weights)
    if is_inf(total):
        raise ValuationError("v(pi) is infinite at this point")
    if total == 0:
        raise ValuationError("v(pi) = 0: the point is not in the dvf skeleton")
    return SkeletonPoint(kato=point.kato,
                         weights=tuple(w if is_inf(w) else w / total for w in point.weights),
                         mode="dvf")
