"""Log-regular pairs at desk scale: charts, boundary data, Kato fans, traces,
and the special-fibre strata of the Tate-curve kernel.

A pair is described by snc charts (coordinates plus boundary components) and
a globally declared stratum poset; the toric route builds the same Kato-fan
structure from a rational polyhedral fan.  Characteristic monoids are stored
by generators: a free basis indexed by boundary components in the snc case,
a Hilbert-basis presentation of the dual monoid in the toric case.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .polyhedra import Cone, Fan, dot, dual_cone, hilbert_basis, star_fan
from .lattice import span_snf
from .rationals import fmt, json_value, q
from .valuations import LaurentRational

_MAX_TATE_ROWS = 1 << 20  # negative-case (J, j) rows, n * 2^(n-1): accepts n <= 16


class LogStructureError(ValueError):
    pass


@dataclass(frozen=True)
class BoundaryComponent:
    """One irreducible boundary component with its pair data."""

    cid: str
    coefficient: Fraction = Fraction(1)
    pi_multiplicity: int = 0  # order of the uniformizer along the component (dvf)

    def __post_init__(self):
        if self.coefficient > 1:
            raise LogStructureError(f"coefficient of {self.cid} exceeds 1")
        if self.pi_multiplicity < 0:
            raise LogStructureError(f"negative pi multiplicity on {self.cid}")

    @property
    def vertical(self) -> bool:
        return self.pi_multiplicity > 0


@dataclass
class LogChart:
    """An snc chart: ordered coordinates, which coordinate cuts which
    component, and chart equations for the remaining components."""

    coordinates: tuple
    cut: dict  # coordinate name -> component id
    equations: dict  # component id -> LaurentRational in these coordinates
    relative_dimension: int = 0

    def coordinate_of(self, cid: str):
        for coord, c in self.cut.items():
            if c == cid:
                return coord
        return None

    def coordinate_components(self):
        return set(self.cut.values())

    def covers(self, index_set) -> bool:
        return set(index_set) <= self.coordinate_components()

    def axis(self, cid: str) -> int:
        coord = self.coordinate_of(cid)
        if coord is None:
            raise LogStructureError(f"component {cid} is not a coordinate of this chart")
        return self.coordinates.index(coord)


@dataclass(frozen=True)
class KatoPoint:
    """A point of the Kato fan: stratum key, generator labels, monoid data.

    ``monoid`` is ("free", labels) for snc strata or ("toric", cone,
    span_rays, gens) where the cone is in ambient coordinates, span_rays
    are its rays (in the order of ``cone.rays``) in coordinates on their
    span, and gens is the Hilbert basis of the dual of cone(span_rays) in
    that span (the sharp characteristic monoid).
    """

    key: object
    generators: tuple
    monoid: tuple

    @property
    def rank(self) -> int:
        return len(self.generators)

    def __repr__(self):
        return f"KatoPoint({self.key!r})"


class KatoFan:
    """Poset of Kato points with surjective specialization maps.

    ``order`` holds pairs (x_key, y_key) meaning x lies in the closure of y,
    i.e. the monoid surjects C_x ->> C_y.  The unique minimum is the generic
    point with trivial monoid.
    """

    def __init__(self, points, order):
        self.points = {p.key: p for p in points}
        if len(self.points) != len(points):
            raise LogStructureError("duplicate Kato points")
        self.order = set(order)
        for x, y in self.order:
            if x not in self.points or y not in self.points:
                raise LogStructureError("specialization between undeclared points")
        minima = [k for k, p in self.points.items() if p.rank == 0]
        if len(minima) != 1:
            raise LogStructureError("a Kato fan has a unique generic point")
        self.generic = minima[0]

    def __len__(self):
        return len(self.points)

    def __contains__(self, key):
        return key in self.points

    def specializes(self, x, y) -> bool:
        """True when x is in the closure of y (so C_x surjects onto C_y)."""
        return (x, y) in self.order or x == y


def _sorted_key(ids) -> tuple:
    return tuple(sorted(ids))


def kato_fan_snc(component_ids, strata) -> KatoFan:
    """Kato fan of an snc pair from its declared stratum family.

    Strata are component-id sets; the empty set is added, and the family
    must be closed under subsets: in an snc pair every subset of the
    components through a stratum meets.
    """
    strata = {frozenset(s) for s in strata} | {frozenset()}
    for s in sorted(strata, key=lambda s: (len(s), sorted(s))):
        if not s <= set(component_ids):
            raise LogStructureError(f"stratum {sorted(s)} uses unknown components")
        for c in sorted(s):
            if s - {c} not in strata:
                raise LogStructureError(f"stratum family not closed under subsets: "
                                        f"{sorted(s)} is declared but {sorted(s - {c})} is not")
    points = []
    order = []
    for s in strata:
        gens = _sorted_key(s)
        points.append(KatoPoint(key=_sorted_key(s), generators=gens, monoid=("free", gens)))
    for a in strata:
        for b in strata:
            if b < a:
                order.append((_sorted_key(a), _sorted_key(b)))
    return KatoFan(points, order)


def kato_fan_toric(fan: Fan) -> KatoFan:
    """Kato fan of a toric pair: one point per cone, sharp dual monoids.

    The characteristic monoid at the cone sigma is presented by the Hilbert
    basis of the dual of sigma inside its own span (units quotiented out).
    """
    points = []
    order = []
    keys = {}
    for idx in fan.cones:
        geom = fan.cone_geometry(idx)
        key = ("cone", tuple(sorted(idx)))
        keys[frozenset(idx)] = key
        if not geom.rays:
            points.append(KatoPoint(key=key, generators=(), monoid=("free", ())))
            continue
        u, diag = span_snf(geom.rays)
        s = len(diag)
        span_rays = tuple(tuple(dot(row, r) for row in u[:s]) for r in geom.rays)
        gens = tuple(hilbert_basis(dual_cone(Cone(rays=span_rays, rank=s))))
        points.append(KatoPoint(key=key, generators=gens,
                                monoid=("toric", geom, span_rays, gens)))
    cone_sets = [frozenset(c) for c in fan.cones]
    for a in cone_sets:
        for b in cone_sets:
            if b < a and fan._is_face(b, a):
                order.append((keys[a], keys[b]))
    return KatoFan(points, order)


def trace(k: KatoFan, y) -> KatoFan:
    """Kato fan of the closed stratum of y with its induced log structure.

    Points are the points in the closure of y; in the snc case the monoid
    generators are the component indices outside the index set of y.
    """
    if y not in k:
        raise LogStructureError(f"{y!r} is not a Kato point")
    ypoint = k.points[y]
    if ypoint.monoid[0] == "free" and isinstance(y, tuple) and not (y and y[0] == "cone"):
        iy = set(y)
        keep = [x for x in k.points if k.specializes(x, y)]
        points = []
        for x in keep:
            gens = tuple(sorted(set(x) - iy))
            points.append(KatoPoint(key=gens, generators=gens, monoid=("free", gens)))
        order = [(tuple(sorted(set(a) - iy)), tuple(sorted(set(b) - iy)))
                 for (a, b) in k.order if a in keep and b in keep]
        return KatoFan(points, order)
    raise LogStructureError("trace on this fan requires the snc presentation; "
                            "use star_fan + kato_fan_toric for toric points")


def toric_trace(fan: Fan, sigma) -> KatoFan:
    """Trace of a toric Kato point, as the Kato fan of the star fan."""
    return kato_fan_toric(star_fan(fan, sigma))


def product(k1: KatoFan, k2: KatoFan) -> KatoFan:
    """Product Kato fan: pairs of points, direct-sum monoids."""
    points = []
    order = []
    for a in k1.points.values():
        for b in k2.points.values():
            gens = tuple((0, g) for g in a.generators) + tuple((1, g) for g in b.generators)
            points.append(KatoPoint(key=(a.key, b.key), generators=gens,
                                    monoid=("product", a.monoid, b.monoid)))
    for (x1, y1) in list(k1.order) + [(kk, kk) for kk in k1.points]:
        for (x2, y2) in list(k2.order) + [(kk, kk) for kk in k2.points]:
            if (x1, x2) != (y1, y2):
                order.append(((x1, x2), (y1, y2)))
    return KatoFan(points, order)


# --------------------------------------------------------------------------
# Pair descriptions (chart-level data for the weight machinery)
# --------------------------------------------------------------------------

@dataclass
class PairDescription:
    """A log-regular pair presented by snc charts and a stratum poset."""

    mode: str  # "trivial" | "dvf"
    components: dict  # cid -> BoundaryComponent
    charts: list  # of LogChart
    strata: list  # of frozenset of cids (the nonempty Kato strata)
    logcy: bool = False
    _fan: KatoFan = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("trivial", "dvf"):
            raise LogStructureError(f"unknown mode {self.mode!r}")
        for chart in self.charts:
            for cid in chart.cut.values():
                if cid not in self.components:
                    raise LogStructureError(f"chart cuts unknown component {cid}")
            for cid, eq in chart.equations.items():
                if eq.num_arity() != len(chart.coordinates):
                    raise LogStructureError(f"equation of {cid} has wrong arity")
        if self.mode == "dvf":
            for chart in self.charts:
                for cid in chart.cut.values():
                    comp = self.components[cid]
                    if comp.vertical:
                        eq = chart.equations.get(cid)
                        if eq is not None and not eq.is_coordinate():
                            raise LogStructureError(
                                f"vertical component {cid} must be cut by a coordinate")

    def kato_fan(self) -> KatoFan:
        if self._fan is None:
            self._fan = kato_fan_snc(sorted(self.components), self.strata)
        return self._fan

    def pi_vector(self, index_set):
        return [self.components[c].pi_multiplicity for c in sorted(index_set)]

    def horizontal_ids(self):
        return {c for c, comp in self.components.items() if not comp.vertical}

    def trace_pair(self, stratum) -> "PairDescription":
        """The pair structure induced on a closed stratum (component set J).

        Components that never meet the stratum (no common deeper stratum)
        are dropped: their equations restrict to units.
        """
        stratum = frozenset(stratum)
        if stratum not in {frozenset(s) for s in self.strata}:
            raise LogStructureError(f"{sorted(stratum)} is not a declared stratum")
        alive, indices = self._trace_charts(stratum)
        comps = {c: comp for c, comp in self.components.items() if c in alive}
        charts = []
        for idx in indices:
            chart = self.charts[idx]
            drop_axes = sorted((chart.axis(c) for c in stratum), reverse=True)
            coords = [x for i, x in enumerate(chart.coordinates)
                      if i not in set(drop_axes)]
            cut = {coord: cid for coord, cid in chart.cut.items()
                   if cid in comps}
            eqs = {}
            for cid, eq in chart.equations.items():
                if cid not in comps:
                    continue
                eqs[cid] = eq.restrict(drop_axes)
            charts.append(LogChart(coordinates=tuple(coords), cut=cut, equations=eqs,
                                   relative_dimension=max(chart.relative_dimension - len(stratum), 0)))
        strata = sorted({frozenset(s) - stratum for s in self.strata
                         if stratum <= frozenset(s)}, key=sorted)
        return PairDescription(mode=self.mode, components=comps, charts=charts,
                               strata=strata, logcy=False)

    def trace_chart_indices(self, stratum):
        """Indices of the charts surviving restriction to a stratum."""
        return self._trace_charts(frozenset(stratum))[1]

    def _trace_charts(self, stratum):
        """The components still alive on a stratum (those of the strata
        through it, outside it) and the indices of the charts surviving
        restriction to it: a chart survives when it covers the stratum and
        the equation of every alive component restricts to a nonzero
        expression there.
        """
        alive = set().union(*(frozenset(s) - stratum for s in self.strata if stratum <= frozenset(s)))
        out = []
        for idx, chart in enumerate(self.charts):
            if not chart.covers(stratum):
                continue
            drop = sorted((chart.axis(c) for c in stratum), reverse=True)
            if all(chart.equations[c].restrict(drop) is not None
                   for c in chart.equations if c in alive):
                out.append(idx)
        return alive, out

    # -- serialization ------------------------------------------------

    def to_json_dict(self):
        charts = []
        for chart in self.charts:
            boundary = []
            for cid in sorted(set(chart.cut.values()) | set(chart.equations)):
                comp = self.components[cid]
                entry = {
                    "id": cid,
                    "coefficient": fmt(comp.coefficient),
                    "pi_multiplicity": comp.pi_multiplicity,
                }
                if cid in chart.equations:
                    entry["equation"] = chart.equations[cid].to_json_dict()
                coord = chart.coordinate_of(cid)
                if coord is not None:
                    entry["coordinate"] = coord
                boundary.append(entry)
            charts.append({
                "coords": list(chart.coordinates),
                "boundary": boundary,
                "relative_dimension": chart.relative_dimension,
            })
        return {
            "schema": "1",
            "mode": self.mode,
            "logcy": self.logcy,
            "charts": charts,
            "strata": sorted([sorted(s) for s in self.strata], key=lambda s: (len(s), s)),
        }

    @staticmethod
    def from_json_dict(doc) -> "PairDescription":
        components = {}
        charts = []
        for chdoc in json_value(doc["charts"], "charts", LogStructureError, list, dict):
            coords = tuple(json_value(chdoc["coords"], "coords", LogStructureError, list, str, "a list of names"))
            cut = {}
            eqs = {}
            for b in json_value(chdoc["boundary"], "boundary", LogStructureError, list, dict):
                cid = json_value(b["id"], "component id", LogStructureError, str)
                pi = json_value(b.get("pi_multiplicity", 0), "pi_multiplicity", LogStructureError, int)
                comp = BoundaryComponent(cid=cid, coefficient=q(b.get("coefficient", "1")),
                                         pi_multiplicity=pi)
                if cid in components and components[cid] != comp:
                    raise LogStructureError(f"inconsistent data for component {cid}")
                components[cid] = comp
                if "equation" in b:
                    eqs[cid] = LaurentRational.from_json_dict(b["equation"])
                if "coordinate" in b:
                    if b["coordinate"] not in coords:
                        raise LogStructureError(f"coordinate {b['coordinate']!r} of {cid} is not one of "
                                                f"the chart coordinates {list(coords)}")
                    cut[b["coordinate"]] = cid
                elif "equation" in b and eqs[cid].is_coordinate():
                    cut[coords[eqs[cid].coordinate_axis()]] = cid
            rel_dim = json_value(chdoc.get("relative_dimension", 0), "relative_dimension", LogStructureError, int)
            charts.append(LogChart(coordinates=coords, cut=cut, equations=eqs, relative_dimension=rel_dim))
        strata = [frozenset(json_value(s, "stratum", LogStructureError, list, str, "a list of component ids"))
                  for s in json_value(doc["strata"], "strata", LogStructureError, list, what="a list of strata")]
        return PairDescription(mode=doc["mode"], components=components, charts=charts,
                               strata=strata, logcy=bool(doc.get("logcy", False)))

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)


def tate_strata(n: int, alpha):
    """Classification of the special-fibre strata of the multiplication-kernel
    closure in a product of degenerating multiplicative groups.

    Case table on s = |alpha|: s > 0 has no special strata; s = 0 has one
    boundary divisor with local model G_m^{n-1} x A^1; s < 0 classifies the
    (J, j) strata: contained iff |J| + s in {0, 1}, cut by the x-coordinate
    when the sum is 0 and by the y-coordinate when it is 1.  The n 2^(n-1)
    rows of that case are counted, and refused past _MAX_TATE_ROWS, first.
    """
    alpha = list(alpha)
    if not alpha:
        raise ValueError("alpha must be nonempty")
    if n < 2:
        raise ValueError("the classification needs n >= 2")
    if len(alpha) != n:
        raise ValueError("alpha must have length n")
    s = sum(alpha)
    result = {"n": n, "alpha": list(alpha), "total": s}
    if s > 0:
        result["case"] = "generic"
        result["strata"] = []
        return result
    if s == 0:
        result["case"] = "single_divisor"
        result["local_model"] = "Gm^(n-1) x A1"
        result["divisor_coordinate"] = "y"
        result["strata"] = [{"J": list(range(1, n + 1)), "contained": True}]
        return result
    if n << (n - 1) > _MAX_TATE_ROWS:
        raise ValueError(f"n = {n} has {n << (n - 1)} (J, j) strata, over the desk-scale {_MAX_TATE_ROWS}")
    result["case"] = "negative"
    strata = []
    for size in range(1, n + 1):
        for J in itertools.combinations(range(1, n + 1), size):
            for j in J:
                val = size + s
                contained = val in (0, 1)
                entry = {"J": list(J), "j": j, "contained": contained}
                if contained:
                    entry["divisor_coordinate"] = "x" if val == 0 else "y"
                    # at the generic point exactly one coordinate of the
                    # distinguished pair cuts the fibre; the other is a unit,
                    # so the deeper boundary is met in codimension two
                    entry["codim_two_boundary"] = True
                strata.append(entry)
    result["strata"] = strata
    return result
