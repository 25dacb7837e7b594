"""Log discrepancy, weight functions, Kontsevich-Soibelman and essential
skeletons, residues, the slice comparison, and the Gauss exponent identity.

Weight formulas on a chart with dlog index set P and numerator f:

  trivial mode:  wt = v(f) + m * sum_{h in B\\P} v(g_h)
                        + m * sum_i alpha_i (1 - a_i)
  dvf mode:      wt = v(f) + m * (1 + sum_{h in H\\P} v(g_h))

with g_h the chart equations of the boundary components outside the dlog
set, B the full boundary, H the horizontal part, a_i the pair coefficients
and alpha the weight vector.  The dvf form must be in chart normal form:
exactly one vertical chart component outside P (the eliminated coordinate).
In trivial mode the Kontsevich-Soibelman skeleton is a union of closed
faces: those where the weight vanishes at the all-ones point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import _gauss_jordan, primitive
from .logstructure import LogChart, PairDescription
from .rationals import INF, fmt, is_inf, json_value, q, xscale
from .valuations import LaurentRational, SkeletonPoint, chart_weight_vector


class WeightError(ValueError):
    pass


class NormalFormError(WeightError):
    pass


@dataclass
class PluriForm:
    """A logarithmic m-pluricanonical form in chart normal form.

    ``numerators`` maps chart index -> LaurentRational.  The dlog set P
    holds component ids; one global form may present against different dlog
    patterns in different charts (recentring a chart trades one dlog
    generator for another), so ``chart_dlog`` can override P per chart.
    The presentations are fixture data, not derived from one another.
    """

    m: int
    dlog: frozenset
    numerators: dict
    chart_dlog: dict = None

    def __post_init__(self):
        if self.m < 1:
            raise WeightError("m must be a positive integer")
        self.dlog = frozenset(self.dlog)
        if self.chart_dlog is None:
            self.chart_dlog = {}
        self.chart_dlog = {int(i): frozenset(s) for i, s in self.chart_dlog.items()}
        for f in self.numerators.values():
            if f.is_zero():
                raise WeightError("the zero form has no weight function")

    def numerator_for(self, chart_index: int) -> LaurentRational:
        if chart_index not in self.numerators:
            raise WeightError(f"no presentation of the form on chart {chart_index}")
        return self.numerators[chart_index]

    def dlog_for(self, chart_index: int) -> frozenset:
        return self.chart_dlog.get(chart_index, self.dlog)

    def power(self, k: int) -> "PluriForm":
        return PluriForm(m=self.m * k, dlog=self.dlog,
                         numerators={i: f ** k for i, f in self.numerators.items()},
                         chart_dlog=dict(self.chart_dlog))

    def to_json_dict(self):
        charts = []
        for i, f in sorted(self.numerators.items()):
            entry = {"chart": i, "numerator": f.to_json_dict()}
            if i in self.chart_dlog and self.chart_dlog[i] != self.dlog:
                entry["dlog"] = sorted(self.chart_dlog[i])
            charts.append(entry)
        return {"schema": "1", "m": self.m, "dlog": sorted(self.dlog), "charts": charts}

    @staticmethod
    def from_json_dict(doc) -> "PluriForm":
        charts = json_value(doc.get("charts", []), "charts", WeightError, list, dict)
        for name, value in [("m", doc["m"])] + [("chart", e["chart"]) for e in charts]:
            json_value(value, name, WeightError, int)
        for value in [doc["dlog"]] + [e["dlog"] for e in charts if "dlog" in e]:
            json_value(value, "dlog", WeightError, list, str, "a list of component ids")
        if "charts" in doc:
            nums = {e["chart"]: LaurentRational.from_json_dict(e["numerator"])
                    for e in doc["charts"]}
            overrides = {e["chart"]: frozenset(e["dlog"])
                         for e in doc["charts"] if "dlog" in e}
        else:
            nums = {0: LaurentRational.from_json_dict(doc["numerator"])}
            overrides = {}
        return PluriForm(m=doc["m"], dlog=frozenset(doc["dlog"]),
                         numerators=nums, chart_dlog=overrides)


@dataclass(frozen=True)
class SubCone:
    """A polyhedral piece of one skeleton face.

    With no ``vertices`` or ``rays`` it is the whole closed face (the
    trivial-mode and essential-skeleton output); otherwise they describe a
    dvf argmin polyhedron inside the normalized slice.
    """

    kato: tuple
    vertices: tuple = ()
    rays: tuple = ()

    def to_json_dict(self):
        out = {"kato_point": list(self.kato)}
        if self.vertices:
            out["vertices"] = [[fmt(x) for x in v] for v in self.vertices]
        if self.rays:
            out["rays"] = [[fmt(x) for x in r] for r in self.rays]
        return out


@dataclass
class SubFan:
    """A union of subcones of skeleton faces, with the attained minimum."""

    faces: list
    min_value: Fraction = Fraction(0)

    def face_keys(self):
        return sorted({f.kato for f in self.faces})

    def to_json_dict(self):
        return {
            "faces": [f.to_json_dict() for f in
                      sorted(self.faces, key=lambda f: f.kato)],
            "min_value": fmt(self.min_value),
        }


def _chart_for_face(pair: PairDescription, kato, form: PluriForm = None):
    for idx, chart in enumerate(pair.charts):
        if chart.covers(kato) and (form is None or idx in form.numerators):
            return idx, chart
    raise WeightError(f"no chart (with a form presentation) covers {list(kato)}")


def log_discrepancy(pair: PairDescription, point: SkeletonPoint) -> Fraction:
    """A_(X,D) at a finite skeleton point: sum_i alpha_i (1 - a_i).

    The linear extension from the divisorial generators of the face; for
    closure points classify first and compute on the trace.
    """
    if pair.mode != "trivial":
        raise WeightError("log discrepancy is computed in trivial mode")
    if not point.is_finite():
        raise WeightError("extended weights: classify the point and use the trace pair")
    total = Fraction(0)
    for cid, w in zip(point.kato, point.weights):
        a = pair.components[cid].coefficient
        total += w * (1 - a)
    return total


def _dvf_normal_form_check(pair: PairDescription, chart: LogChart, dlog: frozenset):
    vertical_outside = [cid for cid in chart.coordinate_components()
                        if pair.components[cid].vertical and cid not in dlog]
    if len(vertical_outside) != 1:
        raise NormalFormError(
            f"dvf normal form needs exactly one vertical chart component outside "
            f"the dlog set; found {sorted(vertical_outside)}")


def _outside_dlog_equations(pair, chart, dlog):
    """Chart equations g_h of the boundary components outside the dlog set
    that enter the weight, by component id: the horizontal ones in dvf mode,
    all of them in trivial mode.  A component without an equation falls
    back to its cutting coordinate; one that does not meet the chart is
    left out (its equation is a unit there).
    """
    ids = pair.horizontal_ids() if pair.mode == "dvf" else set(pair.components)
    out = []
    for cid in sorted(ids - dlog):
        if cid in chart.equations:
            out.append(chart.equations[cid])
        elif cid in chart.coordinate_components():
            out.append(LaurentRational.coordinate(chart.axis(cid), len(chart.coordinates)))
    return out


def _chart_weight(pair, chart, chart_index, form):
    """The weight on one presenting chart as (terms, linear, constant):

      wt(w) = sum mult * v(expr)(w) + sum_i linear[i] * w_i + constant

    over the chart weights w.  The terms are (1, f) and (m, g_h) for each
    outside-dlog equation; linear is m (1 - a) on each axis that cuts a
    component in trivial mode and () in dvf mode; the constant is m in dvf
    mode and 0 in trivial mode.  Checks the dvf normal form, and refuses
    the nonzero coefficient valuations a trivially valued field does not
    have.
    """
    m, dlog = form.m, form.dlog_for(chart_index)
    terms = ((1, form.numerator_for(chart_index)),
             *((m, g) for g in _outside_dlog_equations(pair, chart, dlog)))
    if pair.mode == "dvf":
        _dvf_normal_form_check(pair, chart, dlog)
        return terms, (), Fraction(m)
    if any(t.coeff_val != 0 for _, expr in terms for t in expr.numerator + expr.denominator):
        raise WeightError("trivial mode takes coefficient valuations 0: the field is trivially valued")
    linear = [Fraction(0)] * len(chart.coordinates)
    for cid in chart.coordinate_components():
        linear[chart.axis(cid)] = m * (1 - pair.components[cid].coefficient)
    return terms, tuple(linear), Fraction(0)


def _weight_at(cw, w):
    """The weight of the chart table ``cw`` at the chart weights ``w``."""
    terms, linear, constant = cw
    return (sum(xscale(mult, expr.value(w)) for mult, expr in terms)
            + sum(map(xscale, linear, w)) + constant)


def weight(form: PluriForm, pair: PairDescription, point: SkeletonPoint):
    """Weight of a pluricanonical form at a skeleton point (either mode)."""
    idx, chart = _chart_for_face(pair, point.kato, form)
    return _weight_at(_chart_weight(pair, chart, idx, form), chart_weight_vector(point, chart))


# -- Kontsevich-Soibelman skeletons ----------------------------------------


def _face_rays_check(chart, cw, kato):
    """Regularity on one face: weight nonnegative on every ray generator."""
    arity = len(chart.coordinates)
    for cid in kato:
        ray = [Fraction(0)] * arity
        ray[chart.axis(cid)] = Fraction(1)
        if _weight_at(cw, ray) < 0:
            return cid
    return None


def ks_skeleton(pair: PairDescription, form: PluriForm) -> SubFan:
    """Minimality locus of the weight function of ``form``.

    Trivial mode: the minimum is 0 (attained at the trivial valuation) and
    the locus is the union of the closed faces where the weight vanishes.
    With monomial denominators and zero coefficient valuations (both checked
    up front) the weight is concave and homogeneous on each face, and the
    ray check makes it nonnegative there, so it vanishes on the whole face
    as soon as it vanishes at the face's all-ones point.  Dvf mode: the
    weight is minimized over each normalized slice by enumerating the
    vertices of the subdivision induced by the active linear pieces; the
    full argmin polyhedron is reported.
    """
    charted = []  # (face, chart index, chart) for each face a presenting chart covers
    for key in sorted(pair.kato_fan().points):
        try:
            charted.append((key, *_chart_for_face(pair, key, form)))
        except WeightError:
            continue
    cws = {idx: _chart_weight(pair, chart, idx, form) for _, idx, chart in charted}
    if pair.mode == "trivial" and any(len(expr.denominator) != 1
                                      for terms, _, _ in cws.values() for _, expr in terms):
        raise WeightError("trivial-mode minimization expects a monomial denominator")
    for key, idx, chart in charted:
        bad = _face_rays_check(chart, cws[idx], key)
        if bad is not None:
            raise WeightError(
                f"form is not regular: weight unbounded below on the ray {bad} "
                f"of the face {list(key)}")

    if pair.mode == "trivial":
        faces = [SubCone(kato=key) for key, idx, chart in charted
                 if _weight_at(cws[idx], chart_weight_vector(
                     SkeletonPoint.make(key, [1] * len(key)), chart)) == 0]
        # every chart covers the face (); it is left out only when no chart presents the form
        return SubFan(faces=faces if charted else [SubCone(kato=())], min_value=Fraction(0))

    # dvf: per-face linear programming over the compact slice
    best = INF
    argmin = []
    for key, idx, chart in charted:
        b = pair.pi_vector(key)
        if all(x == 0 for x in b):
            continue  # purely horizontal face: no dvf points
        value, verts, rays = _minimize_face_slice(chart, cws[idx], key, b)
        if value is None:
            continue
        if value < best:
            best = value
            argmin = [(key, verts, rays)]
        elif value == best:
            argmin.append((key, verts, rays))
    if is_inf(best):
        raise WeightError("the pair has no vertical faces; nothing to slice")
    faces = [SubCone(kato=tuple(sorted(k)), vertices=tuple(map(tuple, vs)),
                     rays=tuple(map(tuple, rs)))
             for k, vs, rs in argmin]
    return SubFan(faces=_canonical_dvf_faces(faces), min_value=best)


def _canonical_dvf_faces(faces):
    """Push argmin vertices to the minimal face supporting them."""
    out = []
    seen = set()
    for f in faces:
        if not f.vertices:
            out.append(f)
            continue
        support = set()
        for v in f.vertices:
            support |= {c for c, x in zip(f.kato, v) if x != 0}
        for r in f.rays:
            support |= {c for c, x in zip(f.kato, r) if x != 0}
        kato = tuple(sorted(support)) if support else f.kato
        vmap = [f.kato.index(c) for c in kato]
        verts = tuple(tuple(v[i] for i in vmap) for v in f.vertices)
        rays = tuple(tuple(r[i] for i in vmap) for r in f.rays)
        key = (kato, tuple(sorted(verts)), tuple(sorted(rays)))
        if key not in seen:
            seen.add(key)
            out.append(SubCone(kato=kato, vertices=verts, rays=rays))
    return out


def _minimize_face_slice(chart, cw, kato, b):
    """Exact minimum of the weight over {<b, alpha> = 1, alpha >= 0}.

    Enumerates candidate vertices: slice corners plus intersections with the
    loci where two linear pieces of the weight agree.  The piece
    c + <e, alpha> of a numerator term (a denominator term, signs flipped),
    with c its coefficient valuation, is <e + c b, alpha> on the slice, so
    the ties see the coefficient valuations.  Ties are taken once up to
    scale and sign, and each vertex is one fraction-free elimination of
    [b | 1] over n - 1 of the walls and ties.  Returns (min, argmin
    vertices, argmin recession rays); None when the slice is empty.
    """
    kato = tuple(sorted(kato))
    n = len(kato)
    axes = [chart.axis(c) for c in kato]
    arity = len(chart.coordinates)

    def wt(alpha):
        w = [Fraction(0)] * arity
        for x, ax in zip(alpha, axes):
            w[ax] = x
        return _weight_at(cw, w)

    # affine pieces (c, e) of every min-term of the chart table's terms
    pieces = [(s * t.coeff_val, [s * t.exps[ax] for ax in axes])
              for _, expr in cw[0] for s, part in ((1, expr.numerator), (-1, expr.denominator))
              for t in part]

    # hyperplanes through 0: coordinate walls and piece-vs-piece ties, as
    # primitive integer rows with a positive first entry, so that a tie
    # repeated up to scale or sign (it would only repeat a vertex or make a
    # singular system) is taken once; with c = p/q the tie
    # <e1 - e2 + c b, alpha> = 0 is scaled by q
    planes = dict.fromkeys(tuple(int(i == j) for j in range(n)) for i in range(n))
    for (c1, e1), (c2, e2) in itertools.combinations(pieces, 2):
        c = c1 - c2
        diff = primitive([c.denominator * (x - y) + c.numerator * z for x, y, z in zip(e1, e2, b)])
        if any(diff):
            planes[max(diff, tuple(-x for x in diff))] = None

    # each vertex solves <b, alpha> = 1 and n - 1 of them: one elimination
    # of the augmented system, whose last column is then d times alpha
    candidates = set()
    for combo in itertools.combinations(planes, n - 1):
        red, pivots, d, _ = _gauss_jordan([[*b, 1]] + [[*h, 0] for h in combo], n)
        if len(pivots) == n and all(row[n] * d >= 0 for row in red):
            candidates.add(tuple(Fraction(row[n], d) for row in red))
    if not candidates:
        return None, [], []

    # recession rays of the slice (horizontal directions with b_i = 0)
    recession = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n) if b[i] == 0]
    if recession:
        base = min(candidates)
        v0 = wt(base)
        for ray in recession:
            if wt(tuple(x + y for x, y in zip(base, ray))) < v0:
                raise WeightError(
                    f"weight decreases along the unbounded direction {ray} of face {list(kato)}")

    values = {c: wt(c) for c in candidates}
    finite = {c: v for c, v in values.items() if not is_inf(v)}
    if not finite:
        return None, [], []
    m = min(finite.values())
    arg_vertices = sorted(c for c, v in finite.items() if v == m)
    base = arg_vertices[0]
    arg_rays = [ray for ray in recession if wt(tuple(x + y for x, y in zip(base, ray))) == m]
    return m, arg_vertices, arg_rays


def face_slice_polytope(pair, kato, b):
    """Vertices/rays of the normalized slice of one face (used by slice_dvf)."""
    kato = tuple(sorted(kato))
    verts = []
    rays = []
    for i, c in enumerate(kato):
        e = [Fraction(0)] * len(kato)
        if b[i] > 0:
            e[i] = Fraction(1, b[i])
            verts.append(tuple(e))
        else:
            e[i] = Fraction(1)
            rays.append(tuple(e))
    return verts, rays


def essential_skeleton(pair: PairDescription, forms) -> SubFan:
    """Union of Kontsevich-Soibelman skeletons over the given forms.

    For pairs flagged logCY with a global generator this is the subfan of
    faces all of whose components have coefficient one.
    """
    if pair.logcy:
        fan = pair.kato_fan()
        faces = []
        for key in fan.points:
            if all(pair.components[c].coefficient == 1 for c in key):
                faces.append(SubCone(kato=tuple(sorted(key))))
        return SubFan(faces=faces, min_value=Fraction(0))
    forms = list(forms)
    if not forms:
        import warnings

        warnings.warn("essential skeleton of an empty form list is empty")
        return SubFan(faces=[], min_value=Fraction(0))
    faces = set()  # every form's subcones, each once
    value = None
    for form in forms:
        sub = ks_skeleton(pair, form)
        faces.update(sub.faces)
        value = sub.min_value if value is None else min(value, sub.min_value)
    return SubFan(faces=sorted(faces, key=lambda f: (f.kato, f.vertices, f.rays)), min_value=value)


def toric_essential_skeleton(fan) -> SubFan:
    """Essential skeleton of a toric pair: the whole skeleton of the fan."""
    from .logstructure import kato_fan_toric

    kfan = kato_fan_toric(fan)
    return SubFan(faces=[SubCone(kato=key) for key in kfan.points], min_value=Fraction(0))


def residue(form: PluriForm, pair: PairDescription, stratum) -> PluriForm:
    """Residue of a form along a stratum contained in its dlog set.

    The numerator keeps exactly the terms with zero exponent on the stratum
    coordinates (which are deleted); the dlog set drops the stratum.  Chart
    indices follow ``pair.trace_pair(stratum)`` so the residue can be used
    with the trace pair directly.
    """
    stratum = frozenset(stratum)
    nums = {}
    overrides = {}
    took_residue = False
    for trace_index, idx in enumerate(pair.trace_chart_indices(stratum)):
        chart = pair.charts[idx]
        if idx not in form.numerators:
            continue
        if not stratum <= form.dlog_for(idx):
            raise WeightError(
                "residue undefined: no log pole along the stratum in this chart")
        drop = sorted((chart.axis(c) for c in stratum), reverse=True)
        restricted = form.numerators[idx].restrict(drop)
        if restricted is None:
            raise WeightError("the residue along this stratum vanishes identically")
        nums[trace_index] = restricted
        overrides[trace_index] = form.dlog_for(idx) - stratum
        took_residue = True
    if not took_residue:
        raise WeightError(f"no chart presents the form along {sorted(stratum)}")
    base = overrides[min(overrides)]
    return PluriForm(m=form.m, dlog=base, numerators=nums,
                     chart_dlog={i: s for i, s in overrides.items() if s != base})


@dataclass
class SliceCell:
    """One compact-or-unbounded cell of the normalized slice of a face."""

    kato: tuple
    vertices: tuple  # vertex coordinates over ``kato``
    rays: tuple

    def is_compact(self) -> bool:
        return not self.rays

    def to_json_dict(self):
        return {
            "kato_point": list(self.kato),
            "vertices": [[fmt(x) for x in v] for v in self.vertices],
            "rays": [[fmt(x) for x in r] for r in self.rays],
        }


@dataclass
class SliceComplex:
    cells: list
    notices: list = field(default_factory=list)

    def to_simplicial(self):
        """The dual-complex triangulation when every cell is a simplex.

        Each compact cell of a face with positive multiplicities is the
        simplex on that face's components (vertex i sits at e_i / b_i).
        """
        from .complexes import SimplicialComplex

        facets = []
        for cell in self.cells:
            if not cell.is_compact():
                raise WeightError("unbounded slice cell; no simplicial model")
            if len(cell.vertices) != len(cell.kato):
                raise WeightError("slice cell is not a simplex on its components")
            facets.append(frozenset(cell.kato))
        return SimplicialComplex.from_facets(facets)

    def to_json_dict(self):
        return {
            "cells": [c.to_json_dict() for c in
                      sorted(self.cells, key=lambda c: c.kato)],
            "notices": sorted(self.notices),
        }


def slice_dvf(pair: PairDescription, subfan: SubFan = None) -> SliceComplex:
    """Intersect skeleton faces with the hyperplane <b, alpha> = 1.

    Faces with identically zero multiplicities (purely horizontal) are
    excluded with a notice; mixed faces give unbounded cells carried by
    their recession rays.
    """
    fan = pair.kato_fan()
    keys = subfan.face_keys() if subfan is not None else sorted(k for k in fan.points)
    cells = []
    notices = []
    for key in sorted(keys, key=lambda k: (-len(k), k)):
        if not key:
            continue
        b = pair.pi_vector(key)
        if all(x == 0 for x in b):
            notices.append(f"face {list(key)} is purely horizontal; excluded")
            continue
        if any(set(key) < set(other) for other in keys):
            continue  # only maximal faces carry cells; faces glue along them
        verts, rays = face_slice_polytope(pair, key, b)
        cells.append(SliceCell(kato=tuple(sorted(key)), vertices=tuple(verts),
                               rays=tuple(rays)))
    return SliceComplex(cells=cells, notices=notices)


def gauss_weight_identity(c, a, l: int, m: int):
    """Exact exponent bookkeeping for the Gauss ground-field extension.

    With r the extension radius for a divisorial point of weight data
    (c, a) and blow-up codimension l: log r = -c(a+1); the trivially-valued
    metric exponent is -c m (1 + (l-1) a); the discretely-valued one is
    -c m (2 + l a); the identity -m log r + log||.||_disc = log||.||_triv
    holds in exact arithmetic.
    """
    c = q(c)
    a = q(a)
    if c <= 0:
        raise WeightError("c must be positive")
    if a < 0:
        raise WeightError("a must be nonnegative")
    if l < 1 or m < 1:
        raise WeightError("l and m must be positive integers")
    log_r = -c * (a + 1)
    log_triv = -c * m * (1 + (l - 1) * a)
    log_disc = -c * m * (2 + l * a)
    holds = (-m * log_r + log_disc) == log_triv
    return {
        "c": c,
        "a": a,
        "l": l,
        "m": m,
        "log_r": log_r,
        "log_norm_trivial": log_triv,
        "log_norm_discrete": log_disc,
        "identity_holds": holds,
    }
