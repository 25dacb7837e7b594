"""Brute-force trivial-mode Kontsevich-Soibelman skeletons on a weight grid.

The weight is restated from its formula on a single chart,

    wt = v(f) + m * sum_{h outside P} v(g_h) + m * sum_i alpha_i (1 - a_i),

with tropical values over monomial denominators, and evaluated at every
interior point of every face whose weights lie in a small grid.  A face is
in the skeleton when the weight is 0 at all of them.  It checks the
one-point rule of ``logskel.weights.ks_skeleton``.

For discretely valued pairs it restates the weight on a chart,

    wt = v(f) + m * (1 + sum_{h horizontal, outside P} v(g_h)),

and keeps the first minimization of the weight over a face slice, which
solves every combination of walls and ties, each tie pair taken as it
comes, by adjugate and Cramer's rule; it checks the deduplicated,
one-elimination enumeration of ``logskel.weights``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from lattice_oracle import adjugate
from logskel.rationals import is_inf
from logskel.weights import WeightError


def chart_weights(pair, alpha):
    """Weights on the chart coordinates: alpha on the cutting ones, 0 elsewhere."""
    chart = pair.charts[0]
    return [alpha.get(chart.cut.get(c), 0) for c in chart.coordinates]


def terms(expr):
    """An expression's numerator and denominator as lists of (exponent
    vector, coefficient valuation)."""
    return ([(t.exps, t.coeff_val) for t in expr.numerator],
            [(t.exps, t.coeff_val) for t in expr.denominator])


def tropical(num, den, w):
    """Least numerator pairing minus least denominator pairing at ``w``."""
    def pairing(exps, c):
        return c + sum(e * x for e, x in zip(exps, w))

    return min(pairing(*t) for t in num) - min(pairing(*t) for t in den)


def value(expr, w):
    """Tropical value of an expression."""
    return tropical(*terms(expr), w)


def trivial_weight(pair, form, alpha):
    """Weight of a one-chart form at the point with weights ``alpha`` (by component)."""
    chart = pair.charts[0]
    w = chart_weights(pair, alpha)
    total = value(form.numerators[0], w)
    for cid in sorted(set(pair.components) - form.dlog):
        total += form.m * value(chart.equations[cid], w)
    for cid, a in alpha.items():
        total += form.m * (1 - pair.components[cid].coefficient) * a
    return total


def grid_ks_faces(pair, form, grid=(1, 2, 3)):
    """Faces where the weight is 0 at every interior point with weights in
    ``grid``; None when it is negative at one of them (not regular)."""
    faces = set()
    for s in {frozenset()} | {frozenset(s) for s in pair.strata}:
        kato = tuple(sorted(s))
        values = {trivial_weight(pair, form, dict(zip(kato, ws)))
                  for ws in itertools.product(grid, repeat=len(kato))}
        if min(values) < 0:
            return None
        if values == {0}:
            faces.add(kato)
    return faces


# -- dvf face slices -----------------------------------------------------------


def face_axes(chart, kato):
    """The chart axes of the coordinates cutting the components of ``kato``, in order."""
    where = {cid: i for i, cid in enumerate(map(chart.cut.get, chart.coordinates))}
    return [where[cid] for cid in sorted(kato)]


def dvf_expressions(pair, chart_index, form):
    """The numerator f and the chart equations g_h of the horizontal
    components h outside the dlog set, each as ``terms``: a component
    without an equation is its cutting coordinate over 1, one that misses
    the chart is left out."""
    chart = pair.charts[chart_index]
    out = [terms(form.numerators[chart_index])]
    for cid in sorted(pair.components):
        if pair.components[cid].pi_multiplicity or cid in form.dlog_for(chart_index):
            continue
        if cid in chart.equations:
            out.append(terms(chart.equations[cid]))
        elif cid in chart.cut.values():
            unit = tuple(int(chart.cut.get(c) == cid) for c in chart.coordinates)
            out.append(([(unit, 0)], [((0,) * len(unit), 0)]))
    return out


def dvf_weight(pair, chart_index, form, w):
    """v(f) + m (1 + sum_h v(g_h)) at the chart weights ``w``."""
    f, *equations = (tropical(num, den, w) for num, den in dvf_expressions(pair, chart_index, form))
    return f + form.m * (1 + sum(equations))


def slice_ties(pair, chart_index, form, kato, b):
    """The linear pieces c + <e, alpha> of the weight on one face (the
    numerator terms and, signs flipped, the denominator terms of f and of
    each g_h), each made the homogeneous <e + c b, alpha> of the slice
    <b, alpha> = 1, and their nonzero pairwise differences, every pair in
    order, scaled to integer rows."""
    axes = face_axes(pair.charts[chart_index], kato)
    pieces = [[s * (exps[ax] + c * y) for ax, y in zip(axes, b)]
              for num, den in dvf_expressions(pair, chart_index, form)
              for s, part in ((1, num), (-1, den)) for exps, c in part]
    ties = []
    for p1, p2 in itertools.combinations(pieces, 2):
        d = [Fraction(x - y) for x, y in zip(p1, p2)]
        if any(d):
            scale = math.lcm(*(x.denominator for x in d))
            ties.append([int(x * scale) for x in d])
    return ties


def parallel(u, v):
    """Whether two nonzero integer vectors span one line."""
    return all(a * d == b * c for (a, b), (c, d) in itertools.combinations(zip(u, v), 2))


def minimize_face_slice(pair, chart_index, form, kato, b):
    """Exact minimum of the weight over {<b, alpha> = 1, alpha >= 0} by the
    first enumeration: every (n - 1)-subset of the coordinate walls, the
    slice hyperplane and every tie between two pieces, repeats included,
    solved with the adjugate by Cramer's rule.  Same contract as
    ``logskel.weights._minimize_face_slice``."""
    kato = tuple(sorted(kato))
    n = len(kato)
    arity = len(pair.charts[chart_index].coordinates)
    axes = face_axes(pair.charts[chart_index], kato)

    def wt(alpha):
        w = [Fraction(0)] * arity
        for x, ax in zip(alpha, axes):
            w[ax] = x
        return dvf_weight(pair, chart_index, form, w)

    hyperplanes = [([int(i == j) for j in range(n)], 0) for i in range(n)]
    hyperplanes.append((list(b), 1))
    hyperplanes += [(d, 0) for d in slice_ties(pair, chart_index, form, kato, b)]
    candidates = set()
    for combo in itertools.combinations(range(len(hyperplanes)), n - 1) if n > 1 else [()]:
        rows = [list(b)] + [hyperplanes[i][0] for i in combo]
        rhs = [1] + [hyperplanes[i][1] for i in combo]
        d, adj = adjugate(rows)
        if d == 0:
            continue
        sol = [Fraction(sum(x * y for x, y in zip(row, rhs)), d) for row in adj]
        if all(x >= 0 for x in sol):
            candidates.add(tuple(sol))
    if not candidates:
        return None, [], []
    recession = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n) if b[i] == 0]
    for ray in recession:
        base = min(candidates)
        if wt(tuple(x + y for x, y in zip(base, ray))) < wt(base):
            raise WeightError(
                f"weight decreases along the unbounded direction {ray} of face {list(kato)}")
    finite = {c: v for c, v in ((c, wt(c)) for c in candidates) if not is_inf(v)}
    if not finite:
        return None, [], []
    m = min(finite.values())
    arg_vertices = sorted(c for c, v in finite.items() if v == m)
    arg_rays = [ray for ray in recession
                if wt(tuple(x + y for x, y in zip(arg_vertices[0], ray))) == m]
    return m, arg_vertices, arg_rays
