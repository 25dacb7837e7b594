"""Brute-force trivial-mode Kontsevich-Soibelman skeletons on a weight grid.

The weight is restated from its formula on a single chart,

    wt = v(f) + m * sum_{h outside P} v(g_h) + m * sum_i alpha_i (1 - a_i),

with tropical values over monomial denominators, and evaluated at every
interior point of every face whose weights lie in a small grid.  A face is
in the skeleton when the weight is 0 at all of them.  It checks the
one-point rule of ``logskel.weights.ks_skeleton``.

For discretely valued pairs it keeps the first minimization of the weight
over a face slice, which solves every combination of walls and ties, each
tie pair taken as it comes, by adjugate and Cramer's rule; it checks the
deduplicated, one-elimination enumeration of ``logskel.weights``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from lattice_oracle import adjugate
from logskel.rationals import is_inf
from logskel.weights import WeightError, _outside_dlog_equations, _weight_on_vector


def chart_weights(pair, alpha):
    """Weights on the chart coordinates: alpha on the cutting ones, 0 elsewhere."""
    chart = pair.charts[0]
    return [alpha.get(chart.cut.get(c), 0) for c in chart.coordinates]


def value(expr, w):
    """Tropical value of an expression with a monomial denominator."""
    def pairing(t):
        return t.coeff_val + sum(e * x for e, x in zip(t.exps, w))

    (den,) = expr.denominator
    return min(map(pairing, expr.numerator)) - pairing(den)


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


def slice_ties(pair, chart, chart_index, form, kato):
    """The integer gradients of the linear pieces of the weight on one face
    (numerator, denominator and outside-dlog equation terms) and their
    nonzero pairwise differences, every pair in order."""
    axes = [chart.axis(c) for c in sorted(kato)]
    f = form.numerator_for(chart_index)
    pieces = [[t.exps[ax] for ax in axes] for t in f.numerator]
    pieces += [[-t.exps[ax] for ax in axes] for t in f.denominator]
    for eq in _outside_dlog_equations(pair, chart, form.dlog_for(chart_index)):
        pieces += [[t.exps[ax] for ax in axes] for t in list(eq.numerator) + list(eq.denominator)]
    diffs = ([a - c for a, c in zip(p1, p2)] for p1, p2 in itertools.combinations(pieces, 2))
    return [d for d in diffs if any(d)]


def parallel(u, v):
    """Whether two nonzero integer vectors span one line."""
    return all(a * d == b * c for (a, b), (c, d) in itertools.combinations(zip(u, v), 2))


def minimize_face_slice(pair, chart, chart_index, form, kato, b):
    """Exact minimum of the weight over {<b, alpha> = 1, alpha >= 0} by the
    first enumeration: every (n - 1)-subset of the coordinate walls, the
    slice hyperplane and every tie between two pieces, repeats included,
    solved with the adjugate by Cramer's rule.  Same contract as
    ``logskel.weights._minimize_face_slice``."""
    kato = tuple(sorted(kato))
    n = len(kato)
    axes = [chart.axis(c) for c in kato]
    arity = len(chart.coordinates)

    def wt(alpha):
        w = [Fraction(0)] * arity
        for x, ax in zip(alpha, axes):
            w[ax] = x
        return _weight_on_vector(pair, chart, chart_index, form, w, kato)

    hyperplanes = [([int(i == j) for j in range(n)], 0) for i in range(n)]
    hyperplanes.append((list(b), 1))
    hyperplanes += [(d, 0) for d in slice_ties(pair, chart, chart_index, form, kato)]
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
