"""Brute-force trivial-mode Kontsevich-Soibelman skeletons on a weight grid.

The weight is restated from its formula on a single chart,

    wt = v(f) + m * sum_{h outside P} v(g_h) + m * sum_i alpha_i (1 - a_i),

with tropical values over monomial denominators, and evaluated at every
interior point of every face whose weights lie in a small grid.  A face is
in the skeleton when the weight is 0 at all of them.  It checks the
one-point rule of ``logskel.weights.ks_skeleton``.
"""

from __future__ import annotations

import itertools


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
