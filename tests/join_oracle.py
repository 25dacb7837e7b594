"""Reference joins: the frozenset route that ``logskel.complexes.join``
replaced.

Every facet of a join is the union of one facet of each part, built here as
a frozenset of labels; the maximal unions are kept by pairwise subset tests
and handed to ``SimplicialComplex``.  Labels follow the library: ``join_all``
labels vertex v of part i as (i, v), and ``join`` does so only when its two
sides share a label.  Quadratic in the facet count: tests only.
"""

from logskel.complexes import ComplexError, SimplicialComplex


def _joined(parts):
    """The join of (vertices, facets) pairs whose labels are disjoint."""
    vertices, facets = [], {frozenset()}
    for verts, fs in parts:
        vertices += verts
        facets = {f | g for f in facets for g in fs}
    return SimplicialComplex(vertices, [f for f in facets if not any(f < g for g in facets)])


def join(a, b):
    if set(a.vertices) & set(b.vertices):
        return join_all([a, b])
    return _joined([(list(k.vertices), k.facets) for k in (a, b)])


def join_all(parts):
    if not parts:
        raise ComplexError("empty join")
    return _joined([([(i, v) for v in k.vertices], [frozenset((i, v) for v in f) for f in k.facets])
                    for i, k in enumerate(parts)])
