"""logskel: exact-arithmetic skeletons of log-regular pairs.

Quasi-monomial valuations, log discrepancies, weight functions,
Kontsevich-Soibelman and essential skeletons, their closures and traces,
and the dual-complex pipeline (products, joins, finite quotients, integral
homology) at desk scale.
"""

from .rationals import INF, fmt, parse_ext, q
from .polyhedra import (
    Cone,
    Fan,
    compactified_fan_strata,
    dual_cone,
    fan_a2,
    fan_p1,
    fan_p1xp1,
    fan_p2,
    hilbert_basis,
    intersect_fan_subspace,
    product_fan,
    star_fan,
)
from .logstructure import (
    BoundaryComponent,
    KatoFan,
    KatoPoint,
    LogChart,
    PairDescription,
    kato_fan_snc,
    kato_fan_toric,
    product,
    tate_strata,
    toric_trace,
    trace,
)
from .valuations import (
    LaurentRational,
    SkeletonPoint,
    classify_closure_point,
    classify_closure_point_toric,
    evaluate,
    monomial_value,
    normalize_dvf,
    retract,
    scale,
)
from .weights import (
    PluriForm,
    SubCone,
    SubFan,
    essential_skeleton,
    gauss_weight_identity,
    ks_skeleton,
    log_discrepancy,
    residue,
    slice_dvf,
    toric_essential_skeleton,
    weight,
)

__version__ = "0.1.0"

# complexes is the one module that needs numpy; it loads on first use (PEP 562)
_COMPLEXES = frozenset({
    "GroupAction", "HomologyProfile", "SimplicialComplex", "character_variety_complex",
    "character_variety_homology", "cycle_complex", "homology", "join", "join_all",
    "link_complex", "quotient", "quotient_homology", "simplex_boundary_complex",
    "sphere_profile", "sphere_quotient_map_check",
})


def __getattr__(name):
    if name in _COMPLEXES:
        from . import complexes

        return getattr(complexes, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
