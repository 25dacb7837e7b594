"""The package namespace and the error classes the CLI maps to exit code 2."""

import importlib
import inspect
import json
import pkgutil

import pytest

import logskel
from logskel import cli

# every name ``logskel`` exports, by the submodule that defines it
EXPORTS = {
    "rationals": ["INF", "fmt", "parse_ext", "q"],
    "polyhedra": ["Cone", "Fan", "compactified_fan_strata", "dual_cone", "fan_a2", "fan_p1",
                  "fan_p1xp1", "fan_p2", "hilbert_basis", "intersect_fan_subspace",
                  "product_fan", "star_fan"],
    "logstructure": ["BoundaryComponent", "KatoFan", "KatoPoint", "LogChart", "PairDescription",
                     "kato_fan_snc", "kato_fan_toric", "product", "tate_strata", "toric_trace",
                     "trace"],
    "valuations": ["LaurentRational", "SkeletonPoint", "classify_closure_point",
                   "classify_closure_point_toric", "evaluate", "monomial_value",
                   "normalize_dvf", "retract", "scale"],
    "weights": ["PluriForm", "SubCone", "SubFan", "essential_skeleton", "gauss_weight_identity",
                "ks_skeleton", "log_discrepancy", "residue", "slice_dvf",
                "toric_essential_skeleton", "weight"],
    "complexes": ["GroupAction", "HomologyProfile", "SimplicialComplex",
                  "character_variety_complex", "character_variety_homology", "cycle_complex",
                  "homology", "join", "join_all", "link_complex", "quotient",
                  "quotient_homology", "simplex_boundary_complex", "sphere_profile",
                  "sphere_quotient_map_check"],
}

ERROR_CLASSES = {"ComplexError", "LogStructureError", "DimensionLimitError", "NotPointedError",
                 "FanError", "ValuationError", "ZeroFunctionError", "WeightError",
                 "NormalFormError"}


def test_every_export_is_the_submodule_object():
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"logskel.{module}")
        for name in names:
            namespace = {}
            exec(f"from logskel import {name} as got", namespace)
            assert namespace["got"] is getattr(owner, name), (module, name)
    # moved to logstructure, where it loads no numpy; perfbench still spans it in complexes
    assert importlib.import_module("logskel.complexes").tate_strata is logskel.tate_strata


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        logskel.no_such_name
    assert not hasattr(logskel, "no_such_name")
    with pytest.raises(ImportError):
        exec("from logskel import no_such_name", {})


def test_every_error_class_exits_as_a_validation_error():
    # the CLI catches ValueError for all of them; a class outside it would exit 1
    found = {}
    for info in pkgutil.iter_modules(logskel.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"logskel.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if name.endswith("Error") and cls.__module__ == module.__name__:
                found[name] = cls
    assert set(found) == ERROR_CLASSES
    for cls in [*found.values(), json.JSONDecodeError]:
        assert issubclass(cls, cli.VALIDATION_ERRORS), cls
        assert issubclass(cls, ValueError), cls
