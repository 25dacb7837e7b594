"""Outside-in tracing of the logskel layers.

Each module of ``src/logskel`` is a layer.  ``Tracer.install`` wraps the
layer entry points listed in ``SPANS`` where callers look them up: the
defining class or module, and every other ``logskel`` module that bound the
same object with ``from .x import name``.  Nothing under ``src/`` changes.

A span records its name, its duration and its parent span.  Self time is a
span's duration minus the time its child spans cover.  Inclusive time per
span name counts only the outermost active span of that name, so recursion
and nesting inside one group are not counted twice.

Only entry points called a bounded number of times per pass are wrapped.
``rationals`` runs once per coefficient, so a wrapper there would measure
itself; its cost falls inside its callers' spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("lattice", "complexes", "polyhedra", "logstructure", "valuations",
          "weights", "cli")


def _nnz(m):
    return sum(len(col) for col in m.cols.values())


def _size_sparse(counts, args, kwargs):
    m = args[0]
    counts["lattice.boundary_cols"] += m.ncols
    counts["lattice.boundary_nnz"] += _nnz(m)


def _size_dense(counts, args, kwargs):
    a = args[0] if args else kwargs["a"]
    counts["lattice.dense_core_entries"] += len(a) * (len(a[0]) if a else 0)


def _size_facets_in(counts, args, kwargs):
    facets = args[2] if len(args) > 2 else kwargs["facets"]
    if hasattr(facets, "__len__"):  # never consume a caller's iterator
        counts["complexes.complex_build_facets"] += len(facets)


def _size_group(counts, args, kwargs, result):
    counts["complexes.group_order"] = max(counts["complexes.group_order"],
                                          args[0].order())


def _size_quotient(counts, args, kwargs, result):
    counts["complexes.quotient_facets"] += len(result.facets)


def _size_hilbert(counts, args, kwargs, result):
    counts["polyhedra.hilbert_elements"] += len(result)


# (module, attribute, span name, sizer before the call, sizer after the call)
SPANS = (
    ("lattice", "SparseIntMatrix.__init__", "lattice.sparse_build", None, None),
    ("lattice", "SparseIntMatrix.diagonal_snf", "lattice.sparse_snf", _size_sparse, None),
    ("lattice", "snf_diagonal", "lattice.dense_core", _size_dense, None),
    ("lattice", "snf_with_transforms", "lattice.snf_transforms", None, None),
    ("lattice", "rat_solve", "lattice.rat_solve", None, None),
    ("complexes", "GroupAction.__init__", "complexes.group_closure", None, _size_group),
    ("complexes", "quotient_homology", "complexes.orbit_chain", None, None),
    ("complexes", "SimplicialComplex.__init__", "complexes.complex_build", _size_facets_in, None),
    ("complexes", "quotient", "complexes.quotient", None, _size_quotient),
    ("complexes", "homology", "complexes.homology", None, None),
    ("complexes", "link_complex", "complexes.link", None, None),
    ("complexes", "sphere_quotient_map_check", "complexes.sphere_map", None, None),
    ("complexes", "character_variety_homology", "complexes.character_variety", None, None),
    ("complexes", "character_variety_complex", "complexes.character_variety", None, None),
    ("complexes", "tate_strata", "complexes.tate", None, None),
    ("polyhedra", "Cone.from_generators", "polyhedra.cone", None, None),
    ("polyhedra", "dual_rays", "polyhedra.dual_rays", None, None),
    ("polyhedra", "dual_cone", "polyhedra.dual_cone", None, None),
    ("polyhedra", "cone_faces", "polyhedra.cone_faces", None, None),
    ("polyhedra", "hilbert_basis", "polyhedra.hilbert", None, _size_hilbert),
    ("polyhedra", "Fan.__init__", "polyhedra.fan", None, None),
    ("polyhedra", "Fan.from_cones", "polyhedra.fan", None, None),
    ("polyhedra", "product_fan", "polyhedra.fan", None, None),
    ("polyhedra", "intersect_fan_subspace", "polyhedra.fan", None, None),
    ("polyhedra", "star_fan", "polyhedra.fan", None, None),
    ("polyhedra", "compactified_fan_strata", "polyhedra.fan", None, None),
    ("logstructure", "PairDescription.kato_fan", "logstructure.kato_fan", None, None),
    ("logstructure", "kato_fan_toric", "logstructure.kato_fan", None, None),
    ("logstructure", "PairDescription.trace_pair", "logstructure.trace_pair", None, None),
    ("valuations", "classify_closure_point", "valuations.classify", None, None),
    ("valuations", "classify_closure_point_toric", "valuations.classify", None, None),
    ("weights", "weight", "weights.weight", None, None),
    ("weights", "ks_skeleton", "weights.ks", None, None),
    ("weights", "essential_skeleton", "weights.essential", None, None),
    ("weights", "toric_essential_skeleton", "weights.essential", None, None),
    ("weights", "slice_dvf", "weights.slice", None, None),
    ("weights", "residue", "weights.residue", None, None),
    ("weights", "gauss_weight_identity", "weights.gauss", None, None),
    ("cli", "main", "cli.main", None, None),
)

# Per-layer metrics: name -> (unit, kind, span name or count key).
# kind "s": inclusive seconds; "self": self seconds; "calls": call count;
# "count": a size recorded by a sizer (``cli.output_bytes`` by worker.py).
LAYER_METRICS = {
    "lattice.sparse_snf_self_s": ("s", "self", "lattice.sparse_snf"),
    "lattice.dense_core_s": ("s", "s", "lattice.dense_core"),
    "lattice.dense_core_entries": ("count", "count", "lattice.dense_core_entries"),
    "lattice.boundary_cols": ("count", "count", "lattice.boundary_cols"),
    "lattice.boundary_nnz": ("count", "count", "lattice.boundary_nnz"),
    "lattice.snf_transforms_s": ("s", "s", "lattice.snf_transforms"),
    "lattice.snf_transforms_calls": ("count", "calls", "lattice.snf_transforms"),
    "lattice.rat_solve_s": ("s", "s", "lattice.rat_solve"),
    "lattice.rat_solve_calls": ("count", "calls", "lattice.rat_solve"),
    "complexes.group_closure_s": ("s", "s", "complexes.group_closure"),
    "complexes.group_order": ("count", "count", "complexes.group_order"),
    "complexes.orbit_chain_self_s": ("s", "self", "complexes.orbit_chain"),
    "complexes.complex_build_s": ("s", "s", "complexes.complex_build"),
    "complexes.complex_build_facets": ("count", "count", "complexes.complex_build_facets"),
    "complexes.quotient_self_s": ("s", "self", "complexes.quotient"),
    "complexes.quotient_facets": ("count", "count", "complexes.quotient_facets"),
    "complexes.homology_self_s": ("s", "self", "complexes.homology"),
    "complexes.link_s": ("s", "s", "complexes.link"),
    "complexes.sphere_map_s": ("s", "s", "complexes.sphere_map"),
    "polyhedra.cone_s": ("s", "s", "polyhedra.cone"),
    "polyhedra.cone_calls": ("count", "calls", "polyhedra.cone"),
    "polyhedra.dual_rays_calls": ("count", "calls", "polyhedra.dual_rays"),
    "polyhedra.hilbert_s": ("s", "s", "polyhedra.hilbert"),
    "polyhedra.hilbert_calls": ("count", "calls", "polyhedra.hilbert"),
    "polyhedra.hilbert_elements": ("count", "count", "polyhedra.hilbert_elements"),
    "polyhedra.fan_s": ("s", "s", "polyhedra.fan"),
    "logstructure.kato_fan_s": ("s", "s", "logstructure.kato_fan"),
    "logstructure.kato_fan_calls": ("count", "calls", "logstructure.kato_fan"),
    "logstructure.trace_pair_s": ("s", "s", "logstructure.trace_pair"),
    "valuations.classify_s": ("s", "s", "valuations.classify"),
    "valuations.classify_calls": ("count", "calls", "valuations.classify"),
    "weights.weight_s": ("s", "s", "weights.weight"),
    "weights.weight_calls": ("count", "calls", "weights.weight"),
    "weights.ks_s": ("s", "s", "weights.ks"),
    "weights.essential_s": ("s", "s", "weights.essential"),
    "weights.slice_s": ("s", "s", "weights.slice"),
    "weights.residue_s": ("s", "s", "weights.residue"),
    "cli.self_s": ("s", "self", "cli.main"),
    "cli.jobs": ("count", "calls", "cli.main"),
    "cli.output_bytes": ("count", "count", "cli.output_bytes"),
}

# Per-layer metrics that must repeat exactly for one seed.
COUNT_METRICS = frozenset(m for m, (_, kind, _) in LAYER_METRICS.items()
                          if kind in ("calls", "count"))
MAX_COUNTS = frozenset({"complexes.group_order"})


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.stack = []                 # open spans: [name, seconds covered by children]
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.edges = Counter()          # (parent span, child span) -> calls
        self._active = Counter()        # open spans per name
        self._last_counts = {}

    def wrap(self, fn, name, before=None, after=None):
        stack, active = self.stack, self._active

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(self.counts, args, kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                active[name] -= 1
                self.self_s[name] += dur - frame[1]
                if not active[name]:
                    self.incl_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.edges[(parent, name)] += 1
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return span

    def install(self):
        """Wrap every entry point in ``SPANS`` at each place it is looked up."""
        modules = {name: importlib.import_module(f"logskel.{name}") for name in LAYERS}
        for mod_name, attr, name, before, after in SPANS:
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = self.wrap(fn, name, before, after)
            setattr(owner, leaf, staticmethod(wrapped) if is_static else wrapped)
            if isinstance(owner, type):
                continue
            # rebind ``from .x import name`` copies held by other modules
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("logskel") and \
                        vars(mod).get(leaf) is fn:
                    setattr(mod, leaf, wrapped)

    def layer_self_s(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, secs in self.self_s.items():
            out[name.split(".")[0]] += secs
        return out

    def metrics(self):
        """Per-layer metric values of the pass (no trace.* entries)."""
        out = {}
        for metric, (_, kind, key) in LAYER_METRICS.items():
            if kind == "s":
                out[metric] = self.incl_s.get(key, 0.0)
            elif kind == "self":
                out[metric] = self.self_s.get(key, 0.0)
            elif kind == "calls":
                out[metric] = self.calls.get(key, 0)
            else:
                out[metric] = self.counts.get(key, 0)
        for layer, secs in self.layer_self_s().items():
            if layer != "cli":
                out[f"{layer}.self_s"] = secs
        return out

    def count_delta(self):
        """Counts added since the previous call (a maximum is reported as is)."""
        now = {m: v for m, v in self.metrics().items() if m in COUNT_METRICS}
        delta = {m: v if m in MAX_COUNTS else v - self._last_counts.get(m, 0)
                 for m, v in now.items() if v != self._last_counts.get(m, 0)}
        self._last_counts = now
        return delta

    def span_tree(self):
        return sorted([parent or "", child, n] for (parent, child), n in self.edges.items())


