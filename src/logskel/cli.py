"""Batch front end: ingest pair/form JSON, run computations, emit reports.

All output is deterministic JSON (sorted keys); rationals serialize as
strings "p/q".  Exit codes: 0 success, 2 validation error, 3 assertion
mismatch in the ``fixtures`` regression run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import fixtures as fx
from .logstructure import PairDescription, kato_fan_toric, tate_strata
from .polyhedra import Fan, compactified_fan_strata
from .rationals import fmt, json_value, q
from .valuations import (
    SkeletonPoint,
    ValuationError,
    classify_closure_point,
    classify_closure_point_toric,
)
from .weights import (
    PluriForm,
    WeightError,
    essential_skeleton,
    gauss_weight_identity,
    ks_skeleton,
    residue,
    slice_dvf,
    weight,
)

# sphere-check bound, checked before sampling: samples x n entries of about
# 130 bytes each at peak, and n products of n-term polynomials per sample, so
# samples x n x max(n, 4) bounds both (10^6 samples at n = 3: 1.2 * 10^7)
SPHERE_CHECK_STEPS = 1 << 24

# every logskel error class, and json.JSONDecodeError, subclasses ValueError
VALIDATION_ERRORS = (KeyError, ValueError)


def _load_json(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SystemExitWithCode(2, f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except RecursionError:  # the parser recurses once per nested array or object
        raise SystemExitWithCode(2, f"{path}: invalid JSON: nested too deeply to parse")
    except OSError as exc:
        raise SystemExitWithCode(2, f"{path}: {exc}")
    if type(doc) is not dict:
        raise SystemExitWithCode(2, f"{path}: the top level is not a JSON object")
    return doc


class SystemExitWithCode(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _emit(doc, args):
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    out = getattr(args, "output", None)
    if out:
        if not os.path.isabs(out):
            out = os.path.join(os.environ.get("LOGSKEL_OUTPUT_DIR", "."), out)
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_pair(args) -> PairDescription:
    return PairDescription.from_json_dict(_load_json(args.pair))


def _load_form(args) -> PluriForm:
    return PluriForm.from_json_dict(_load_json(args.form))


def _point_docs(path):
    return json_value(_load_json(path)["points"], "points", ValuationError, list, dict)


def cmd_skeleton(args):
    if args.fan:
        fan = Fan.from_json_dict(_load_json(args.fan))
        kf = kato_fan_toric(fan)
        points = [{"key": list(map(str, p.key[1])) if p.key else [],
                   "monoid_rank": p.rank} for p in kf.points.values()]
        doc = {"schema": "1", "command": "skeleton", "kind": "toric",
               "kato_points": len(kf),
               "faces": sorted(points, key=lambda e: (len(e["key"]), e["key"]))}
    else:
        pair = _load_pair(args)
        kf = pair.kato_fan()
        doc = {"schema": "1", "command": "skeleton", "kind": "snc",
               "kato_points": len(kf),
               "faces": sorted([{"key": list(k), "monoid_rank": kf.points[k].rank}
                                for k in kf.points], key=lambda e: (len(e["key"]), e["key"])),
               "specializations": sorted([[list(a), list(b)] for a, b in kf.order])}
    _emit(doc, args)


def cmd_closure(args):
    points = _point_docs(args.points)
    out = []
    if args.fan:
        fan = Fan.from_json_dict(_load_json(args.fan))
        strata = compactified_fan_strata(fan)
        for p in points:
            stratum, finite = classify_closure_point_toric(
                fan, *(json_value(p[key], key, ValuationError, list) for key in ("kato_point", "weights")))
            out.append({"point": p, "stratum_cone": list(stratum),
                        "finite_values": [[list(h), fmt(v)] for h, v in finite]})
        doc = {"schema": "1", "command": "closure", "strata_count": len(strata),
               "stratum_dimensions": sorted((s.dim() for _, s in strata), reverse=True),
               "classified": out}
    else:
        pair = _load_pair(args)
        fan = pair.kato_fan()
        for pt in map(SkeletonPoint.from_json_dict, points):
            stratum, residualpt = classify_closure_point(pt, fan)
            out.append({"point": pt.to_json_dict(), "stratum": list(stratum),
                        "trace_point": residualpt.to_json_dict()})
        doc = {"schema": "1", "command": "closure", "classified": out}
    _emit(doc, args)


def cmd_weight(args):
    pair = _load_pair(args)
    form = _load_form(args)
    values = []
    for pt in map(SkeletonPoint.from_json_dict, _point_docs(args.points)):
        values.append({"point": pt.to_json_dict(), "weight": fmt(weight(form, pair, pt))})
    _emit({"schema": "1", "command": "weight", "values": values}, args)


def cmd_ks(args):
    pair = _load_pair(args)
    form = _load_form(args)
    sub = ks_skeleton(pair, form)
    _emit({"schema": "1", "command": "ks", **sub.to_json_dict()}, args)


def cmd_essential(args):
    pair = _load_pair(args)
    forms = [PluriForm.from_json_dict(_load_json(p)) for p in (args.form or [])]
    sub = essential_skeleton(pair, forms)
    _emit({"schema": "1", "command": "essential", **sub.to_json_dict()}, args)


def cmd_slice(args):
    from .complexes import homology

    pair = _load_pair(args)
    sub = None
    if args.essential:
        sub = essential_skeleton(pair, [])
    sc = slice_dvf(pair, sub)
    doc = {"schema": "1", "command": "slice", **sc.to_json_dict()}
    try:
        simp = sc.to_simplicial()
        doc["complex"] = simp.to_json_dict()
        doc["homology"] = homology(simp).to_json_dict()
    except WeightError as exc:
        doc["simplicial"] = f"unavailable: {exc}"
    _emit(doc, args)


def cmd_residue(args):
    pair = _load_pair(args)
    form = _load_form(args)
    res = residue(form, pair, set(args.stratum))
    tracep = pair.trace_pair(set(args.stratum))
    doc = {"schema": "1", "command": "residue",
           "residue_form": res.to_json_dict(),
           "trace_pair": tracep.to_json_dict()}
    if args.ks:
        doc["ks"] = ks_skeleton(tracep, res).to_json_dict()
    _emit(doc, args)


def cmd_dual_complex(args):
    from .complexes import SimplicialComplex, homology, link_complex

    if args.fan:
        cx = link_complex(Fan.from_json_dict(_load_json(args.fan)))
    else:
        cx = SimplicialComplex.from_facets(s for s in _load_pair(args).strata if s)
    doc = {"schema": "1", "command": "dual-complex", "complex": cx.to_json_dict(),
           "homology": homology(cx).to_json_dict()}
    if args.off:
        _write_off(doc["complex"], args.off)
        doc["off"] = args.off
    _emit(doc, args)


def _write_off(complex_doc, path):
    """Facet dump in OFF format of a complex's JSON, with a deterministic circle layout."""
    import math

    n, facets = len(complex_doc["vertices"]), complex_doc["facets"]
    lines = ["OFF", f"{n} {len(facets)} 0"]
    for i in range(n):
        ang = 2 * math.pi * i / max(n, 1)
        lines.append(f"{math.cos(ang):.6f} {math.sin(ang):.6f} 0.000000")
    lines += [" ".join(map(str, [len(row), *row])) for row in facets]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_homology(args):
    from .complexes import SimplicialComplex, homology

    cx = SimplicialComplex.from_json_dict(_load_json(args.complex))
    _emit({"schema": "1", "command": "homology",
           "homology": homology(cx).to_json_dict()}, args)


def cmd_character_variety(args):
    from .complexes import character_variety_homology

    prof = character_variety_homology(args.group, args.n)
    expected_dim = 2 * args.n - 1 if args.group == "gl" else 2 * args.n - 3
    doc = {
        "schema": "1",
        "command": "character-variety",
        "group": args.group,
        "n": args.n,
        "homology": prof.to_json_dict(),
        "sphere_dimension": expected_dim,
        "matches_sphere": prof.is_sphere(expected_dim),
    }
    _emit(doc, args)


def cmd_tate(args):
    doc = tate_strata(args.n, args.alpha)
    _emit({"schema": "1", "command": "tate", **doc}, args)


def cmd_gauss(args):
    rec = gauss_weight_identity(q(args.c), q(args.a), args.l, args.m)
    doc = {
        "schema": "1",
        "command": "gauss",
        "c": fmt(rec["c"]),
        "a": fmt(rec["a"]),
        "l": rec["l"],
        "m": rec["m"],
        "log_r": fmt(rec["log_r"]),
        "log_norm_trivial": fmt(rec["log_norm_trivial"]),
        "log_norm_discrete": fmt(rec["log_norm_discrete"]),
        "identity_holds": rec["identity_holds"],
    }
    _emit(doc, args)


def cmd_sphere_check(args):
    import numpy as np

    from .complexes import check_sphere_tolerance, sphere_quotient_map_check

    for flag, value in (("--n", args.n), ("--samples", args.samples), ("--tolerance", args.tolerance)):
        if not value > 0:  # also rejects a NaN tolerance
            raise SystemExitWithCode(2, f"{flag} must be positive")
    check_sphere_tolerance(args.n, args.tolerance)
    steps = args.samples * args.n * max(args.n, 4)
    if steps > SPHERE_CHECK_STEPS:
        raise SystemExitWithCode(2, f"--samples x --n x max(--n, 4) = {steps} is over the desk-scale "
                                    f"{SPHERE_CHECK_STEPS}")
    rng = np.random.default_rng(args.seed)
    z = rng.normal(size=(args.samples, args.n)) + 1j * rng.normal(size=(args.samples, args.n))
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    rep = sphere_quotient_map_check(args.n, z, tolerance=args.tolerance)
    rep = dict(rep)
    _emit({"schema": "1", "command": "sphere-check", **rep}, args)


# --------------------------------------------------------------------------
# fixtures: the bundled paper regression suite
# --------------------------------------------------------------------------

def cmd_fixtures(args):
    results = []
    for name, fn in fx.CHECKS:
        try:
            ok = bool(fn())
        except Exception as exc:  # a crash is a failure with diagnostics
            ok = False
            name = f"{name} [{type(exc).__name__}: {exc}]"
        results.append({"check": name, "status": "pass" if ok else "FAIL"})
        print(("PASS  " if ok else "FAIL  ") + name, file=sys.stderr)
    failed = sum(r["status"] == "FAIL" for r in results)
    _emit({"schema": "1", "command": "fixtures",
           "results": results, "failed": failed}, args)
    if failed:
        raise SystemExitWithCode(3, f"{failed} fixture check(s) failed")


# --------------------------------------------------------------------------

@functools.cache  # parse_args leaves the parser unchanged, so in-process callers share one
def build_parser():
    ap = argparse.ArgumentParser(
        prog="logskel",
        description="skeletons of log-regular pairs, weight functions, and the "
                    "dual-complex pipeline (exact arithmetic)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("-o", "--output", help="write the JSON report here "
                       "(relative paths resolve under $LOGSKEL_OUTPUT_DIR)")
        return p

    def add_pair_or_fan(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--pair")
        g.add_argument("--fan")

    p = add("skeleton", cmd_skeleton, help="Kato fan and faces of a pair or fan")
    add_pair_or_fan(p)

    p = add("closure", cmd_closure, help="classify extended points into strata")
    add_pair_or_fan(p)
    p.add_argument("--points", required=True)

    p = add("weight", cmd_weight, help="weight values at listed points")
    p.add_argument("--pair", required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--points", required=True)

    p = add("ks", cmd_ks, help="Kontsevich-Soibelman skeleton of a form")
    p.add_argument("--pair", required=True)
    p.add_argument("--form", required=True)

    p = add("essential", cmd_essential, help="essential skeleton of a pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--form", action="append", help="repeatable form file")

    p = add("slice", cmd_slice, help="normalized slice of the skeleton")
    p.add_argument("--pair", required=True)
    p.add_argument("--essential", action="store_true",
                   help="slice the essential skeleton instead of the whole skeleton")

    p = add("residue", cmd_residue, help="residue of a form along a stratum")
    p.add_argument("--pair", required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--stratum", nargs="+", required=True)
    p.add_argument("--ks", action="store_true", help="also minimize on the trace")

    p = add("dual-complex", cmd_dual_complex, help="dual complex of a pair or fan link")
    add_pair_or_fan(p)
    p.add_argument("--off", help="also write an OFF facet dump here")

    p = add("homology", cmd_homology, help="integral homology of a complex")
    p.add_argument("--complex", required=True)

    p = add("character-variety", cmd_character_variety,
            help="sphere profile of the genus-one character variety boundary")
    p.add_argument("--group", choices=("gl", "sl"), required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("tate", cmd_tate, help="special-fibre strata of the Tate-curve kernel")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, nargs="+", required=True)

    p = add("gauss", cmd_gauss, help="Gauss-extension exponent identity")
    p.add_argument("--c", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("sphere-check", cmd_sphere_check, help="numeric symmetric-quotient map checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)

    add("fixtures", cmd_fixtures, help="run the bundled paper regression suite")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(args)
    except SystemExitWithCode as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
