"""The four benchmark workloads: their jobs, seeded inputs and output checks.

Every check is independent of the code being timed: homology profiles are
compared with the sphere profiles the paper predicts, CLI reports with golden
bytes from make_golden.py, and Hilbert bases with the basis the benchmark
derives itself from the parallelepiped of the rays, using facet inequalities
from integer adjugates.

Importing this module imports no part of logskel; ``build`` does.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")

WORKLOADS = ("gl-homology", "quotient-materialize", "sphere-map", "skeleton-batch")

SPHERE_SAMPLES = 10_000
SPHERE_TOLERANCE = 1e-9
# Lattice points in the bounding boxes of the sweep's cones, per rank: about
# 100 cones each.  Drawing cones up to a fixed total instead of a fixed count
# keeps the Hilbert-basis work nearly equal across seeds (the box sizes of
# single cones vary twentyfold).
CONE_BOX_BUDGET = {2: 1480, 3: 19300}


class Job:
    """One unit of work: ``run()`` is timed, ``check(output)`` is not."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


# -- skeleton-batch: CLI jobs on the bundled fixtures ------------------------

F = "fixtures/"
SI_PAIR, SI_FORM, SI_POINTS = F + "strict_inclusion_pair.json", \
    F + "strict_inclusion_form.json", F + "strict_inclusion_points.json"
A2_PAIR, A2_Z1, A2_Z1Z2 = F + "a2_pair.json", F + "a2_form_z1.json", F + "a2_form_z1_plus_z2.json"
DWORK = F + "dwork_pair.json"
FANS = {"p2": F + "p2_fan.json", "p1xp1": F + "p1xp1_fan.json", "p2xp2": F + "p2xp2_fan.json"}

# (report name, argv without -o).  ``character-variety`` and ``sphere-check``
# are left to the gl-homology, quotient-materialize and sphere-map workloads.
CLI_JOBS = (
    [("skeleton-si", ["skeleton", "--pair", SI_PAIR]),
     ("skeleton-dwork", ["skeleton", "--pair", DWORK]),
     ("skeleton-a2", ["skeleton", "--pair", A2_PAIR])]
    + [(f"skeleton-{k}", ["skeleton", "--fan", v]) for k, v in FANS.items()]
    + [("closure-a2", ["closure", "--pair", A2_PAIR, "--points", F + "closure_points_a2.json"]),
       ("weight-si", ["weight", "--pair", SI_PAIR, "--form", SI_FORM, "--points", SI_POINTS]),
       ("ks-si", ["ks", "--pair", SI_PAIR, "--form", SI_FORM]),
       ("ks-a2-z1", ["ks", "--pair", A2_PAIR, "--form", A2_Z1]),
       ("ks-a2-z1z2", ["ks", "--pair", A2_PAIR, "--form", A2_Z1Z2]),
       ("essential-si", ["essential", "--pair", SI_PAIR, "--form", SI_FORM]),
       ("essential-dwork", ["essential", "--pair", DWORK]),
       ("essential-a2", ["essential", "--pair", A2_PAIR, "--form", A2_Z1, "--form", A2_Z1Z2]),
       ("slice-si", ["slice", "--pair", SI_PAIR]),
       ("slice-dwork", ["slice", "--pair", DWORK, "--essential"]),
       ("slice-a2", ["slice", "--pair", A2_PAIR]),
       ("residue-si-d4", ["residue", "--pair", SI_PAIR, "--form", SI_FORM,
                          "--stratum", "D4", "--ks"]),
       ("dual-complex-si", ["dual-complex", "--pair", SI_PAIR]),
       ("dual-complex-dwork", ["dual-complex", "--pair", DWORK])]
    + [(f"dual-complex-{k}", ["dual-complex", "--fan", v]) for k, v in FANS.items()]
    + [("homology-p2xp2-link", ["homology", "--complex", "perfbench/golden/p2xp2_link.json"]),
       ("gauss-5_3-2-3-2", ["gauss", "--c", "5/3", "--a", "2", "--l", "3", "--m", "2"]),
       ("gauss-1-1-2-1", ["gauss", "--c", "1", "--a", "1", "--l", "2", "--m", "1"]),
       ("fixtures", ["fixtures"])]
)


def tate_jobs():
    with open(F + "tate_sweep.json") as fh:
        sweep = json.load(fh)
    return [(f"tate-{'_'.join(map(str, a))}",
             ["tate", "--n", str(sweep["n"]), "--alpha", *map(str, a)])
            for a in sweep["alphas"]]


def cli_jobs(out_dir):
    """CLI jobs run in-process through ``cli.main``; reports go to ``out_dir``."""
    import contextlib
    import io

    from logskel import cli

    jobs = []
    for name, argv in CLI_JOBS + tate_jobs():
        out = os.path.join(out_dir, name + ".json")

        def run(argv=argv + ["-o", out]):
            sink = io.StringIO()  # ``fixtures`` prints PASS lines to stdout
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(argv)

        def check(code, out=out, name=name):
            with open(out, "rb") as fh, open(os.path.join(GOLDEN, name + ".json"), "rb") as gh:
                return code == 0 and fh.read() == gh.read()

        jobs.append(Job("cli:" + name, run, check))
    return jobs


# -- skeleton-batch: seeded random-cone sweep --------------------------------

def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _adjugate(m):
    """adj(m), so that adj(m) @ m = det(m) * I."""
    n = len(m)
    if n == 1:
        return [[1]]
    cof = [[(-1) ** (i + j) * _det([r[:j] + r[j + 1:] for k, r in enumerate(m) if k != i])
            for j in range(n)] for i in range(n)]
    return [list(col) for col in zip(*cof)]


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def _box_points(gens):
    """Lattice points of the box around the parallelepiped of the primitive rays."""
    rays = [_primitive(v) for v in gens]
    out = 1
    for j in range(len(gens)):
        out *= 1 + sum(abs(r[j]) for r in rays)
    return out


def cone_inputs(seed):
    """Generators of pointed cones: rank 2 and 3, entries in [-3, 3].

    A cone is kept when its generators are linearly independent, which makes
    it simplicial, full-dimensional and pointed without asking logskel.
    """
    rng = random.Random(seed)
    cones = []
    for rank, budget in CONE_BOX_BUDGET.items():
        points = 0
        while points < budget:
            gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rank)]
            if _det([list(g) for g in gens]) != 0:
                cones.append(gens)
                points += _box_points(gens)
    rng.shuffle(cones)
    return cones


def _facet_normals(cols):
    """Rows ``m_i`` with ``m_i @ cols[j] = |det| * (i == j)``, and ``|det|``."""
    g = [list(col) for col in zip(*cols)]          # the vectors as columns
    det = _det(g)
    sign = 1 if det > 0 else -1
    return [[sign * x for x in row] for row in _adjugate(g)], abs(det)


def _expected_hilbert_basis(rays):
    """Hilbert basis of the simplicial cone on the primitive ``rays``.

    Every element other than a ray lies in the half-open parallelepiped
    ``{sum l_j r_j : 0 <= l_j < 1}``, and a point ``p`` there is reducible
    exactly when ``p = q + (p - q)`` with both parts nonzero points of the
    parallelepiped.  The points are found by scanning its bounding box.
    """
    normals, det = _facet_normals(rays)
    ranges = [range(sum(min(0, r[i]) for r in rays), sum(max(0, r[i]) for r in rays) + 1)
              for i in range(len(rays))]
    par = {p for p in itertools.product(*ranges)
           if any(p) and all(0 <= sum(a * b for a, b in zip(m, p)) < det for m in normals)}
    irreducible = {p for p in par
                   if not any(tuple(a - b for a, b in zip(p, q)) in par for q in par)}
    return sorted(set(rays) | irreducible)


def _cone_oracle(gens):
    """Rays, Hilbert basis and dual rays of the simplicial cone on ``gens``."""
    rays = sorted({_primitive(v) for v in gens})
    normals, _ = _facet_normals(gens)
    duals = sorted({_primitive(n) for n in normals})
    return rays, _expected_hilbert_basis(rays), duals


def cone_jobs(seed):
    from logskel import polyhedra

    jobs = []
    for idx, gens in enumerate(cone_inputs(seed)):
        rank = len(gens)

        def run(gens=gens, rank=rank):
            c = polyhedra.Cone.from_generators(gens, rank)
            return (c, polyhedra.hilbert_basis(c), polyhedra.dual_cone(c),
                    polyhedra.cone_faces(c))

        def check(out, gens=gens, rank=rank):
            c, basis, dual, faces = out
            rays, expected_basis, duals = _cone_oracle(gens)
            return (list(c.rays) == rays and sorted(basis) == expected_basis
                    and list(dual.rays) == duals and len(faces) == 2 ** rank)

        jobs.append(Job(f"cone:{idx}", run, check))
    return jobs


# -- the workloads ------------------------------------------------------------

def _is_sphere_profile(prof, dim):
    """Integral homology of S^dim (dim >= 1): Z in degrees 0 and dim, else 0."""
    got = [(rank, list(torsion)) for rank, torsion in prof.degrees]
    while got and got[-1] == (0, []):
        got.pop()
    return got == [(1, [])] + [(0, [])] * (dim - 1) + [(1, [])]


def _profile_job(name, compute, expected_dim):
    return Job(name, compute, lambda prof: _is_sphere_profile(prof, expected_dim))


def build(workload, seed, out_dir):
    """Jobs of one pass.  Inputs are made here, before timing starts."""
    from logskel import complexes

    if workload == "gl-homology":
        return [_profile_job(f"gl-{n}", lambda n=n: complexes.character_variety_homology("gl", n),
                             2 * n - 1) for n in (1, 2, 3)]
    if workload == "quotient-materialize":
        jobs = [_profile_job(f"complex-{g}-{n}",
                             lambda g=g, n=n: complexes.homology(
                                 complexes.character_variety_complex(g, n)), 3)
                for g, n in (("gl", 2), ("sl", 3))]
        return jobs + [_profile_job(f"sl-{n}",
                                    lambda n=n: complexes.character_variety_homology("sl", n),
                                    2 * n - 3) for n in (2, 3)]
    if workload == "sphere-map":
        import numpy as np

        rng = np.random.default_rng(seed)
        jobs = []
        for n in (1, 2, 3):
            z = rng.normal(size=(SPHERE_SAMPLES, n)) + 1j * rng.normal(size=(SPHERE_SAMPLES, n))
            z = z / np.linalg.norm(z, axis=1, keepdims=True)

            def check(rep, n=n):
                return (rep["passed"] is True and rep["n"] == n
                        and rep["samples"] == SPHERE_SAMPLES
                        and rep["orbit_collapse_failures"] == 0
                        and rep["injectivity_failures"] == 0
                        and rep["unit_norm_failures"] == 0)

            jobs.append(Job(f"sphere-{n}", lambda n=n, z=z: complexes.sphere_quotient_map_check(
                n, z, tolerance=SPHERE_TOLERANCE), check))
        return jobs
    if workload == "skeleton-batch":
        return cli_jobs(out_dir) + cone_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")
