"""Seeded mutations of the fixture inputs, run through ``cli.main`` in process.

Each case changes one field of one input of one CLI job: it replaces a value
with one of a fixed list of JSON values, deletes a key, or repeats a list
element.  Invalid input must exit 2 with one line on stderr; anything else
must exit 0 with JSON on stdout.  Any other exception is a crash (exit 1 on
the command line), and so is a call that runs past its alarm.
"""

import contextlib
import copy
import io
import json
import os
import random
import signal

from logskel import cli

FIX = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")

INPUTS = {
    "si_pair": "strict_inclusion_pair.json",
    "si_form": "strict_inclusion_form.json",
    "si_points": "strict_inclusion_points.json",
    "a2_pair": "a2_pair.json",
    "a2_form": "a2_form_z1.json",
    "a2_points": "closure_points_a2.json",
    "dwork_pair": "dwork_pair.json",
    "p2_fan": "p2_fan.json",
    "p1xp1_fan": "p1xp1_fan.json",
    "complex": None,  # the square, inline
}

# each job's argv, with {input} for the file of that input
JOBS = [
    ["skeleton", "--pair", "{si_pair}"],
    ["skeleton", "--pair", "{a2_pair}"],
    ["skeleton", "--pair", "{dwork_pair}"],
    ["skeleton", "--fan", "{p2_fan}"],
    ["closure", "--pair", "{a2_pair}", "--points", "{a2_points}"],
    ["weight", "--pair", "{si_pair}", "--form", "{si_form}", "--points", "{si_points}"],
    ["ks", "--pair", "{si_pair}", "--form", "{si_form}"],
    ["ks", "--pair", "{a2_pair}", "--form", "{a2_form}"],
    ["essential", "--pair", "{si_pair}", "--form", "{si_form}"],
    ["slice", "--pair", "{dwork_pair}", "--essential"],
    ["residue", "--pair", "{si_pair}", "--form", "{si_form}", "--stratum", "D4", "--ks"],
    ["dual-complex", "--pair", "{si_pair}"],
    ["dual-complex", "--fan", "{p1xp1_fan}"],
    ["homology", "--complex", "{complex}"],
]

VALUES = [None, True, False, 0, -1, 2 ** 70, 1.5, "", "B1", "1/0", [], [[]], [1, "a"], {}, {"a": []}]

SEED, COUNT, ALARM = 20262, 1000, 5


def _load(name):
    if INPUTS[name] is None:
        return {"vertices": [0, 1, 2, 3], "facets": [[0, 1], [1, 2], [2, 3], [0, 3]]}
    with open(os.path.join(FIX, INPUTS[name])) as fh:
        return json.load(fh)


def _paths(doc, path=()):
    """Every (path, value) below the top level, parents first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


def _mutate(doc, rng):
    """A copy of ``doc`` with one field changed, and a description of it."""
    doc = copy.deepcopy(doc)
    path, _ = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = rng.choice(["replace", "delete" if isinstance(parent, dict) else "repeat"])
    if kind == "replace":
        parent[key] = copy.deepcopy(rng.choice(VALUES))
    elif kind == "delete":
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return doc, f"{kind} {list(path)}" + (f" = {parent[key]!r}" if kind == "replace" else "")


def mutation_cases(seed, count):
    """(job, input name, mutated doc, description) for ``count`` seeded draws."""
    rng = random.Random(seed)
    docs = {name: _load(name) for name in INPUTS}
    for _ in range(count):
        job = rng.choice(JOBS)
        name = rng.choice([arg[1:-1] for arg in job if arg.startswith("{")])
        doc, what = _mutate(docs[name], rng)
        yield job, name, doc, what


def _alarm(signum, frame):
    raise TimeoutError(f"no answer within {ALARM} s")


def run_case(tmp_path, job, name, doc):
    """Exit code, stdout and stderr of ``job`` with ``name`` replaced by ``doc``."""
    paths = {}
    for key in INPUTS:
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(doc if key == name else _load(key), fh)
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.format(**paths) for arg in job])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def check_case(tmp_path, job, name, doc):
    """None when the call keeps the exit-code contract, else what broke it."""
    try:
        code, out, err = run_case(tmp_path, job, name, doc)
    except Exception as exc:  # any escape from cli.main is a crash
        return f"{type(exc).__name__}: {exc}"
    if code == 0:
        try:
            json.loads(out)
        except json.JSONDecodeError:
            return f"exit 0 with stdout {out[:200]!r}"
    elif code == 2:
        if len(err.strip().splitlines()) != 1 or out:
            return f"exit 2 with stdout {out[:200]!r} and stderr {err[:200]!r}"
    else:
        return f"exit {code}"
    return None


def test_seeded_mutations_of_every_input_keep_the_exit_code_contract(tmp_path):
    crashes = []
    for job, name, doc, what in mutation_cases(SEED, COUNT):
        broke = check_case(tmp_path, job, name, doc)
        if broke:
            crashes.append(f"{' '.join(job)}: {name} {what}: {broke}")
    assert crashes == []
