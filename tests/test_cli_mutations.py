"""Seeded mutations of the CLI inputs, run through ``cli.main`` in process.

Each file case changes one field of one input of one CLI job: it replaces a
value with one of a fixed list of JSON values, deletes a key, or repeats a
list element.  Each argv case of a job that reads no file replaces one
value, drawn from a fixed list of strings for the type of its flag, repeats
one whole option, its flag and values, or deletes what the command can do
without: an optional option, or one value of a multi-value option.  Invalid
input must exit 2 with one line on stderr (after argparse's usage text, for
a command line argparse refuses); anything else must exit 0 with JSON on
stdout.  Any other exception is a crash (exit 1 on the command line), and so
is a call that runs past its alarm.
"""

import contextlib
import copy
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys

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
    "fan_points": None,  # closure points of the p2 fan, inline
}

# each job's argv, with {input} for the file of that input
JOBS = [
    ["skeleton", "--pair", "{si_pair}"],
    ["skeleton", "--pair", "{a2_pair}"],
    ["skeleton", "--pair", "{dwork_pair}"],
    ["skeleton", "--fan", "{p2_fan}"],
    ["closure", "--pair", "{a2_pair}", "--points", "{a2_points}"],
    ["closure", "--fan", "{p2_fan}", "--points", "{fan_points}"],
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

# jobs that read no file; character-variety only at n whose run is cheap
ARGV_JOBS = [
    ["tate", "--n", "3", "--alpha", "-1", "0", "-1"],
    ["tate", "--n", "2", "--alpha", "1", "-1"],
    ["gauss", "--c", "5/3", "--a", "2", "--l", "3", "--m", "2"],
    ["sphere-check", "--n", "2", "--samples", "10", "--tolerance", "1e-9", "--seed", "3"],
    ["character-variety", "--group", "gl", "--n", "2"],
    ["character-variety", "--group", "sl", "--n", "3"],
]

# replacement values by the type of the flag they follow, so that most draws
# pass argparse and meet the program's own checks; "4" is left out of the
# ints: it would turn a character-variety job into a desk-scale run
INTS = ["0", "1", "2", "3", "5", "-1", "-7", "17", "100", str(2 ** 31), str(2 ** 70)]
RATIONALS = ["0", "1", "-1", "5/3", "-2/3", "1/0", "0/7", "3/-4", "10/4", "1.5", "-2e3", "1/" + str(2 ** 70),
             "1e10000000"]
ARGV_VALUES = {
    **dict.fromkeys(["--n", "--samples", "--l", "--m", "--seed", "--alpha"], INTS),
    "--tolerance": ["1e-9", "1e-3", "0.1", "0.5", "1", "0", "-1e-9", "1e-300", "5e-324", "inf", "nan"],
    "--c": RATIONALS,
    "--a": RATIONALS,
    "--group": ["gl", "sl"],
}
OPTIONAL = {"--samples", "--tolerance", "--seed"}  # sphere-check's; every other option of ARGV_JOBS is required

# crashes found by hand before sphere-check bounded its arguments: a tolerance
# that is also the degeneracy threshold (ArithmeticError), and 2 * 10^7
# samples (numpy's MemoryError, under the address-space limit below)
PINNED_ARGV = [
    ["sphere-check", "--n", "3", "--samples", "10", "--tolerance", "1"],
    ["sphere-check", "--n", "3", "--samples", "10", "--tolerance", "inf"],
    ["sphere-check", "--n", "3", "--samples", "20000000"],
]

SEED, COUNT, ARGV_SEED, ARGV_COUNT, ALARM = 20262, 1000, 2323, 1000, 5
PINNED_ADDRESS_SPACE = 1_500_000_000  # bytes


def _load(name):
    if name == "complex":
        return {"vertices": [0, 1, 2, 3], "facets": [[0, 1], [1, 2], [2, 3], [0, 3]]}
    if name == "fan_points":
        return {"points": [{"kato_point": [0], "weights": ["2"]},
                           {"kato_point": [0, 1], "weights": ["1", "inf"]},
                           {"kato_point": [], "weights": []},
                           {"kato_point": [1, 2], "weights": ["inf", "inf"]}]}
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


def argv_cases(seed, count):
    """(argv, description) for ``count`` seeded mutations of ARGV_JOBS: one
    value replaced, one whole option (its flag and values) repeated, or one
    optional option or one value of a multi-value option deleted.  A
    required option deleted, or the last value of one, only meets argparse,
    so a job with nothing else to delete draws no deletes."""
    rng = random.Random(seed)
    for _ in range(count):
        argv = list(rng.choice(ARGV_JOBS))
        flags = [i for i, arg in enumerate(argv) if arg.startswith("--")]
        options = [(at, next((i for i in flags if i > at), len(argv))) for at in flags]
        deletable = [(at, end) for at, end in options if argv[at] in OPTIONAL]
        deletable += [(i, i + 1) for at, end in options if end - at > 2 for i in range(at + 1, end)]
        kind = rng.choice(["replace", "replace", "delete", "repeat"] if deletable else ["replace", "replace", "repeat"])
        if kind == "replace":  # a value, by the type of its flag: a flag replaced only meets argparse
            at = rng.choice([i for i, arg in enumerate(argv) if i and not arg.startswith("--")])
            flag = next(arg for arg in argv[at::-1] if arg.startswith("--"))
            argv[at] = rng.choice(ARGV_VALUES[flag])
            yield argv, f"replace token {at}"
            continue
        at, end = rng.choice(deletable if kind == "delete" else options)
        option = argv[at:end]
        argv[at:end] = [] if kind == "delete" else option + option
        yield argv, f"{kind} {' '.join(option)}"


def _alarm(signum, frame):
    raise TimeoutError(f"no answer within {ALARM} s")


def run_argv(argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``, under the alarm."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusing the command line
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def run_case(tmp_path, job, name, doc):
    """Exit code, stdout and stderr of ``job`` with ``name`` replaced by ``doc``."""
    paths = {}
    for key in INPUTS:
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(doc if key == name else _load(key), fh)
    return run_argv([arg.format(**paths) for arg in job])


def broken_contract(code, out, err):
    """None when an exit code and its output keep the contract, else what broke it."""
    if code == 0:
        try:
            json.loads(out)
        except json.JSONDecodeError:
            return f"exit 0 with stdout {out[:200]!r}"
    elif code == 2:
        lines = err.strip().splitlines()
        usage = len(lines) > 1 and lines[0].startswith("usage: ") and ": error: " in lines[-1]
        if out or not (len(lines) == 1 or usage):
            return f"exit 2 with stdout {out[:200]!r} and stderr {err[:200]!r}"
    else:
        return f"exit {code}"
    return None


def check_call(call, *args):
    """None when ``call(*args)`` keeps the exit-code contract, else what broke it."""
    try:
        return broken_contract(*call(*args))
    except Exception as exc:  # any escape from cli.main is a crash
        return f"{type(exc).__name__}: {exc}"


def test_seeded_mutations_of_every_input_keep_the_exit_code_contract(tmp_path):
    crashes = []
    for job, name, doc, what in mutation_cases(SEED, COUNT):
        broke = check_call(run_case, tmp_path, job, name, doc)
        if broke:
            crashes.append(f"{' '.join(job)}: {name} {what}: {broke}")
    assert crashes == []


def test_seeded_mutations_of_every_command_line_keep_the_exit_code_contract():
    crashes = []
    for argv, what in argv_cases(ARGV_SEED, ARGV_COUNT):
        broke = check_call(run_argv, argv)
        if broke:
            crashes.append(f"{' '.join(argv)} ({what}): {broke}")
    assert crashes == []


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (PINNED_ADDRESS_SPACE, PINNED_ADDRESS_SPACE))


def test_pinned_command_lines_keep_the_exit_code_contract():
    # in a child process under an address-space limit, so that the sample
    # count that used to run out of memory fails fast wherever it is run
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}  # this logskel
    for argv in PINNED_ARGV:
        run = subprocess.run([sys.executable, "-m", "logskel", *argv], capture_output=True, text=True,
                             env=env, timeout=60, preexec_fn=_limit_address_space)
        assert broken_contract(run.returncode, run.stdout, run.stderr) is None, (argv, run.stderr[-300:])
