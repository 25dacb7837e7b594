"""The benchmark's ``--trace 1`` wraps logskel entry points by name
(``perfbench/spans.py``); renaming or removing one must fail here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_every_span():
    code = ("import spans\n"
            "from logskel.lattice import snf_diagonal\n"
            "t = spans.Tracer()\n"
            "t.install()\n"
            "from logskel import lattice\n"
            "assert lattice.snf_diagonal is not snf_diagonal\n"
            "lattice.SparseIntMatrix([{0: 2}], 1).diagonal_snf()\n"
            "assert t.calls['lattice.dense_core'] == 1, t.calls\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
