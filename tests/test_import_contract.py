"""Every command runs on numpy alone and without the exact Q(i, sqrt2)
scalars: with scipy and ``km2d.scalars`` blocked from import, each
subcommand keeps its exit code, the NS runs their unresolved-prescription
message included.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

WITHOUT_SCIPY = r"""
import contextlib, io, json, os, sys
sys.modules["scipy"] = None             # any scipy import raises ImportError
sys.modules["km2d.scalars"] = None      # and so does the exact scalar type
from km2d.cli import main

steps = []
for args in (["verify-torus", "--max-mode", "0"],
             ["verify-sphere", "--sectors", "R", "--cutoff-l", "2",
              "--max-l", "0"],
             ["verify-sphere", "--sectors", "NS", "--cutoff-l", "3/2",
              "--max-l", "0"],
             ["sphere-abstract", "--lmax", "0", "--l-probe", "0"],
             ["structure-constants", "--lmax", "4"],
             ["regularization"],
             ["regularization", "--include-sphere-ns"],
             ["car-check", "--geometry", "sphere", "--d", "1"]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args + ["--output", os.devnull])
    steps.append([" ".join(args), code, out.getvalue().splitlines()[-1:],
                  err.getvalue()])
print(json.dumps(steps))
"""

UNRESOLVED = ("unresolved prescription: sphere NS degree sums diverge "
              "logarithmically; their finite part cannot be normalized by "
              "the damping offset")


def test_every_command_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = {label: (code, last, err)
             for label, code, last, err in json.loads(proc.stdout)}
    assert {label: code for label, (code, _, _) in steps.items()} == {
        "verify-torus --max-mode 0": 0,
        "verify-sphere --sectors R --cutoff-l 2 --max-l 0": 0,
        "verify-sphere --sectors NS --cutoff-l 3/2 --max-l 0": 3,
        "sphere-abstract --lmax 0 --l-probe 0": 0,
        "structure-constants --lmax 4": 0,
        "regularization": 0,
        "regularization --include-sphere-ns": 3,
        "car-check --geometry sphere --d 1": 0,
    }
    assert steps["verify-sphere --sectors NS --cutoff-l 3/2 --max-l 0"][2] \
        == UNRESOLVED + "\n"
    assert steps["regularization --include-sphere-ns"][1] == [
        f"{'sphere NS':<16} {UNRESOLVED}"]
    assert all(not err for code, _, err in steps.values() if code == 0)
