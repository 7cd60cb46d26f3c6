"""scipy.special is loaded on first use of the NS Jacobi basis, never before.

Every command that needs only Legendre functions runs in a fresh interpreter
without importing it; the half-integer NS triple product imports it and
returns the same float as in this process.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

from km2d.harmonics import triple_product_ns

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

H = Fraction(1, 2)
NS_TRIPLE = (Fraction(3, 2), H, 1, Fraction(3, 2), -H, 1, 2, 0)

LEGENDRE_ONLY = r"""
import json, os, sys
from fractions import Fraction
from km2d import fock, lie_core, verifier
from km2d.cli import main

out = ["--output", os.devnull]
steps = []
for args in (["verify-torus", "--max-mode", "0"],
             ["verify-sphere", "--sectors", "R", "--cutoff-l", "2",
              "--max-l", "0"],
             ["structure-constants", "--lmax", "4"]):
    steps.append([" ".join(args), main(args + out),
                  "scipy.special" in sys.modules])
rep = lie_core.get_rep("so3-adjoint")
cfg = fock.torus_sector("NS", "NS", rep.d, Fraction(9, 2), Fraction(9, 2))
k = verifier.measure_central("TT", 1, rep=rep, cfg=cfg,
                             method="eps_extrapolated", eps0=0.1, levels=5)
steps.append(["measure_central eps", round(k, 6),
              "scipy.special" in sys.modules])
print(json.dumps(steps))
"""

NS_BASIS = r"""
import sys
from fractions import Fraction
from km2d.harmonics import triple_product_ns
before = "scipy.special" in sys.modules
value = triple_product_ns(%s)
print(before, "scipy.special" in sys.modules, value.hex())
"""


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_legendre_commands_never_load_scipy_special():
    steps = json.loads(_python(LEGENDRE_ONLY))
    labels, results, loaded = zip(*steps)
    assert labels == ("verify-torus --max-mode 0",
                      "verify-sphere --sectors R --cutoff-l 2 --max-l 0",
                      "structure-constants --lmax 4", "measure_central eps")
    assert results == (0, 0, 0, 1.0)
    assert not any(loaded), steps


def test_ns_triple_product_loads_scipy_special_on_first_use():
    args = ", ".join(map(repr, NS_TRIPLE))
    before, after, value = _python(NS_BASIS % args).split()
    assert (before, after) == ("False", "True")
    assert value == triple_product_ns(*NS_TRIPLE).hex()
