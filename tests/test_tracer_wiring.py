"""The benchmark's tracer still finds every name it wraps.

`bench/tracer.py` replaces library names by module attribute, so a
cleanup that drops or renames one of them breaks `bench/run.py --trace 1`
without failing any library test. This runs `install` in a fresh process
and checks that the warm/cold split of `equilibrium` still reads the
guess from the fourth positional argument.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import tracer
from ionlattice import TrapConfig, crystal

t = tracer.Tracer()
tracer.install(t)
trap = TrapConfig.from_frequencies(85e3, 170e3)
cold = crystal.equilibrium(2, trap)
crystal.equilibrium(2, trap, None, cold.positions)
print(" ".join(span[0] for span in t.spans))
"""


def test_tracer_installs_in_fresh_process():
    path = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "bench"))
    out = subprocess.run([sys.executable, "-c", SCRIPT],
                         env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    spans = out.stdout.split()
    assert spans[0] == "crystal.equilibrium_cold"
    assert "crystal.bfgs" in spans
    assert spans[-1] == "crystal.equilibrium_warm"
