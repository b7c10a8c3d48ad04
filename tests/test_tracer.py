"""The benchmark tracer (perfbench/tracer.py) wraps about eighty hallalg
functions and methods, looked up by name, so installing it fails once one
of them is renamed or deleted.  It is installed in a subprocess to keep its
wrappers out of the other tests."""

import os
import subprocess
import sys

from conftest import CONFIGS

ROOT = CONFIGS.parent


def test_benchmark_tracer_installs():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer(0))"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
