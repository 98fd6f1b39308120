"""Import order of a fresh process: `import crystalsum` loads no numpy, so
the CLI can run OpenBLAS single-threaded before numpy starts its pool."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(*args, **env):
    """Run `python *args` in a new interpreter whose environment has no
    OPENBLAS_NUM_THREADS unless `env` sets it."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, *args], env={**base, "PYTHONPATH": SRC, **env},
                          capture_output=True, text=True, timeout=60)


def test_package_import_loads_no_numpy():
    proc = run_fresh("-c", "import sys, crystalsum; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("env, expect", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_cli_sets_blas_threads_unless_the_caller_did(env, expect):
    proc = run_fresh("-c", "import os, crystalsum.cli; "
                     "print(os.environ['OPENBLAS_NUM_THREADS'])", **env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expect + "\n"


def test_cli_leaves_a_host_with_numpy_loaded_alone():
    code = ("import os, numpy; before = dict(os.environ); import crystalsum.cli; "
            "print(dict(os.environ) == before)")
    proc = run_fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_module_entry_point_runs():
    proc = run_fresh("-m", "crystalsum.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: crystalsum")


def test_exact_spectrum_loads_no_numpy_ma():
    # np.unique imports numpy.ma, 1.4 MB of resident memory the spectrum has no use for
    code = """
import math, sys
import numpy as np
from crystalsum.freqalg import FreqBasis, sine
from crystalsum.hermite import ks_from_Q, leeyang_real_form
from crystalsum.spectra import exact_spectrum
c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
Q = leeyang_real_form(np.array([[c, -s], [s, c]]), [(1, 0), (0, 1)],
                      FreqBasis((1.0, math.sqrt(2))))
for H, cutoff in ((ks_from_Q(Q), 60.0), (ks_from_Q(sine(FreqBasis((0.5,)), (1,))), 600.0)):
    exact_spectrum(H, cutoff).sorted_arrays()
print('numpy.ma' in sys.modules)
"""
    proc = run_fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
