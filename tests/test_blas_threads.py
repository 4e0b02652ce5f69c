"""Importing jumpguard loads OpenBLAS with one thread, unless numpy or the user chose first."""

import os
import subprocess
import sys

import pytest

import jumpguard

SRC = os.path.dirname(os.path.dirname(jumpguard.__file__))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# The child keeps at most 2 CPUs, so OpenBLAS's default starts at most 2 threads.
# It runs the case's imports, then prints the thread count of numpy's bundled
# scipy-openblas (None without the library or the symbol) and whether os.environ
# is what it was before the imports.
PROBE = """
import ctypes, glob, os
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
before = dict(os.environ)
{imports}
import numpy
libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "libscipy_openblas*"))
get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None) if libs else None
print(get() if get else None, dict(os.environ) == before)
"""


def _env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    return {**env, "PYTHONPATH": SRC, **extra}


def _threads(imports, **extra):
    """(OpenBLAS thread count, os.environ unchanged) after `imports` in a fresh interpreter."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("needs CPU affinity to cap the child's threads")
    code = PROBE.format(imports=imports)
    out = subprocess.run([sys.executable, "-c", code], env=_env(**extra), capture_output=True, text=True, check=True)
    count, unchanged = out.stdout.split()
    if count == "None":
        pytest.skip("numpy has no bundled scipy-openblas with a thread-count symbol")
    return int(count), unchanged == "True"


def test_import_loads_one_blas_thread():
    assert _threads("import jumpguard") == (1, True)


@pytest.mark.parametrize("var", THREAD_VARS)
def test_user_thread_count_is_honoured(var):
    # OpenBLAS caps a requested count at the CPUs it may use
    assert _threads("import jumpguard", **{var: "2"}) == (min(2, len(os.sched_getaffinity(0))), True)


def test_numpy_loaded_first_keeps_its_threads():
    assert _threads("import numpy; import jumpguard") == _threads("import numpy")


def test_sampled_csvs_do_not_depend_on_blas_threads(tmp_path):
    # grid reads turn rows into states with BLAS products
    args = ["run", "qutrit-protection", "--mode", "sampled", "--samples", "50", "--t-max", "0.3", "--grid-points", "3"]
    for n in ("1", "2"):
        subprocess.run([sys.executable, "-m", "jumpguard.cli", *args, "--out-dir", str(tmp_path / n)],
                       env=_env(OPENBLAS_NUM_THREADS=n), capture_output=True, check=True)
    names = sorted(p.name for p in (tmp_path / "1").glob("*.csv"))
    assert names and names == sorted(p.name for p in (tmp_path / "2").glob("*.csv"))
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
