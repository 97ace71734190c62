"""What importing the package does to the interpreter, checked in fresh
child interpreters."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import horolab

SRC = str(Path(horolab.__file__).resolve().parents[1])
PROBE = "import os, horolab; print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"


def _import_horolab(**env) -> list:
    """(threads, OPENBLAS_NUM_THREADS) of a fresh interpreter once it has
    imported horolab, with `env` over this one's, the variable unset unless
    given."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [base.get("PYTHONPATH")])])
    run = subprocess.run(
        [sys.executable, "-c", PROBE], env={**base, **env}, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_importing_horolab_starts_no_blas_thread():
    # horolab calls no BLAS routine: with the variable unset, numpy's
    # OpenBLAS is limited to the calling thread before numpy is imported.
    assert _import_horolab() == ["1", "1"]


def test_a_users_blas_thread_count_is_kept():
    assert _import_horolab(OPENBLAS_NUM_THREADS="3")[1] == "3"
