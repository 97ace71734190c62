"""What importing the package does to the interpreter, checked in fresh
child interpreters."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import horolab
from horolab import randomness

SRC = str(Path(horolab.__file__).resolve().parents[1])
PROBE = "import os, horolab; print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"


def _import_horolab(probe: str = PROBE, **env) -> list:
    """The words `probe` prints in a fresh interpreter, by default (threads,
    OPENBLAS_NUM_THREADS) once it has imported horolab, with `env` over this
    one's, the variable unset unless given."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [base.get("PYTHONPATH")])])
    run = subprocess.run(
        [sys.executable, "-c", probe], env={**base, **env}, capture_output=True, text=True, timeout=60
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


def test_horolab_hashes_without_loading_openssl():
    # blake2b comes from `_blake2`, which hashlib re-exports: the CLI and a
    # digest load neither hashlib nor its OpenSSL backend.
    probe = (
        "import sys, horolab.cli; from horolab.randomness import digest_str; digest_str('e');"
        "print('hashlib' in sys.modules, '_hashlib' in sys.modules)"
    )
    assert _import_horolab(probe) == ["False", "False"]


@pytest.mark.parametrize("data", [b"", b"e", b"G:ab", bytes(range(256))])
def test_digest_bytes_is_hashlibs_blake2b(data):
    want = int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")
    assert randomness.digest_bytes(data) == want
