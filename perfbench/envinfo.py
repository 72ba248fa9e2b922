"""BLAS thread verification and the environment record kept with each result.

Import this module only after OPENBLAS_NUM_THREADS / OMP_NUM_THREADS are
set: it imports numpy, which starts the OpenBLAS thread pool.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess

import numpy as np


class BlasCheckError(RuntimeError):
    """The BLAS thread count could not be read or is not 1."""


def _openblas() -> ctypes.CDLL:
    # numpy wheels bundle OpenBLAS in numpy.libs; loading it again returns
    # the handle numpy already holds, so the count read is the one in effect.
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*.so*")))
    if not paths:
        raise BlasCheckError(f"no bundled OpenBLAS under {os.path.normpath(libdir)}")
    return ctypes.CDLL(paths[0])


def _symbol(lib: ctypes.CDLL, name: str, restype):
    fn = getattr(lib, name, None)
    if fn is None:
        raise BlasCheckError(f"OpenBLAS does not export {name}")
    fn.argtypes = []
    fn.restype = restype
    return fn


def require_one_thread() -> tuple[int, str]:
    """(thread count in effect, OpenBLAS config string); raises unless 1 thread."""
    lib = _openblas()
    threads = _symbol(lib, "scipy_openblas_get_num_threads64_", ctypes.c_int)()
    config = _symbol(lib, "scipy_openblas_get_config64_", ctypes.c_char_p)()
    if threads != 1:
        raise BlasCheckError(f"OpenBLAS runs {threads} threads, expected 1")
    return threads, config.decode("ascii", "replace").strip()


def _git_commit(root: str):
    # Only a checkout's own .git: git would otherwise search parent directories.
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src_dir: str) -> str:
    """SHA-256 over the program's .py files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, src_dir).encode())
        with open(path, "rb") as fp:
            h.update(fp.read())
    return h.hexdigest()


def environment(root: str, src_dir: str, threads: int, blas_config: str, **extra) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(src_dir),
        **extra,
    }
