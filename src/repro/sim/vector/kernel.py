"""Build and load the vector backend's C kernel.

The kernel ships as source (``kernel.c``) and is compiled on first use
with the system C compiler into ``_build/`` next to this module, keyed
by a hash of the source so stale objects are never loaded after an
upgrade.  The build is atomic (compile to a temporary name, then
``os.replace``) so parallel sweep workers racing to build it are safe.

No compiler means no vector backend: :func:`load_kernel` raises
:class:`KernelBuildError`, which ``backend="auto"`` answers by running
on the reference engine and a pinned ``backend="vector"`` lets through.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

_SRC = Path(__file__).with_name("kernel.c")
_BUILD_DIR = Path(__file__).with_name("_build")

_lib: ctypes.CDLL | None = None


class KernelBuildError(RuntimeError):
    """The C kernel could not be compiled or loaded."""


def _find_compiler() -> str:
    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cc and shutil.which(cc):
            return cc
    raise KernelBuildError(
        "no C compiler found (tried $CC, cc, gcc, clang); the vector "
        "backend compiles its kernel on first use — install a compiler "
        "or run with backend='reference'"
    )


def _ensure_built() -> Path:
    source = _SRC.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    target = _BUILD_DIR / f"kernel-{digest}.so"
    if target.exists():
        return target
    cc = _find_compiler()
    _BUILD_DIR.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        suffix=".so", prefix="kernel-", dir=str(_BUILD_DIR)
    )
    os.close(fd)
    cmd = [cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(_SRC)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise KernelBuildError(
                f"kernel compilation failed ({' '.join(cmd)}):\n"
                f"{proc.stderr.strip()}"
            )
        os.replace(tmp, target)  # atomic: racing workers both succeed
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    i32, i64, p = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p
    lib.k_new.argtypes = [ctypes.POINTER(i64), ctypes.POINTER(i32)]
    lib.k_new.restype = p
    lib.k_free.argtypes = [p]
    lib.k_free.restype = None
    lib.k_step.argtypes = [p, i32]
    lib.k_step.restype = i32
    lib.k_longest_blocked.argtypes = [p, i32, i32, i32]
    lib.k_longest_blocked.restype = i32
    lib.k_detach.argtypes = [p, i32]
    lib.k_detach.restype = None
    return lib


def load_kernel() -> ctypes.CDLL:
    """The compiled kernel library (built on first call, then cached)."""
    global _lib
    if _lib is None:
        path = _ensure_built()
        try:
            _lib = _bind(ctypes.CDLL(str(path)))
        except OSError as exc:  # corrupt cache entry: rebuild once
            path.unlink(missing_ok=True)
            try:
                _lib = _bind(ctypes.CDLL(str(_ensure_built())))
            except OSError:
                raise KernelBuildError(
                    f"compiled kernel failed to load: {exc}"
                ) from exc
    return _lib
