"""Build, cache and select the compiled event kernel.

The simulator has two kernels with one contract:

- the **pure-Python reference kernel**, written out in full in
  :mod:`repro.sim.engine` and :mod:`repro.sim.process`; and
- the **compiled kernel**, ``_kernel.c`` next to this file, written
  against the plain CPython API.  It holds the schedule push, the
  dispatch loop, the ``timeout``/``defer`` factories and the process
  resume, and :mod:`repro.sim.engine` installs it on
  :class:`~repro.sim.engine.Simulator`.

Both pop events in the total order of unique ``(when, priority, key)``
tuples, so they replay a run bit for bit.

Building
--------
On first import :func:`load` compiles ``_kernel.c`` with the
interpreter's own ``sysconfig`` settings (``CC``, ``CCSHARED``,
``LDSHARED`` and the include directory; a ``CC`` environment variable
overrides the compiler, as it does for setuptools).  The result is
cached under a name keyed by SHA-256 of the source plus the
interpreter's extension suffix:

1. ``_kernel_build/`` next to this file, when the package is writable;
2. otherwise ``$XDG_CACHE_HOME/repro/kernel`` (``~/.cache/...``).

A build runs under a file lock and lands by atomic rename, so
concurrent first imports compile once.  Each build embeds its source
hash, and a cached file that does not carry the current hash is
rebuilt, never loaded.

Selection
---------
``REPRO_KERNEL=python`` selects the reference kernel.  So do a failed
build or load, a Python older than 3.10 (the kernel needs
``PyIter_Send``) and a non-CPython interpreter.  :func:`load` never
raises: it returns a :class:`KernelChoice` carrying the reason.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

#: Environment variable selecting the kernel: ``python`` forces the
#: reference kernel; unset (or ``c``) uses the compiled one when it
#: builds.
KERNEL_ENV = "REPRO_KERNEL"

#: The compiled kernel's source, shipped as package data.
SOURCE = Path(__file__).with_name("_kernel.c")

#: Import name of the compiled module (its init function is
#: ``PyInit__kernel``).
MODULE_NAME = "repro.sim._kernel"

#: Prefix of the source hash each build embeds (see ``_kernel.c``).
_MARKER = b"repro-kernel-source-sha256:"

#: Seconds a compile or link step may take before it counts as failed.
_BUILD_TIMEOUT_S = 300


class KernelBuildError(RuntimeError):
    """Compiling or linking the kernel failed; the message says why."""


@dataclass(frozen=True)
class KernelChoice:
    """The kernel a process runs, and why."""

    #: ``"c"`` (compiled) or ``"python"`` (reference).
    name: str
    #: Where the compiled kernel came from, or why it was not used.
    reason: str
    #: The loaded extension module (compiled kernel only).
    module: Optional[ModuleType] = None

    @property
    def compiled(self) -> bool:
        """True when the compiled kernel was loaded."""
        return self.module is not None

    def __str__(self) -> str:
        return f"{self.name} ({self.reason})"


def reference(reason: str) -> KernelChoice:
    """A choice of the pure-Python reference kernel, for *reason*."""
    return KernelChoice("python", reason)


def cache_dirs() -> List[Path]:
    """Build cache directories, in the order they are tried."""
    user = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return [Path(__file__).resolve().parent / "_kernel_build",
            Path(user) / "repro" / "kernel"]


def source_digest(source: bytes) -> str:
    """SHA-256 hex digest of the kernel source."""
    return hashlib.sha256(source).hexdigest()


#: This interpreter's extension-module suffix (sysconfig's EXT_SUFFIX).
_EXT_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]


def artifact_name(digest: str) -> str:
    """Cache file name of the build of the source with *digest*."""
    return f"_kernel-{digest[:16]}{_EXT_SUFFIX}"


def _carries(path: Path, digest: str) -> bool:
    """True when *path* is a build of the source with *digest*."""
    try:
        return _MARKER + digest.encode("ascii") in path.read_bytes()
    except OSError:
        return False


# The build-only modules below (shlex, subprocess, sysconfig, tempfile)
# are imported where they are used: a cached kernel loads without them,
# which keeps them out of every process's import time and memory.


def _toolchain(env: Mapping[str, str]) -> Tuple[List[str], List[str]]:
    """``(cc, ldshared)`` command lines from sysconfig and ``$CC``."""
    import shlex
    import sysconfig
    cc = sysconfig.get_config_var("CC")
    ldshared = sysconfig.get_config_var("LDSHARED")
    if not cc or not ldshared:
        raise KernelBuildError("sysconfig names no C compiler")
    if env.get("CC"):
        # Like setuptools: the override also replaces the linker driver.
        ldshared = ldshared.replace(cc, env["CC"], 1)
        cc = env["CC"]
    return shlex.split(cc), shlex.split(ldshared)


def _run(argv: Sequence[str]) -> None:
    import subprocess
    try:
        subprocess.run(argv, check=True, capture_output=True, text=True,
                       timeout=_BUILD_TIMEOUT_S)
    except FileNotFoundError as exc:
        raise KernelBuildError(f"compiler not found: {argv[0]}") from exc
    except OSError as exc:
        raise KernelBuildError(
            f"cannot run {argv[0]}: {exc.strerror or exc}") from exc
    except subprocess.CalledProcessError as exc:
        tail = (exc.stderr or exc.stdout or "").strip().splitlines()[-3:]
        raise KernelBuildError(
            f"{Path(argv[0]).name} exited {exc.returncode}: "
            + " | ".join(tail)) from exc
    except subprocess.TimeoutExpired as exc:
        raise KernelBuildError(
            f"{Path(argv[0]).name} timed out after {exc.timeout} s") from exc


def compile_kernel(source: Path, out: Path, digest: str,
                   env: Mapping[str, str]) -> None:
    """Compile *source* into the extension module *out*.

    Builds in a private temporary directory next to *out* and renames
    the result into place, so readers never see a partial file.
    """
    import shlex
    import sysconfig
    import tempfile
    cc, ldshared = _toolchain(env)
    include = sysconfig.get_paths()["include"]
    ccshared = shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    with tempfile.TemporaryDirectory(dir=out.parent,
                                     prefix=".build-") as tmp:
        obj = Path(tmp) / "_kernel.o"
        lib = Path(tmp) / out.name
        _run([*cc, *ccshared, "-O2", "-DNDEBUG", f"-I{include}",
              f'-DREPRO_KERNEL_SHA256="{digest}"',
              "-c", str(source), "-o", str(obj)])
        _run([*ldshared, str(obj), "-o", str(lib)])
        os.replace(lib, out)


@contextmanager
def _locked(path: Path) -> Iterator[None]:
    """Hold an exclusive lock on *path* (a no-op without ``fcntl``)."""
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX hosts
        yield
        return
    with open(path, "a") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def ensure_built(source: Path, directory: Path,
                 env: Mapping[str, str]) -> Tuple[Path, bool]:
    """``(path, built)``: the cached build of *source* in *directory*.

    Compiles when no cached file carries the source's hash; *built*
    says whether this call compiled.  Raises :class:`OSError` when the
    directory is not writable and :class:`KernelBuildError` when the
    compiler fails.
    """
    digest = source_digest(source.read_bytes())
    out = directory / artifact_name(digest)
    if _carries(out, digest):
        return out, False
    directory.mkdir(parents=True, exist_ok=True)
    with _locked(directory / (out.name + ".lock")):
        if _carries(out, digest):  # another process built it meanwhile
            return out, False
        compile_kernel(source, out, digest, env)
        _prune(directory, keep=out)
    if not _carries(out, digest):
        raise KernelBuildError(f"{out} lacks the source hash after a build")
    return out, True


def _prune(directory: Path, keep: Path) -> None:
    """Remove this interpreter's builds of other sources from *directory*."""
    for old in directory.glob(f"_kernel-*{_EXT_SUFFIX}"):
        if old != keep:
            for path in (old, old.with_name(old.name + ".lock")):
                try:
                    path.unlink()
                except OSError:
                    pass  # in use elsewhere or already gone


def import_kernel(path: Path) -> ModuleType:
    """Load the extension module at *path* (not entered in sys.modules)."""
    spec = importlib.util.spec_from_file_location(MODULE_NAME, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def python_requested(env: Optional[Mapping[str, str]] = None) -> bool:
    """True when ``REPRO_KERNEL`` asks for the reference kernel."""
    if env is None:
        env = os.environ
    return env.get(KERNEL_ENV, "").strip().lower() == "python"


def load(env: Optional[Mapping[str, str]] = None,
         source: Path = SOURCE,
         dirs: Optional[Sequence[Path]] = None) -> KernelChoice:
    """Choose the kernel for this process; never raises.

    *env* defaults to ``os.environ`` and *dirs* to :func:`cache_dirs`.
    """
    if env is None:
        env = os.environ
    wanted = env.get(KERNEL_ENV, "").strip().lower()
    if python_requested(env):
        return reference(f"{KERNEL_ENV}=python")
    if wanted not in ("", "c"):
        return reference(f"{KERNEL_ENV}={wanted!r} is neither 'c' nor "
                         "'python'")
    if sys.implementation.name != "cpython":
        return reference(f"{sys.implementation.name} runs no CPython "
                         "extension")
    if sys.version_info < (3, 10):
        return reference("the compiled kernel needs Python >= 3.10 "
                         "(PyIter_Send)")
    if not source.is_file():
        return reference(f"kernel source missing: {source}")
    unwritable = []
    try:
        for directory in (cache_dirs() if dirs is None else dirs):
            try:
                path, built = ensure_built(source, directory, env)
            except OSError as exc:
                unwritable.append(f"{directory}: {exc.strerror or exc}")
                continue
            module = import_kernel(path)
            return KernelChoice(
                "c", f"{'built' if built else 'cached'} at {path}", module)
    except KernelBuildError as exc:
        return reference(f"build failed: {exc}")
    except Exception as exc:  # a broken toolchain or loader must not
        return reference(      # stop the simulator from importing
            f"load failed: {type(exc).__name__}: {exc}")
    return reference("no writable build cache: " + "; ".join(unwritable))
