"""Build the package the benchmark imports, from the checkout's own source.

The package is copied from `src/toricdim` into `perfbench/_build/<key>/`,
and every C file in `src/toricdim` is compiled with `cc` against the Python
headers into an extension module named after the file (`_fastkernels.c`
gives `toricdim._fastkernels`).  Nothing is written into `src/`.  The key
hashes the sources and the interpreter, so a build is reused until one of
them changes.  Compile time is measured by `compile_seconds`, apart from
set-up.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

BUILD_ROOT = Path("perfbench") / "_build"
SOURCE = Path("src") / "toricdim"
COMPILE_TIMEOUT_S = 600


class BuildError(RuntimeError):
    """The package source is missing or the compiled backend failed to build."""


def _sources(root: Path) -> list[Path]:
    src = root / SOURCE
    if not (src / "__init__.py").is_file():
        raise BuildError(f"no package source at {src}")
    return sorted(p for p in src.iterdir() if p.suffix in (".py", ".c"))


def source_hash(root: Path) -> str:
    """Hash of the package source and the interpreter the build targets."""
    h = hashlib.sha256(sys.version.encode())
    for path in _sources(root):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _build_into(root: Path, dest: Path) -> float:
    """Copy the package into dest/toricdim and compile its C files there;
    returns the seconds spent compiling."""
    pkg = dest / "toricdim"
    pkg.mkdir(parents=True)
    include = sysconfig.get_paths()["include"]
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    seconds = 0.0
    for path in _sources(root):
        if path.suffix == ".py":
            shutil.copy2(path, pkg / path.name)
            continue
        cmd = ["cc", "-O3", "-shared", "-fPIC", f"-I{include}", str(path),
               "-o", str(pkg / (path.stem + suffix))]
        t0 = time.perf_counter()
        try:
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=COMPILE_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise BuildError(f"compiling {path.name}: {exc}") from exc
        seconds += time.perf_counter() - t0
        if done.returncode != 0:
            raise BuildError(f"compiling {path.name} failed:\n{done.stderr[-2000:]}")
    return seconds


def _scratch(root: Path, tag: str) -> Path:
    tmp = root / BUILD_ROOT / f"{tag}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    return tmp


def ensure_build(root: Path) -> Path:
    """Return the directory to put on PYTHONPATH, building it if needed."""
    target = root / BUILD_ROOT / source_hash(root)
    if target.is_dir():
        return target
    tmp = _scratch(root, target.name)
    try:
        _build_into(root, tmp)
        os.rename(tmp, target)
    except OSError:
        if not target.is_dir():
            raise
    finally:  # leftovers of a failed build, or of a race another run won
        shutil.rmtree(tmp, ignore_errors=True)
    return target


def compile_seconds(root: Path) -> float:
    """Compile the C sources afresh into a scratch directory and time it."""
    tmp = _scratch(root, "timing")
    try:
        return _build_into(root, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
