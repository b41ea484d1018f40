import importlib.util
import os
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from toricdim import RunConfig, kernels, secantdim, segre_veronese
from toricdim.cli import parse_descriptor
from toricdim.tables import run_table

KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "toricdim" / "_fastkernels.c"
# The entry points of the compiled kernel, all of which `use_kernels` swaps;
# test_kernels_parity fails when the compiled module has another one.
KERNEL_NAMES = ("rank_mod", "torus_points_mod", "hadamard_ranks_mod")

_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def rational_normal_curve(degree: int):
    """Degree-d rational normal curve in P^d (the n=1 Veronese)."""
    return segre_veronese((degree,), (1,))


def matrix_copy(text: str, tmp_path) -> str:
    """The `matrix:` descriptor of the exponent matrix of descriptor `text`,
    written under `tmp_path`: the same variety, with the same draws and
    ranks, but one that no classification theorem names, so its secant
    probes keep the parameter count as their target."""
    path = tmp_path / (text.replace(":", "-").replace(";", "-") + ".csv")
    rows = parse_descriptor(text).matrix().entries
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
    return f"matrix:{path}"


def use_kernels(impl, monkeypatch) -> None:
    """Route every kernel entry point (`KERNEL_NAMES`) through `impl`, the
    pure `_kernels_py` or a compiled module, for the rest of the test, and
    forget the secant reports, which are memoised per config and not per
    backend."""
    for name in KERNEL_NAMES:
        monkeypatch.setattr(kernels, name, getattr(impl, name))
    secantdim._secant_dimension_cached.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def config():
    return RunConfig(seed=0)


@pytest.fixture(scope="session")
def table_rows(config):
    """`run_table(name, config)`, each stored table run once per session:
    the acceptance and the table tests check the same rows."""
    rows = {}

    def get(name):
        if name not in rows:
            rows[name] = run_table(name, config)
        return rows[name]

    return get


def _build_kernels(tmp_path_factory, flags):
    """`_fastkernels.c` compiled with `flags` into a temporary directory and
    loaded; skips without `cc`, RuntimeError with the compiler's messages
    when the build fails."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) to build the compiled kernels")
    so = tmp_path_factory.mktemp("fastkernels") / (
        "_fastkernels" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    include = sysconfig.get_paths()["include"]
    cmd = ["cc", *flags, "-shared", "-fPIC", f"-I{include}", str(KERNEL_SOURCE), "-o", str(so)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr}")
    spec = importlib.util.spec_from_file_location("toricdim._fastkernels", so)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def fast(tmp_path_factory):
    """The compiled kernels, built whatever backend `toricdim.kernels` picked,
    where any compiler warning fails the build.  TORICDIM_FAST_CFLAGS
    replaces the flags: CI's AddressSanitizer job instruments them so."""
    flags = os.environ.get("TORICDIM_FAST_CFLAGS", "-O3 -Wall -Wextra -Werror")
    return _build_kernels(tmp_path_factory, flags.split())


@pytest.fixture(scope="session")
def fast_ubsan(tmp_path_factory):
    """The compiled kernels under the undefined-behaviour sanitizer: any
    signed overflow, out-of-range shift or misaligned access ends the whole
    test run with exit status 1 (`pytest -s` shows the sanitizer's report).
    Skips when `cc` cannot build that; the warnings are `fast`'s to check."""
    try:
        return _build_kernels(
            tmp_path_factory, ["-O1", "-fsanitize=undefined", "-fno-sanitize-recover=all"]
        )
    except RuntimeError as exc:
        pytest.skip(f"no undefined-behaviour sanitizer build: {exc}")
