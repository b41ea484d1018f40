"""Start-up stays lean: the CLI loads neither `dataclasses` nor the
Newton-polytope module, which only `binomial-check` runs, and `import
toricdim` loads no submodule until a name is used."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_after(statement: str) -> set:
    """The modules loaded in a fresh interpreter after `statement`."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    return set(done.stdout.split())


def test_cli_loads_neither_dataclasses_nor_tropical():
    added = _modules_after("import toricdim.cli") - _modules_after("pass")
    assert "toricdim.cli" in added
    assert not {"dataclasses", "toricdim.tropical"} & added


def test_package_import_loads_no_submodule():
    loaded = _modules_after("import toricdim")
    assert "toricdim" in loaded
    assert not {name for name in loaded if name.startswith("toricdim.")}
