"""CLI reports pinned byte for byte.

Stdout and exit code of each report command in each format, recorded from
the compiled backend and compared on the pure and on the compiled one.  Every
field of every report goes through the one codec (`cli.report_dict`), so a
change to a report type or to the codec that alters a single byte fails
here.  The inputs of the `matrix:` and `binomial-check` queries live next
to the recorded reports, and the queries run from that directory so that
the descriptor label is the same everywhere.
"""

from pathlib import Path

import pytest

from conftest import use_kernels

from toricdim import _kernels_py
from toricdim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# (arguments, exit code, file holding the expected stdout)
CASES = [
    ("dim-secant veronese:d=4,n=2 --r 5", 0, "dim-secant-v4-2-r5.json"),
    ("dim-secant veronese:d=4,n=2 --r 5 --format csv", 0, "dim-secant-v4-2-r5.csv"),
    ("dim-secant veronese:d=4,n=2 --r 5 --format text", 0, "dim-secant-v4-2-r5.txt"),
    ("dim-secant matrix:rnc3.csv --r 2", 0, "dim-secant-matrix-r2.json"),
    ("dim-secant rnc:8 --r 0", 2, "dim-secant-r0.txt"),
    ("dim-hadamard veronese:d=4,n=2 --r 2,2,2,2", 0, "dim-hadamard-v4-2-r2222.json"),
    ("dim-hadamard veronese:d=4,n=2 --r 2,2,2,2 --format csv", 0, "dim-hadamard-v4-2-r2222.csv"),
    ("dim-hadamard veronese:d=4,n=2 --r 2,2,2,2 --format text", 0, "dim-hadamard-v4-2-r2222.txt"),
    # Verdicts whose factor dimensions are defective quadratic Veronese
    # secants, which the theorem bound certifies.
    ("dim-hadamard veronese:d=2,n=4 --r 2,2", 0, "dim-hadamard-v2-4-r22.json"),
    ("generic-hrank veronese:d=2,n=6 --r 2", 0, "generic-hrank-v2-6-r2.json"),
    ("generic-hrank segre:n=1,1,1,1 --r 2", 0, "generic-hrank-s1111-r2.json"),
    ("generic-hrank segre:n=1,1,1,1 --r 2 --format csv", 0, "generic-hrank-s1111-r2.csv"),
    ("generic-hrank segre:n=1,1,1,1 --r 2 --format text", 0, "generic-hrank-s1111-r2.txt"),
    ("generic-hrank rnc:8 --r 1", 0, "generic-hrank-rnc8-r1.json"),
    ("generic-hrank rnc:8 --r 1 --format csv", 0, "generic-hrank-rnc8-r1.csv"),
    ("generic-hrank rnc:8 --r 1 --format text", 0, "generic-hrank-rnc8-r1.txt"),
    ("generic-hrank veronese:d=1,n=2 --r 1", 0, "generic-hrank-v1-2-r1.json"),
    ("verify-table veronese", 0, "verify-table-veronese.csv"),
    ("verify-table binary", 0, "verify-table-binary.csv"),
    ("verify-table binary --format json", 0, "verify-table-binary.json"),
    ("verify-table binary --format text", 0, "verify-table-binary.txt"),
    ("verify-table experiments", 0, "verify-table-experiments.csv"),
    ("verify-table experiments --format json", 0, "verify-table-experiments.json"),
    ("verify-table experiments --format text", 0, "verify-table-experiments.txt"),
    ("degeneration-demo", 0, "degeneration-demo.txt"),
    ("degeneration-demo --format json", 0, "degeneration-demo.json"),
    ("degeneration-demo --format csv", 2, "degeneration-demo-csv.txt"),
    ("degeneration-demo --r 2,2", 0, "degeneration-demo-r22.txt"),
    ("degeneration-demo --r 2,2 --format json", 0, "degeneration-demo-r22.json"),
    ("degeneration-demo --descriptor veronese:d=4,n=2 --format json", 0,
     "degeneration-demo-v4-2.json"),
    ("binomial-check support-conic.txt", 1, "binomial-check-three.txt"),
    ("binomial-check support-conic.txt --format json", 1, "binomial-check-three.json"),
    ("binomial-check support-binomial.txt", 0, "binomial-check-two.txt"),
]


def _check_report(impl, argv, code, name, capsys, monkeypatch):
    use_kernels(impl, monkeypatch)
    monkeypatch.chdir(GOLDEN)
    assert main(argv.split()) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("argv, code, name", CASES, ids=[name for *_, name in CASES])
def test_report_bytes(argv, code, name, capsys, monkeypatch):
    _check_report(_kernels_py, argv, code, name, capsys, monkeypatch)


@pytest.mark.parametrize("argv, code, name", CASES, ids=[name for *_, name in CASES])
def test_report_bytes_compiled(argv, code, name, fast, capsys, monkeypatch):
    _check_report(fast, argv, code, name, capsys, monkeypatch)
