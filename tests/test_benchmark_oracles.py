"""The benchmark's oracle files agree with the program.

`perfbench/golden/` holds the answers the benchmark checks every run
against.  Only a benchmark change may re-record them, so a change to the
program that would make them read as wrong (a new JSON schema, a changed
table row) must fail here first.  These tests read that directory and never
write it.
"""

import csv
import io
import json
from pathlib import Path

import pytest

from conftest import use_kernels

from toricdim import _kernels_py
from toricdim.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH_GOLDEN = ROOT / "perfbench" / "golden"
GOLDEN = ROOT / "tests" / "golden"

# benchmark oracle file -> the golden report of the same query
COPIES = {
    "veronese.csv": "verify-table-veronese.csv",
    "binary.csv": "verify-table-binary.csv",
    "experiments.csv": "verify-table-experiments.csv",
    "hrank-segre-1111-r2.json": "generic-hrank-s1111-r2.json",
}


def _run(impl, argv, capsys, monkeypatch) -> str:
    use_kernels(impl, monkeypatch)
    assert main(argv.split()) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("oracle, golden", COPIES.items(), ids=list(COPIES))
def test_oracle_equals_the_golden_report(oracle, golden):
    assert (BENCH_GOLDEN / oracle).read_bytes() == (GOLDEN / golden).read_bytes()


HRANK = {
    "hrank-segre-11111-r2.json": "generic-hrank segre:n=1,1,1,1,1 --r 2",
    "hrank-veronese-d2n6-r2.json": "generic-hrank veronese:d=2,n=6 --r 2",
}


@pytest.mark.parametrize("oracle, argv", HRANK.items(), ids=list(HRANK))
def test_generic_hrank_equals_its_oracle(oracle, argv, capsys, monkeypatch):
    out = _run(_kernels_py, argv, capsys, monkeypatch)
    assert json.loads(out) == json.loads((BENCH_GOLDEN / oracle).read_text())


def _check_extended_sweep(impl, capsys, monkeypatch):
    out = _run(impl, "verify-table experiments --extended", capsys, monkeypatch)
    rows = list(csv.reader(io.StringIO(out)))
    want = list(csv.reader(io.StringIO((BENCH_GOLDEN / "experiments-extended.csv").read_text())))
    assert len(rows) == len(want) == 537
    for i, (row, golden) in enumerate(zip(rows, want)):
        assert row == golden, f"row {i}"


def test_extended_sweep_equals_its_oracle(fast, capsys, monkeypatch):
    _check_extended_sweep(fast, capsys, monkeypatch)


def test_extended_sweep_equals_its_oracle_on_the_pure_kernels(capsys, monkeypatch):
    # The sweep settles products by containment, so which products it
    # probes depends on the answers before them: check that on both backends.
    _check_extended_sweep(_kernels_py, capsys, monkeypatch)


@pytest.mark.parametrize("seed", [7, 2**64 - 1])
@pytest.mark.parametrize("table", ["veronese", "binary", "experiments"])
def test_tables_equal_their_oracles_at_other_seeds_on_the_pure_kernels(
    table, seed, capsys, monkeypatch
):
    # The benchmark runs the stored tables on the pure kernels at a new seed
    # every pass, and checks each against the same oracle; the golden
    # reports above pin seed 0 only.
    out = _run(_kernels_py, f"verify-table {table} --seed {seed}", capsys, monkeypatch)
    assert out == (BENCH_GOLDEN / f"{table}.csv").read_text()
