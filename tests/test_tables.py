import csv
import importlib
import pkgutil
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import oracles
import toricdim
from conftest import use_kernels
from toricdim import (
    VarietyDescriptor,
    _kernels_py,
    enumerate_check_rvectors,
    hadamdim,
    kernels,
    probing,
    secantdim,
    tables,
)
from toricdim.cli import main, parse_descriptor, report_dict
from toricdim.config import RunConfig
from toricdim.exponent import CACHE_SIZE
from toricdim.modlinalg import WORD_PRIME
from toricdim.tables import _run_cases, _sweep_until_saturated, _tuples_with_index, run_table

CFG = RunConfig(seed=0)


def _brute_force_tuples(m, big_r):
    """Every non-decreasing m-tuple over 2..big_r, kept when its index is big_r."""
    return [
        rvec for rvec in combinations_with_replacement(range(2, big_r + 1), m)
        if sum(rvec) - m + 1 == big_r
    ]


def test_tuples_with_index_enumeration():
    # index sum(r_i - 1) + 1 fixed at 7, two factors
    assert list(_tuples_with_index(2, 7)) == [(2, 6), (3, 5), (4, 4)]
    assert list(_tuples_with_index(3, 5)) == [(2, 2, 3)]
    for m, big_r in ((2, 9), (3, 8)):
        for t in _tuples_with_index(m, big_r):
            assert len(t) == m
            assert all(r >= 2 for r in t)
            assert tuple(sorted(t)) == t
            assert sum(r - 1 for r in t) + 1 == big_r
    # the recursion against the filter over every multiset, empty cases too
    for m in range(1, 5):
        for big_r in range(1, 21):
            assert list(_tuples_with_index(m, big_r)) == _brute_force_tuples(m, big_r)
    for big_r in range(3, 13):
        want = sorted(
            rvec[::-1] for m in range(2, big_r) for rvec in _brute_force_tuples(m, big_r)
        )
        assert enumerate_check_rvectors(big_r) == want


def test_veronese_table_all_rows_pass(table_rows):
    rows = table_rows("veronese")
    assert len(rows) == 135
    assert all(row.passed for row in rows)
    assert {row.descriptor for row in rows} == {
        "veronese:d=3,n=4",
        "veronese:d=4,n=2",
        "veronese:d=4,n=3",
        "veronese:d=4,n=4",
    }
    # target is the single-secant parameter bound, here always = N
    for row in rows:
        assert row.expected_dim == row.ambient_dim
        assert row.computed_dim == row.ambient_dim


def test_binary_table_all_rows_pass(table_rows):
    rows = table_rows("binary")
    assert len(rows) == 11
    assert all(row.passed for row in rows)
    assert rows[-1].descriptor == "sv:d=1,1,1,1;n=1,1,1,1"
    assert rows[-1].r == (2, 2)
    assert rows[-1].computed_dim == 14
    assert all(row.descriptor == "sv:d=2,2,2;n=1,1,1" for row in rows[:-1])
    assert all(row.computed_dim == 26 for row in rows[:-1])


def test_experiments_table_gating_subset(table_rows):
    rows = table_rows("experiments")
    assert len(rows) == 150
    assert all(row.passed for row in rows)
    assert all(len(row.r) == 2 for row in rows)
    assert all(row.r[0] <= row.r[1] for row in rows)
    assert all(row.R <= 12 for row in rows)
    descs = {row.descriptor for row in rows}
    assert descs == {f"veronese:d=2,n={n}" for n in range(2, 7)}


def test_table_rows_serialize_with_frozen_columns(table_rows):
    row = table_rows("binary")[0]
    d = report_dict(row)
    assert tuple(d.keys()) == (
        "table",
        "descriptor",
        "r",
        "R",
        "ambient_dim",
        "expected_dim",
        "computed_dim",
        "status",
        "pass",
    )
    assert d["pass"] is True
    assert d["table"] == "binary"


def test_sweep_probes_each_row_once(monkeypatch):
    # One batch per descriptor, holding its m = 2 and m = 3 sweeps, each in
    # index order, and each row asked for once.
    batches = []
    original = tables.hadamard_dimensions

    def counted(descriptor, rs, config):
        batches.append((str(descriptor), [tuple(r) for r in rs]))
        return original(descriptor, rs, config)

    monkeypatch.setattr(tables, "hadamard_dimensions", counted)
    rows = run_table("experiments", CFG, extended=True)
    descriptors = [desc for desc, _ in batches]
    assert len(descriptors) == len(set(descriptors)) == 26
    asked = {desc: iter(rs) for desc, rs in batches}
    assert all(next(asked[row.descriptor]) == row.r for row in rows)
    assert sum(len(rs) for _, rs in batches) == len(rows)
    for desc, rs in batches:
        for m in (2, 3):
            indices = [sum(r) - m + 1 for r in rs if len(r) == m]
            assert indices == sorted(indices), desc
            assert sorted(set(indices)) == list(range(m + 1, m + 1 + len(set(indices)))), desc
    assert _sweep_until_saturated(VarietyDescriptor.veronese(2, 3), 2) == [
        r for desc, rs in batches if desc == "veronese:d=2,n=3" for r in rs if len(r) == 2
    ]


def _golden_extended() -> list[str]:
    return (Path(__file__).resolve().parents[1] / "perfbench" / "golden"
            / "experiments-extended.csv").read_text().splitlines(keepends=True)


def test_the_extended_cases_are_fixed_before_any_probe(monkeypatch):
    # The sweep's extent comes from the factors' theorem dimensions alone:
    # with every walk and probe refused it lists the 536 cases of the
    # stored extended table, in order.
    def refused(*args):
        raise AssertionError("the extended sweep probed before it was fixed")

    monkeypatch.setattr(kernels, "hadamard_ranks_mod", refused)
    for module in (probing, secantdim, hadamdim):
        monkeypatch.setattr(module, "probe_hadamard_ranks", refused)
    rows = list(csv.DictReader(_golden_extended()))
    assert len(rows) == 536
    assert [(str(desc), ",".join(map(str, r))) for desc, r in tables._extended_cases()] == [
        (row["descriptor"], row["r"]) for row in rows
    ]


@pytest.mark.parametrize("prime", ["65537", "4294967311"])
def test_the_extended_table_does_not_depend_on_the_prime(prime, capsys):
    assert main(["verify-table", "experiments", "--extended", "--format", "csv",
                 "--prime", prime]) == 0
    assert capsys.readouterr().out == "".join(_golden_extended())


def test_cases_bound_each_product_by_the_products_it_contains(monkeypatch):
    # v2(P^6): sigma_2 * sigma_4 fills P^27 while sigma_6 falls short, so it
    # settles sigma_2 * sigma_5, written (5, 2) as the veronese table writes
    # its vectors and so found only re-sorted.  It is no bound on
    # sigma_2 * sigma_3 (dim 23), which it contains and which must be probed.
    probes = []
    original = hadamdim.probe_hadamard_ranks

    def counted(eta_at, mat, batch, config):
        probes.extend(spec.r for spec, _ in batch)
        return original(eta_at, mat, batch, config)

    monkeypatch.setattr(hadamdim, "probe_hadamard_ranks", counted)
    desc = VarietyDescriptor.veronese(2, 6)
    cases = [(desc, (4, 2)), (desc, (5, 2)), (desc, (3, 2))]
    rows = _run_cases("experiments", cases, "expected_dim_hadamard", CFG)
    assert [row.computed_dim for row in rows] == [27, 27, 23]
    assert all(row.passed for row in rows)
    assert probes == [(4, 2), (3, 2)]


def test_unknown_table_rejected():
    with pytest.raises(ValueError, match="unknown table"):
        run_table("nonsense", CFG)
    with pytest.raises(ValueError, match="unknown table"):
        run_table("nonsense", CFG, extended=True)
    # only the experiments table has an extended form
    for name in ("veronese", "binary"):
        with pytest.raises(ValueError, match="--extended applies only to the experiments"):
            run_table(name, CFG, extended=True)


def test_memoised_functions_are_bounded():
    # Long sweeps must not grow memory without bound: the matrix cache keeps
    # at most exponent.CACHE_SIZE entries, and the CLI's parser, built with
    # no arguments, one.  The package memoises exactly these two functions:
    # the matrices a sweep reuses, and the parser; a new cache must be
    # added here.
    modules = [
        importlib.import_module(f"toricdim.{m.name}")
        for m in pkgutil.iter_modules(toricdim.__path__)
    ]
    cached = {
        f"{mod.__name__}.{name}": fn.cache_parameters()["maxsize"]
        for mod in modules
        for name, fn in vars(mod).items()
        if hasattr(fn, "cache_parameters") and fn.__module__ == mod.__name__
    }
    assert cached == {
        "toricdim.exponent._descriptor_matrix": CACHE_SIZE,
        "toricdim.cli._build_parser": 1,
    }


# --- one batch per descriptor against the table runners index by index -------


def _reports_of(run, monkeypatch) -> dict:
    """The Hadamard reports that `run()` asks `tables` for, per descriptor,
    in the order of each batch."""
    reports = {}
    original = tables.hadamard_dimensions

    def kept(descriptor, rs, config):
        batch = original(descriptor, rs, config)
        reports.setdefault(str(descriptor), []).extend(batch)
        return batch

    monkeypatch.setattr(tables, "hadamard_dimensions", kept)
    run()
    monkeypatch.setattr(tables, "hadamard_dimensions", original)
    return reports


def _sweeps(text: str, ms=(2,)) -> list:
    desc = parse_descriptor(text)
    return [(desc, rvec) for m in ms for rvec in _sweep_until_saturated(desc, m)]


def _plant(monkeypatch, r_prime: tuple, delta: int) -> list:
    """Add `delta` to every rank the walk gives the factor list `r_prime`,
    and return the list of the r of the specs of each product probe."""
    walk = kernels.hadamard_ranks_mod

    def planted(rows, r_primes, points, p):
        ranks = walk(rows, r_primes, points, p)
        return [rank + delta * (tuple(rp) == r_prime) if rank is not None else None
                for rp, rank in zip(r_primes, ranks)]

    calls = []
    original = hadamdim.probe_hadamard_ranks

    def counted(eta_at, mat, batch, config):
        calls.append([spec.r for spec, _ in batch])
        return original(eta_at, mat, batch, config)

    monkeypatch.setattr(kernels, "hadamard_ranks_mod", planted)
    monkeypatch.setattr(hadamdim, "probe_hadamard_ranks", counted)
    return calls


# The sweeps of `verify-table experiments --extended`: (descriptor, m).
_EXTENDED_SWEEPS = (
    [(VarietyDescriptor.veronese(2, n), 2) for n in range(2, 16)]
    + [(VarietyDescriptor.veronese(2, n), 3) for n in range(2, 13)]
    + [(VarietyDescriptor.segre_veronese(degrees, (1,) * len(degrees)), 2)
       for t in range(1, 7) for degrees in ((2, 2 * t), (1, 1, 2 * t))]
)


def test_every_table_report_equals_the_runner_index_by_index(monkeypatch):
    # Every field of every report, in the order of each descriptor's batch:
    # the extended sweep, v2(P^3), v2(P^6) and sv:d=2,4;n=1,1 among it, and
    # the three stored tables.
    extended = _reports_of(lambda: run_table("experiments", CFG, extended=True), monkeypatch)
    reference = {}
    for desc, m in _EXTENDED_SWEEPS:
        reference.setdefault(str(desc), []).extend(oracles.sequential_sweep(desc, m, CFG))
    assert {"veronese:d=2,n=3", "veronese:d=2,n=6", "sv:d=2,4;n=1,1"} < set(reference)
    assert extended == reference
    for name, (cases, _) in tables._TABLES.items():
        stored = _reports_of(lambda: run_table(name, CFG), monkeypatch)
        assert [rep for reps in stored.values() for rep in reps] == (
            oracles.sequential_cases(cases(), CFG)
        ), name


def test_a_failed_prediction_probes_again_and_equals_the_sweep(monkeypatch):
    # v2(P^6): sigma_2 * sigma_4, probed as r' (3, 1), fills P^27, and the
    # batch predicts so: it settles sigma_2 * sigma_5, whose sigma_6 has
    # dim 26, on that prediction.  With one rank withheld at every draw it
    # reports 26, so sigma_2 * sigma_5 is probed in a second round.
    cases = _sweeps("veronese:d=2,n=6")
    calls = _plant(monkeypatch, (3, 1), -1)
    reports = hadamdim.hadamard_dimensions(cases[0][0], [r for _, r in cases], CFG)
    assert list(reports) == oracles.sequential_cases(cases, CFG)
    inner, rep = (next(rep for rep in reports if rep.r == r) for r in ((2, 4), (2, 5)))
    assert inner.computed_dim == 26 and inner.hadamard_defect_flag
    assert len(calls) == 2 and (4, 2) in calls[0] and calls[1] == [(5, 2)]
    assert rep.attempts > 0 and rep.computed_dim == 27


def test_a_rank_above_its_target_settles_a_walked_product(monkeypatch):
    # v2(P^6): sigma_2 * sigma_3 (r' (2, 1)) has dim 23, short of the 27 of
    # sigma_2 * sigma_4, so the batch probes both.  A rank 4 above its
    # target, as a probe gives whose factor probe fell short, lifts
    # sigma_2 * sigma_3 to 27, and the replay settles sigma_2 * sigma_4 on
    # it, although it was walked.
    cases = _sweeps("veronese:d=2,n=6")
    calls = _plant(monkeypatch, (2, 1), 4)
    reports = hadamdim.hadamard_dimensions(cases[0][0], [r for _, r in cases], CFG)
    assert list(reports) == oracles.sequential_cases(cases, CFG)
    inner, rep = (next(rep for rep in reports if rep.r == r) for r in ((2, 3), (2, 4)))
    assert inner.computed_dim == 27 > inner.expected_dim_hadamard
    assert len(calls) == 1 and (4, 2) in calls[0]
    assert (rep.computed_dim, rep.attempts, rep.prime) == (27, 0, inner.prime)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_the_extended_sweep_walks_once_per_descriptor_draw_and_prime(
    backend, monkeypatch, capsys, request
):
    # At seed 8 every probe reaches its target at its first draw, at
    # WORD_PRIME, so the 237 probed products of the 26 descriptors take one
    # walk per descriptor that probes any (25), and every secant reaches its
    # target or its theorem bound there (26 walks).  The three stored
    # tables walk the same way: 11 secant walks and 10 product walks of 157
    # lists.
    use_kernels(_kernels_py if backend == "python" else request.getfixturevalue("fast"),
                monkeypatch)
    walk = kernels.hadamard_ranks_mod
    walks = {"secant": 0, "product": 0, "product lists": 0}
    primes = set()

    def counted(rows, r_primes, points, p):
        kind = "secant" if all(len(rp) == 1 for rp in r_primes) else "product"
        walks[kind] += 1
        walks["product lists"] += len(r_primes) * (kind == "product")
        primes.add(p)
        return walk(rows, r_primes, points, p)

    monkeypatch.setattr(kernels, "hadamard_ranks_mod", counted)
    assert main(["verify-table", "experiments", "--extended", "--seed", "8"]) == 0
    capsys.readouterr()
    assert walks == {"secant": 26, "product": 25, "product lists": 237}
    assert primes == {WORD_PRIME}
    walks.update(dict.fromkeys(walks, 0))
    primes.clear()
    for table in ("veronese", "binary", "experiments"):
        assert main(["verify-table", table, "--seed", "8"]) == 0
    capsys.readouterr()
    assert walks == {"secant": 11, "product": 10, "product lists": 157}
    assert primes == {WORD_PRIME}
