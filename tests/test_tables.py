import importlib
import pkgutil
from itertools import combinations_with_replacement

import pytest

import toricdim
from toricdim import VarietyDescriptor, enumerate_check_rvectors, hadamdim, tables
from toricdim.cli import report_dict
from toricdim.config import CACHE_SIZE, RunConfig
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
    calls = []
    original = tables.hadamard_dimension

    def counted(descriptor, r, config, **bounds):
        calls.append(tuple(r))
        return original(descriptor, r, config, **bounds)

    monkeypatch.setattr(tables, "hadamard_dimension", counted)
    rows = _sweep_until_saturated("experiments", VarietyDescriptor.veronese(2, 3), 2, CFG)
    assert len(rows) > 1
    assert calls == [row.r for row in rows]


def test_cases_bound_each_product_by_the_products_it_contains(monkeypatch):
    # v2(P^6): sigma_2 * sigma_4 fills P^27 while sigma_6 falls short, so it
    # settles sigma_2 * sigma_5, written (5, 2) as the veronese table writes
    # its vectors and so found only re-sorted.  It is no bound on
    # sigma_2 * sigma_3 (dim 23), which it contains and which must be probed.
    probes = []
    original = hadamdim.probe_max_rank

    def counted(*args, **kwargs):
        probes.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hadamdim, "probe_max_rank", counted)
    desc = VarietyDescriptor.veronese(2, 6)
    cases = [(desc, (4, 2)), (desc, (5, 2)), (desc, (3, 2))]
    rows = _run_cases("experiments", cases, "expected_dim_hadamard", CFG)
    assert [row.computed_dim for row in rows] == [27, 27, 23]
    assert all(row.passed for row in rows)
    assert len(probes) == 2


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
    # Long sweeps must not grow memory without bound: every lru_cache in the
    # package keeps at most config.CACHE_SIZE entries.  The package memoises
    # exactly these two functions, the ones a sweep reuses; a new cache
    # must be added here.
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
    assert set(cached) == {
        "toricdim.exponent._descriptor_matrix",
        "toricdim.secantdim._secant_dimension_cached",
    }
    assert all(size == CACHE_SIZE for size in cached.values()), cached
