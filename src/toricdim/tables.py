"""The stored check tables behind the `verify-table` command.

Three tables:

  * veronese: every sporadic defective Veronese secant case of the
    Alexander-Hirschowitz classification, decomposed into all multi-factor
    vectors with the same index; each row must reach the parameter-count
    dimension of the corresponding single secant (ambient fill except where
    that bound is below N).
  * binary: the two sporadic defective binary Segre-Veronese cases, same
    row shape.
  * experiments: quadratic Veronese varieties (always defective), pairs of
    factors; each row must reach the chain upper bound computed from the
    true (probed) factor dimensions.  `extended=True` widens the sweep to
    the slower full list: pairs up to n = 15, triples up to n = 12 and
    the defective binary families, each capped one index step past ambient
    saturation.

A sporadic case of index R is checked through every factor vector
(r_1 >= ... >= r_m >= 2), m >= 2, with sum(r_k - 1) + 1 = R: these are the
products whose dimension must be checked directly when sigma_R itself is
defective, and there are p(R-1) - 1 of them, one per partition of R - 1
into two or more parts.

A row passes when the probed dimension equals its stated target, so a table
is a machine-checked restatement of the claims it encodes.
"""

from itertools import combinations_with_replacement, groupby
from typing import NamedTuple

from .config import DEFAULT_CONFIG, RunConfig
from .exponent import HadamardSpec, VarietyDescriptor
from .hadamdim import HadamardDimensionReport, hadamard_dimensions
from .secantdim import prefetch_secant_dimensions, secant_dimensions

# Sporadic defective Veronese cases (d, n, r) with d >= 3; for d = 2 the
# defective range is exactly 2 <= r <= n.
AH_SPORADIC = frozenset({(3, 4, 7), (4, 2, 5), (4, 3, 9), (4, 4, 14)})

EXPERIMENT_GATING_NS = range(2, 7)
EXPERIMENT_GATING_MAX_R = 12
EXTENDED_HARD_CAP = 30


class TableRow(NamedTuple):
    """One checked case.  The field order is the frozen CSV column order of
    `verify-table`, with `passed` written as "pass"."""

    table: str
    descriptor: str
    r: tuple[int, ...]
    R: int
    ambient_dim: int
    expected_dim: int
    computed_dim: int
    status: str
    passed: bool


def _tuples_with_index(m: int, big_r: int, low: int = 2):
    """Non-decreasing m-tuples (low <= r_1 <= ... <= r_m), m >= 1, index
    sum(r_i - 1) + 1 = big_r, in lexicographic order."""
    if m == 1:
        if big_r >= low:
            yield (big_r,)
        return
    # The m - 1 entries after `first` are at least `first`, so their index
    # big_r - first + 1 is at least (m - 1)(first - 1) + 1.
    for first in range(low, (big_r - 1) // m + 2):
        for rest in _tuples_with_index(m - 1, big_r - first + 1, first):
            yield (first, *rest)


def enumerate_check_rvectors(R: int) -> list[tuple[int, ...]]:
    """All factor vectors (r_1 >= ... >= r_m >= 2), m >= 2, with
    sum(r_k - 1) + 1 = R, sorted ascending-lexicographically.

    These are the cases whose product dimension must be checked directly
    when sigma_R itself is defective; there are p(R-1) - 1 of them.
    """
    if R < 3:
        raise ValueError("R must be >= 3 (smallest multi-factor case is (2,2))")
    return sorted(rvec[::-1] for m in range(2, R) for rvec in _tuples_with_index(m, R))


def veronese_check_table() -> list[tuple[int, int, tuple[int, ...]]]:
    """(d, n, r-vector) rows covering all sporadic defective Veronese cases."""
    return [
        (d, n, rvec) for d, n, big_r in sorted(AH_SPORADIC)
        for rvec in enumerate_check_rvectors(big_r)
    ]


def binary_check_table() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(degrees, r-vector) rows covering the sporadic defective binary cases.

    The family exceptions (2,2t) and (1,1,2t) are excluded from the closed
    form altogether, so only (2,2,2) with R = 7 and (1,1,1,1) with R = 3
    need direct checks.
    """
    return [((2, 2, 2), rvec) for rvec in enumerate_check_rvectors(7)] + [
        ((1, 1, 1, 1), (2, 2))
    ]


def _binary(degrees: tuple[int, ...]) -> VarietyDescriptor:
    return VarietyDescriptor.segre_veronese(degrees, (1,) * len(degrees))


def _experiment_cases() -> list[tuple[VarietyDescriptor, tuple[int, ...]]]:
    pairs = combinations_with_replacement(range(2, EXPERIMENT_GATING_MAX_R), 2)
    pairs = [r for r in pairs if sum(r) - 1 <= EXPERIMENT_GATING_MAX_R]
    return [(VarietyDescriptor.veronese(2, n), r) for n in EXPERIMENT_GATING_NS for r in pairs]


# table -> (its (descriptor, r-vector) cases, the report field each row must
# equal): the single-secant parameter bound min(N, R(d+1)-1) of the vector's
# index R in the veronese and binary tables, the chain upper bound with
# probed factor dims in the experiments table.
_TABLES = {
    "veronese": (lambda: [(VarietyDescriptor.veronese(d, n), r)
                          for d, n, r in veronese_check_table()], "expected_dim_R"),
    "binary": (lambda: [(_binary(degrees), r) for degrees, r in binary_check_table()],
               "expected_dim_R"),
    "experiments": (_experiment_cases, "expected_dim_hadamard"),
}


def _row(table: str, rep: HadamardDimensionReport, target: int) -> TableRow:
    """Row for one Hadamard report, passing when the probed dimension equals
    `target`."""
    return TableRow(
        table=table,
        descriptor=rep.descriptor,
        r=rep.r,
        R=rep.R,
        ambient_dim=rep.ambient_dim,
        expected_dim=target,
        computed_dim=rep.computed_dim,
        status=rep.status,
        passed=rep.computed_dim == target,
    )


def _run_cases(table: str, cases, target: str, config: RunConfig) -> list[TableRow]:
    """One row per (descriptor, r-vector) case, in order.  The factors and
    the index of a vector lie in 2..R, R its index, so each run of cases on
    one descriptor first fetches the secants 2..(largest R) in one batch,
    then is answered in one `hadamard_dimensions` batch, in which each
    product is bounded by the products before it that it contains."""
    rows = []
    for desc, run in groupby(cases, key=lambda case: case[0]):
        rvecs = [rvec for _, rvec in run]
        top = max(HadamardSpec(rvec).total_points for rvec in rvecs)
        prefetch_secant_dimensions(desc, range(2, top + 1), config)
        rows += [_row(table, rep, getattr(rep, target))
                 for rep in hadamard_dimensions(desc, rvecs, config)]
    return rows


def _sweep_until_saturated(
    descriptor: VarietyDescriptor, m: int, config: RunConfig
) -> list[tuple[int, ...]]:
    """All m-factor vectors for one descriptor, in index order, stopping one
    index step after every tuple at the current index is expected to fill
    the ambient space.

    Every product of index R contains sigma_R, so the sweep is saturated
    by the index where sigma_R fills P^N, and reads one index past that and
    past m + 1.  sigma_R fills at R_0 = ceil((N + 1) / (dim X + 1)) when X
    is nondefective; one batch fetches the secants up to dim X indices
    later, room for a defective X (the quadric Veronese of dimension n
    fills at n + 1).  An index past the batch is probed when asked for,
    with the same report.  The stopping rule reads only the parameter
    counts of the factor secants, and no product probe, so the sweep is
    fixed before any product is answered."""
    mat = descriptor.matrix()
    dim_x = mat.rank() - 1
    fill = -(-(mat.ambient_dim + 1) // (dim_x + 1))
    top = min(max(m + 1, fill + dim_x) + 1, EXTENDED_HARD_CAP)
    prefetch_secant_dimensions(descriptor, range(2, top + 1), config)
    rvecs = []
    seen_saturated = False
    for big_r in range(m + 1, EXTENDED_HARD_CAP + 1):
        same = list(_tuples_with_index(m, big_r))
        rvecs += same
        # The factors of an index-big_r tuple lie in 2..big_r - m + 1.
        dims = [rep.computed_dim for rep in
                secant_dimensions(descriptor, range(2, big_r - m + 2), config)]
        counts = (sum(dims[rk - 2] for rk in rvec) - (m - 1) * dim_x for rvec in same)
        if all(count >= mat.ambient_dim for count in counts):
            if seen_saturated:
                break
            seen_saturated = True
    return rvecs


def run_table(
    name: str, config: RunConfig = DEFAULT_CONFIG, *, extended: bool = False
) -> list[TableRow]:
    if name not in _TABLES:
        raise ValueError(f"unknown table {name!r}")
    if extended and name != "experiments":
        raise ValueError("--extended applies only to the experiments table")
    if not extended:
        cases, target = _TABLES[name]
        return _run_cases(name, cases(), target, config)
    sweeps = [(VarietyDescriptor.veronese(2, n), 2) for n in range(2, 16)]
    sweeps += [(VarietyDescriptor.veronese(2, n), 3) for n in range(2, 13)]
    sweeps += [(_binary(degs), 2) for t in range(1, 7) for degs in ((2, 2 * t), (1, 1, 2 * t))]
    # One batch per descriptor, its sweeps fixed and answered before the
    # next descriptor's, so that no batch walks while the memo already
    # holds the secants of the descriptors after it.
    rows = {}
    for desc in dict.fromkeys(desc for desc, _ in sweeps):
        ms = [m for other, m in sweeps if other == desc]
        cases = [(desc, rvec) for m in ms for rvec in _sweep_until_saturated(desc, m, config)]
        for row in _run_cases(name, cases, "expected_dim_hadamard", config):
            rows.setdefault((desc, len(row.r)), []).append(row)
    return [row for sweep in sweeps for row in rows[sweep]]
