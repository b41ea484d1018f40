"""Table runners behind the `verify-table` command.

Three tables:

  * veronese: every sporadic defective Veronese secant case, decomposed into
    all multi-factor vectors with the same index; each row must reach the
    parameter-count dimension of the corresponding single secant (ambient
    fill except where that bound is below N).
  * binary: the two sporadic defective binary Segre-Veronese cases, same
    row shape.
  * experiments: quadratic Veronese varieties (always defective), pairs of
    factors; each row must reach the chain upper bound computed from the
    true (probed) factor dimensions.  `extended=True` widens the sweep to
    the slower full list: pairs up to n = 15, triples up to n = 12 and
    the defective binary families, each capped one index step past ambient
    saturation.

A row passes when the probed dimension equals its stated target, so a table
is a machine-checked restatement of the claims it encodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .classify import binary_check_table, veronese_check_table
from .config import DEFAULT_CONFIG, RunConfig
from .exponent import HadamardSpec, VarietyDescriptor
from .hadamdim import HadamardDimensionReport, hadamard_dimension
from .secantdim import prefetch_secant_dimensions

EXPERIMENT_GATING_NS = range(2, 7)
EXPERIMENT_GATING_MAX_R = 12
EXTENDED_HARD_CAP = 30


@dataclass(frozen=True)
class TableRow:
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


def _row(table: str, rep: HadamardDimensionReport, target: int) -> TableRow:
    """Row for one Hadamard report, passing when the probed dimension equals
    `target`: the single-secant parameter bound min(N, R(d+1)-1) in the
    veronese and binary tables, the chain upper bound with probed factor
    dims in the experiments table."""
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


def _run_check_table(table: str, cases, config: RunConfig) -> list[TableRow]:
    """The veronese or binary table: one row per (descriptor, r-vector)
    case, passing when the probed dimension equals the single-secant
    parameter bound of the vector's index R."""
    rows = []
    for desc, rvec in cases:
        # The factors of every vector of a case lie in 2..R, R its index.
        spec = HadamardSpec(rvec)
        prefetch_secant_dimensions(desc, range(2, spec.total_points + 1), config)
        rep = hadamard_dimension(desc, spec, config)
        rows.append(_row(table, rep, rep.expected_dim_R))
    return rows


def _tuples_with_index(m: int, big_r: int):
    """Non-decreasing m-tuples (r_1 <= ... <= r_m), r_i >= 2, index big_r,
    in lexicographic order."""
    for rvec in combinations_with_replacement(range(2, big_r + 1), m):
        if sum(rvec) - m + 1 == big_r:
            yield rvec


def _sweep_until_saturated(
    table: str, descriptor: VarietyDescriptor, m: int, config: RunConfig
) -> list[TableRow]:
    """All m-factor rows for one descriptor, stopping one index step after
    every tuple at the current index is expected to fill the ambient space."""
    prefetch_secant_dimensions(descriptor, range(2, EXTENDED_HARD_CAP + 1), config)
    rows = []
    seen_saturated = False
    big_r = m + 1
    while big_r <= EXTENDED_HARD_CAP:
        saturated = True
        for rvec in _tuples_with_index(m, big_r):
            rep = hadamard_dimension(descriptor, rvec, config)
            rows.append(_row(table, rep, rep.expected_dim_hadamard))
            if rep.parameter_count < rep.ambient_dim:
                saturated = False
        if saturated:
            if seen_saturated:
                break
            seen_saturated = True
        big_r += 1
    return rows


def run_experiments_table(
    config: RunConfig = DEFAULT_CONFIG, *, extended: bool = False
) -> list[TableRow]:
    rows = []
    if not extended:
        for n in EXPERIMENT_GATING_NS:
            desc = VarietyDescriptor.veronese(2, n)
            prefetch_secant_dimensions(desc, range(2, EXPERIMENT_GATING_MAX_R + 1), config)
            for r1 in range(2, EXPERIMENT_GATING_MAX_R):
                for r2 in range(r1, EXPERIMENT_GATING_MAX_R):
                    if r1 + r2 - 1 > EXPERIMENT_GATING_MAX_R:
                        break
                    rep = hadamard_dimension(desc, (r1, r2), config)
                    rows.append(_row("experiments", rep, rep.expected_dim_hadamard))
        return rows
    for n in range(2, 16):
        rows.extend(
            _sweep_until_saturated("experiments", VarietyDescriptor.veronese(2, n), 2, config)
        )
    for n in range(2, 13):
        rows.extend(
            _sweep_until_saturated("experiments", VarietyDescriptor.veronese(2, n), 3, config)
        )
    for t in range(1, 7):
        for degrees in ((2, 2 * t), (1, 1, 2 * t)):
            desc = VarietyDescriptor.segre_veronese(degrees, (1,) * len(degrees))
            rows.extend(_sweep_until_saturated("experiments", desc, 2, config))
    return rows


def run_table(
    name: str, config: RunConfig = DEFAULT_CONFIG, *, extended: bool = False
) -> list[TableRow]:
    if name == "veronese":
        cases = [
            (VarietyDescriptor.veronese(d, n), rvec) for d, n, rvec in veronese_check_table()
        ]
        return _run_check_table(name, cases, config)
    if name == "binary":
        cases = [
            (VarietyDescriptor.segre_veronese(degrees, (1,) * len(degrees)), rvec)
            for degrees, rvec in binary_check_table()
        ]
        return _run_check_table(name, cases, config)
    if name == "experiments":
        return run_experiments_table(config, extended=extended)
    raise ValueError(f"unknown table {name!r}")
