"""Integer exponent matrices of projective monomial embeddings.

A monomial embedding of a torus into P^N is recorded as an integer matrix
with one row per parameter coordinate and one column per ambient coordinate;
column h is the exponent vector of the h-th monomial.  This module provides

  * the matrix container (`ExponentMatrix`) plus CSV import,
  * builders for the Segre-Veronese family,
  * `normalize`, which rewrites any matrix whose rational row span contains
    the all-ones vector into the chart form (all-ones first row, first
    column (1, 0, ..., 0)),
  * the `VarietyDescriptor` / `HadamardSpec` value types used by the
    dimension engines and the CLI.

Column order contract: builders emit columns in descending lexicographic
order of the concatenated exponent vectors.  For Segre factors this is
ascending lexicographic order of the index tuples (0,...,0), (0,...,1), ...
"""

import csv
import itertools
import math
from functools import cached_property, lru_cache
from typing import NamedTuple

from ._rational import rational_rank

# Builders refuse to materialize more entries (rows x columns) than this: a
# build peaks at about 48 bytes per entry, so near 1 GiB.
ENTRY_CAP = 20_000_000
# Entries must lie in [-EXPONENT_LIMIT, EXPONENT_LIMIT): the compiled kernels
# read exponents as signed 64-bit integers.
EXPONENT_LIMIT = 2**63


class MatrixSizeError(ValueError):
    """Requested matrix exceeds ENTRY_CAP entries."""


class HomogeneityError(ValueError):
    """Matrix is not projectively homogeneous (no all-ones vector in row span)."""


def _validated_rows(rows) -> tuple[tuple[int, ...], ...]:
    out = []
    width = None
    for row in rows:
        t = tuple(row)
        # A row of plain ints within range, the builders' every row, passes
        # on one scan of its types and its min and max; any other row goes
        # entry by entry, which raises at its first bad entry and accepts
        # int subclasses other than bool.
        if not ({*map(type, t)} == {int}
                and -EXPONENT_LIMIT <= min(t) and max(t) < EXPONENT_LIMIT):
            for x in t:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"matrix entries must be integers, got {x!r}")
                if not -EXPONENT_LIMIT <= x < EXPONENT_LIMIT:
                    raise ValueError(f"matrix entry {x} is outside [-2^63, 2^63)")
        if width is None:
            width = len(t)
        elif len(t) != width:
            raise ValueError("ragged rows: all rows must have equal length")
        out.append(t)
    return tuple(out)


class _ExponentMatrix(NamedTuple):
    entries: tuple[tuple[int, ...], ...]


class ExponentMatrix(_ExponentMatrix):
    """Immutable integer matrix.

    Entries may be negative (chart forms produced by `normalize`); the
    builders only emit non-negative entries.  No `__slots__`: the cached
    rank and column degrees live in the instance dict.
    """

    def __new__(cls, entries):
        rows = _validated_rows(entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        return super().__new__(cls, rows)

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0])

    @property
    def ambient_dim(self) -> int:
        """Projective ambient dimension N (columns minus one)."""
        return self.n_cols - 1

    def column(self, h: int) -> tuple[int, ...]:
        return tuple(row[h] for row in self.entries)

    def columns(self):
        return zip(*self.entries)

    def is_homogeneous(self) -> bool:
        """True when the all-ones vector lies in the rational row span
        (projective homogeneity).  Equal column sums c != 0 put it there,
        1/c times the sum of the rows, with no rank to compute; equal sums
        of 0 do not (rows 1,-1,0 and -1,1,0 are the conic xy = z^2)."""
        sums = {sum(col) for col in self.columns()}
        if len(sums) == 1 and 0 not in sums:
            return True
        return rational_rank(self.entries + ((1,) * self.n_cols,)) == self.rank()

    def rank(self) -> int:
        """Rank over Q, computed on the first call."""
        return self._rank

    @cached_property
    def _rank(self) -> int:
        return rational_rank(self.entries)

    @cached_property
    def column_degrees(self) -> tuple[int, int]:
        """(D+, M), computed on the first use.

        D+ = max_h sum_l max(A[l][h], 0) is the largest column degree counting
        positive entries only; M = sum_l max_h max(-A[l][h], 0) is the degree of
        the monomial that clears every negative exponent of one point's columns.
        """
        d_plus = max(sum(e for e in col if e > 0) for col in self.columns())
        return d_plus, sum(max(0, -min(row)) for row in self.entries)

    def validate_variety(self) -> None:
        """Check the non-degeneracy contract for matrices used as varieties.

        Requires at least two pairwise-distinct columns and projective
        homogeneity (`is_homogeneous`).
        """
        if self.n_cols < 2:
            raise ValueError("a variety matrix needs at least two columns")
        cols = list(self.columns())
        if len(set(cols)) != len(cols):
            raise ValueError("degenerate matrix: duplicate columns")
        if not self.is_homogeneous():
            raise HomogeneityError("not projectively homogeneous")


# --- builders ---------------------------------------------------------------


def homogeneous_exponents(degree: int, length: int):
    """Yield all exponent vectors of the given total degree, descending lex,
    without recursion, so that any length works."""
    if degree < 0 or length < 1:
        raise ValueError("degree must be >= 0 and length >= 1")
    exps = [degree] + [0] * (length - 1)
    while True:
        yield tuple(exps)
        # The next vector: the last nonzero entry before the final one, at i,
        # gives one unit to i + 1, and the final entry moves there too.
        i = length - 2
        while i >= 0 and not exps[i]:
            i -= 1
        if i < 0:
            return
        exps[i], exps[-1], exps[i + 1] = exps[i] - 1, 0, exps[-1] + 1


def segre_veronese(degrees, dims) -> ExponentMatrix:
    """Exponent matrix of the Segre-Veronese embedding of P^n1 x ... x P^nk.

    `degrees[i]` is the Veronese degree on the i-th factor, `dims[i]` its
    projective dimension.  Rows are grouped by factor (n_i + 1 rows each);
    columns are the concatenated exponent vectors in descending lex order.
    """
    degrees = tuple(int(d) for d in degrees)
    dims = tuple(int(n) for n in dims)
    if len(degrees) != len(dims) or not degrees:
        raise ValueError("degrees and dims must be equal-length, non-empty")
    if any(d < 1 for d in degrees) or any(n < 1 for n in dims):
        raise ValueError("degrees and dims must all be >= 1")
    n_cols = math.prod(math.comb(n + d, d) for d, n in zip(degrees, dims))
    n_entries = (sum(dims) + len(dims)) * n_cols
    if n_entries > ENTRY_CAP:
        raise MatrixSizeError(f"{n_entries} matrix entries exceeds cap {ENTRY_CAP}")
    per_factor = [list(homogeneous_exponents(d, n + 1)) for d, n in zip(degrees, dims)]
    columns = [
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*per_factor)
    ]
    return ExponentMatrix(tuple(zip(*columns)))


def normalize(mat: ExponentMatrix) -> ExponentMatrix:
    """Chart form: same rational row span, all-ones first row, first column e_1.

    The output has rank(mat) rows: the all-ones vector followed by a maximal
    independent set of span vectors with first entry zero.  Rows of the input
    that already vanish at the first coordinate are preferred verbatim; the
    rest are reduced by subtracting (first entry) * (all-ones).  Idempotent
    on matrices already in chart form.

    Raises HomogeneityError when the all-ones vector is not in the row span.
    """
    if not mat.is_homogeneous():
        raise HomogeneityError("not projectively homogeneous")
    ones = (1,) * mat.n_cols
    target_rank = mat.rank()
    picked: list[tuple[int, ...]] = [ones]
    candidates = [row for row in mat.entries if row[0] == 0]
    candidates += [
        tuple(x - row[0] for x in row) for row in mat.entries if row[0] != 0
    ]
    for cand in candidates:
        if len(picked) == target_rank:
            break
        if rational_rank(picked + [cand]) > len(picked):
            picked.append(cand)
    return ExponentMatrix(tuple(picked))


# --- CSV --------------------------------------------------------------------


def read_matrix_csv(path) -> ExponentMatrix:
    """Load a matrix from CSV: one row per line, comma-separated integers."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            try:
                rows.append([int(cell) for cell in record])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer entry") from exc
    if not rows:
        raise ValueError(f"{path}: empty matrix")
    return ExponentMatrix(tuple(tuple(r) for r in rows))


# --- descriptors ------------------------------------------------------------


class VarietyDescriptor(NamedTuple):
    """Hashable recipe for an embedded toric variety.

    kind is one of "veronese", "segre", "segre_veronese", "rnc", "custom";
    `label` round-trips through the CLI descriptor grammar.
    """

    kind: str
    degrees: tuple[int, ...] = ()
    dims: tuple[int, ...] = ()
    matrix_entries: tuple[tuple[int, ...], ...] | None = None
    label: str = ""

    @staticmethod
    def veronese(d: int, n: int) -> "VarietyDescriptor":
        return VarietyDescriptor("veronese", (d,), (n,), None, f"veronese:d={d},n={n}")

    @staticmethod
    def segre(dims) -> "VarietyDescriptor":
        dims = tuple(int(n) for n in dims)
        return VarietyDescriptor(
            "segre", (1,) * len(dims), dims, None,
            "segre:n=" + ",".join(map(str, dims)),
        )

    @staticmethod
    def segre_veronese(degrees, dims) -> "VarietyDescriptor":
        degrees = tuple(int(d) for d in degrees)
        dims = tuple(int(n) for n in dims)
        return VarietyDescriptor(
            "segre_veronese", degrees, dims, None,
            "sv:d=" + ",".join(map(str, degrees)) + ";n=" + ",".join(map(str, dims)),
        )

    @staticmethod
    def rnc(degree: int) -> "VarietyDescriptor":
        return VarietyDescriptor("rnc", (degree,), (1,), None, f"rnc:{degree}")

    @staticmethod
    def custom(mat: ExponentMatrix, label: str = "") -> "VarietyDescriptor":
        mat.validate_variety()
        return VarietyDescriptor(
            "custom", (), (), mat.entries, label or "matrix:<inline>"
        )

    def matrix(self) -> ExponentMatrix:
        return _descriptor_matrix(self)

    def __str__(self) -> str:
        return self.label


# Matrices `_descriptor_matrix` keeps, so memory stays bounded in long
# sweeps.  The extended experiments sweep at seed 7 looks up its 26
# matrices 505 times; the cache keeps all of them.
CACHE_SIZE = 1024


@lru_cache(maxsize=CACHE_SIZE)
def _descriptor_matrix(desc: VarietyDescriptor) -> ExponentMatrix:
    if desc.kind == "custom":
        return ExponentMatrix(desc.matrix_entries)
    return segre_veronese(desc.degrees, desc.dims)


class _HadamardSpec(NamedTuple):
    r: tuple[int, ...]


class HadamardSpec(_HadamardSpec):
    """Factor list (r_1, ..., r_m) of a Hadamard product of secant varieties."""

    __slots__ = ()

    def __new__(cls, r):
        r = tuple(int(x) for x in r)
        if not r or any(x < 1 for x in r):
            raise ValueError("every factor index r_k must be >= 1")
        return super().__new__(cls, r)

    @property
    def m(self) -> int:
        return len(self.r)

    @property
    def r_prime(self) -> tuple[int, ...]:
        return tuple(x - 1 for x in self.r)

    @property
    def total_points(self) -> int:
        """Number of parameter points: one shared point plus sum of (r_k - 1)."""
        return sum(self.r) - self.m + 1

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.r)) + ")"
