"""The case lists of the stored check tables.

The sporadic defective Veronese secants of the Alexander-Hirschowitz
classification and the sporadic defective binary Segre-Veronese secants,
each settled by probing every multi-factor vector with the same index; this
module enumerates those vectors and the table rows built from them.
"""

from __future__ import annotations

# Sporadic defective Veronese cases (d, n, r) with d >= 3; for d = 2 the
# defective range is exactly 2 <= r <= n.
AH_SPORADIC = frozenset({(3, 4, 7), (4, 2, 5), (4, 3, 9), (4, 4, 14)})


def _partitions(n: int, max_part: int):
    """Descending-sorted partitions of n with parts <= max_part."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def enumerate_check_rvectors(R: int) -> list[tuple[int, ...]]:
    """All factor vectors (r_1 >= ... >= r_m >= 2), m >= 2, with
    sum(r_k - 1) + 1 = R, sorted ascending-lexicographically.

    These are the cases whose product dimension must be checked directly
    when sigma_R itself is defective; there are p(R-1) - 1 of them.
    """
    if R < 3:
        raise ValueError("R must be >= 3 (smallest multi-factor case is (2,2))")
    out = [
        tuple(p + 1 for p in part)
        for part in _partitions(R - 1, R - 1)
        if len(part) >= 2
    ]
    out.sort()
    return out


def veronese_check_table() -> list[tuple[int, int, tuple[int, ...]]]:
    """(d, n, r-vector) rows covering all sporadic defective Veronese cases."""
    rows = []
    for d, n, big_r in sorted(AH_SPORADIC):
        for rvec in enumerate_check_rvectors(big_r):
            rows.append((d, n, rvec))
    return rows


def binary_check_table() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(degrees, r-vector) rows covering the sporadic defective binary cases.

    The family exceptions (2,2t) and (1,1,2t) are excluded from the closed
    form altogether, so only (2,2,2) with R = 7 and (1,1,1,1) with R = 3
    need direct checks.
    """
    rows = [((2, 2, 2), rvec) for rvec in enumerate_check_rvectors(7)]
    rows.append(((1, 1, 1, 1), (2, 2)))
    return rows
