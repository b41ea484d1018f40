"""Exact rational row reduction shared by the matrix-handling modules.

Everything here works over fractions.Fraction; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


def row_echelon(rows):
    """Reduce a copy of `rows` to reduced row echelon form over the rationals.

    Returns (echelon_rows, pivot_columns); zero rows are dropped, so the rank
    is len(pivot_columns).
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rational_rank(rows) -> int:
    return len(row_echelon(rows)[1])
