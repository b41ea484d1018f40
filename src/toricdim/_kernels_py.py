"""Pure-Python modular kernels: rank, Khatri-Rao, monomial evaluation.

Fallback backend and the reference for the compiled one: _fastkernels.c
mirrors rank_mod, kr_rank_mod and eval_columns_mod exactly, returns identical
values and raises ValueError on the same malformed shapes.  Arithmetic uses
Python big ints, so any prime width works here.
"""

from __future__ import annotations


def _residues(rows, p: int) -> list[list[int]]:
    """Rows reduced mod p; ValueError unless all rows have the same length."""
    mat = [[x % p for x in row] for row in rows]
    if any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("rows have different lengths")
    return mat


def rank_mod(rows, p: int) -> int:
    """Rank of an integer matrix over F_p (entries reduced internally)."""
    mat = _residues(rows, p)
    n_rows = len(mat)
    if n_rows == 0:
        return 0
    n_cols = len(mat[0])
    rank = 0
    for c in range(n_cols):
        if rank == n_rows:
            break
        piv = None
        for i in range(rank, n_rows):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        inv = pow(prow[c], -1, p)
        prow[c:] = [(x * inv) % p for x in prow[c:]]
        for i in range(rank + 1, n_rows):
            f = mat[i][c]
            if f:
                row = mat[i]
                row[c:] = [(a - f * b) % p for a, b in zip(row[c:], prow[c:])]
        rank += 1
    return rank


def khatri_rao_mod(top, bottom, p: int):
    """Column-wise Kronecker product over F_p, top-index-major row blocks."""
    top, bot = _residues(top, p), _residues(bottom, p)
    if top and bot and len(top[0]) != len(bot[0]):
        raise ValueError("factors have different column counts")
    out = []
    for t in top:
        for brow in bot:
            out.append([(a * b) % p for a, b in zip(t, brow)])
    return out


def kr_rank_mod(top, bottom, p: int) -> int:
    """rank_mod of the Khatri-Rao product, fused for the compiled backend."""
    return rank_mod(khatri_rao_mod(top, bottom, p), p)


def eval_columns_mod(mat, point, p: int):
    """Evaluate every column monomial of `mat` at `point` over F_p.

    mat[l][h] is the exponent of point[l] in column h; negative exponents are
    allowed (point coordinates must be invertible, i.e. nonzero mod p).
    """
    if not mat:
        return []
    n_cols = len(mat[0])
    if any(len(row) != n_cols for row in mat):
        raise ValueError("rows have different lengths")
    if len(point) != len(mat):
        raise ValueError("point length differs from the number of rows")
    acc = [1] * n_cols
    for y, exps in zip(point, mat):
        y %= p
        if y == 0:
            raise ValueError("torus point has a coordinate divisible by the prime")
        cache: dict[int, int] = {}
        for h, e in enumerate(exps):
            v = cache.get(e)
            if v is None:
                v = pow(y, e, p)
                cache[e] = v
            acc[h] = (acc[h] * v) % p
    return acc
