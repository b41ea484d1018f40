"""Pure-Python modular kernels: rank, Khatri-Rao rank, monomial evaluation,
and the eta matrix of a probe attempt.

Fallback backend and the reference for the compiled one: _fastkernels.c
mirrors rank_mod, kr_rank_mod and eta_mod exactly, with the same pivots,
swaps and residues, so it returns identical values and raises ValueError on
the same malformed shapes and non-invertible pivots.  It has no entry point
of its own for eval_columns_mod: its eta_mod evaluates the monomials inside.
Only the arithmetic of a row update differs.  Here the ranks eliminate on
rows packed into one Python int each, so a row update is one big-int
multiply-add, with the reduction mod p delayed (`_rank_reduced`); any
modulus width works here.  The C update reduces each entry at once, with a
quotient precomputed per row in place of a division.
`eta_of_columns` is the eta formula itself, over F_p or, for `probing.eta`,
over the rationals.
"""

from __future__ import annotations


def _residues(rows, p: int) -> list[list[int]]:
    """Rows reduced mod p; ValueError unless all rows have the same length."""
    mat = [[x % p for x in row] for row in rows]
    if any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("rows have different lengths")
    return mat


def rank_mod(rows, p: int) -> int:
    """Rank of an integer matrix over Z/p (entries reduced internally)."""
    return _rank_reduced(_residues(rows, p), p)


def _pack(row, nbytes: int) -> int:
    """The entries of `row` as one int, `nbytes` bytes each, the first in the
    most significant bytes and the last in the lowest."""
    return int.from_bytes(b"".join([x.to_bytes(nbytes, "big") for x in row]), "big")


def _rank_reduced(mat: list[list[int]], p: int) -> int:
    """Rank over Z/p of equally long rows already reduced mod p.

    Each row is packed into one int (`_pack`), column j in a fixed-width
    slot n_cols-1-j, so the columns right of a pivot column c are the low
    slots.  Eliminating below the pivot row b is then one big-int
    multiply-add and one mask per row, `(row + (p - f) * b) & below`: slot
    c becomes a multiple of p and is masked off with the slots left of it,
    and every other slot grows by (p - f) * b_j without being reduced.  The
    pivot row is unpacked, scaled by the pivot's inverse, reduced and
    repacked; any other entry is reduced only when its slot is read as a
    pivot candidate or a factor f.

    No slot carries into the next.  An entry is < p when its row is packed
    and when its row becomes the pivot row, so an update adds at most
    (p - 1)^2 to a slot.  A row is updated once per pivot above it, at most
    k = min(n_rows, n_cols) times, so a slot stays below p + k p^2 <=
    (k + 1) p^2 < 2^(2 bitlen(p) + bitlen(k + 1)): that many bits, rounded
    up to whole bytes, is the slot width.  Pivots, swaps and residues mod p
    are those of the textbook elimination, so the rank is too, and a
    non-invertible pivot modulo a composite number raises the ValueError of
    `pow(f, -1, p)`.
    """
    n_rows = len(mat)
    if n_rows == 0:
        return 0
    n_cols = len(mat[0])
    nbytes = (2 * p.bit_length() + (min(n_rows, n_cols) + 1).bit_length() + 7) // 8
    width = 8 * nbytes
    slot = (1 << width) - 1
    rows = [_pack(row, nbytes) for row in mat]
    rank = 0
    for c in range(n_cols):
        if rank == n_rows:
            break
        shift = width * (n_cols - 1 - c)  # column c is (row >> shift) & slot
        for piv in range(rank, n_rows):
            f = (rows[piv] >> shift & slot) % p
            if f:
                break
        else:
            continue
        # Rows rank..piv-1 are zero in column c, and so is the row the swap
        # moves to piv: the update starts after it.
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(f, -1, p)
        row = rows[rank].to_bytes(nbytes * n_cols, "big")
        prow = _pack(
            [int.from_bytes(row[k:k + nbytes], "big") * inv % p
             for k in range(c * nbytes, len(row), nbytes)],
            nbytes,
        )
        below = (1 << shift) - 1
        for i in range(piv + 1, n_rows):
            f = (rows[i] >> shift & slot) % p
            if f:
                rows[i] = (rows[i] + (p - f) * prow) & below
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
    return _rank_reduced(khatri_rao_mod(top, bottom, p), p)


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


def eta_of_columns(cols, r_prime, prime: int | None = None) -> list:
    """`probing.eta` from the evaluated columns cols[i] = phi(points[i]):
    residues mod `prime`, or exact products when `prime` is None.

    ValueError unless the entries of `r_prime` are >= 0 and sum to
    len(cols) - 1.  `_fastkernels.c` assembles eta in the same order.
    """
    if any(rp < 0 for rp in r_prime):
        raise ValueError("factor sizes r' must be non-negative")
    if sum(r_prime) != len(cols) - 1:
        raise ValueError(
            f"factors r' need {sum(r_prime) + 1} points, got {len(cols)}"
        )
    if prime is None:

        def mul(u, v):
            return [a * b for a, b in zip(u, v)]

        def ones_plus_sum(ws):
            return [1 + sum(c) for c in zip(*ws)]
    else:

        def mul(u, v):
            return [a * b % prime for a, b in zip(u, v)]

        def ones_plus_sum(ws):
            return [(1 + sum(c)) % prime for c in zip(*ws)]

    def times(u, v):
        # None stands for an all-ones vector, which is never multiplied.
        return u if v is None else v if u is None else mul(u, v)

    blocks = []
    offset = 1
    for rp in r_prime:
        blocks.append(cols[offset:offset + rp])
        offset += rp
    sums = [ones_plus_sum(ws) if ws else None for ws in blocks]  # S_k
    # prefix[k] = v * S_1 * ... * S_k; suffix[k] = S_{k+1} * ... * S_m.
    prefix = [cols[0]]
    for s in sums:
        prefix.append(times(prefix[-1], s))
    suffix = [None] * (len(sums) + 1)
    for k in range(len(sums) - 1, 0, -1):
        suffix[k] = times(sums[k], suffix[k + 1])
    out = [prefix[-1]]
    for k, ws in enumerate(blocks):
        if ws:
            base = times(prefix[k], suffix[k + 1])
            out.extend(mul(base, w) for w in ws)
    return out


def eta_mod(rows, r_prime, points, p: int) -> list[list[int]]:
    """`probing.eta` over F_p: eta_of_columns of the monomials of `rows`
    evaluated at each point."""
    return eta_of_columns([eval_columns_mod(rows, pt, p) for pt in points], r_prime, p)
