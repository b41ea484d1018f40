"""Pure-Python modular kernels: rank, Khatri-Rao rank, monomial evaluation,
the eta matrix of a probe attempt, the ranks of a secant probe's Terracini
blocks and the torus points a probe is taken at.

Fallback backend and the reference for the compiled one: _fastkernels.c
mirrors rank_mod, kr_rank_mod, eta_mod, secant_ranks_mod and
torus_points_mod exactly, with the same pivots, swaps, residues and
SplitMix64 words, so it returns identical values and raises ValueError on
the same moduli (both take 2 <= p < 2^64), malformed shapes, counts and
non-invertible pivots.  It has no entry point of its own for
eval_columns_mod: its eta_mod and secant_ranks_mod evaluate the monomials
inside.
Only the arithmetic of the row updates differs, and when they are paid.
Here the ranks eliminate on rows packed into one Python int each, so a row
update is one big-int multiply-add, with the reduction mod p delayed
(`_rank_reduced`, `secant_ranks_mod`).  The C elimination works in panels
of up to 16 pivots: it brings a column or a pivot row up to date just
before reading it, and every other entry once per panel, with one 128-bit
sum of the panel's products and one reduction.
`eta_of_columns` is the eta formula itself, over F_p or, for the exact
degeneration verifier, over the integers.
"""

from __future__ import annotations

# SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014) works on 64-bit words, and its counter steps by
# the golden-ratio increment.
_MASK64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def _check_modulus(p: int) -> None:
    """ValueError unless 2 <= p < 2^64, the moduli whose residues fit a
    64-bit word; `_fastkernels.c` raises the same errors."""
    if p < 2:
        raise ValueError("modulus must be at least 2")
    if p >= 2**64:
        raise ValueError("modulus must be below 2^64")


def _residues(rows, p: int) -> list[list[int]]:
    """Rows reduced mod p; ValueError unless all rows have the same length."""
    mat = [[x % p for x in row] for row in rows]
    if any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("rows have different lengths")
    return mat


def rank_mod(rows, p: int) -> int:
    """Rank of an integer matrix over Z/p (entries reduced internally)."""
    _check_modulus(p)
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
    _check_modulus(p)
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


def eta_of_columns(cols, r_prime, prime: int | None = None, one=None) -> list:
    """`probing.eta` from the evaluated columns.

    With a prime, cols[i] = phi(points[i]) and the entries are residues mod
    `prime`.  Without one, the columns are integers at a positive column
    scale, cols[i] = one * phi(points[i]) coordinatewise, and so is the 1 of
    each S_k: the entries are exact integer products, eta times
    diag(one^(k+1)), where k counts the factors with r'_k > 0.

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
            return [o + sum(c) for o, c in zip(one, zip(*ws))]
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
    _check_modulus(p)
    return eta_of_columns([eval_columns_mod(rows, pt, p) for pt in points], r_prime, p)


def secant_ranks_mod(rows, points, p: int) -> list[int]:
    """The rank after each block of a secant probe's Terracini blocks.

    For the points y_0, ..., y_{R-1}, block b is phi(z_b) (x) rows: the rows
    of the exponent matrix, each scaled entrywise by the column monomials
    phi at z_0 = y_0 and z_b = y_0 y_b.  Row b >= 1 of `probing.eta` for the
    first B points is phi(z_b), and row 0 is the sum of all of them, so the
    rank after block B - 1 is exactly the rank of eta (x) rows at those
    points (Terracini's lemma).

    The rows are eliminated one by one: each is reduced by the pivot rows
    found before it, in the order they were found (row - f P, with f the
    row's entry at the pivot's column), and its first nonzero entry left,
    if any, is a new pivot, whose row is scaled to 1 there.  The points are
    checked before any block is built, and no block is built once the rank
    is the column count.  Rows are packed into one int each, as in
    `_rank_reduced`; an entry grows by at most (p - 1)^2 per pivot, so a
    slot of 2 bitlen(p) + bitlen(n_cols + 1) bits holds it.
    """
    _check_modulus(p)
    mat = _residues(rows, p)
    pts = _residues(points, p)
    n_cols = len(mat[0]) if mat else 0
    if mat and pts and len(pts[0]) != len(mat):
        raise ValueError("point length differs from the number of rows")
    if mat and any(0 in pt for pt in pts):
        raise ValueError("torus point has a coordinate divisible by the prime")
    nbytes = (2 * p.bit_length() + (n_cols + 1).bit_length() + 7) // 8
    width = 8 * nbytes
    slot = (1 << width) - 1
    basis = []  # (shift of the pivot column, packed pivot row), in order found
    ranks = []
    for b, point in enumerate(pts):
        if len(basis) < n_cols:
            phi = eval_columns_mod(rows, point, p)
            if b == 0:
                v = phi
            else:
                phi = [x * y % p for x, y in zip(phi, v)]
            for a in mat:
                row = _pack([x * y % p for x, y in zip(phi, a)], nbytes)
                for shift, prow in basis:
                    f = (row >> shift & slot) % p
                    if f:
                        row += (p - f) * prow
                raw = row.to_bytes(nbytes * n_cols, "big")
                entries = [int.from_bytes(raw[k:k + nbytes], "big") % p
                           for k in range(0, len(raw), nbytes)]
                c = next((c for c, x in enumerate(entries) if x), None)
                if c is None:
                    continue
                inv = pow(entries[c], -1, p)
                basis.append((
                    width * (n_cols - 1 - c),
                    _pack([x * inv % p for x in entries[c:]], nbytes),
                ))
                if len(basis) == n_cols:
                    break
        ranks.append(len(basis))
    return ranks


def _mix64(z: int) -> int:
    """SplitMix64's finalizer of a 64-bit word: a bijection of [0, 2^64)."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def torus_points_mod(
    count: int, width: int, seed: int, p: int
) -> tuple[tuple[int, ...], ...]:
    """`count` points of (F_p^*)^width, every coordinate uniform on
    {1, ..., p - 1}, from a counter-based SplitMix64 stream.

    With s = mix(seed + G), s_i = mix(s + (i + 1) G) and
    s_il = mix(s_i + (l + 1) G), where G is SplitMix64's increment, mix its
    finalizer and all sums are mod 2^64, coordinate l of point i is
    v = w >> (64 - bitlen(p - 1)) for the first word w = mix(s_il + k G),
    k = 1, 2, ..., with 1 <= v < p.  Rejection keeps the draw exactly
    uniform, and accepts each word with probability at least 1/2.  Each
    coordinate is a function of (seed mod 2^64, i, l) alone: the points for
    `count` are a prefix of those for `count + 1`, and the same holds for
    `width`.  ValueError unless 2 <= p < 2^64, count >= 0 and width >= 1.
    """
    _check_modulus(p)
    if count < 0 or width < 1:
        raise ValueError("need count >= 0 and width >= 1")
    shift = 64 - (p - 1).bit_length()
    s = _mix64((seed + _GAMMA) & _MASK64)
    points = []
    for i in range(1, count + 1):
        s_i = _mix64((s + i * _GAMMA) & _MASK64)
        point = []
        for ell in range(1, width + 1):
            z = _mix64((s_i + ell * _GAMMA) & _MASK64)
            while True:
                z = (z + _GAMMA) & _MASK64
                v = _mix64(z) >> shift
                if 0 < v < p:
                    break
            point.append(v)
        points.append(tuple(point))
    return tuple(points)
