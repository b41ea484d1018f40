"""Pure-Python modular kernels: rank, Khatri-Rao rank, monomial evaluation,
the eta matrix of a probe attempt, the ranks of a secant probe's Terracini
blocks and the torus points a probe is taken at.

Fallback backend and the reference for the compiled one: _fastkernels.c
mirrors rank_mod, kr_rank_mod, eta_mod, secant_ranks_mod and
torus_points_mod exactly, with the same pivots, residues and SplitMix64
words, so it returns identical values and raises ValueError on the same
moduli (both take 2 <= p < 2^64), malformed shapes, counts and
non-invertible pivots.  It has no entry point of its own for
eval_columns_mod: its eta_mod and secant_ranks_mod evaluate the monomials
inside.  On both sides every rank adds rows, in order, to one row echelon
basis (`_Echelon` here, add_row in C), and only the arithmetic of a
reduction differs: here a row is packed into one Python int, so reducing
it by a pivot row is one big-int multiply-add with the reduction mod p
delayed; in C a row pays a panel of up to 16 pivot rows at once, with one
128-bit sum of their products per entry and one reduction.
`eta_of_columns` is the eta formula itself, over F_p or, for the exact
degeneration verifier, over the integers.
"""

from __future__ import annotations

import bisect

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
    mat = _residues(rows, p)
    return _rank(mat, len(mat), len(mat[0]) if mat else 0, p)


def _pack(row, nbytes: int) -> int:
    """The entries of `row` as one int, `nbytes` bytes each, the first in the
    most significant bytes and the last in the lowest."""
    return int.from_bytes(b"".join([x.to_bytes(nbytes, "big") for x in row]), "big")


class _Echelon:
    """A row echelon basis over Z/p that grows one row at a time (`add`).

    Adding a row reduces it by the pivot rows found so far, row - f P with f
    the row's entry at the pivot's column; its first nonzero entry left, if
    any, is a new pivot, whose row is scaled to 1 there.  A pivot row is 0
    left of its column and at every pivot column found before it, so it
    changes the factor of a later pivot only when its own column is further
    left.  Reducing in increasing order of the pivot columns therefore reads
    each factor after every pivot that changes it, as in the order the
    pivots were found (`_fastkernels.c`): the factors and the row are the
    same.

    Rows are packed (`_pack`), column j in slot n_cols-1-j, so the columns
    right of a column c are the low slots; a pivot row is packed from its
    own column on.  A reduction is one multiply-add, `row + (p - f) P`: slot
    c becomes a multiple of p and every other slot grows by (p - f) P_j,
    unreduced until it is read.  Once the columns 0..c are all pivot
    columns, a row is 0 mod p there after the pivot of column c, and it is
    cut to the slots right of c, which keeps the ints short.  An entry is
    < p when packed, and grows by at most (p - 1)^2 per pivot, k <=
    max_rank times: a slot of 2 bitlen(p) + bitlen(k + 1) bits, rounded up
    to whole bytes, holds it.  A pivot without an inverse modulo a composite
    number raises the ValueError of `pow(f, -1, p)`.
    """

    def __init__(self, n_cols: int, p: int, max_rank: int):
        self.n_cols = n_cols
        self.p = p
        self.nbytes = (2 * p.bit_length() + (max_rank + 1).bit_length() + 7) // 8
        self.cols: list[int] = []  # the pivot columns, increasing
        # Per pivot column, in the same order: the shift of its slot, its
        # packed row, and the mask that cuts a row after it (0 for no cut).
        self.pivots: list[tuple[int, int, int]] = []
        self.lead = 0  # columns 0..lead-1 are all pivot columns

    def add(self, entries) -> None:
        """Reduce the residues `entries` by the pivots, and keep the first
        nonzero entry left, if any, as a new pivot."""
        p, nbytes, lead = self.p, self.nbytes, self.lead
        slot = (1 << 8 * nbytes) - 1
        row = _pack(entries, nbytes)
        for shift, prow, cut in self.pivots:
            f = (row >> shift & slot) % p
            if f:
                row += (p - f) * prow
                if cut:
                    row &= cut
        raw = row.to_bytes(nbytes * self.n_cols, "big")
        left = [int.from_bytes(raw[k:k + nbytes], "big")
                for k in range(lead * nbytes, len(raw), nbytes)]
        i = next((i for i, x in enumerate(left) if x % p), None)
        if i is None:
            return
        inv = pow(left[i], -1, p)
        c = lead + i
        at = bisect.bisect(self.cols, c)
        self.cols.insert(at, c)
        shift = 8 * nbytes * (self.n_cols - 1 - c)
        self.pivots.insert(at, (shift, _pack([x * inv % p for x in left[i:]], nbytes), 0))
        while lead < len(self.cols) and self.cols[lead] == lead:
            shift, prow, _ = self.pivots[lead]
            self.pivots[lead] = (shift, prow, (1 << shift) - 1)
            lead += 1
        self.lead = lead


def _rank(rows, n_rows: int, n_cols: int, p: int) -> int:
    """The rank over Z/p of `n_rows` rows of `n_cols` residues, added in
    order to one `_Echelon` until the rank is the column count."""
    echelon = _Echelon(n_cols, p, min(n_rows, n_cols))
    for row in rows:
        echelon.add(row)
        if len(echelon.cols) == n_cols:
            break
    return len(echelon.cols)


def _khatri_rao_rows(top, bottom, p: int):
    """The rows of `khatri_rao_mod` one at a time, after its ValueErrors."""
    top, bot = _residues(top, p), _residues(bottom, p)
    if top and bot and len(top[0]) != len(bot[0]):
        raise ValueError("factors have different column counts")
    for t in top:
        for brow in bot:
            yield [(a * b) % p for a, b in zip(t, brow)]


def khatri_rao_mod(top, bottom, p: int):
    """Column-wise Kronecker product over F_p, top-index-major row blocks."""
    return list(_khatri_rao_rows(top, bottom, p))


def kr_rank_mod(top, bottom, p: int) -> int:
    """rank_mod of the Khatri-Rao product, its rows built only until the
    rank is the column count."""
    _check_modulus(p)
    n_cols = len(top[0]) if top else 0
    return _rank(_khatri_rao_rows(top, bottom, p), len(top) * len(bottom), n_cols, p)


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
    """Coefficient matrix eta of the Jacobian factorization eta (x) A
    (Khatri-Rao) of a Hadamard product of secant varieties, from the
    evaluated columns.

    `r_prime` = (r_1 - 1, ..., r_m - 1); the columns are ordered
    (y_0 | y_{1,1} ... y_{1,r'_1} | y_{2,1} ...).  With v = phi(y_0),
    w_{k,j} = phi(y_{k,j}) and S_k = 1 + sum_j w_{k,j}, multiplicativity of
    the monomial map phi collapses the lattice sums to

        row 0      = v * S_1 * ... * S_m
        row (k,j)  = v * w_{k,j} * prod_{h != k} S_h

    which equals the sum of phi(y_0 * y_{1,j_1} * ... * y_{m,j_m}) over all
    index tuples (resp. over tuples with j_k = j), term by term.  Rows are
    ordered row 0 first, then (k, j) factor-major.  A secant variety
    sigma_R(X) is the one-factor case r' = (R - 1,).

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
    """eta over F_p: eta_of_columns of the monomials of `rows` evaluated at
    each point."""
    _check_modulus(p)
    return eta_of_columns([eval_columns_mod(rows, pt, p) for pt in points], r_prime, p)


def secant_ranks_mod(rows, points, p: int) -> list[int]:
    """The rank after each block of a secant probe's Terracini blocks.

    For the points y_0, ..., y_{R-1}, block b is phi(z_b) (x) rows: the rows
    of the exponent matrix, each scaled entrywise by the column monomials
    phi at z_0 = y_0 and z_b = y_0 y_b.  Row b >= 1 of the one-factor
    `eta_of_columns` at the first B points is phi(z_b), and row 0 is the sum
    of all of them, so the rank after block B - 1 is exactly the rank of
    eta (x) rows at those points (Terracini's lemma).

    The rows are added in order to one `_Echelon`.  The points are checked
    before any block is built, and no block is built once the rank is the
    column count.
    """
    _check_modulus(p)
    mat = _residues(rows, p)
    pts = _residues(points, p)
    n_cols = len(mat[0]) if mat else 0
    if mat and pts and len(pts[0]) != len(mat):
        raise ValueError("point length differs from the number of rows")
    if mat and any(0 in pt for pt in pts):
        raise ValueError("torus point has a coordinate divisible by the prime")
    echelon = _Echelon(n_cols, p, min(len(pts) * len(mat), n_cols))
    ranks = []
    for b, point in enumerate(pts):
        if len(echelon.cols) < n_cols:
            phi = eval_columns_mod(rows, point, p)
            if b == 0:
                v = phi
            else:
                phi = [x * y % p for x, y in zip(phi, v)]
            for a in mat:
                echelon.add([x * y % p for x, y in zip(phi, a)])
                if len(echelon.cols) == n_cols:
                    break
        ranks.append(len(echelon.cols))
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
