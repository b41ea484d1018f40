"""Pure-Python modular kernels: rank, Khatri-Rao rank, monomial evaluation,
the eta matrix of a probe attempt, the ranks of a batch of Hadamard probes
(secant probes among them) from their normalised blocks, and the torus
points a probe is taken at.

Fallback backend and the reference for the compiled one: _fastkernels.c
mirrors rank_mod, hadamard_ranks_mod and torus_points_mod exactly, with the
same pivots, residues and SplitMix64 words, so it returns identical values
and raises ValueError on the same moduli (both take 2 <= p < 2^64),
malformed shapes, counts and non-invertible pivots, in the same order.
kr_rank_mod, eta_mod and monomials_mod serve both backends (see
`kernels`).  On both sides one reader checks the points of
hadamard_ranks_mod (`_points` here, read_points in C), and one loop
computes every rank (`_kr_ranks`, kr_rank): it forms Khatri-Rao rows and
adds them, in order, to one row echelon basis (`_Echelon`, add_row), which
hadamard_ranks_mod rewinds to an earlier rank (`_Echelon.truncate`; in C,
the rank set back).  Only the arithmetic of a reduction differs: here a
row is packed into one Python int, so reducing it by a pivot row is one
big-int multiply-add with the reduction mod p delayed; in C a row adds the
products of 32-bit pivot rows to its 64-bit entries unreduced below 2^32,
four pivot rows a pass over the row, when the most pivots the basis can
hold keep the sums below 2^64, and otherwise takes one 64-bit pivot row
at a time, each product reduced by Shoup's precomputed quotient.
`eta_of_columns` is the eta formula itself, over F_p or, for the exact
degeneration verifier, over the integers.
"""

import bisect
import struct
from itertools import takewhile
from operator import mul

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
    """Rank of an integer matrix over Z/p (entries reduced internally): the
    Khatri-Rao rank of the rows with one all-ones row."""
    _check_modulus(p)
    mat = _residues(rows, p)
    n_cols = len(mat[0]) if mat else 0
    return max(_kr_ranks(mat, len(mat), [[1] * n_cols], n_cols, p), default=0)


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
    right of a column c are the low slots; a pivot row is 0 left of its own
    column.  A reduction is one multiply-add, `row + (p - f) P`: slot
    c becomes a multiple of p and every other slot grows by (p - f) P_j,
    unreduced until it is read.  Once the columns 0..c are all pivot
    columns, a row is 0 mod p there after the pivot of column c, and it is
    cut to the slots right of c, which keeps the ints short.  An entry is
    < p^2 when packed (a product of two residues, which `_kr_ranks` leaves
    unreduced below 2^32), and grows by at most (p - 1)^2 per pivot, k <=
    max_rank times: p^2 + k (p - 1)^2 < (k + 1) p^2, so a slot of
    2 bitlen(p) + bitlen(k + 1) bits, rounded up to whole bytes and to at
    least 8, holds it.  One `struct.Struct` of the echelon packs a row's
    entries, each a 64-bit word after the slot's zero bytes, and unpacks a
    reduced row when the slots are 8 bytes wide, as at WORD_PRIME below
    rank 2^12.  A pivot without an inverse modulo a composite number raises
    the ValueError of `pow(f, -1, p)`.
    """

    def __init__(self, n_cols: int, p: int, max_rank: int):
        self.n_cols = n_cols
        self.p = p
        self.nbytes = max(8, (2 * p.bit_length() + (max_rank + 1).bit_length() + 7) // 8)
        pad = f"{self.nbytes - 8}x" if self.nbytes > 8 else ""
        self.packer = struct.Struct(">" + (pad + "Q") * n_cols)
        self.cols: list[int] = []  # the pivot columns, increasing
        self.found: list[int] = []  # the same, in the order they were found
        # Per pivot column, in the same order: the shift of its slot, its
        # packed row, and the mask that cuts a row after it (0 for no cut).
        self.pivots: list[tuple[int, int, int]] = []
        self.lead = 0  # columns 0..lead-1 are all pivot columns

    def _pack(self, row) -> int:
        """The n_cols entries of `row` as one int, the first in the most
        significant slot and the last in the lowest."""
        return int.from_bytes(self.packer.pack(*row), "big")

    def add(self, entries) -> None:
        """Reduce the residues `entries` by the pivots, and keep the first
        nonzero entry left, if any, as a new pivot."""
        p, nbytes, lead = self.p, self.nbytes, self.lead
        slot = (1 << 8 * nbytes) - 1
        row = self._pack(entries)
        for shift, prow, cut in self.pivots:
            f = (row >> shift & slot) % p
            if f:
                row += (p - f) * prow
                if cut:
                    row &= cut
        raw = row.to_bytes(nbytes * self.n_cols, "big")
        if nbytes == 8:
            left = self.packer.unpack(raw)[lead:]
        else:
            left = [int.from_bytes(raw[k:k + nbytes], "big")
                    for k in range(lead * nbytes, len(raw), nbytes)]
        i = next((i for i, x in enumerate(left) if x % p), None)
        if i is None:
            return
        inv = pow(left[i], -1, p)
        c = lead + i
        at = bisect.bisect(self.cols, c)
        self.cols.insert(at, c)
        self.found.append(c)
        shift = 8 * nbytes * (self.n_cols - 1 - c)
        prow = self._pack([0] * c + [x * inv % p for x in left[i:]])
        self.pivots.insert(at, (shift, prow, 0))
        while lead < len(self.cols) and self.cols[lead] == lead:
            shift, prow, _ = self.pivots[lead]
            self.pivots[lead] = (shift, prow, (1 << shift) - 1)
            lead += 1
        self.lead = lead

    def truncate(self, rank: int) -> None:
        """Back to the basis of the first `rank` pivots found, whose rows
        never change; only the cuts follow the leading run of pivot columns."""
        if rank == len(self.found):
            return
        for c in self.found[rank:]:
            at = bisect.bisect_left(self.cols, c)
            del self.cols[at], self.pivots[at]
            self.lead = min(self.lead, c)
        del self.found[rank:]
        self.pivots[self.lead:] = [(shift, prow, 0) for shift, prow, _ in self.pivots[self.lead:]]


def _kr_ranks(tops, n: int, bottom, n_cols: int, p: int, echelon=None) -> list[int]:
    """The rank over Z/p after each top row's block of the Khatri-Rao rows
    t * b (entrywise), for the `n` residue rows t of the iterable `tops`
    and, for each, the residue rows b of `bottom` in order, all added to one
    `_Echelon`: `echelon`, or a new one.  Below 2^32 a product of two
    residues fits the echelon's 64-bit words, and is added unreduced.  A
    top row is read only while the rank is below the column count, and no
    row is formed once it is not."""
    if echelon is None:
        echelon = _Echelon(n_cols, p, min(n * len(bottom), n_cols))
    cols, tops, ranks = echelon.cols, iter(tops), []
    while len(ranks) < n and len(cols) < n_cols:
        t = next(tops)
        for b in bottom:
            echelon.add(map(mul, t, b) if p >> 32 == 0 else [x * y % p for x, y in zip(t, b)])
            if len(cols) == n_cols:
                break
        ranks.append(len(cols))
    return ranks + [len(cols)] * (n - len(ranks))


def kr_rank_mod(top, bottom, p: int) -> int:
    """rank_mod of the Khatri-Rao product, its rows formed only until the
    rank is the column count."""
    _check_modulus(p)
    top, bottom = _residues(top, p), _residues(bottom, p)
    if top and bottom and len(top[0]) != len(bottom[0]):
        raise ValueError("factors have different column counts")
    n_cols = len(top[0]) if top else 0
    return max(_kr_ranks(top, len(top), bottom, n_cols, p), default=0)


def _points(rows, points, p: int) -> list[list[int]]:
    """The points of eta_mod and hadamard_ranks_mod mod p, after their
    ValueErrors, in this order: exponent rows, then points, of
    different lengths; a point length other than the number of rows, or a
    coordinate divisible by p, where there are rows.  read_points in C is
    the same."""
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("rows have different lengths")
    pts = _residues(points, p)
    if rows and pts and len(pts[0]) != len(rows):
        raise ValueError("point length differs from the number of rows")
    if rows and any(0 in pt for pt in pts):
        raise ValueError("torus point has a coordinate divisible by the prime")
    return pts


def monomials_mod(mat, point, p: int):
    """Every column monomial of `mat` at a point that `_points` returned:
    mat[l][h] is the exponent of point[l] in column h, negative exponents
    included.  A coordinate without an inverse mod p raises the ValueError
    of `pow(y, -1, p)`."""
    acc = [1] * len(mat[0]) if mat else []
    for y, exps in zip(point, mat):
        cache: dict[int, int] = {}
        for h, e in enumerate(exps):
            v = cache.get(e)
            if v is None:
                v = pow(y, e, p)
                cache[e] = v
            acc[h] = (acc[h] * v) % p
    return acc


def _check_factors(r_prime, n_points: int, exact: bool = True) -> None:
    """ValueError unless the factor sizes r' are >= 0 and need sum(r') + 1
    points: exactly n_points, or at most n_points when not `exact`."""
    if any(rp < 0 for rp in r_prime):
        raise ValueError("factor sizes r' must be non-negative")
    need = sum(r_prime) + 1
    if need > n_points or exact and need != n_points:
        raise ValueError(f"factors r' need {need} points, got {n_points}")


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
    len(cols) - 1.  Eta is assembled only here, on both backends.
    """
    _check_factors(r_prime, len(cols))
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
    pts = _points(rows, points, p)
    return eta_of_columns([monomials_mod(rows, pt, p) for pt in pts], r_prime, p)


def _scale(v, s, p: int):
    """v / s mod p entrywise from one inverse, that of the product of the s
    (Montgomery's batch inversion); None when some s has no inverse mod p."""
    before, acc = [], 1  # before[h]: the product of the s left of h
    for x in s:
        before.append(acc)
        acc = acc * x % p
    try:
        inv = pow(acc, -1, p)
    except ValueError:
        return None
    out = [0] * len(v)
    for h in reversed(range(len(v))):
        out[h] = before[h] * inv % p * v[h] % p
        inv = inv * s[h] % p
    return out


def _shared(a, b) -> int:
    """How many leading blocks the walks of the factor lists a and b share:
    block 0 and factor 1's blocks up to the shorter factor 1, then, when
    factor 1 is the same, each factor while it is the same.  So lists
    with their largest factor first, as `hadamdim` probes them, share
    the most."""
    a1, b1 = (a or (0,))[0], (b or (0,))[0]
    if a1 != b1:
        return 1 + min(a1, b1)
    same = takewhile(lambda pair: pair[0] == pair[1], zip(a[1:], b[1:]))
    return 1 + a1 + sum(x for x, _ in same)


def _blocks(phis, r_prime, keep: int, p: int):
    """(scale, point) of each block of r' from block `keep` on, whose top row
    is phis[point] (phis[0] is all ones), times the scale if any; None when
    some S_k, k >= 2, of those blocks has no inverse."""
    first, s1 = (r_prime or (0,))[0], None
    blocks, start = [(None, i) for i in range(keep, first + 1)], first + 1
    for rp in r_prime[1:]:
        if start + rp > keep:
            s1 = s1 or [sum(c) for c in zip(*phis[:first + 1])]  # S_1
            u = _scale(s1, [sum(c) for c in zip(phis[0], *phis[start:start + rp])], p)
            if u is None:
                return None
            blocks += [(u, i) for i in range(max(start, keep), start + rp)]
        start += rp
    return blocks


def hadamard_ranks_mod(rows, r_primes, points, p: int) -> list:
    """The rank of eta (x) rows for each factor list r' of `r_primes`, at
    its first sum(r') + 1 points, from one walk; None for a list whose
    normalised blocks do not exist mod p, which `eta_mod` and `kr_rank_mod`
    then answer.  A secant probe is the one-factor list (R - 1,).

    In `eta_of_columns` notation, dividing column c of eta by
    prod_{k >= 2} S_k(c), then taking factor 1's rows from row 0, keeps
    every pivot, and every missing inverse, row for row, when each such
    S_k(c) is a unit.  Block b is then t_b (x) (v * rows), v = phi(y_0),
    with t_0 = 1, t_1j = w_1j (v t_1j = phi(y_0 y_1j) is a Terracini block)
    and t_kj = w_kj S_1 / S_k.  A list resumes from the basis after the
    blocks it shares with the one before it (`_shared`), the most in
    lexicographic order.  ValueErrors, in order: those of `_points`, of
    each r' in turn, then a missing inverse, at phi (evaluated once at each
    point a list needs) or at a pivot.  Ranks stop only at the column
    count, as `kr_rank_mod`'s do.
    """
    _check_modulus(p)
    pts = _points(rows, points, p)
    for r_prime in r_primes:
        _check_factors(r_prime, len(pts), exact=False)
    if not r_primes:
        return []
    need = max(sum(r_prime) + 1 for r_prime in r_primes)
    phis = [monomials_mod(rows, pt, p) for pt in pts[:need]]
    n_cols = len(rows[0]) if rows else 0
    bottom = [[x * a % p for x, a in zip(phis[0], row)] for row in _residues(rows, p)]
    phis[0] = [1] * n_cols
    echelon = _Echelon(n_cols, p, min(need * len(bottom), n_cols))
    at, prev, ranks = [], (), []  # at[b]: the rank after block b of the walk
    for r_prime in r_primes:
        keep = min(_shared(prev, r_prime), len(at))
        del at[keep:]
        prev, blocks = r_prime, _blocks(phis, r_prime, keep, p)
        if blocks is None:
            ranks.append(None)
            continue
        echelon.truncate(at[-1] if at else 0)
        tops = (phis[i] if u is None else [x * y % p for x, y in zip(u, phis[i])]
                for u, i in blocks)
        at += _kr_ranks(tops, len(blocks), bottom, n_cols, p, echelon)
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
