"""Pure-Python modular kernels: rank, Khatri-Rao rank, monomial evaluation,
the eta matrix of a probe attempt, the ranks of a secant probe's Terracini
blocks, the ranks of a batch of Hadamard probes from their normalised
blocks, and the torus points a probe is taken at.

Fallback backend and the reference for the compiled one: _fastkernels.c
mirrors rank_mod, kr_rank_mod, eta_mod, secant_ranks_mod,
hadamard_ranks_mod and torus_points_mod exactly, with the same pivots,
residues and SplitMix64 words, so it returns identical values and raises
ValueError on the same moduli (both take 2 <= p < 2^64), malformed shapes,
counts and non-invertible pivots, in the same order.  It has no entry
point of its own for eval_columns_mod.  On both sides one reader checks the
points of eta_mod, secant_ranks_mod and hadamard_ranks_mod (`_points` here,
read_points in C), and one loop computes every rank (`_kr_ranks`,
kr_rank): it forms Khatri-Rao rows and adds them, in order, to one row
echelon basis (`_Echelon`, add_row).  hadamard_ranks_mod gives that loop
the normalised blocks as top rows, each v / S_k from one batch inversion
per factor (`_scale`, scale_rows), and rewinds the basis to the factors a
vector shares with the one before it: here to a copy of the pivot lists
(`_Echelon.state`), whose packed rows are shared; in C, whose basis only
grows, to the rank after those factors.  A vector with an S_k that is not
a unit gets None.
Only the arithmetic of a reduction differs: here a row is packed into one
Python int, so reducing it by a pivot row is one big-int multiply-add with
the reduction mod p delayed; in C a row pays a panel of up to 16 pivot
rows at once, with one 128-bit sum of their products per entry and one
reduction.
`eta_of_columns` is the eta formula itself, over F_p or, for the exact
degeneration verifier, over the integers.
"""

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
    """Rank of an integer matrix over Z/p (entries reduced internally): the
    Khatri-Rao rank of the rows with one all-ones row."""
    _check_modulus(p)
    mat = _residues(rows, p)
    n_cols = len(mat[0]) if mat else 0
    return max(_kr_ranks(mat, len(mat), [[1] * n_cols], n_cols, p), default=0)


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

    def state(self):
        """The basis as it stands, for `restore`: copies of its lists, whose
        packed rows are shared."""
        return self.cols[:], self.pivots[:], self.lead

    def restore(self, state) -> None:
        cols, pivots, self.lead = state
        self.cols, self.pivots = cols[:], pivots[:]


def _kr_ranks(tops, n: int, bottom, n_cols: int, p: int, echelon=None) -> list[int]:
    """The rank over Z/p after each top row's block of the Khatri-Rao rows
    t * b (entrywise), for the `n` residue rows t of the iterable `tops`
    and, for each, the residue rows b of `bottom` in order, all added to one
    `_Echelon`: `echelon`, or a new one.  A top row is read only while the
    rank is below the column count, and no row is formed once it is not."""
    if echelon is None:
        echelon = _Echelon(n_cols, p, min(n * len(bottom), n_cols))
    cols, tops, ranks = echelon.cols, iter(tops), []
    while len(ranks) < n and len(cols) < n_cols:
        t = next(tops)
        for b in bottom:
            echelon.add([x * y % p for x, y in zip(t, b)])
            if len(cols) == n_cols:
                break
        ranks.append(len(cols))
    return ranks + [len(cols)] * (n - len(ranks))


def _factors(top, bottom, p: int):
    """The residues of the two factors of a Khatri-Rao product, after its
    ValueErrors."""
    top, bottom = _residues(top, p), _residues(bottom, p)
    if top and bottom and len(top[0]) != len(bottom[0]):
        raise ValueError("factors have different column counts")
    return top, bottom


def khatri_rao_mod(top, bottom, p: int):
    """Column-wise Kronecker product over F_p, top-index-major row blocks."""
    top, bottom = _factors(top, bottom, p)
    return [[x * y % p for x, y in zip(t, b)] for t in top for b in bottom]


def kr_rank_mod(top, bottom, p: int) -> int:
    """rank_mod of the Khatri-Rao product, its rows formed only until the
    rank is the column count."""
    _check_modulus(p)
    top, bottom = _factors(top, bottom, p)
    n_cols = len(top[0]) if top else 0
    return max(_kr_ranks(top, len(top), bottom, n_cols, p), default=0)


def _points(rows, points, p: int) -> list[list[int]]:
    """The points of eta_mod, secant_ranks_mod and hadamard_ranks_mod mod p,
    after their ValueErrors, in this order: exponent rows, then points, of
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


def eval_columns_mod(mat, point, p: int):
    """`monomials_mod` of `mat` at `point`, after the ValueErrors of
    `_points` (point coordinates must be nonzero mod p)."""
    return monomials_mod(mat, _points(mat, [point], p)[0], p)


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
    len(cols) - 1.  `_fastkernels.c` assembles eta in the same order.
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


def secant_ranks_mod(rows, points, p: int) -> list[int]:
    """The rank after each block of a secant probe's Terracini blocks.

    For the points y_0, ..., y_{R-1}, block b is phi(z_b) (x) rows: the rows
    of the exponent matrix, each scaled entrywise by the column monomials
    phi at z_0 = y_0 and z_b = y_0 y_b.  Row b >= 1 of the one-factor
    `eta_of_columns` at the first B points is phi(z_b), and row 0 is the sum
    of all of them, so the rank after block B - 1 is exactly the rank of
    eta (x) rows at those points (Terracini's lemma).

    One loop, `_kr_ranks`, adds the blocks' rows in order to one `_Echelon`:
    the points are checked first (`_points`), and phi(z_b) is evaluated only
    once the elimination reaches block b, so that no point is evaluated once
    the rank is the column count.
    """
    _check_modulus(p)
    pts = _points(rows, points, p)
    zs = pts[:1] + [[x * y % p for x, y in zip(pts[0], pt)] for pt in pts[1:]]
    n_cols = len(rows[0]) if rows else 0
    tops = (monomials_mod(rows, z, p) for z in zs)
    return _kr_ranks(tops, len(zs), _residues(rows, p), n_cols, p)


def _scale(v, ws, p: int):
    """v / S mod p entrywise, S = 1 + the sum of the rows ws, from one
    inverse, that of the product of the S (Montgomery's batch inversion);
    None when some S has no inverse mod p."""
    s = [1] * len(v)
    for w in ws:
        s = [a + b for a, b in zip(s, w)]
    before, acc = [], 1  # before[h]: the product of the S left of h
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


def hadamard_ranks_mod(rows, r_primes, points, p: int) -> list:
    """The rank of eta (x) rows for each factor list r' of `r_primes`, at
    its first sum(r') + 1 points, from one walk; None for a list whose
    normalised blocks do not exist mod p, which `eta_mod` and `kr_rank_mod`
    then answer.

    Column c of eta divided by prod_h S_h(c) keeps every pivot, and every
    missing inverse, row for row, when each S_h(c) is a unit.  Row 0 becomes
    v = phi(y_0) and row (k, j) v w_kj / S_k (`eta_of_columns` notation),
    which depend on y_0 and factor k's points alone.  So each list resumes
    from the basis after the factors it shares with the list before it
    (`_Echelon.state`); in lexicographic order they share the most.  The
    ValueErrors, in order: those of `_points`, those of each r' in turn (a
    negative size, more points than given), then a missing inverse, at phi
    (evaluated once at each point a list needs) or at a pivot.  Each rank
    stops only at the column count, as `kr_rank_mod`'s does.
    """
    _check_modulus(p)
    pts = _points(rows, points, p)
    for r_prime in r_primes:
        _check_factors(r_prime, len(pts), exact=False)
    need = max((sum(r_prime) + 1 for r_prime in r_primes), default=0)
    phis = [monomials_mod(rows, pt, p) for pt in pts[:need]]
    bottom = _residues(rows, p)
    n_cols = len(rows[0]) if rows else 0
    echelon = _Echelon(n_cols, p, min(need * len(bottom), n_cols))
    # The basis after block 0 and after each factor of `prev`, then the
    # scaled v / S_k of its factors.
    states, scales, prev, ranks = [], [], (), []
    for r_prime in r_primes:
        j = 0
        while j + 1 < len(states) and j < len(r_prime) and r_prime[j] == prev[j]:
            j += 1
        del states[j + 1:], scales[j:]
        prev, starts = r_prime, [1 + sum(r_prime[:k]) for k in range(len(r_prime))]
        for k in range(j, len(r_prime)):
            scales.append(_scale(phis[0], phis[starts[k]:starts[k] + r_prime[k]], p))
            if scales[-1] is None:
                ranks.append(None)
                break
        else:
            if not states:
                _kr_ranks(phis[:1], 1, bottom, n_cols, p, echelon)
                states.append(echelon.state())
            echelon.restore(states[j])
            for k in range(j, len(r_prime)):
                ws = phis[starts[k]:starts[k] + r_prime[k]]
                tops = ([x * y % p for x, y in zip(scales[k], w)] for w in ws)
                _kr_ranks(tops, r_prime[k], bottom, n_cols, p, echelon)
                states.append(echelon.state())
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
