/* Compiled modular kernels, six entry points: rank_mod, kr_rank_mod (the
 * rank of a Khatri-Rao product), eta_mod (the eta matrix of a probe
 * attempt, with the column monomials evaluated in place), secant_ranks_mod
 * (the ranks of a secant probe's Terracini blocks, one streamed
 * elimination for every R), hadamard_ranks_mod (the ranks of a batch of
 * Hadamard probes from their normalised blocks, one walk that rewinds the
 * basis to the factors each vector shares with the one before it) and
 * torus_points_mod (the uniform points of (F_p^*)^n a probe attempt is
 * taken at, from a counter-based SplitMix64 stream).
 *
 * Mirrors _kernels_py, which is the reference: same values, and ValueError on
 * the same moduli, malformed shapes, counts and non-invertible pivots, in
 * the same order; eta_mod, secant_ranks_mod and hadamard_ranks_mod read
 * their exponent rows and points through one reader (read_points).  No
 * entry point releases the GIL.  Residues live in 64-bit words, so every
 * modulus 2 <= p < 2^64 works.  One-off products go through unsigned
 * __int128 and a 128-by-64-bit `%` (mulmod); a row of products by one
 * factor f takes Shoup's method, with floor(f 2^64 / p) computed once
 * (mulmod_shoup).
 *
 * Every rank is one loop (kr_rank) that forms Khatri-Rao rows, a top row
 * times each bottom row entrywise, and adds them, in order, to one row
 * echelon basis (add_row).  The top rows come from a buffer, from a
 * buffer scaled entrywise (hadamard_ranks_mod's normalised blocks), or,
 * for secant_ranks_mod, are a block's column monomials, evaluated only when
 * the loop reaches the block; rank_mod's one bottom row is all ones.  A row is
 * reduced by the pivot rows found so far, and its first nonzero entry left,
 * if any, is a new pivot.  The reductions are deferred, as the
 * dense linear algebra libraries over word-size primes do (Dumas, Giorgi
 * and Pernet, "Dense linear algebra over word-size prime fields: the FFLAS
 * and FFPACK packages", ACM TOMS 2008).  The pivots are kept in panels of
 * up to K, and a row pays a panel's k <= K products f_t P_t[j] at each
 * entry with one unsigned __int128 sum and one `%`.  Residues are at most
 * p - 1, so the sum is exact while K (p - 1)^2 < 2^128, and K(p) =
 * min(16, floor((2^128 - 1) / (p - 1)^2)) (panel_width).  K is 16 for
 * every p <= 2^62, which holds every prime the program picks itself
 * (2^61 - 1, its alternates and the primes of exact ranks), and 1 once
 * p - 1 exceeds 2^63.5.  On a 495 x 495 Khatri-Rao rank at 2^61 - 1, the
 * fastest of 15 runs took 32 and 40 ms with panels of 8 and 32, and 28 ms
 * with 16 (a 2-vCPU Xeon virtual machine).
 * Built by `python3 setup.py build_ext --inplace`.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;
typedef unsigned __int128 u128;

static inline u64 mulmod(u64 a, u64 b, u64 p)
{
    return (u64)(((u128)a * b) % p);
}

/* floor(f 2^64 / p) for f < p, which is below 2^64: the precomputed
 * quotient of mulmod_shoup. */
static inline u64 shoup_quotient(u64 f, u64 p)
{
    return (u64)(((u128)f << 64) / p);
}

/* f y mod p for f < p and any y < 2^64, given fq = shoup_quotient(f, p)
 * (V. Shoup's NTL; D. Harvey, J. Symb. Comp. 2014).  With
 * fq = f 2^64 / p - e, 0 <= e < 1, the estimate q = floor(y fq / 2^64) is
 * f y / p - e y / 2^64 rounded down, and e y / 2^64 < 1, so q is
 * floor(f y / p) or one less: t = f y - q p lies in [0, 2p) and one
 * subtraction of p reduces it.  Below 2^63, 2p < 2^64 and t is exact in
 * 64-bit wrapping arithmetic.  From 2^63 on t needs 128 bits, and t >= p
 * is tested on its two words, which gcc compiles without a jump (the
 * outcome is a coin flip a branch predictor cannot learn).  The branch on
 * p >> 63 is loop-invariant, and gcc -O3 unswitches a loop around it. */
static inline u64 mulmod_shoup(u64 y, u64 f, u64 fq, u64 p)
{
    u64 q = (u64)(((u128)y * fq) >> 64);
    if (p >> 63) {
        u128 t = (u128)f * y - (u128)q * p;
        u64 lo = (u64)t, hi = (u64)(t >> 64);
        return (hi | (lo >= p)) ? lo - p : lo;
    }
    u64 t = f * y - q * p;
    return t >= p ? t - p : t;
}

/* a + b mod p for a, b < p; the sum may wrap past 2^64 when p > 2^63. */
static inline u64 addmod(u64 a, u64 b, u64 p)
{
    u64 s = a + b;
    return (s < a || s >= p) ? s - p : s;
}

static u64 powmod(u64 base, u64 e, u64 p)
{
    u64 result = 1 % p;
    base %= p;
    while (e) {
        if (e & 1)
            result = mulmod(result, base, p);
        base = mulmod(base, base, p);
        e >>= 1;
    }
    return result;
}

/* Inverse of a mod p by the extended Euclidean algorithm, so that a
 * composite p behaves as in Python's pow(a, -1, p); 0 when a has no inverse
 * (a true inverse is never 0, as p >= 2).  The coefficients of a alternate
 * in sign and stay at most p in size, so only their sizes are kept. */
static u64 invmod(u64 a, u64 p)
{
    u64 r0 = p, r1 = a % p, t0 = 0, t1 = 1;
    int t1_positive = 1;
    while (r1) {
        u64 q = r0 / r1, r2 = r0 - q * r1, t2 = t0 + q * t1;
        r0 = r1;
        r1 = r2;
        t0 = t1;
        t1 = t2;
        t1_positive = !t1_positive;
    }
    if (r0 != 1)
        return 0;
    return t1_positive ? p - t0 : t0;  /* t0 has the sign opposite to t1 */
}

/* a - x mod p for a, x < p, without a branch; a + p could overflow a u64. */
static inline u64 submod(u64 a, u64 x, u64 p)
{
    return (a - x) + (a < x ? p : 0);
}

/* The most pivots of one panel, and K(p), the panel width at p: the most
 * products of two residues one unsigned __int128 holds, at most PANEL. */
#define PANEL 16

static int panel_width(u64 p)
{
    u128 k = ~(u128)0 / ((u128)(p - 1) * (p - 1));
    return k < PANEL ? (int)k : PANEL;
}

/* sum_t f[t] x[t] for t < k, exact for k <= panel_width(p) residues. */
static inline u128 dot(const u64 *f, const u64 *x, int k)
{
    u128 acc = 0;
    for (int t = 0; t < k; t++)
        acc += (u128)f[t] * x[t];
    return acc;
}

/* row[j] -= sum_t f_t P_t[j] mod p for from <= j < to: the k pending
 * updates of a row by the pivot rows P_0..P_{k-1} of a panel.  The row's
 * factor f_t is its own entry in the column of pivot t, cols[t], and
 * P_t[j] is pt[j * w + t].  Zero factors are dropped first.  A Khatri-Rao
 * row of a probe is zero wherever its exponent row is, so in the first
 * panels many factors are zero, and a row pays only for its nonzero ones.
 * One factor left takes Shoup's update, the whole update when K(p) = 1;
 * more are summed in one unsigned __int128 and reduced once, exact as long
 * as k <= panel_width(p): by the contiguous loop when no factor is zero, by
 * the gathering one otherwise. */
static void update_row(u64 *row, const Py_ssize_t *cols, const u64 *pt, int w, int k,
                       Py_ssize_t from, Py_ssize_t to, u64 p)
{
    u64 fs[PANEL];
    int ts[PANEL], n = 0;
    for (int t = 0; t < k; t++)
        if (row[cols[t]]) {
            fs[n] = row[cols[t]];
            ts[n++] = t;
        }
    if (n == 1) {
        u64 fq = shoup_quotient(fs[0], p);
        for (Py_ssize_t j = from; j < to; j++)
            row[j] = submod(row[j], mulmod_shoup(pt[j * w + ts[0]], fs[0], fq, p), p);
    } else if (n == PANEL) {
        /* a full panel gets a constant trip count, which gcc unrolls */
        for (Py_ssize_t j = from; j < to; j++)
            row[j] = submod(row[j], (u64)(dot(fs, pt + j * w, PANEL) % p), p);
    } else if (n == k) {
        for (Py_ssize_t j = from; j < to; j++)
            row[j] = submod(row[j], (u64)(dot(fs, pt + j * w, k) % p), p);
    } else if (n > 1) {
        for (Py_ssize_t j = from; j < to; j++) {
            u128 acc = 0;
            for (int s = 0; s < n; s++)
                acc += (u128)fs[s] * pt[j * w + ts[s]];
            row[j] = submod(row[j], (u64)(acc % p), p);
        }
    }
}

/* row[c] -= sum_t f_t P_t[c] mod p for t < k, the factors f_t = row[cols[t]]
 * and P_t[c] = pt[c * w + t] as in update_row: column c of a row brought up
 * to date by the first k pivots of a panel, before it is read. */
static inline void column_update(u64 *row, const Py_ssize_t *cols, const u64 *pt, int w,
                                 int k, Py_ssize_t c, u64 p)
{
    u128 acc = 0;
    for (int t = 0; t < k; t++)
        acc += (u128)row[cols[t]] * pt[c * w + t];
    row[c] = submod(row[c], (u64)(acc % p), p);
}

/* SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
 * generators", OOPSLA 2014): the golden-ratio increment, and the finalizer
 * that turns a counter into a word. */
#define GAMMA 0x9E3779B97F4A7C15ULL

static inline u64 mix64(u64 z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* The top 64 - shift bits of the first word mix64(base + k GAMMA),
 * k = 1, 2, ..., that lie in [1, p): uniform on {1, ..., p - 1} when
 * 64 - shift is the bit length of p - 1, where each word is accepted with
 * probability (p - 1) / 2^(64 - shift) >= 1/2. */
static inline u64 draw_residue(u64 base, int shift, u64 p)
{
    for (;;) {
        base += GAMMA;
        u64 v = mix64(base) >> shift;
        if (v != 0 && v < p)
            return v;
    }
}

/* x^e mod p for e >= 1 and a residue x, from the table pw[1..*top] of the
 * powers of x below POWERS, which it extends as far as e needs; larger
 * powers by powmod.  An exponent row repeats a few small exponents. */
#define POWERS 16

static inline u64 power(u64 *pw, int *top, u64 x, u64 e, u64 p)
{
    if (e >= POWERS)
        return powmod(x, e, p);
    for (; *top < (int)e; (*top)++)
        pw[*top + 1] = *top ? mulmod(pw[*top], x, p) : x;
    return pw[e];
}

/* Every column monomial of the n_vars x n_cols exponent matrix `exps` (int64
 * stored as u64) at the point y (residues mod p), into acc.  A coordinate is
 * inverted only when its row has a negative exponent; returns -1 when that
 * coordinate has no inverse mod p. */
static int eval_columns(const u64 *exps, Py_ssize_t n_vars, Py_ssize_t n_cols,
                        const u64 *y, u64 p, u64 *acc)
{
    for (Py_ssize_t h = 0; h < n_cols; h++)
        acc[h] = 1;
    for (Py_ssize_t i = 0; i < n_vars; i++) {
        const u64 *row = exps + i * n_cols;
        u64 inv = 0, pos[POWERS], neg[POWERS];
        int top_pos = 0, top_neg = 0;
        for (Py_ssize_t h = 0; h < n_cols; h++) {
            int64_t e = (int64_t)row[h];
            if (e > 0) {
                acc[h] = mulmod(acc[h], power(pos, &top_pos, y[i], (u64)e, p), p);
            } else if (e < 0) {
                if (inv == 0 && (inv = invmod(y[i], p)) == 0)
                    return -1;
                acc[h] = mulmod(acc[h], power(neg, &top_neg, inv, 0 - (u64)e, p), p);
            }
        }
    }
    return 0;
}

/* Replaces the rows v = phi(y_0), w_{1,1}, ..., w_{m,r'_m} of `vals` (length n
 * each) by the rows of eta, the formula of _kernels_py.eta_of_columns:
 * row 0 = v * S_1 ... S_m and row (k, j) = v * w_kj * prod_{h != k} S_h,
 * with S_k = 1 + sum_j w_kj.  Scratch: s and suf hold m rows each, pre one
 * row. */
static void assemble_eta(u64 *vals, const Py_ssize_t *rp, Py_ssize_t m, Py_ssize_t n,
                         u64 p, u64 *s, u64 *suf, u64 *pre)
{
    const u64 *w = vals + n;
    for (Py_ssize_t k = 0; k < m; k++) {
        u64 *sk = s + k * n;
        for (Py_ssize_t h = 0; h < n; h++)
            sk[h] = 1;
        for (Py_ssize_t j = 0; j < rp[k]; j++, w += n)
            for (Py_ssize_t h = 0; h < n; h++)
                sk[h] = addmod(sk[h], w[h], p);
    }
    /* suf[k]: the product of S over the factors after factor k (k from 0) */
    for (Py_ssize_t k = m - 1; k >= 0; k--)
        for (Py_ssize_t h = 0; h < n; h++)
            suf[k * n + h] = k == m - 1 ? 1
                : mulmod(s[(k + 1) * n + h], suf[(k + 1) * n + h], p);
    /* pre: v times the S of the factors before factor k; of all, after the loop */
    memcpy(pre, vals, n * sizeof(u64));
    u64 *row = vals + n;
    for (Py_ssize_t k = 0; k < m; k++) {
        u64 *base = suf + k * n;
        for (Py_ssize_t h = 0; h < n; h++)
            base[h] = mulmod(pre[h], base[h], p);
        for (Py_ssize_t j = 0; j < rp[k]; j++, row += n)
            for (Py_ssize_t h = 0; h < n; h++)
                row[h] = mulmod(row[h], base[h], p);
        for (Py_ssize_t h = 0; h < n; h++)
            pre[h] = mulmod(pre[h], s[k * n + h], p);
    }
    memcpy(vals, pre, n * sizeof(u64));
}

/* u = v / S mod p entrywise, with S = 1 + the sum of the rp rows of w
 * (length n each), from one inverse, that of the product of the S
 * (Montgomery's batch inversion), as _kernels_py._scale.  Returns -1 when
 * some S has no inverse mod p.  Scratch: s holds n words. */
static int scale_rows(u64 *u, const u64 *v, const u64 *w, Py_ssize_t rp, Py_ssize_t n,
                      u64 p, u64 *s)
{
    u64 acc = 1;
    for (Py_ssize_t h = 0; h < n; h++) {
        s[h] = 1;
        for (Py_ssize_t j = 0; j < rp; j++)
            s[h] = addmod(s[h], w[j * n + h], p);
        u[h] = acc;  /* the product of the S left of h */
        acc = mulmod(acc, s[h], p);
    }
    u64 inv = invmod(acc, p);
    if (inv == 0)
        return -1;
    for (Py_ssize_t h = n - 1; h >= 0; h--) {
        u[h] = mulmod(mulmod(u[h], inv, p), v[h], p);
        inv = mulmod(inv, s[h], p);
    }
    return 0;
}

/* v mod p in [0, p), with Python's sign convention. */
static inline u64 signed_residue(long long v, u64 p)
{
    u64 m = (v < 0 ? (u64)(-(v + 1)) + 1 : (u64)v) % p;
    return (v < 0 && m) ? p - m : m;
}

/* row reduced by the first `rank` pivot rows of an echelon basis, in the
 * order they were found: each is the factor f of the row at the pivot's
 * column, brought up to date by the pivots before it, times the pivot row.
 * Pivot t is scaled to 1 at its column piv[t], and is 0 left of it and at
 * every earlier pivot column.  The pivots fill panels of
 * w = panel_width(p), each transposed: entry j of pivot t at
 * basis[(t / w) n_cols w + j w + t % w], its own column left out, so that
 * the k entries one update reads are adjacent.  The row pays each panel by
 * column_update at each pivot column in turn, which brings a factor up to
 * date just before it is read, and by update_row on the columns right of
 * the panel's first one; when the panel's columns are contiguous, on those
 * right of its last.  Its entries at the pivot columns are then 0 by
 * construction, and are cleared. */
static void reduce_row(u64 *row, const u64 *basis, const Py_ssize_t *piv, int w,
                       Py_ssize_t n_cols, Py_ssize_t rank, u64 p)
{
    for (Py_ssize_t from = 0; from < rank; from += w) {
        int k = rank - from < w ? (int)(rank - from) : w;
        const Py_ssize_t *cols = piv + from;
        const u64 *pt = basis + from * n_cols;
        Py_ssize_t lo = cols[0], hi = cols[0];
        for (int t = 1; t < k; t++) {
            column_update(row, cols, pt, w, t, cols[t], p);
            lo = cols[t] < lo ? cols[t] : lo;
            hi = cols[t] > hi ? cols[t] : hi;
        }
        update_row(row, cols, pt, w, k, hi - lo >= k ? lo + 1 : hi + 1, n_cols, p);
        for (int t = 0; t < k; t++)
            row[cols[t]] = 0;
    }
}

/* Adds row (residues, clobbered) to the echelon basis of reduce_row, which
 * holds `rank` pivots: the row is reduced by them, and its first nonzero
 * entry left, if any, is a new pivot, whose row is scaled to 1 there.
 * Returns the new rank, or -1 when that pivot has no inverse mod p. */
static Py_ssize_t add_row(u64 *row, u64 *basis, Py_ssize_t *piv, int w,
                          Py_ssize_t n_cols, Py_ssize_t rank, u64 p)
{
    reduce_row(row, basis, piv, w, n_cols, rank, p);
    Py_ssize_t c = 0;
    while (c < n_cols && row[c] == 0)
        c++;
    if (c == n_cols)
        return rank;
    u64 inv = invmod(row[c], p);
    if (inv == 0)
        return -1;
    u64 inv_q = shoup_quotient(inv, p), *pt = basis + rank / w * n_cols * w + rank % w;
    for (Py_ssize_t j = 0; j < n_cols; j++)
        pt[j * w] = j > c ? mulmod_shoup(row[j], inv, inv_q, p) : 0;
    piv[rank] = c;
    return rank + 1;
}

/* The top rows of kr_rank: those of a row-major buffer, each scaled
 * entrywise by `scale` when it is not NULL, or, when rows is NULL, the
 * phi(z_i) of secant_ranks_mod, the column monomials of the n_vars x n_cols
 * exponent matrix exps at z_0 = y_0 and z_i = y_0 y_i for the points y_i of
 * ys.  Scratch: z holds n_vars words, phi n_cols. */
struct tops {
    const u64 *rows, *scale, *exps, *ys;
    Py_ssize_t n_vars;
    u64 *z, *phi;
};

/* Top row i of src, or NULL when a coordinate of z_i has no inverse mod p. */
static const u64 *top_row(const struct tops *src, Py_ssize_t i, Py_ssize_t n_cols, u64 p)
{
    if (src->scale != NULL) {
        for (Py_ssize_t h = 0; h < n_cols; h++)
            src->phi[h] = mulmod(src->scale[h], src->rows[i * n_cols + h], p);
        return src->phi;
    }
    if (src->rows != NULL)
        return src->rows + i * n_cols;
    const u64 *y = src->ys + i * src->n_vars;
    for (Py_ssize_t l = 0; i > 0 && l < src->n_vars; l++)
        src->z[l] = mulmod(src->ys[l], y[l], p);
    if (eval_columns(src->exps, src->n_vars, n_cols, i > 0 ? src->z : y, p, src->phi) < 0)
        return NULL;
    return src->phi;
}

/* The echelon basis of kr_rank, with room for the rank of nt top rows by
 * the nb bottom rows, in panels of panel_width(p); then one scratch row and
 * the Shoup quotients of the bottom rows, which kr_rank multiplies every
 * top row by.  The basis is
 * append-only: pivot t never changes once found, so the basis after its
 * first r pivots is the basis, with its rank set back to r. */
struct basis {
    u64 *buf, *row, *bq;
    Py_ssize_t *piv;
};

static void basis_free(struct basis *b)
{
    PyMem_Free(b->buf);
    PyMem_Free(b->piv);
}

/* Returns -1 with MemoryError set, and nothing to free, on failure. */
static int basis_new(struct basis *b, Py_ssize_t nt, const u64 *bottom, Py_ssize_t nb,
                     Py_ssize_t n_cols, u64 p)
{
    Py_ssize_t max_rank = nb > 0 && nt > n_cols / nb ? n_cols : nt * nb;
    int w = panel_width(p);
    Py_ssize_t words = (max_rank + w - 1) / w * w * n_cols;
    b->buf = PyMem_New(u64, words + (nb + 1) * n_cols);
    b->piv = PyMem_New(Py_ssize_t, max_rank + 1);
    if (b->buf == NULL || b->piv == NULL) {
        basis_free(b);
        b->buf = NULL;
        b->piv = NULL;
        PyErr_NoMemory();
        return -1;
    }
    b->row = b->buf + words;
    b->bq = b->row + n_cols;
    for (Py_ssize_t h = 0; h < nb * n_cols; h++)
        b->bq[h] = shoup_quotient(bottom[h], p);
    return 0;
}

/* The rank of the basis b of rank `rank` with the nt nb rows t_i * bottom[k]
 * (entrywise, in top-major order) added, for the top rows t_i of src, each
 * row built in b's scratch row by Shoup's products and added by add_row.
 * No top row is formed, and no row built, once the rank is n_cols.
 * ranks[i], when ranks is not NULL, is the rank after the rows of t_i.
 * Returns the rank, or -1 for a pivot or a coordinate without an inverse.
 * The panel width is worked out here, where the compiler sees its bound. */
static Py_ssize_t kr_rank(const struct basis *b, const struct tops *src, Py_ssize_t nt,
                          const u64 *bottom, Py_ssize_t nb, Py_ssize_t n_cols, u64 p,
                          Py_ssize_t rank, u64 *ranks)
{
    int w = panel_width(p);
    for (Py_ssize_t i = 0; i < nt && rank >= 0; i++) {
        const u64 *ti = rank < n_cols ? top_row(src, i, n_cols, p) : NULL;
        if (ti == NULL && rank < n_cols)
            rank = -1;
        for (Py_ssize_t at = 0; ti != NULL && at < nb * n_cols && rank >= 0 && rank < n_cols;
             at += n_cols) {
            for (Py_ssize_t h = 0; h < n_cols; h++)
                b->row[h] = mulmod_shoup(ti[h], bottom[at + h], b->bq[at + h], p);
            rank = add_row(b->row, b->buf, b->piv, w, n_cols, rank, p);
        }
        if (ranks != NULL)
            ranks[i] = (u64)rank;
    }
    return rank;
}

/* kr_rank from rank 0 in a basis of its own, sized for its rows: -2 with
 * MemoryError set when that basis does not fit. */
static Py_ssize_t kr_rank_new(const struct tops *src, Py_ssize_t nt, const u64 *bottom,
                              Py_ssize_t nb, Py_ssize_t n_cols, u64 p, u64 *ranks)
{
    struct basis b;
    if (basis_new(&b, nt, bottom, nb, n_cols, p) < 0)
        return -2;
    Py_ssize_t rank = kr_rank(&b, src, nt, bottom, nb, n_cols, p, 0, ranks);
    basis_free(&b);
    return rank;
}

/* x mod p in [0, p) with Python's sign convention; -1 with an exception set
 * on failure.  Integers beyond 64 bits go through Python's own `%`. */
static int residue(PyObject *x, PyObject *p_obj, u64 p, u64 *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(x, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (!overflow) {
        *out = signed_residue(v, p);
        return 0;
    }
    PyObject *r = PyNumber_Remainder(x, p_obj);
    if (r == NULL)
        return -1;
    *out = PyLong_AsUnsignedLongLong(r);
    Py_DECREF(r);
    return (*out == (u64)-1 && PyErr_Occurred()) ? -1 : 0;
}

/* Converts n integers to residues mod p or, when p_obj is NULL, to int64
 * exponents stored as u64.  Returns -1 with an exception set on failure. */
static int read_items(PyObject **items, Py_ssize_t n, PyObject *p_obj, u64 p, u64 *dst)
{
    for (Py_ssize_t j = 0; j < n; j++) {
        if (p_obj != NULL && residue(items[j], p_obj, p, dst + j) < 0)
            return -1;
        if (p_obj == NULL && (dst[j] = (u64)PyLong_AsLongLong(items[j])) == (u64)-1
            && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* Reads a sequence of equally long integer rows into a new row-major buffer
 * (free it with PyMem_Free), converted as by read_items.  Returns -1 with an
 * exception set on failure; *buf is NULL then, and may be NULL for an empty
 * matrix. */
static int read_rows(PyObject *rows, PyObject *p_obj, u64 p,
                     u64 **buf, Py_ssize_t *n_rows, Py_ssize_t *n_cols)
{
    *buf = NULL;
    *n_cols = 0;
    PyObject *seq = PySequence_Fast(rows, "expected a sequence of rows");
    if (seq == NULL)
        return -1;
    *n_rows = PySequence_Fast_GET_SIZE(seq);
    for (Py_ssize_t i = 0; i < *n_rows; i++) {
        PyObject *row = PySequence_Fast(PySequence_Fast_GET_ITEM(seq, i),
                                        "expected a sequence of integers");
        if (row == NULL)
            goto fail;
        Py_ssize_t len = PySequence_Fast_GET_SIZE(row);
        if (i == 0) {
            *n_cols = len;
            *buf = PyMem_New(u64, *n_rows * len);
            if (*buf == NULL)
                PyErr_NoMemory();
        } else if (len != *n_cols) {
            PyErr_SetString(PyExc_ValueError, "rows have different lengths");
        }
        int bad = PyErr_Occurred()
            || read_items(PySequence_Fast_ITEMS(row), len, p_obj, p, *buf + i * len) < 0;
        Py_DECREF(row);
        if (bad)
            goto fail;
    }
    Py_DECREF(seq);
    return 0;
fail:
    Py_DECREF(seq);
    PyMem_Free(*buf);
    *buf = NULL;
    return -1;
}

/* Reads the modulus argument: ValueError unless 2 <= p < 2^64, with the
 * messages of _kernels_py._check_modulus. */
static int read_prime(PyObject *p_obj, u64 *p)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(p_obj, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow < 0 || (overflow == 0 && v < 2)) {
        PyErr_SetString(PyExc_ValueError, "modulus must be at least 2");
        return -1;
    }
    *p = overflow ? PyLong_AsUnsignedLongLong(p_obj) : (u64)v;
    if (*p == (u64)-1 && PyErr_Occurred()) {
        PyErr_Clear();  /* the OverflowError of an int of 2^64 or more */
        PyErr_SetString(PyExc_ValueError, "modulus must be below 2^64");
        return -1;
    }
    return 0;
}

/* Reads the exponent rows (int64 stored as u64) and the points (residues
 * mod p) of eta_mod, secant_ranks_mod and hadamard_ranks_mod into new
 * buffers (free both with PyMem_Free), with the ValueErrors of
 * _kernels_py._points in its order.
 * Returns -1 with an exception set, and both buffers NULL, on failure. */
static int read_points(PyObject *rows, PyObject *points, PyObject *p_obj, u64 p,
                       u64 **exps, Py_ssize_t *n_vars, Py_ssize_t *n_cols,
                       u64 **ys, Py_ssize_t *n_pts)
{
    Py_ssize_t width;
    *ys = NULL;
    if (read_rows(rows, NULL, 0, exps, n_vars, n_cols) < 0)
        return -1;
    if (read_rows(points, p_obj, p, ys, n_pts, &width) == 0 && *n_vars > 0) {
        if (*n_pts > 0 && width != *n_vars)
            PyErr_SetString(PyExc_ValueError, "point length differs from the number of rows");
        for (Py_ssize_t j = 0; !PyErr_Occurred() && j < *n_pts * width; j++)
            if ((*ys)[j] == 0)
                PyErr_SetString(PyExc_ValueError,
                                "torus point has a coordinate divisible by the prime");
    }
    if (!PyErr_Occurred())
        return 0;
    PyMem_Free(*exps);
    PyMem_Free(*ys);
    *exps = *ys = NULL;
    return -1;
}

/* Reads r_prime: m non-negative factor sizes that need sum + 1 points,
 * exactly n_pts or, when not `exact`, at most n_pts, into a new buffer (free
 * it with PyMem_Free, also on failure), with the ValueErrors of
 * _kernels_py._check_factors. */
static int read_factors(PyObject *obj, Py_ssize_t n_pts, int exact, Py_ssize_t **rp,
                        Py_ssize_t *m)
{
    unsigned long long total = 0;  /* saturates at ULLONG_MAX - 1 */
    PyObject *seq = PySequence_Fast(obj, "expected a sequence of factor sizes");
    if (seq == NULL)
        return -1;
    *m = PySequence_Fast_GET_SIZE(seq);
    if ((*rp = PyMem_New(Py_ssize_t, *m + 1)) == NULL)
        PyErr_NoMemory();
    for (Py_ssize_t k = 0; *rp != NULL && k < *m; k++) {
        Py_ssize_t v = PyLong_AsSsize_t(PySequence_Fast_GET_ITEM(seq, k));
        if (v == -1 && PyErr_Occurred())
            break;
        if (v < 0) {
            PyErr_SetString(PyExc_ValueError, "factor sizes r' must be non-negative");
            break;
        }
        (*rp)[k] = v;
        total = (unsigned long long)v < ULLONG_MAX - 1 - total
            ? total + (unsigned long long)v : ULLONG_MAX - 1;
    }
    Py_DECREF(seq);
    if (!PyErr_Occurred() && (exact ? total + 1 != (unsigned long long)n_pts
                              : total + 1 > (unsigned long long)n_pts))
        PyErr_Format(PyExc_ValueError, "factors r' need %llu points, got %zd",
                     total + 1, n_pts);
    return PyErr_Occurred() ? -1 : 0;
}

/* A new list of the n residues v as Python ints, or NULL with an exception. */
static PyObject *int_list(const u64 *v, Py_ssize_t n)
{
    PyObject *out = PyList_New(n);
    for (Py_ssize_t h = 0; out != NULL && h < n; h++) {
        PyObject *x = PyLong_FromUnsignedLongLong(v[h]);
        PyList_SET_ITEM(out, h, x);  /* a list with a NULL slot is safe to free */
        if (x == NULL)
            Py_CLEAR(out);
    }
    return out;
}

/* Python's own message for pow(x, -1, p) without an inverse. */
static const char NOT_INVERTIBLE[] = "base is not invertible for the given modulus";

/* Sets ValueError for the -1 of a missing inverse; true for any failure. */
static int rank_failed(Py_ssize_t rank)
{
    if (rank == -1)
        PyErr_SetString(PyExc_ValueError, NOT_INVERTIBLE);
    return rank < 0;
}

/* The Khatri-Rao rank of the rows with one all-ones row. */
static PyObject *rank_mod(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"rows", "p", NULL};
    PyObject *rows, *p_obj, *out = NULL;
    u64 p, *m, *ones;
    Py_ssize_t n_rows, n_cols, rank;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:rank_mod", kwlist, &rows, &p_obj)
        || read_prime(p_obj, &p) < 0
        || read_rows(rows, p_obj, p, &m, &n_rows, &n_cols) < 0)
        return NULL;
    if ((ones = PyMem_New(u64, n_cols)) == NULL) {
        PyErr_NoMemory();
    } else {
        for (Py_ssize_t h = 0; h < n_cols; h++)
            ones[h] = 1;
        struct tops src = {.rows = m};
        if (!rank_failed(rank = kr_rank_new(&src, n_rows, ones, 1, n_cols, p, NULL)))
            out = PyLong_FromSsize_t(rank);
    }
    PyMem_Free(m);
    PyMem_Free(ones);
    return out;
}

static PyObject *kr_rank_mod(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"top", "bottom", "p", NULL};
    PyObject *top, *bottom, *p_obj, *out = NULL;
    u64 p, *t, *b = NULL;
    Py_ssize_t nt, nb, n_cols, nb_cols, rank;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:kr_rank_mod", kwlist,
                                     &top, &bottom, &p_obj)
        || read_prime(p_obj, &p) < 0
        || read_rows(top, p_obj, p, &t, &nt, &n_cols) < 0)
        return NULL;
    struct tops src = {.rows = t};
    if (read_rows(bottom, p_obj, p, &b, &nb, &nb_cols) == 0) {
        if (nt > 0 && nb > 0 && nb_cols != n_cols)
            PyErr_SetString(PyExc_ValueError, "factors have different column counts");
        else if (!rank_failed(rank = kr_rank_new(&src, nt, b, nb, n_cols, p, NULL)))
            out = PyLong_FromSsize_t(rank);
    }
    PyMem_Free(t);
    PyMem_Free(b);
    return out;
}

static PyObject *eta_mod(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"rows", "r_prime", "points", "p", NULL};
    PyObject *rows, *r_prime, *points, *p_obj, *out = NULL;
    u64 p, *exps, *ys, *vals, *scratch = NULL;
    Py_ssize_t *rp = NULL, n_vars, n_cols, n_pts, m;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO:eta_mod", kwlist,
                                     &rows, &r_prime, &points, &p_obj)
        || read_prime(p_obj, &p) < 0
        || read_points(rows, points, p_obj, p, &exps, &n_vars, &n_cols, &ys, &n_pts) < 0)
        return NULL;
    /* phi at each point, then r', then eta in place, with the 2m + 1 scratch
     * rows of assemble_eta */
    if ((vals = PyMem_New(u64, n_pts * n_cols)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t k = 0; k < n_pts; k++)
        if (eval_columns(exps, n_vars, n_cols, ys + k * n_vars, p, vals + k * n_cols) < 0) {
            PyErr_SetString(PyExc_ValueError, NOT_INVERTIBLE);
            goto done;
        }
    if (read_factors(r_prime, n_pts, 1, &rp, &m) < 0)
        goto done;
    if ((scratch = PyMem_New(u64, (2 * m + 1) * n_cols)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    assemble_eta(vals, rp, m, n_cols, p, scratch, scratch + m * n_cols, scratch + 2 * m * n_cols);
    out = PyList_New(n_pts);
    for (Py_ssize_t k = 0; out != NULL && k < n_pts; k++) {
        PyObject *row = int_list(vals + k * n_cols, n_cols);
        PyList_SET_ITEM(out, k, row);
        if (row == NULL)
            Py_CLEAR(out);
    }
done:
    PyMem_Free(exps);
    PyMem_Free(ys);
    PyMem_Free(rp);
    PyMem_Free(vals);
    PyMem_Free(scratch);
    return out;
}

/* _kernels_py.secant_ranks_mod: the rank after each block of the stacked
 * blocks phi(z_b) (x) rows at the points y_0, ..., y_{R-1}, by kr_rank
 * with the top rows phi(z_b) and the bottom rows the exponent rows mod p. */
static PyObject *secant_ranks_mod(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"rows", "points", "p", NULL};
    PyObject *rows, *points, *p_obj, *out = NULL;
    u64 p, *exps, *ys, *buf;
    Py_ssize_t n_vars, n_cols, n_pts;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:secant_ranks_mod", kwlist,
                                     &rows, &points, &p_obj)
        || read_prime(p_obj, &p) < 0
        || read_points(rows, points, p_obj, p, &exps, &n_vars, &n_cols, &ys, &n_pts) < 0)
        return NULL;
    /* the exponent rows mod p, phi(z_b), z_b and the ranks */
    if ((buf = PyMem_New(u64, (n_vars + 1) * n_cols + n_vars + n_pts)) == NULL) {
        PyErr_NoMemory();
    } else {
        for (Py_ssize_t j = 0; j < n_vars * n_cols; j++)
            buf[j] = signed_residue((int64_t)exps[j], p);
        u64 *phi = buf + n_vars * n_cols, *z = phi + n_cols, *ranks = z + n_vars;
        struct tops src = {.exps = exps, .ys = ys, .n_vars = n_vars, .z = z, .phi = phi};
        if (!rank_failed(kr_rank_new(&src, n_pts, buf, n_vars, n_cols, p, ranks)))
            out = int_list(ranks, n_pts);
    }
    PyMem_Free(exps);
    PyMem_Free(ys);
    PyMem_Free(buf);
    return out;
}

/* _kernels_py.hadamard_ranks_mod: the rank of eta (x) rows for each factor
 * list r' of r_primes at the first sum(r') + 1 points, or None when some
 * S_k(c) has no inverse, from one walk.  phi is evaluated once at each
 * point a list needs.  Block 0 is phi(y_0) (x) rows and factor k's blocks
 * are (u_k phi(y_kj)) (x) rows, u_k = phi(y_0) / S_k (scale_rows), by
 * kr_rank with the scaled rows as top rows.  A list resumes from the basis
 * after the factors it shares with the list before it: at[k] is the rank
 * after block 0 and the first k factors of that list, for k < ready. */
static PyObject *hadamard_ranks_mod(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"rows", "r_primes", "points", "p", NULL};
    PyObject *rows, *r_primes, *points, *p_obj, *seq = NULL, *out = NULL;
    u64 p, *exps, *ys, *buf = NULL;
    Py_ssize_t n_vars, n_cols, n_pts, n_lists = 0, **rps = NULL, *ms = NULL, *at = NULL;
    Py_ssize_t need = 0, depth = 0, ready = 0, prev = 0;
    struct basis b = {NULL, NULL, NULL, NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO:hadamard_ranks_mod", kwlist,
                                     &rows, &r_primes, &points, &p_obj)
        || read_prime(p_obj, &p) < 0
        || read_points(rows, points, p_obj, p, &exps, &n_vars, &n_cols, &ys, &n_pts) < 0)
        return NULL;
    if ((seq = PySequence_Fast(r_primes, "expected a sequence of factor lists")) == NULL)
        goto done;
    n_lists = PySequence_Fast_GET_SIZE(seq);
    rps = PyMem_Calloc(n_lists + 1, sizeof(*rps));
    if ((ms = PyMem_New(Py_ssize_t, n_lists + 1)) == NULL || rps == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t v = 0; v < n_lists; v++) {
        if (read_factors(PySequence_Fast_GET_ITEM(seq, v), n_pts, 0, rps + v, ms + v) < 0)
            goto done;
        Py_ssize_t total = 1;
        for (Py_ssize_t k = 0; k < ms[v]; k++)
            total += rps[v][k];
        need = total > need ? total : need;
        depth = ms[v] > depth ? ms[v] : depth;
    }
    /* phi at each point, the exponent rows mod p, u_k, then two scratch rows */
    buf = PyMem_New(u64, (need + n_vars + depth + 2) * n_cols);
    if (buf == NULL || (at = PyMem_New(Py_ssize_t, depth + 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    u64 *phi = buf, *bottom = phi + need * n_cols, *u = bottom + n_vars * n_cols;
    u64 *s = u + depth * n_cols, *scaled = s + n_cols;
    for (Py_ssize_t k = 0; k < need; k++)
        if (eval_columns(exps, n_vars, n_cols, ys + k * n_vars, p, phi + k * n_cols) < 0) {
            PyErr_SetString(PyExc_ValueError, NOT_INVERTIBLE);
            goto done;
        }
    for (Py_ssize_t j = 0; j < n_vars * n_cols; j++)
        bottom[j] = signed_residue((int64_t)exps[j], p);
    if (basis_new(&b, need, bottom, n_vars, n_cols, p) < 0
        || (out = PyList_New(n_lists)) == NULL)
        goto done;
    for (Py_ssize_t v = 0; v < n_lists; v++) {
        const Py_ssize_t *rp = rps[v];
        Py_ssize_t m = ms[v], j = 0, k, start = 1, first;
        while (j + 1 < ready && j < m && rp[j] == rps[prev][j])
            start += rp[j++];
        for (k = j, first = start; k < m; start += rp[k++])
            if (scale_rows(u + k * n_cols, phi, phi + start * n_cols, rp[k], n_cols, p, s) < 0)
                break;
        prev = v;
        ready = ready < j + 1 ? ready : j + 1;
        PyObject *x = Py_None;
        if (k == m) {
            struct tops src = {.rows = phi};
            if (ready == 0)
                ready = (at[0] = kr_rank(&b, &src, 1, bottom, n_vars, n_cols, p, 0, NULL)) >= 0;
            Py_ssize_t rank = ready ? at[j] : -1;
            for (k = j, start = first; k < m && rank >= 0; start += rp[k++]) {
                src = (struct tops){.rows = phi + start * n_cols, .scale = u + k * n_cols,
                                    .phi = scaled};
                at[k + 1] = rank = kr_rank(&b, &src, rp[k], bottom, n_vars, n_cols, p, rank, NULL);
            }
            if (rank_failed(rank))
                goto fail;
            ready = m + 1;
            x = PyLong_FromSsize_t(rank);
        } else {
            Py_INCREF(x);
        }
        PyList_SET_ITEM(out, v, x);  /* a list with a NULL slot is safe to free */
        if (x == NULL)
            goto fail;
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    for (Py_ssize_t v = 0; rps != NULL && v < n_lists; v++)
        PyMem_Free(rps[v]);
    Py_XDECREF(seq);
    PyMem_Free(exps);
    PyMem_Free(ys);
    PyMem_Free(rps);
    PyMem_Free(ms);
    PyMem_Free(buf);
    PyMem_Free(at);
    basis_free(&b);
    return out;
}

/* Point i of torus_points_mod, a new tuple of `width` residues drawn from
 * the stream s_i, or NULL with an exception. */
static PyObject *torus_point(u64 s_i, Py_ssize_t width, int shift, u64 p)
{
    PyObject *point = PyTuple_New(width);
    for (Py_ssize_t l = 0; point != NULL && l < width; l++) {
        PyObject *x = PyLong_FromUnsignedLongLong(
            draw_residue(mix64(s_i + (u64)(l + 1) * GAMMA), shift, p));
        PyTuple_SET_ITEM(point, l, x);  /* a tuple with a NULL slot is safe to free */
        if (x == NULL)
            Py_CLEAR(point);
    }
    return point;
}

/* _kernels_py.torus_points_mod: with s = mix64(seed + GAMMA) and
 * s_i = mix64(s + (i + 1) GAMMA), coordinate l of point i is
 * draw_residue(mix64(s_i + (l + 1) GAMMA)), all mod 2^64. */
static PyObject *torus_points_mod(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"count", "width", "seed", "p", NULL};
    PyObject *seed_obj, *p_obj, *out;
    Py_ssize_t count, width;
    u64 p, seed;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "nnOO:torus_points_mod", kwlist,
                                     &count, &width, &seed_obj, &p_obj)
        || read_prime(p_obj, &p) < 0)
        return NULL;
    if (count < 0 || width < 1) {
        PyErr_SetString(PyExc_ValueError, "need count >= 0 and width >= 1");
        return NULL;
    }
    /* the seed mod 2^64, negative seeds included */
    seed = PyLong_AsUnsignedLongLongMask(seed_obj);
    if (seed == (u64)-1 && PyErr_Occurred())
        return NULL;
    int shift = __builtin_clzll(p - 1);  /* 64 minus the bit length of p - 1 >= 1 */
    u64 s = mix64(seed + GAMMA);
    out = PyTuple_New(count);
    for (Py_ssize_t i = 0; out != NULL && i < count; i++) {
        PyObject *point = torus_point(mix64(s + (u64)(i + 1) * GAMMA), width, shift, p);
        PyTuple_SET_ITEM(out, i, point);
        if (point == NULL)
            Py_CLEAR(out);
    }
    return out;
}

static PyMethodDef methods[] = {
    {"rank_mod", (PyCFunction)(void (*)(void))rank_mod, METH_VARARGS | METH_KEYWORDS,
     "Rank of an integer matrix over Z/p (entries reduced internally)."},
    {"kr_rank_mod", (PyCFunction)(void (*)(void))kr_rank_mod, METH_VARARGS | METH_KEYWORDS,
     "rank_mod of the Khatri-Rao product without materializing Python rows."},
    {"eta_mod", (PyCFunction)(void (*)(void))eta_mod, METH_VARARGS | METH_KEYWORDS,
     "eta over Z/p for the factors r_prime at the points\n"
     "(_kernels_py.eta_of_columns): the monomials of `rows` evaluated and\n"
     "combined without Python arithmetic."},
    {"secant_ranks_mod", (PyCFunction)(void (*)(void))secant_ranks_mod,
     METH_VARARGS | METH_KEYWORDS,
     "The rank of the Terracini blocks phi(y_0 y_b) (x) rows, b = 0 .. R - 1,\n"
     "after each block (_kernels_py.secant_ranks_mod)."},
    {"hadamard_ranks_mod", (PyCFunction)(void (*)(void))hadamard_ranks_mod,
     METH_VARARGS | METH_KEYWORDS,
     "The rank of eta (x) rows for each factor list r' of r_primes, from the\n"
     "normalised blocks in one walk, or None (_kernels_py.hadamard_ranks_mod)."},
    {"torus_points_mod", (PyCFunction)(void (*)(void))torus_points_mod,
     METH_VARARGS | METH_KEYWORDS,
     "`count` points of (F_p^*)^width from the SplitMix64 stream of `seed`\n"
     "(_kernels_py.torus_points_mod)."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_fastkernels", .m_size = -1, .m_methods = methods,
    .m_doc = "Compiled modular kernels; _kernels_py is the reference implementation.",
};

PyMODINIT_FUNC PyInit__fastkernels(void)
{
    return PyModule_Create(&module);
}
