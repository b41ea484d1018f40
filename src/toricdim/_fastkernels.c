/* Compiled modular kernels, three entry points: rank_mod, hadamard_ranks_mod
 * (the ranks of a batch of Hadamard probes, secant probes among them, from
 * their normalised blocks, one walk that rewinds the basis to the blocks
 * each list shares with the one before it) and torus_points_mod (the
 * uniform points of (F_p^*)^n a probe attempt is taken at, from a
 * counter-based SplitMix64 stream).
 *
 * Mirrors _kernels_py, which is the reference: same values, and ValueError on
 * the same moduli, malformed shapes, counts and non-invertible pivots, in
 * the same order; read_points checks the exponent rows and points of
 * hadamard_ranks_mod as _kernels_py._points does.  No entry point releases
 * the GIL.  Residues live in 64-bit words, so every modulus 2 <= p < 2^64
 * works.  One-off products go through unsigned __int128 and a 128-by-64-bit
 * `%` (mulmod); a row of products by one factor f takes Shoup's method,
 * with floor(f 2^64 / p) computed once (mulmod_shoup).
 *
 * Every rank is one loop (kr_rank) that forms Khatri-Rao rows, a top row
 * times each bottom row entrywise, and adds them, in order, to one row
 * echelon basis (add_row).  The top rows come from a buffer, or from a
 * buffer scaled entrywise (hadamard_ranks_mod's normalised blocks);
 * rank_mod's one bottom row is all ones.  A row is reduced by the pivot
 * rows found so far, and its first nonzero entry left, if any, is a new
 * pivot.  When p < 2^32 and max_rank (p - 1)^2 + p < 2^64 for the most
 * pivots a basis holds, max_rank (word_path: at 67108859, the first draw
 * of every probe, up to 4096 pivots), the reductions are deferred, as the
 * dense linear algebra libraries over word-size primes do (Dumas, Giorgi
 * and Pernet, "Dense linear algebra over word-size prime fields: the FFLAS
 * and FFPACK packages", ACM TOMS 2008): each pivot is a row of 32-bit
 * words, and a row adds the products f P_t[j] of four pivots a pass to its
 * 64-bit entries unreduced, reading an entry mod p only as a factor
 * (reduce_words, compiled also for AVX2, which the module's init picks
 * where the CPU has it).  Otherwise each pivot is a row of residues, and a
 * row takes one pivot at a time by Shoup's update (reduce_row).  The walk
 * of sigma_55 of v_4(P^8), 495 x 495, best of 9 on a 2-vCPU Xeon machine
 * with AVX2, took 45 to 53 ms at 2^61 - 1, and at 67108859, best of 45,
 * 8.7 ms a pivot a pass, 6.9 four a pass, 5.9 a pivot a pass with AVX2,
 * 5.3 four with it.  Built by `python3 setup.py build_ext --inplace`.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>

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

/* u = v / S mod p entrywise, with S = 1 + the sum of the rp rows of w
 * (length n each), from one inverse, that of the product of the S
 * (Montgomery's batch inversion), as _kernels_py._scale(v, S).  Returns -1
 * when some S has no inverse mod p.  Scratch: s holds n words. */
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
 * order found.  Pivot t is the n_cols residues at basis + t n_cols, 0 left
 * of its column piv[t], at it (its 1 is implied) and at every earlier pivot
 * column, so the row's factor f there is up to date when t comes.  A zero f
 * skips t; otherwise the row takes f P_t[j] off each column j right of
 * piv[t] by Shoup's update, and is cleared at piv[t]. */
static void reduce_row(u64 *row, const u64 *basis, const Py_ssize_t *piv, Py_ssize_t n_cols,
                       Py_ssize_t rank, u64 p)
{
    for (Py_ssize_t t = 0; t < rank; t++) {
        Py_ssize_t c = piv[t];
        u64 f = row[c];
        if (f == 0)
            continue;
        u64 fq = shoup_quotient(f, p);
        for (Py_ssize_t j = c + 1; j < n_cols; j++)
            row[j] = submod(row[j], mulmod_shoup(basis[t * n_cols + j], f, fq, p), p);
        row[c] = 0;
    }
}

/* The word path's condition, p < 2^32 and max_rank (p - 1)^2 + p < 2^64:
 * then no entry of a row that reduce_words reduces wraps. */
static int word_path(u64 p, Py_ssize_t max_rank)
{
    return p >> 32 == 0 && (u128)max_rank * ((p - 1) * (p - 1)) + p <= UINT64_MAX;
}

#define WORDS 4  /* the most pivots of a pass of reduce_words over a row */

/* row[j] += sum_s g[s] P_s[j] for j >= from, unreduced, inlined with n a
 * constant: the sum unrolls and the loop over j vectorises (pmuludq). */
static inline __attribute__((always_inline)) void
add_words(u64 *row, const uint32_t *const *ps, const uint32_t *g, int n, Py_ssize_t from,
          Py_ssize_t n_cols)
{
    for (Py_ssize_t j = from; j < n_cols; j++) {
        u64 acc = row[j];
        for (int s = 0; s < n; s++)
            acc += (u64)g[s] * ps[s][j];
        row[j] = acc;
    }
}

/* row reduced by the first `rank` pivot rows of the word path, in the order
 * found, WORDS a pass.  Pivot t is the n_cols words at basis + t n_cols, 0
 * left of its column c_t = piv[t], at c_t (its 1 is implied) and at every
 * earlier pivot column.  A pass takes its factors in order, f_t = (row[c_t]
 * + sum_{s<t} g_s P_s[c_t]) mod p with g_s = p - f_s, the column brought up
 * to date, drops the zero ones, adds sum_s g_s P_s[j] right of the leftmost
 * c_s and clears its pivot columns.  An entry starts below p and gains
 * (p - 1)^2 at most a pivot, so word_path bounds it; the pivots are
 * unitriangular, so the reduced row, and each pivot, is reduce_row's. */
static inline __attribute__((always_inline)) void
reduce_words_portable(u64 *row, const uint32_t *basis, const Py_ssize_t *piv,
                      Py_ssize_t n_cols, Py_ssize_t rank, u64 p)
{
    for (Py_ssize_t from = 0; from < rank; from += WORDS) {
        const uint32_t *ps[WORDS];
        uint32_t g[WORDS];
        int k = rank - from < WORDS ? (int)(rank - from) : WORDS, n = 0;
        Py_ssize_t lo = n_cols;
        for (int t = 0; t < k; t++) {
            Py_ssize_t c = piv[from + t];
            u64 f = row[c];
            for (int s = 0; s < n; s++)
                f += (u64)g[s] * ps[s][c];
            if ((f %= p) != 0) {
                ps[n] = basis + (from + t) * n_cols;
                g[n++] = (uint32_t)(p - f);
                lo = c < lo ? c : lo;
            }
        }
        switch (n) {
        case 1: add_words(row, ps, g, 1, lo + 1, n_cols); break;
        case 2: add_words(row, ps, g, 2, lo + 1, n_cols); break;
        case 3: add_words(row, ps, g, 3, lo + 1, n_cols); break;
        case 4: add_words(row, ps, g, 4, lo + 1, n_cols); break;
        }
        for (int t = 0; t < k; t++)
            row[piv[from + t]] = 0;
    }
}

/* reduce_words_portable for AVX2 (x86-64, gcc or clang), which the init
 * picks where the CPU has it; the test builds that check the portable copy
 * on an AVX2 machine leave it out with -DTORICDIM_PORTABLE_WORDS. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(TORICDIM_PORTABLE_WORDS)
#define AVX2_WORDS
__attribute__((target("avx2"))) static void
reduce_words_avx2(u64 *row, const uint32_t *basis, const Py_ssize_t *piv, Py_ssize_t n_cols,
                  Py_ssize_t rank, u64 p)
{
    reduce_words_portable(row, basis, piv, n_cols, rank, p);
}
#endif

static void (*reduce_words)(u64 *, const uint32_t *, const Py_ssize_t *, Py_ssize_t,
                            Py_ssize_t, u64) = reduce_words_portable;

/* The echelon basis of kr_rank, with room for the rank of nt top rows by
 * the nb bottom rows: 32-bit rows when word_path holds for that rank
 * (`words`, else NULL), else rows of residues, row-major; then one scratch
 * row and the Shoup quotients of the bottom rows, which kr_rank multiplies
 * every top row by.  The basis is append-only: pivot t never changes once
 * found, so the basis after its first r pivots is the basis, with its rank
 * set back to r. */
struct basis {
    u64 *buf, *row, *bq;
    uint32_t *words;
    Py_ssize_t *piv;
};

/* Adds b's scratch row (residues, clobbered) to the basis b, which holds
 * `rank` pivots: the row is reduced by them, and its first entry left that
 * is not 0 mod p, if any, is a new pivot, whose row is scaled to 1 there
 * and stored with 0 there and left of it.  Returns the new rank, or -1 when
 * that pivot has no inverse mod p. */
static Py_ssize_t add_row(const struct basis *b, Py_ssize_t n_cols, Py_ssize_t rank, u64 p)
{
    u64 *row = b->row;
    if (b->words != NULL)
        reduce_words(row, b->words, b->piv, n_cols, rank, p);
    else
        reduce_row(row, b->buf, b->piv, n_cols, rank, p);
    Py_ssize_t c = 0;
    while (c < n_cols && (row[c] < p ? row[c] : row[c] % p) == 0)
        c++;
    if (c == n_cols)
        return rank;
    u64 inv = invmod(row[c], p);
    if (inv == 0)
        return -1;
    u64 inv_q = shoup_quotient(inv, p);
    for (Py_ssize_t j = 0; j < n_cols; j++) {
        u64 x = j > c ? mulmod_shoup(row[j], inv, inv_q, p) : 0;
        if (b->words != NULL)
            b->words[rank * n_cols + j] = (uint32_t)x;
        else
            b->buf[rank * n_cols + j] = x;
    }
    b->piv[rank] = c;
    return rank + 1;
}

/* The top rows of kr_rank: those of a row-major buffer, each scaled
 * entrywise by `scale`, into the scratch row `scaled`, when it is not NULL. */
struct tops {
    const u64 *rows, *scale;
    u64 *scaled;
};

static const u64 *top_row(const struct tops *src, Py_ssize_t i, Py_ssize_t n_cols, u64 p)
{
    if (src->scale == NULL)
        return src->rows + i * n_cols;
    for (Py_ssize_t h = 0; h < n_cols; h++)
        src->scaled[h] = mulmod(src->scale[h], src->rows[i * n_cols + h], p);
    return src->scaled;
}

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
    int word = word_path(p, max_rank);
    Py_ssize_t words = word ? (max_rank * n_cols + 1) / 2 : max_rank * n_cols;
    b->buf = PyMem_New(u64, words + (nb + 1) * n_cols);
    b->piv = PyMem_New(Py_ssize_t, max_rank + 1);
    if (b->buf == NULL || b->piv == NULL) {
        basis_free(b);
        b->buf = NULL;
        b->piv = NULL;
        PyErr_NoMemory();
        return -1;
    }
    b->words = word ? (uint32_t *)b->buf : NULL;
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
 * Returns the rank, or -1 for a pivot without an inverse. */
static Py_ssize_t kr_rank(const struct basis *b, const struct tops *src, Py_ssize_t nt,
                          const u64 *bottom, Py_ssize_t nb, Py_ssize_t n_cols, u64 p,
                          Py_ssize_t rank, Py_ssize_t *ranks)
{
    for (Py_ssize_t i = 0; i < nt && rank >= 0; i++) {
        const u64 *ti = rank < n_cols ? top_row(src, i, n_cols, p) : NULL;
        for (Py_ssize_t at = 0; ti != NULL && at < nb * n_cols && rank >= 0 && rank < n_cols;
             at += n_cols) {
            for (Py_ssize_t h = 0; h < n_cols; h++)
                b->row[h] = mulmod_shoup(ti[h], bottom[at + h], b->bq[at + h], p);
            rank = add_row(b, n_cols, rank, p);
        }
        if (ranks != NULL)
            ranks[i] = rank;
    }
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
 * mod p) of hadamard_ranks_mod into new buffers (free both with
 * PyMem_Free), with the ValueErrors of _kernels_py._points in its order.
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

/* Reads r_prime: m non-negative factor sizes that need sum + 1 <= n_pts
 * points, into a new buffer (free it with PyMem_Free, also on failure), with
 * the ValueErrors of _kernels_py._check_factors. */
static int read_factors(PyObject *obj, Py_ssize_t n_pts, Py_ssize_t **rp, Py_ssize_t *m)
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
    if (!PyErr_Occurred() && total + 1 > (unsigned long long)n_pts)
        PyErr_Format(PyExc_ValueError, "factors r' need %llu points, got %zd",
                     total + 1, n_pts);
    return PyErr_Occurred() ? -1 : 0;
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

/* The Khatri-Rao rank of the rows with one all-ones row, in a basis of its
 * own. */
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
        struct basis b;
        if (basis_new(&b, n_rows, ones, 1, n_cols, p) == 0) {
            rank = kr_rank(&b, &src, n_rows, ones, 1, n_cols, p, 0, NULL);
            basis_free(&b);
            if (!rank_failed(rank))
                out = PyLong_FromSsize_t(rank);
        }
    }
    PyMem_Free(m);
    PyMem_Free(ones);
    return out;
}

/* _kernels_py._shared: the leading blocks that the walks of the factor
 * lists a (ma sizes) and b (mb) share. */
static Py_ssize_t shared_blocks(const Py_ssize_t *a, Py_ssize_t ma, const Py_ssize_t *b,
                                Py_ssize_t mb)
{
    Py_ssize_t a1 = ma ? a[0] : 0, b1 = mb ? b[0] : 0, shared = 1 + (a1 < b1 ? a1 : b1);
    for (Py_ssize_t k = 1; a1 == b1 && k < ma && k < mb && a[k] == b[k]; k++)
        shared += a[k];
    return shared;
}

/* _kernels_py.hadamard_ranks_mod: the rank of eta (x) rows for each factor
 * list r' of r_primes at the first sum(r') + 1 points, or None when some
 * S_k(c), k >= 2, has no inverse, from one walk.  phi is evaluated once at
 * each point a list needs.  By kr_rank, with the bottom rows v * rows mod p,
 * v = phi(y_0), the top row of block 0 is all ones (in phi's row 0), those
 * of factor 1 are phi(y_1j), and those of factor k phi(y_kj) scaled by
 * u_k = S_1 / S_k (scale_rows).  A list resumes from the basis after the
 * blocks it shares with the list before it: at[b] is the rank after block b
 * of the walk, for b < ready. */
static PyObject *hadamard_ranks_mod(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"rows", "r_primes", "points", "p", NULL};
    PyObject *rows, *r_primes, *points, *p_obj, *seq = NULL, *out = NULL;
    u64 p, *exps, *ys, *buf = NULL;
    Py_ssize_t n_vars, n_cols, n_pts, n_lists = 0, **rps = NULL, *ms = NULL, *at = NULL;
    Py_ssize_t need = 0, depth = 0, ready = 0;
    struct basis b = {NULL, NULL, NULL, NULL, NULL};
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
        if (read_factors(PySequence_Fast_GET_ITEM(seq, v), n_pts, rps + v, ms + v) < 0)
            goto done;
        Py_ssize_t total = 1;
        for (Py_ssize_t k = 0; k < ms[v]; k++)
            total += rps[v][k];
        need = total > need ? total : need;
        depth = ms[v] > depth ? ms[v] : depth;
    }
    /* phi at each point, the bottom rows, u_k, then three scratch rows */
    buf = PyMem_New(u64, (need + n_vars + depth + 3) * n_cols);
    if (buf == NULL || (at = PyMem_New(Py_ssize_t, need + 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    u64 *phi = buf, *bottom = phi + need * n_cols, *u = bottom + n_vars * n_cols;
    u64 *s1 = u + depth * n_cols, *s = s1 + n_cols, *scaled = s + n_cols;
    /* The bottom rows need phi at point 0 only, and the basis comes next,
     * so a walk whose basis does not fit fails before evaluating phi at its
     * other points; only that MemoryError can precede a ValueError that the
     * pure twin, never short of memory, raises first (a later point's). */
    for (Py_ssize_t k = 0; k < need; k++) {
        if (eval_columns(exps, n_vars, n_cols, ys + k * n_vars, p, phi + k * n_cols) < 0) {
            PyErr_SetString(PyExc_ValueError, NOT_INVERTIBLE);
            goto done;
        }
        for (Py_ssize_t j = 0; k == 0 && j < n_vars * n_cols; j++)
            bottom[j] = mulmod(signed_residue((int64_t)exps[j], p), phi[j % n_cols], p);
        for (Py_ssize_t h = 0; k == 0 && h < n_cols; h++)
            phi[h] = 1;
        if (k == 0 && basis_new(&b, need, bottom, n_vars, n_cols, p) < 0)
            goto done;
    }
    if ((out = PyList_New(n_lists)) == NULL)
        goto done;
    for (Py_ssize_t v = 0; v < n_lists; v++) {
        const Py_ssize_t *rp = rps[v];
        Py_ssize_t m = ms[v], first = m ? rp[0] : 0, k = 1, start = 1 + first, end;
        if (v > 0) {
            Py_ssize_t keep = shared_blocks(rps[v - 1], ms[v - 1], rp, m);
            ready = keep < ready ? keep : ready;
        }
        for (int have_s1 = 0; k < m; start += rp[k++]) {
            if (start + rp[k] <= ready)
                continue;
            for (Py_ssize_t h = 0; !have_s1 && h < n_cols; h++) {
                s1[h] = 1;
                for (Py_ssize_t j = 1; j <= first; j++)
                    s1[h] = addmod(s1[h], phi[j * n_cols + h], p);
            }
            have_s1 = 1;
            if (scale_rows(u + k * n_cols, s1, phi + start * n_cols, rp[k], n_cols, p, s) < 0)
                break;
        }
        PyObject *x = Py_None;
        if (k >= m) {
            /* blocks [start, end): block 0 and factor 1's, then those of
             * each factor k with its scale, from block `ready` on */
            Py_ssize_t rank = ready ? at[ready - 1] : 0;
            for (k = 0, start = 0; (k == 0 || k < m) && rank >= 0; k++, start = end) {
                end = k ? start + rp[k] : 1 + first;
                Py_ssize_t from = start > ready ? start : ready;
                struct tops src = {phi + from * n_cols, k ? u + k * n_cols : NULL, scaled};
                if (end > from)
                    rank = kr_rank(&b, &src, end - from, bottom, n_vars, n_cols, p, rank,
                                   at + from);
            }
            if (rank_failed(rank))
                goto fail;
            ready = start;
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
#ifdef AVX2_WORDS
    reduce_words = __builtin_cpu_supports("avx2") ? reduce_words_avx2 : reduce_words_portable;
#endif
    return PyModule_Create(&module);
}
