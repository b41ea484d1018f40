/* Compiled modular kernels, three entry points: rank_mod, kr_rank_mod (the
 * rank of a Khatri-Rao product) and eta_mod (the eta matrix of a probe
 * attempt, with the column monomials evaluated in place).
 *
 * Mirrors _kernels_py, which is the reference: same values, and ValueError on
 * the same malformed shapes and non-invertible pivots.
 * Residues live in 64-bit words, so every modulus p < 2^64 works.  One-off
 * products go through unsigned __int128 and a 128-by-64-bit `%` (mulmod).
 * The elimination's row updates need no division: a row update multiplies
 * a whole row by one factor f, so floor(f 2^64 / p) is computed once per
 * row, and each entry's f y mod p takes three word multiplies and one
 * conditional subtraction (Shoup's method, see mulmod_shoup).  Built by
 * `python3 setup.py build_ext --inplace`.
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

/* Row-echelon elimination in place over Z/p; returns the rank, or -1 when a
 * pivot has no inverse mod p.  Entries must already be reduced below p. */
static Py_ssize_t rank_buffer(u64 *m, Py_ssize_t n_rows, Py_ssize_t n_cols, u64 p)
{
    Py_ssize_t rank = 0;
    for (Py_ssize_t c = 0; c < n_cols && rank < n_rows; c++) {
        Py_ssize_t piv = rank;
        while (piv < n_rows && m[piv * n_cols + c] == 0)
            piv++;
        if (piv == n_rows)
            continue;
        u64 *prow = m + rank * n_cols;
        if (piv != rank) {
            /* entries left of c in rows >= rank are already zero */
            u64 *other = m + piv * n_cols;
            for (Py_ssize_t j = c; j < n_cols; j++) {
                u64 tmp = prow[j];
                prow[j] = other[j];
                other[j] = tmp;
            }
        }
        u64 inv = invmod(prow[c], p);
        if (inv == 0)
            return -1;
        u64 inv_q = shoup_quotient(inv, p);
        for (Py_ssize_t j = c; j < n_cols; j++)
            prow[j] = mulmod_shoup(prow[j], inv, inv_q, p);
        for (Py_ssize_t i = rank + 1; i < n_rows; i++) {
            u64 *row = m + i * n_cols;
            u64 f = row[c];
            if (f == 0)
                continue;
            u64 fq = shoup_quotient(f, p);
            for (Py_ssize_t j = c; j < n_cols; j++) {
                /* a - x mod p without a branch; a + p could overflow a u64 */
                u64 a = row[j], x = mulmod_shoup(prow[j], f, fq, p);
                row[j] = (a - x) + (a < x ? p : 0);
            }
        }
        rank++;
    }
    return rank;
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
        u64 inv = 0;
        for (Py_ssize_t h = 0; h < n_cols; h++) {
            int64_t e = (int64_t)row[h];
            if (e > 0) {
                acc[h] = mulmod(acc[h], powmod(y[i], (u64)e, p), p);
            } else if (e < 0) {
                if (inv == 0 && (inv = invmod(y[i], p)) == 0)
                    return -1;
                acc[h] = mulmod(acc[h], powmod(inv, 0 - (u64)e, p), p);
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

/* x mod p in [0, p) with Python's sign convention; -1 with an exception set
 * on failure.  Integers beyond 64 bits go through Python's own `%`. */
static int residue(PyObject *x, PyObject *p_obj, u64 p, u64 *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(x, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (!overflow) {
        u64 m = (v < 0 ? (u64)(-(v + 1)) + 1 : (u64)v) % p;
        *out = (v < 0 && m) ? p - m : m;
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

/* Reads the modulus argument; only 2 <= p < 2^64 is supported. */
static int read_prime(PyObject *p_obj, u64 *p)
{
    *p = PyLong_AsUnsignedLongLong(p_obj);  /* (u64)-1 on error */
    if (*p < 2)
        PyErr_SetString(PyExc_ValueError, "modulus must be at least 2");
    return PyErr_Occurred() ? -1 : 0;
}

/* Raises ValueError unless every one of the n residues is nonzero. */
static int check_nonzero(const u64 *ys, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++)
        if (ys[i] == 0) {
            PyErr_SetString(PyExc_ValueError,
                            "torus point has a coordinate divisible by the prime");
            return -1;
        }
    return 0;
}

/* Reads r_prime: m non-negative factor sizes summing to n_pts - 1, into a
 * new buffer (free it with PyMem_Free). */
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
    if (!PyErr_Occurred() && total != (unsigned long long)n_pts - 1)
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

/* The rank as a Python int, or ValueError for the -1 of a missing inverse. */
static PyObject *rank_result(Py_ssize_t rank)
{
    if (rank < 0) {
        PyErr_SetString(PyExc_ValueError, NOT_INVERTIBLE);
        return NULL;
    }
    return PyLong_FromSsize_t(rank);
}

static PyObject *rank_mod(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"rows", "p", NULL};
    PyObject *rows, *p_obj;
    u64 p, *m;
    Py_ssize_t n_rows, n_cols, rank;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:rank_mod", kwlist, &rows, &p_obj)
        || read_prime(p_obj, &p) < 0
        || read_rows(rows, p_obj, p, &m, &n_rows, &n_cols) < 0)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    rank = rank_buffer(m, n_rows, n_cols, p);
    Py_END_ALLOW_THREADS
    PyMem_Free(m);
    return rank_result(rank);
}

static PyObject *kr_rank_mod(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"top", "bottom", "p", NULL};
    PyObject *top, *bottom, *p_obj;
    u64 p, *t, *b = NULL, *kr;
    Py_ssize_t nt, nb, n_cols, nb_cols, rank = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:kr_rank_mod", kwlist,
                                     &top, &bottom, &p_obj)
        || read_prime(p_obj, &p) < 0
        || read_rows(top, p_obj, p, &t, &nt, &n_cols) < 0)
        return NULL;
    if (read_rows(bottom, p_obj, p, &b, &nb, &nb_cols) < 0 || nt == 0 || nb == 0)
        goto done;
    if (nb_cols != n_cols) {
        PyErr_SetString(PyExc_ValueError, "factors have different column counts");
        goto done;
    }
    kr = PyMem_New(u64, nt * nb * n_cols);
    if (kr == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    /* row i * nb + k of the product is top[i] * bottom[k], entrywise */
    for (Py_ssize_t i = 0; i < nt; i++)
        for (Py_ssize_t k = 0; k < nb; k++) {
            u64 *dst = kr + (i * nb + k) * n_cols;
            for (Py_ssize_t h = 0; h < n_cols; h++)
                dst[h] = mulmod(t[i * n_cols + h], b[k * n_cols + h], p);
        }
    rank = rank_buffer(kr, nt * nb, n_cols, p);
    Py_END_ALLOW_THREADS
    PyMem_Free(kr);
done:
    PyMem_Free(t);
    PyMem_Free(b);
    return PyErr_Occurred() ? NULL : rank_result(rank);
}

static PyObject *eta_mod(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"rows", "r_prime", "points", "p", NULL};
    PyObject *rows, *r_prime, *points, *p_obj, *out = NULL;
    u64 p, *exps, *ys = NULL, *buf = NULL, *s, *suf, *pre;
    Py_ssize_t *rp = NULL, n_vars, n_cols, n_pts, width, m;
    int failed = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO:eta_mod", kwlist,
                                     &rows, &r_prime, &points, &p_obj)
        || read_prime(p_obj, &p) < 0
        || read_rows(rows, NULL, 0, &exps, &n_vars, &n_cols) < 0)
        return NULL;
    if (read_rows(points, p_obj, p, &ys, &n_pts, &width) < 0
        || read_factors(r_prime, n_pts, &rp, &m) < 0)
        goto done;
    if (n_vars > 0 && width != n_vars) {
        PyErr_SetString(PyExc_ValueError, "point length differs from the number of rows");
        goto done;
    }
    /* eta's n_pts rows, then the scratch rows of assemble_eta */
    if ((n_vars > 0 && check_nonzero(ys, n_pts * n_vars) < 0)
        || (buf = PyMem_New(u64, (n_pts + 2 * m + 1) * n_cols)) == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        goto done;
    }
    s = buf + n_pts * n_cols;
    suf = s + m * n_cols;
    pre = suf + m * n_cols;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t k = 0; !failed && k < n_pts; k++)
        failed = eval_columns(exps, n_vars, n_cols, ys + k * n_vars, p, buf + k * n_cols) < 0;
    if (!failed)
        assemble_eta(buf, rp, m, n_cols, p, s, suf, pre);
    Py_END_ALLOW_THREADS
    if (failed) {
        PyErr_SetString(PyExc_ValueError, NOT_INVERTIBLE);
        goto done;
    }
    out = PyList_New(n_pts);
    for (Py_ssize_t k = 0; out != NULL && k < n_pts; k++) {
        PyObject *row = int_list(buf + k * n_cols, n_cols);
        PyList_SET_ITEM(out, k, row);
        if (row == NULL)
            Py_CLEAR(out);
    }
done:
    PyMem_Free(exps);
    PyMem_Free(ys);
    PyMem_Free(rp);
    PyMem_Free(buf);
    return out;
}

static PyMethodDef methods[] = {
    {"rank_mod", (PyCFunction)(void (*)(void))rank_mod, METH_VARARGS | METH_KEYWORDS,
     "Rank of an integer matrix over Z/p (entries reduced internally)."},
    {"kr_rank_mod", (PyCFunction)(void (*)(void))kr_rank_mod, METH_VARARGS | METH_KEYWORDS,
     "rank_mod of the Khatri-Rao product without materializing Python rows."},
    {"eta_mod", (PyCFunction)(void (*)(void))eta_mod, METH_VARARGS | METH_KEYWORDS,
     "eta over Z/p for the factors r_prime at the points (probing.eta): the\n"
     "monomials of `rows` evaluated and combined without Python arithmetic."},
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
