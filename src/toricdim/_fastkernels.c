/* Compiled modular kernels: rank, Khatri-Rao rank, monomial evaluation.
 *
 * Mirrors _kernels_py, which is the reference: same signatures, same values,
 * and ValueError on the same malformed shapes.  Residues live in 64-bit words
 * and products go through unsigned __int128, so every prime p < 2^64 works.
 * Built by `python3 setup.py build_ext --inplace`.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef uint64_t u64;
typedef unsigned __int128 u128;

static inline u64 mulmod(u64 a, u64 b, u64 p)
{
    return (u64)(((u128)a * b) % p);
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

/* Row-echelon elimination in place over F_p; returns the rank.  Entries must
 * already be reduced below p. */
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
        u64 inv = powmod(prow[c], p - 2, p);
        for (Py_ssize_t j = c; j < n_cols; j++)
            prow[j] = mulmod(prow[j], inv, p);
        for (Py_ssize_t i = rank + 1; i < n_rows; i++) {
            u64 *row = m + i * n_cols;
            u64 f = row[c];
            if (f == 0)
                continue;
            for (Py_ssize_t j = c; j < n_cols; j++) {
                /* a - x mod p without a branch; a + p could overflow a u64 */
                u64 a = row[j], x = mulmod(f, prow[j], p);
                row[j] = (a - x) + (a < x ? p : 0);
            }
        }
        rank++;
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
    return PyLong_FromSsize_t(rank);
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
    return PyErr_Occurred() ? NULL : PyLong_FromSsize_t(rank);
}

static PyObject *eval_columns_mod(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"mat", "point", "p", NULL};
    PyObject *mat, *point, *p_obj, *out = NULL;
    u64 p, *exps, *ys = NULL, *acc;
    Py_ssize_t n_rows, n_cols;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:eval_columns_mod", kwlist,
                                     &mat, &point, &p_obj)
        || read_prime(p_obj, &p) < 0
        || read_rows(mat, NULL, 0, &exps, &n_rows, &n_cols) < 0)
        return NULL;
    if (n_rows == 0) {
        out = PyList_New(0);
        goto done;
    }
    PyObject *seq = PySequence_Fast(point, "expected a sequence of coordinates");
    if (seq == NULL)
        goto done;
    if (PySequence_Fast_GET_SIZE(seq) != n_rows)
        PyErr_SetString(PyExc_ValueError,
                        "point length differs from the number of rows");
    /* one buffer: the point's residues, then the column products */
    else if ((ys = PyMem_New(u64, n_rows + n_cols)) == NULL)
        PyErr_NoMemory();
    else if (read_items(PySequence_Fast_ITEMS(seq), n_rows, p_obj, p, ys) == 0)
        for (Py_ssize_t i = 0; i < n_rows; i++)
            if (ys[i] == 0) {
                PyErr_SetString(PyExc_ValueError,
                                "torus point has a coordinate divisible by the prime");
                break;
            }
    Py_DECREF(seq);
    if (PyErr_Occurred())
        goto done;
    acc = ys + n_rows;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t h = 0; h < n_cols; h++)
        acc[h] = 1 % p;
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        u64 y = ys[i], inv_y = powmod(y, p - 2, p);
        for (Py_ssize_t h = 0; h < n_cols; h++) {
            int64_t e = (int64_t)exps[i * n_cols + h];
            u64 base = e >= 0 ? powmod(y, (u64)e, p) : powmod(inv_y, 0 - (u64)e, p);
            acc[h] = mulmod(acc[h], base, p);
        }
    }
    Py_END_ALLOW_THREADS
    out = PyList_New(n_cols);
    for (Py_ssize_t h = 0; out != NULL && h < n_cols; h++) {
        PyObject *v = PyLong_FromUnsignedLongLong(acc[h]);
        PyList_SET_ITEM(out, h, v);  /* a list with a NULL slot is safe to free */
        if (v == NULL)
            Py_CLEAR(out);
    }
done:
    PyMem_Free(exps);
    PyMem_Free(ys);
    return out;
}

static PyMethodDef methods[] = {
    {"rank_mod", (PyCFunction)(void (*)(void))rank_mod, METH_VARARGS | METH_KEYWORDS,
     "Rank of an integer matrix over F_p (entries reduced internally)."},
    {"kr_rank_mod", (PyCFunction)(void (*)(void))kr_rank_mod, METH_VARARGS | METH_KEYWORDS,
     "rank_mod of the Khatri-Rao product without materializing Python rows."},
    {"eval_columns_mod", (PyCFunction)(void (*)(void))eval_columns_mod,
     METH_VARARGS | METH_KEYWORDS,
     "Evaluate every column monomial of `mat` at `point` over F_p; mat[l][h] is\n"
     "the exponent of point[l] in column h and may be negative."},
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
