/* Compiled backend for the hot kernels: plain C99 over the CPython API.
 *
 * Every function is bit-identical to its namesake in ``_pykernels``, which
 * documents the contracts and serves as the test oracle.  Inputs are coerced
 * by calling ``numpy.ascontiguousarray`` (after ``numpy.atleast_2d`` where the
 * reference applies it) as ordinary Python functions and are then read
 * through the buffer protocol; outputs are ``numpy.empty`` arrays written the
 * same way.  No numpy C API is used, so a C compiler is the only build
 * requirement.  The module keeps the name ``_cykernels`` under which the
 * backend switch and the benchmark harness import it.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MATCH_DP_MAX 22

static PyObject *np_ascontiguousarray, *np_atleast_2d, *np_empty;

/* ------------------------------------------------------------ arrays -- */
typedef struct { PyObject *obj; Py_buffer view; } Arr;   /* an array and its buffer */

#define SHAPE(a, i) ((a).view.shape[i])

/* Take ``obj`` (a new reference, or NULL on error) and fill in its buffer. */
static int arr_view(Arr *a, PyObject *obj, int flags) {
    if (!(a->obj = obj)) return -1;
    if (PyObject_GetBuffer(obj, &a->view, PyBUF_C_CONTIGUOUS | flags) == 0) return 0;
    Py_CLEAR(a->obj);
    return -1;
}

static void arr_release(Arr *a) {
    if (a->obj) {
        PyBuffer_Release(&a->view);
        Py_CLEAR(a->obj);
    }
}

/* ``numpy.ascontiguousarray(src, dtype)``, of ``numpy.atleast_2d(src)`` when
 * ``lift`` is set; the result must have ``ndim`` dimensions. */
static int arr_in(PyObject *src, const char *dtype, int ndim, int lift, Arr *a) {
    PyObject *tmp = lift ? PyObject_CallOneArg(np_atleast_2d, src) : Py_NewRef(src);
    if (!tmp) return -1;
    int rc = arr_view(a, PyObject_CallFunction(np_ascontiguousarray, "Os", tmp, dtype), 0);
    Py_DECREF(tmp);
    if (rc < 0 || a->view.ndim == ndim) return rc;
    PyErr_Format(PyExc_ValueError, "expected a %d-d array, got %d-d", ndim, a->view.ndim);
    arr_release(a);
    return -1;
}

/* A writable ``numpy.empty`` of shape (rows, cols), or (rows,) if cols < 0. */
static int arr_out(Py_ssize_t rows, Py_ssize_t cols, const char *dtype, Arr *a) {
    return arr_view(a, cols < 0 ? PyObject_CallFunction(np_empty, "ns", rows, dtype)
                                : PyObject_CallFunction(np_empty, "(nn)s", rows, cols, dtype),
                    PyBUF_WRITABLE);
}

/* Release the buffer and hand the array to the caller. */
static PyObject *arr_take(Arr *a) {
    PyObject *obj = a->obj;
    PyBuffer_Release(&a->view);
    a->obj = NULL;
    return obj;
}

/* ``malloc`` that sets MemoryError when it fails. */
static void *alloc(size_t size) {
    void *p = malloc(size ? size : 1);
    if (!p) PyErr_NoMemory();
    return p;
}

/* ``conv(obj)`` modulo 2^64, as Python's ``int(obj) & (2**64 - 1)``. */
static int as_u64(PyObject *(*conv)(PyObject *), PyObject *obj, uint64_t *out) {
    PyObject *num = conv(obj);
    if (!num) return -1;
    *out = PyLong_AsUnsignedLongLongMask(num);   /* cannot fail on an int */
    Py_DECREF(num);
    return 0;
}

/* ------------------------------------------------------------ philox -- */
/* Philox4x32-10 (Salmon et al., SC'11) on one counter block, in place. */
static void philox(uint32_t c[4], uint32_t k0, uint32_t k1) {
    for (int r = 0; r < 10; r++) {
        uint64_t p0 = (uint64_t)c[0] * 0xD2511F53u;
        uint64_t p1 = (uint64_t)c[2] * 0xCD9E8D57u;
        uint32_t c1 = c[1], c3 = c[3];
        c[0] = (uint32_t)(p1 >> 32) ^ c1 ^ k0;
        c[1] = (uint32_t)p1;
        c[2] = (uint32_t)(p0 >> 32) ^ c3 ^ k1;
        c[3] = (uint32_t)p0;
        k0 += 0x9E3779B9u;
        k1 += 0xBB67AE85u;
    }
}

static PyObject *k_philox4x32(PyObject *self, PyObject *args) {
    PyObject *ctr_o, *key_o, *item;
    uint64_t key[2];
    Arr c = {0}, out = {0};
    if (!PyArg_ParseTuple(args, "OO:philox4x32", &ctr_o, &key_o)) return NULL;
    for (int i = 0; i < 2; i++) {
        if (!(item = PySequence_GetItem(key_o, i))) return NULL;
        int rc = as_u64(PyNumber_Long, item, &key[i]);
        Py_DECREF(item);
        if (rc < 0) return NULL;
    }
    if (arr_in(ctr_o, "uint32", 2, 0, &c) < 0) return NULL;
    Py_ssize_t n = SHAPE(c, 0), w = SHAPE(c, 1);
    if (w < 4)
        PyErr_SetString(PyExc_ValueError, "philox4x32: counters need 4 columns");
    else if (arr_out(n, 4, "uint32", &out) == 0) {
        const uint32_t *src = c.view.buf;
        uint32_t *dst = out.view.buf;
        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t i = 0; i < n; i++) {
            memcpy(dst + 4 * i, src + w * i, 4 * sizeof(uint32_t));
            philox(dst + 4 * i, (uint32_t)key[0], (uint32_t)key[1]);
        }
        Py_END_ALLOW_THREADS
    }
    arr_release(&c);
    return out.obj ? arr_take(&out) : NULL;
}

static PyObject *k_sample_pauli_bits(PyObject *self, PyObject *args) {
    Py_ssize_t n_data, n_shots;
    double p;
    PyObject *seed_o, *stream_o, *shot0_o;
    uint64_t seed, stream, shot0;
    Arr x = {0}, z = {0};
    if (!PyArg_ParseTuple(args, "ndOOOn:sample_pauli_bits", &n_data, &p, &seed_o,
                          &stream_o, &shot0_o, &n_shots)
        || as_u64(PyNumber_Index, seed_o, &seed) < 0
        || as_u64(PyNumber_Index, stream_o, &stream) < 0
        || as_u64(PyNumber_Index, shot0_o, &shot0) < 0)
        return NULL;
    if (!isfinite(p))
        return PyErr_Format(PyExc_ValueError, "sample_pauli_bits: p must be finite");
    /* P(error) = thr / 2^32 with thr = round(p * 2^32), half to even as in
     * Python.  Clamping thr to [0, 2^40] changes no output bit. */
    double t = nearbyint(p * 4294967296.0);
    uint64_t thr = t <= 0 ? 0 : t >= 0x1p40 ? (uint64_t)1 << 40 : (uint64_t)t;
    uint64_t t1 = thr / 3, t2 = 2 * thr / 3;
    if (arr_out(n_shots, n_data, "uint8", &x) < 0 || arr_out(n_shots, n_data, "uint8", &z) < 0) {
        arr_release(&x);
        return NULL;
    }
    uint8_t *xb = x.view.buf, *zb = z.view.buf;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t s = 0; s < n_shots; s++) {
        /* counter (shot_lo, shot_hi, block, stream), key (seed_lo, seed_hi) */
        uint64_t shot = shot0 + (uint64_t)s;
        for (Py_ssize_t q = 0; q < n_data; q += 4) {
            uint32_t c[4] = {(uint32_t)shot, (uint32_t)(shot >> 32),
                             (uint32_t)(q / 4), (uint32_t)stream};
            philox(c, (uint32_t)seed, (uint32_t)(seed >> 32));
            for (Py_ssize_t w = 0; w < 4 && q + w < n_data; w++) {
                uint64_t u = c[w];
                xb[s * n_data + q + w] = u < thr && u < t2;    /* X or Y */
                zb[s * n_data + q + w] = u < thr && u >= t1;   /* Y or Z */
            }
        }
    }
    Py_END_ALLOW_THREADS
    return Py_BuildValue("NN", arr_take(&x), arr_take(&z));
}

/* --------------------------------------------------------------- gf2 -- */
/* The low bits of the rows x cols matrix whose element (r, c) is
 * src[r * s_row + c * s_col], in a new buffer. */
static uint8_t *low_bits(const uint8_t *src, Py_ssize_t rows, Py_ssize_t cols,
                         Py_ssize_t s_row, Py_ssize_t s_col) {
    uint8_t *dst = alloc(rows * cols);
    if (!dst) return NULL;
    for (Py_ssize_t r = 0; r < rows; r++)
        for (Py_ssize_t c = 0; c < cols; c++)
            dst[r * cols + c] = src[r * s_row + c * s_col] & 1;
    return dst;
}

/* Row i of ``out`` (stride ``out_stride``) becomes the XOR of the rows j of
 * the 0/1 matrix ``mat`` (k x m) for which bits[i, j] is odd. */
static void xor_rows(const uint8_t *bits, Py_ssize_t n, Py_ssize_t k,
                     const uint8_t *mat, Py_ssize_t m, uint8_t *out, Py_ssize_t out_stride) {
    for (Py_ssize_t i = 0; i < n; i++) {
        uint8_t *o = out + i * out_stride;
        memset(o, 0, m);
        for (Py_ssize_t j = 0; j < k; j++)
            if (bits[i * k + j] & 1)
                for (Py_ssize_t c = 0; c < m; c++) o[c] ^= mat[j * m + c];
    }
}

static PyObject *k_syndrome_bits(PyObject *self, PyObject *args) {
    PyObject *o[4];
    Arr a[4] = {{0}}, out = {0};
    uint8_t *hxt = NULL, *hzt = NULL;
    if (!PyArg_ParseTuple(args, "OOOO:syndrome_bits", &o[0], &o[1], &o[2], &o[3]))
        return NULL;
    for (int i = 0; i < 4; i++)
        if (arr_in(o[i], "uint8", 2, i < 2, &a[i]) < 0) goto done;
    Py_ssize_t n = SHAPE(a[0], 0), nd = SHAPE(a[0], 1);
    Py_ssize_t nax = SHAPE(a[2], 0), naz = SHAPE(a[3], 0);
    if (SHAPE(a[1], 0) != n || SHAPE(a[1], 1) != nd || SHAPE(a[2], 1) != nd
        || SHAPE(a[3], 1) != nd) {
        PyErr_SetString(PyExc_ValueError, "syndrome_bits: shapes do not match");
        goto done;
    }
    if (!(hxt = low_bits(a[2].view.buf, nd, nax, 1, nd))
        || !(hzt = low_bits(a[3].view.buf, nd, naz, 1, nd))
        || arr_out(n, nax + naz, "uint8", &out) < 0)
        goto done;
    uint8_t *dst = out.view.buf;
    Py_BEGIN_ALLOW_THREADS
    xor_rows(a[1].view.buf, n, nd, hxt, nax, dst, nax + naz);   /* X ancillas read z */
    xor_rows(a[0].view.buf, n, nd, hzt, naz, dst + nax, nax + naz);
    Py_END_ALLOW_THREADS
done:
    free(hxt);
    free(hzt);
    for (int i = 0; i < 4; i++) arr_release(&a[i]);
    return out.obj ? arr_take(&out) : NULL;
}

static PyObject *k_gf2_matmul(PyObject *self, PyObject *args) {
    PyObject *bits_o, *mat_o;
    Arr b = {0}, m = {0}, out = {0};
    uint8_t *mat = NULL;
    if (!PyArg_ParseTuple(args, "OO:gf2_matmul", &bits_o, &mat_o)) return NULL;
    if (arr_in(bits_o, "uint8", 2, 1, &b) < 0 || arr_in(mat_o, "uint8", 2, 0, &m) < 0)
        goto done;
    Py_ssize_t n = SHAPE(b, 0), k = SHAPE(b, 1), cols = SHAPE(m, 1);
    if (SHAPE(m, 0) != k) {
        PyErr_SetString(PyExc_ValueError, "gf2_matmul: shapes do not match");
        goto done;
    }
    if (!(mat = low_bits(m.view.buf, k, cols, cols, 1)) || arr_out(n, cols, "uint8", &out) < 0)
        goto done;
    uint8_t *dst = out.view.buf;
    Py_BEGIN_ALLOW_THREADS
    xor_rows(b.view.buf, n, k, mat, cols, dst, cols);
    Py_END_ALLOW_THREADS
done:
    free(mat);
    arr_release(&b);
    arr_release(&m);
    return out.obj ? arr_take(&out) : NULL;
}

/* ------------------------------------------------------- fixed point -- */
/* sqnl (or relu) of ``acc`` at scale 2^-frac, floored to ``bits``-bit two's
 * complement: ``_pykernels._sqnl_fixed`` / ``_relu_fixed`` on one value. */
static int64_t transfer_fixed(int64_t acc, int frac, int bits, int sqnl) {
    int64_t one = (int64_t)1 << frac, maxq = ((int64_t)1 << (bits - 1)) - 1;
    int64_t minq = -maxq - 1, y;
    if (sqnl) {
        if (acc >= one) return maxq;
        if (acc <= -one) return minq;
        y = (2 * acc * one - acc * (acc < 0 ? -acc : acc)) >> (2 * frac - (bits - 1));
    } else {
        if (acc <= 0) return 0;
        y = acc >> (frac - (bits - 1));
    }
    return y > maxq ? maxq : y < minq ? minq : y;
}

static PyObject *k_fixed_forward_bits(PyObject *self, PyObject *args) {
    static const char *const dtype[7] = {"uint8", "int64", "int64", "int64",
                                         "int64", "int64", "int64"};
    static const int ndim[7] = {2, 2, 1, 2, 1, 2, 1};
    PyObject *o[7];
    int wfrac, abits, transfer;
    Arr a[7] = {{0}}, out = {0};
    int64_t *buf = NULL;
    if (!PyArg_ParseTuple(args, "OOOOOOOiii:fixed_forward_bits", &o[0], &o[1], &o[2],
                          &o[3], &o[4], &o[5], &o[6], &wfrac, &abits, &transfer))
        return NULL;
    for (int i = 0; i < 7; i++)
        if (arr_in(o[i], dtype[i], ndim[i], i == 0, &a[i]) < 0) goto done;
    if (transfer != 0 && transfer != 1) {
        PyErr_Format(PyExc_ValueError, "fixed-point transfer id %d unsupported", transfer);
        goto done;
    }
    /* syn (n, n_in), w1 (n1, n_in), b1 (n1), w2 (n2, n1), b2 (n2), wout (no, n2), bout (no) */
    Py_ssize_t n = SHAPE(a[0], 0), n_in = SHAPE(a[0], 1), n1 = SHAPE(a[1], 0);
    Py_ssize_t n2 = SHAPE(a[3], 0), no = SHAPE(a[5], 0);
    if (SHAPE(a[1], 1) != n_in || SHAPE(a[2], 0) != n1 || SHAPE(a[3], 1) != n1
        || SHAPE(a[4], 0) != n2 || SHAPE(a[5], 1) != n2 || SHAPE(a[6], 0) != no) {
        PyErr_SetString(PyExc_ValueError, "fixed_forward_bits: shapes do not chain");
        goto done;
    }
    if (!(buf = alloc((n_in * n1 + n1 + n2) * sizeof(int64_t)))
        || arr_out(n, no, "uint8", &out) < 0)
        goto done;
    const uint8_t *syn = a[0].view.buf;
    const int64_t *w1 = a[1].view.buf, *b1 = a[2].view.buf, *w2 = a[3].view.buf;
    const int64_t *b2 = a[4].view.buf, *wo = a[5].view.buf, *bo = a[6].view.buf;
    int64_t *w1t = buf, *y1 = buf + n_in * n1, *y2 = y1 + n1;
    uint8_t *dst = out.view.buf;
    int sqnl = transfer == 0, frac2 = wfrac + abits - 1;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t j = 0; j < n1; j++)
        for (Py_ssize_t i = 0; i < n_in; i++) w1t[i * n1 + j] = w1[j * n_in + i];
    for (Py_ssize_t s = 0; s < n; s++) {
        /* layer 1: inputs are mostly zero, so add the weight rows they select */
        memcpy(y1, b1, n1 * sizeof(int64_t));
        for (Py_ssize_t i = 0; i < n_in; i++)
            if (syn[s * n_in + i])
                for (Py_ssize_t j = 0; j < n1; j++)
                    y1[j] += syn[s * n_in + i] * w1t[i * n1 + j];
        for (Py_ssize_t j = 0; j < n1; j++)
            y1[j] = transfer_fixed(y1[j], wfrac, abits, sqnl);
        for (Py_ssize_t j = 0; j < n2; j++) {
            int64_t acc = (int64_t)((uint64_t)b2[j] << (abits - 1));
            for (Py_ssize_t i = 0; i < n1; i++) acc += w2[j * n1 + i] * y1[i];
            y2[j] = transfer_fixed(acc, frac2, abits, sqnl);
        }
        for (Py_ssize_t c = 0; c < no; c++) {
            int64_t acc = (int64_t)((uint64_t)bo[c] << (abits - 1));
            for (Py_ssize_t i = 0; i < n2; i++) acc += wo[c * n2 + i] * y2[i];
            dst[s * no + c] = acc > 0;
        }
    }
    Py_END_ALLOW_THREADS
done:
    free(buf);
    for (int i = 0; i < 7; i++) arr_release(&a[i]);
    return out.obj ? arr_take(&out) : NULL;
}

/* ---------------------------------------------------------- matching -- */
/* The top-down subset DP of ``_pykernels.match_defects``, with the same
 * pruned partners and tie rule, memoised in an open-addressing table. */
typedef struct {
    const int64_t *bnd;
    int n_part[MATCH_DP_MAX];                   /* partners v > u that can beat */
    int part[MATCH_DP_MAX][MATCH_DP_MAX];       /* the boundary, ascending, and */
    int64_t part_w[MATCH_DP_MAX][MATCH_DP_MAX]; /* their pair weights */
    uint32_t *key;                              /* reached subset, or EMPTY */
    int64_t *val;                               /* its minimum weight */
    int8_t *choice;                             /* -1 boundary, else partner of the lowest */
    uint32_t size_mask;
    int shift;
} Matcher;

#define EMPTY UINT32_MAX

static int lowest(uint32_t mask) {
    int u = 0;
    while (!(mask >> u & 1)) u++;
    return u;
}

static uint32_t slot(const Matcher *m, uint32_t mask) {
    uint32_t h = (mask * 2654435761u) >> m->shift;
    while (m->key[h] != mask && m->key[h] != EMPTY) h = (h + 1) & m->size_mask;
    return h;
}

static int64_t solve(Matcher *m, uint32_t mask) {
    if (!mask) return 0;
    uint32_t h = slot(m, mask);
    if (m->key[h] == mask) return m->val[h];
    int u = lowest(mask), best_v = -1;
    uint32_t rest = mask & (mask - 1);
    int64_t best = m->bnd[u] + solve(m, rest);
    for (int i = 0; i < m->n_part[u]; i++) {
        uint32_t bit = (uint32_t)1 << m->part[u][i];
        if (rest & bit) {
            int64_t w = m->part_w[u][i] + solve(m, rest ^ bit);
            if (w < best) {
                best = w;
                best_v = m->part[u][i];
            }
        }
    }
    h = slot(m, mask);   /* the recursion may have filled the first probe */
    m->key[h] = mask;
    m->val[h] = best;
    m->choice[h] = (int8_t)best_v;
    return best;
}

static PyObject *k_match_defects(PyObject *self, PyObject *args) {
    PyObject *dist_o, *bnd_o;
    Arr d = {0}, b = {0}, out = {0};
    Matcher m = {0};
    if (!PyArg_ParseTuple(args, "OO:match_defects", &dist_o, &bnd_o)) return NULL;
    if (arr_in(dist_o, "int64", 2, 0, &d) < 0 || arr_in(bnd_o, "int64", 1, 0, &b) < 0)
        goto done;
    Py_ssize_t k = SHAPE(b, 0), stride = SHAPE(d, 1);
    if (k > MATCH_DP_MAX) {
        PyErr_Format(PyExc_ValueError, "defect count %zd exceeds DP cap %d", k, MATCH_DP_MAX);
        goto done;
    }
    if (k && (SHAPE(d, 0) < k || stride < k)) {
        PyErr_SetString(PyExc_ValueError, "match_defects: dist is smaller than bnd");
        goto done;
    }
    /* At most F(k+2) subsets are reached, so a table of twice that many
     * slots is never more than half full. */
    uint32_t fa = 1, fb = 1, size = 4;
    for (Py_ssize_t i = 0; i < k; i++) {
        fb += fa;
        fa = fb - fa;
    }
    for (m.shift = 30; size < 2 * fb; m.shift--) size <<= 1;
    m.size_mask = size - 1;
    if (!(m.key = alloc(size * sizeof(uint32_t))) || !(m.val = alloc(size * sizeof(int64_t)))
        || !(m.choice = alloc(size)) || arr_out(k, -1, "int32", &out) < 0)
        goto done;
    const int64_t *dist = d.view.buf, *bnd = b.view.buf;
    int32_t *pair = out.view.buf;
    Py_BEGIN_ALLOW_THREADS
    memset(m.key, 0xFF, size * sizeof(uint32_t));
    m.bnd = bnd;
    for (int u = 0; u < k; u++) {
        for (int v = u + 1; v < k; v++)
            if (dist[u * stride + v] < bnd[u] + bnd[v]) {
                m.part[u][m.n_part[u]] = v;
                m.part_w[u][m.n_part[u]++] = dist[u * stride + v];
            }
    }
    uint32_t mask = (uint32_t)(((uint64_t)1 << k) - 1);
    solve(&m, mask);
    while (mask) {
        int u = lowest(mask), v = m.choice[slot(&m, mask)];
        mask &= mask - 1;
        pair[u] = v;
        if (v >= 0) {
            pair[v] = u;
            mask ^= (uint32_t)1 << v;
        }
    }
    Py_END_ALLOW_THREADS
done:
    free(m.key);
    free(m.val);
    free(m.choice);
    arr_release(&d);
    arr_release(&b);
    return out.obj ? arr_take(&out) : NULL;
}

/* ------------------------------------------------------------ module -- */
/* The contracts are documented on the namesakes in ``_pykernels``. */
static PyMethodDef methods[] = {
    {"philox4x32", k_philox4x32, METH_VARARGS, "Philox4x32-10 of (n, 4) counters."},
    {"sample_pauli_bits", k_sample_pauli_bits, METH_VARARGS, "Depolarizing error planes."},
    {"syndrome_bits", k_syndrome_bits, METH_VARARGS, "Syndromes, X ancillas first."},
    {"gf2_matmul", k_gf2_matmul, METH_VARARGS, "(n, k) @ (k, m) over GF(2)."},
    {"fixed_forward_bits", k_fixed_forward_bits, METH_VARARGS, "Fixed-point network."},
    {"match_defects", k_match_defects, METH_VARARGS, "Exact min-weight defect matching."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_cykernels",
    "Compiled hot kernels, bit-identical to scdec._kernels._pykernels.", -1, methods,
};

PyMODINIT_FUNC PyInit__cykernels(void) {
    PyObject *np = PyImport_ImportModule("numpy"), *mod = NULL;
    if (!np) return NULL;
    np_ascontiguousarray = PyObject_GetAttrString(np, "ascontiguousarray");
    np_atleast_2d = PyObject_GetAttrString(np, "atleast_2d");
    np_empty = PyObject_GetAttrString(np, "empty");
    Py_DECREF(np);
    if (np_ascontiguousarray && np_atleast_2d && np_empty && (mod = PyModule_Create(&module))
        && PyModule_AddIntConstant(mod, "MATCH_DP_MAX", MATCH_DP_MAX) < 0)
        Py_CLEAR(mod);
    return mod;
}
