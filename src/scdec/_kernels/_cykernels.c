/* Compiled backend for the kernels where C beats numpy: plain C99 over the
 * CPython API.
 *
 * Only ``sample_pauli_bits`` and ``syndrome_bits`` are compiled: with two
 * worker threads on a 2-vCPU host, these two in C and the rest in numpy ran
 * ``nn-fixed-d9`` at about 1.7M shots/s against 1.1M with every kernel in
 * C, and kept ``train-d5`` and ``mwpm-d7`` within noise.  ``_kernels`` binds
 * ``philox_lanes``, ``gf2_matmul`` and ``fixed_forward_bits`` to
 * ``_pykernels`` always.
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

/* ``operator.index(obj)`` modulo 2^64, as Python's ``obj & (2**64 - 1)``. */
static int as_u64(PyObject *obj, uint64_t *out) {
    PyObject *num = PyNumber_Index(obj);
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

static PyObject *k_sample_pauli_bits(PyObject *self, PyObject *args) {
    Py_ssize_t n_data, n_shots;
    double p;
    PyObject *seed_o, *stream_o, *shot0_o;
    uint64_t seed, stream, shot0;
    Arr x = {0}, z = {0};
    if (!PyArg_ParseTuple(args, "ndOOOn:sample_pauli_bits", &n_data, &p, &seed_o,
                          &stream_o, &shot0_o, &n_shots)
        || as_u64(seed_o, &seed) < 0
        || as_u64(stream_o, &stream) < 0
        || as_u64(shot0_o, &shot0) < 0)
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

/* --------------------------------------------------------- syndromes -- */
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

/* ------------------------------------------------------------ module -- */
/* The contracts are documented on the namesakes in ``_pykernels``. */
static PyMethodDef methods[] = {
    {"sample_pauli_bits", k_sample_pauli_bits, METH_VARARGS, "Depolarizing error planes."},
    {"syndrome_bits", k_syndrome_bits, METH_VARARGS, "Syndromes, X ancillas first."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_cykernels",
    "Compiled hot kernels, bit-identical to scdec._kernels._pykernels.", -1, methods,
};

PyMODINIT_FUNC PyInit__cykernels(void) {
    PyObject *np = PyImport_ImportModule("numpy");
    if (!np) return NULL;
    np_ascontiguousarray = PyObject_GetAttrString(np, "ascontiguousarray");
    np_atleast_2d = PyObject_GetAttrString(np, "atleast_2d");
    np_empty = PyObject_GetAttrString(np, "empty");
    Py_DECREF(np);
    if (!np_ascontiguousarray || !np_atleast_2d || !np_empty) return NULL;
    return PyModule_Create(&module);
}
