"""The package's hot kernel: the N x K log-joint matrix of a diagonal mixture.

Expanding the squared Mahalanobis term turns the kernel into two GEMMs,

    sum_i P_ki (x_ni - mu_ki)^2 = (X'*X') @ P.T - 2 X' @ (P*mu').T + M_k,

with precisions P = d^2, ``M_k = sum_i P_ki mu'_ki^2`` and everything shifted
by a reference point r (``X' = X - r``, ``mu' = mu - r``) to limit the
cancellation between the three terms.  r is the mean of the rows being
scored; a single row is its own mean, so its GEMM terms vanish and it is
evaluated as the direct difference.

Guard: the expansion's rounding error is about ``eps * (S + M_k)`` with
``S = (X'*X') @ P.T``.  Rows where ``ERROR_FACTOR`` times that exceeds
``GUARD_RTOL`` of max(1, |value|) are evaluated again as single rows.

Memo: the normaliser ``log(pi_k) + sum_i log d_ki - D log(2 pi)/2`` and the
precisions P = d^2 depend only on the weights and the precision roots.  Both
are computed once for the last pair seen and kept in one entry with a weak
reference to each array of the pair.  The entry serves a pair while each
array is the very object it was made from and still frozen: read-only and
owning its data.  By convention a frozen array is never changed, and a
``MixtureModel`` holds only frozen weights and d (see ``model``), so every
model hits after one identity check per array.  Any other array, such as a
writeable one, a read-only view (a write through its base changes it) or an
array made writeable again, misses and is computed afresh.  The untied
single-sample training step (``trainer._sample_gradients``) calls
``_fresh_terms`` directly: untied training gives the model new d and
weights on every step, so the memo could never serve it and an entry would
only cost its bookkeeping.

The memo keeps no array alive and copies none, so it holds one K x D array,
P.  Holding a second one, a copy of d next to P, moved the ``digits_infer``
benchmark's ``peak_rss_mb`` from 299.5 to 314.3-314.6 MB in 2 of 2 runs
(heap layout), at that metric's 5% bound.

Same-shape loops: every one-sample difference ``x - mu`` (the one-row
kernel, both single-sample training steps and ``sombridge.som_update``)
comes from ``_difference``, which copies x into every row of a new K x D
array and subtracts the centroids from it, and ``_difference_row`` squares
with ``np.square``.  numpy takes longer over a broadcast operand than over
two same-shape arrays, and longer for ``np.multiply`` of an array by itself
than for ``np.square``; each element is the same one operation either way,
so the bits and the floating-point warnings are the same.  At K=25, D=784
(numpy 2.4.6, 2-vCPU Xeon VM, medians of 7) the broadcast subtraction took
15.3-17.1 us against 9.5-10.1 us, and the in-place square 5.8-6.8 us with
``np.multiply`` against 2.6-5.5 us with ``np.square``.  No buffer is kept
between calls: a held one measured no faster than a new array, and a
long-lived extra K x D array moves ``peak_rss_mb`` (above).
"""

import weakref

import numpy as np

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

# The only kernel; kept as a name because run records report it.
BACKEND = "python"

# Rows per GEMM block: bounds the block temporaries at CHUNK_ROWS x D and
# CHUNK_ROWS x K floats.
CHUNK_ROWS = 2048

GUARD_RTOL = 1e-12
# Measured error over eps * (S + M_k) reached 4.3 (D from 5 to 784, offsets
# up to 1e7); 8 leaves a margin.
ERROR_FACTOR = 8.0
_EPS = np.finfo(np.float64).eps


# (weights_ref, d_ref, base, psq) of the last miss, with weak references to
# the arrays it was made from.  Replaced as one tuple, so a concurrent reader
# sees either the old entry or the new one.
_terms = None


def _fresh_terms(weights, precision_roots):
    """The kernel terms (base, psq), computed afresh: the K-vector
    log(pi_k) + sum_i log d_ki - D log(2 pi)/2, -inf for zero weights, and
    the precisions d^2."""
    with np.errstate(divide="ignore"):
        base = (np.log(weights) + np.add.reduce(np.log(precision_roots), axis=1)
                - precision_roots.shape[1] * HALF_LOG_2PI)
    return base, precision_roots ** 2


def _kernel_terms(weights, precision_roots):
    """``_fresh_terms`` behind the one-entry memo; read-only, because calls
    with the same inputs share them."""
    global _terms
    memo = _terms
    if (memo is None or memo[0]() is not weights or memo[1]() is not precision_roots
            or not (_frozen(weights) and _frozen(precision_roots))):
        base, psq = _fresh_terms(weights, precision_roots)
        for arr in (base, psq):
            arr.setflags(write=False)
        memo = _terms = (weakref.ref(weights), weakref.ref(precision_roots), base, psq)
    return memo[2], memo[3]


def _frozen(arr):
    """Whether ``arr`` is read-only and owns its data."""
    flags = arr.flags
    return flags.owndata and not flags.writeable


def log_joints(weights, centroids, precision_roots, samples):
    """Return the N x K matrix of log(pi_k) + log p_k(x_n); -inf in the
    columns of zero-weight components."""
    base, psq = _kernel_terms(weights, precision_roots)
    if samples.shape[0] == 1:
        return _single_row(base, centroids, psq, samples[0])[None, :]
    r = samples.mean(axis=0)
    mus = centroids - r
    m = np.einsum("ki,ki->k", psq, mus * mus)
    const = base - 0.5 * m
    pmu_t = (psq * mus).T
    out = np.empty((samples.shape[0], centroids.shape[0]))
    for lo in range(0, samples.shape[0], CHUNK_ROWS):
        xs = samples[lo:lo + CHUNK_ROWS] - r
        s = (xs * xs) @ psq.T
        block = out[lo:lo + CHUNK_ROWS]
        np.matmul(xs, pmu_t, out=block)
        block -= 0.5 * s
        block += const
        bound = (ERROR_FACTOR * _EPS) * (s + m)
        unsafe = np.any(bound > GUARD_RTOL * np.maximum(1.0, np.abs(block)), axis=1)
        for i in np.flatnonzero(unsafe):
            block[i] = _single_row(base, centroids, psq, samples[lo + i])
    return out


def _single_row(base, centroids, psq, x):
    """Log-joints of one row by direct differences (the shift r = x)."""
    diff = _difference(x, centroids)
    return _difference_row(base, psq, diff, out=diff)


def _difference(x, centroids):
    """``x - centroids`` for one float64 row x, as a new K x D array: x
    copied into every row, then the centroids subtracted in place; bitwise
    the broadcast, on faster loops (see "Same-shape loops" above)."""
    diff = np.empty(centroids.shape)
    diff[...] = x
    diff -= centroids
    return diff


def _difference_row(base, psq, diff, out=None):
    """Log-joints of one row from its differences ``diff = x - centroids``.
    The squares are written to ``out``, which may be ``diff`` itself, or to a
    new array, which leaves ``diff`` for the caller."""
    sq = np.square(diff, out=out)
    return base - 0.5 * np.einsum("ki,ki->k", psq, sq)
