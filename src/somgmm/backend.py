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

Memo: ``log(pi_k) + sum_i log d_ki - D log(2 pi)/2`` depends only on the
weights and the precision roots, which neither a tied run nor inference
changes.  The last pair is kept with it and reused when both arrays
have its dtypes and are ``np.array_equal`` to it.  Equal non-NaN floats
differ at most in the sign of zero, which gives the same log, so a hit is
bitwise the recomputation; NaN never compares equal and always misses.
The untied single-sample training step (``trainer._sample_gradients``)
skips the memo and calls ``_normaliser``: it trains the weights and d on
every step, so each call would miss and copy both arrays.
P = d^2 is squared again on every call: it costs a few microseconds, and
keeping a second K x D array alive raised the peak RSS of large scoring runs
by 15 MB in some runs (heap layout).
"""

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


# (weights, precision_roots, base) of the last miss; the inputs are copies,
# so arrays updated in place are compared by value.  Replaced as one tuple, so
# a concurrent reader sees either the old entry or the new one.
_terms = None


def _normaliser(weights, precision_roots):
    """The K-vector log(pi_k) + sum_i log d_ki - D log(2 pi)/2, computed
    afresh; -inf for zero weights."""
    with np.errstate(divide="ignore"):
        return (np.log(weights) + np.add.reduce(np.log(precision_roots), axis=1)
                - precision_roots.shape[1] * HALF_LOG_2PI)


def _log_normaliser(weights, precision_roots):
    """``_normaliser`` behind the one-entry memo; read-only, because calls
    with equal inputs share it."""
    global _terms
    memo = _terms
    if (memo is not None and memo[0].dtype == weights.dtype
            and memo[1].dtype == precision_roots.dtype
            and np.array_equal(memo[0], weights)
            and np.array_equal(memo[1], precision_roots)):
        return memo[2]
    base = _normaliser(weights, precision_roots)
    memo = (weights.copy(), precision_roots.copy(), base)
    for arr in memo:
        arr.setflags(write=False)
    _terms = memo
    return base


def log_joints(weights, centroids, precision_roots, samples):
    """Return the N x K matrix of log(pi_k) + log p_k(x_n); -inf in the
    columns of zero-weight components."""
    base = _log_normaliser(weights, precision_roots)
    psq = precision_roots ** 2
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
    diff = x - centroids
    return _difference_row(base, psq, diff, out=diff)


def _difference_row(base, psq, diff, out=None):
    """Log-joints of one row from its differences ``diff = x - centroids``.
    The squares are written to ``out``, which may be ``diff`` itself, or to a
    new array, which leaves ``diff`` for the caller."""
    sq = np.multiply(diff, diff, out=out)
    return base - 0.5 * np.einsum("ki,ki->k", psq, sq)
