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
``_fresh_terms`` directly: a run that trains d or the weights gives the
model new arrays for them on every step, so the memo could never serve it
and an entry would only cost its bookkeeping.

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

Parallel blocks: ``log_joints`` splits its ``CHUNK_ROWS`` blocks into
``_parts`` parts, one per usable CPU (``_usable_cpus``), at most
``MAX_PARTS``; part p
takes blocks p, p + parts, and so on.  The calling thread runs part 0 and
a ``ThreadPoolExecutor`` worker each other part, under the caller's numpy
error state, and the workers are joined before ``log_joints`` returns or
raises.  Threads suffice because numpy releases the GIL inside each
block's subtract, square and GEMM calls; a helper process would have to
be sent the rows and the model.  The calling thread allocates each part's
scratch pair (``min(N, CHUNK_ROWS)`` x D and x K floats) before any worker
starts, and the workers fill them in place: when the workers allocated
their own block temporaries, ``digits_infer``'s ``peak_rss_mb`` went from
299.5 to 328.0-328.1 MB, because memory freed in a worker thread's malloc
arena is not reused by this thread's later allocations; with the caller's
scratch it read 301.3-301.5 MB.  One row and a single block (every
training step and every call of up to ``CHUNK_ROWS`` rows) stay in the
calling thread without counting CPUs.  Each block does the same operations
on the same bounds and shift, so the bits are those of one thread.
"""

import os
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

# The only kernel; kept as a name because run records report it.
BACKEND = "python"

# Rows per GEMM block: bounds the block temporaries at CHUNK_ROWS x D and
# CHUNK_ROWS x K floats.
CHUNK_ROWS = 2048

# Most parts of a parallel path (log_joints' blocks, io.write_csv's
# helpers): the gains were measured with 2 CPUs only, and the CPU count
# ignores a CPU quota.
MAX_PARTS = 2

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


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _parts(units):
    """How many parts a parallel path splits ``units`` pieces of work
    into: one per usable CPU, at most ``MAX_PARTS`` and at most ``units``;
    1, without counting CPUs, for one unit or none."""
    if units <= 1:
        return 1
    return min(_usable_cpus(), MAX_PARTS, units)


def log_joints(weights, centroids, precision_roots, samples):
    """Return the N x K matrix of log(pi_k) + log p_k(x_n); -inf in the
    columns of zero-weight components.  The blocks of up to CHUNK_ROWS
    rows run on up to MAX_PARTS threads (see "Parallel blocks" above)."""
    base, psq = _kernel_terms(weights, precision_roots)
    if samples.shape[0] == 1:
        return _single_row(base, centroids, psq, samples[0])[None, :]
    return _blocks(base, centroids, psq, samples)


def _blocks(base, centroids, psq, samples):
    """log_joints of two or more rows, block by block.  Kept apart from the
    one-row branch, whose calls would otherwise create the cells of the
    nested functions' variables: 5.9 against 5.0 us per one-row call at
    K=4, D=2, and ``fourcluster``'s ``cluster_rows_per_s`` 4.4% lower."""
    n = samples.shape[0]
    r = samples.mean(axis=0)
    mus = centroids - r
    m = np.einsum("ki,ki->k", psq, mus * mus)
    const = base - 0.5 * m
    pmu_t = (psq * mus).T
    out = np.empty((n, centroids.shape[0]))
    starts = range(0, n, CHUNK_ROWS)
    parts = _parts(len(starts))
    rows = min(n, CHUNK_ROWS)
    scratch = [(np.empty((rows, samples.shape[1])), np.empty((rows, out.shape[1])))
               for _ in range(parts)]

    def run_part(p):
        x_buf, s_buf = scratch[p]
        for lo in starts[p::parts]:
            x = samples[lo:lo + CHUNK_ROWS]
            xs, s = x_buf[:len(x)], s_buf[:len(x)]
            block = out[lo:lo + CHUNK_ROWS]
            np.subtract(x, r, out=xs)
            np.matmul(xs, pmu_t, out=block)
            np.square(xs, out=xs)
            np.matmul(xs, psq.T, out=s)
            block -= 0.5 * s
            block += const
            bound = (ERROR_FACTOR * _EPS) * (s + m)
            unsafe = np.any(bound > GUARD_RTOL * np.maximum(1.0, np.abs(block)), axis=1)
            for i in np.flatnonzero(unsafe):
                block[i] = _single_row(base, centroids, psq, x[i])

    if parts == 1:
        run_part(0)
        return out
    err, call = np.geterr(), np.geterrcall()

    def run_worker_part(p):
        # Pool threads start with numpy's default error state.
        with np.errstate(call=call, **err):
            run_part(p)

    with ThreadPoolExecutor(parts - 1) as pool:
        workers = [pool.submit(run_worker_part, p) for p in range(1, parts)]
        run_part(0)
        for worker in workers:
            worker.result()
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
