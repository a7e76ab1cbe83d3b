import os
import subprocess
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from conftest import random_data, random_model
from somgmm import backend

RTOL = 1e-12


def _inputs(rng, K=7, D=5, N=40):
    m = random_model(rng, K, D)
    x = random_data(rng, N, D).samples
    return m.weights, m.centroids, m.precision_roots, x


def direct_difference(weights, centroids, precision_roots, samples):
    """Reference log-joints: per-row differences, no expansion."""
    with np.errstate(divide="ignore"):
        const = (np.log(weights) + np.log(precision_roots).sum(axis=1)
                 - centroids.shape[1] * backend.HALF_LOG_2PI)
    psq = precision_roots ** 2
    return np.array([const - 0.5 * np.sum(psq * (x - centroids) ** 2, axis=1)
                     for x in samples])


def assert_agrees(got, want):
    finite = np.isfinite(want)
    assert np.array_equal(finite, np.isfinite(got))
    assert np.array_equal(got[~finite], want[~finite])
    err = np.abs(got[finite] - want[finite]) / np.maximum(1.0, np.abs(want[finite]))
    assert np.max(err, initial=0.0) <= RTOL


def two_cluster_inputs(rng, separation, K=6, D=5, N=200):
    """Half the rows and centroids sit around +separation/2, half around
    -separation/2, so the shift (the row mean) lies far from every row."""
    sign = np.where(np.arange(N) < N // 2, 0.5, -0.5)[:, None]
    x = sign * separation + rng.normal(size=(N, D))
    csign = np.where(np.arange(K) < K // 2, 0.5, -0.5)[:, None]
    mu = csign * separation + rng.normal(size=(K, D))
    w = rng.uniform(0.1, 1.0, K)
    return w / w.sum(), mu, rng.uniform(0.4, 2.5, (K, D)), x


def test_agrees_with_direct_difference(rng):
    for K, D, N in [(7, 5, 40), (1, 1, 3), (25, 30, 100), (4, 2, 300)]:
        for _ in range(5):
            args = _inputs(rng, K, D, N)
            assert_agrees(backend.log_joints(*args), direct_difference(*args))


def test_zero_weight_component_is_minus_inf(rng):
    w, mu, d, x = _inputs(rng, K=3)
    w = np.array([0.0, 0.4, 0.6])
    got = backend.log_joints(w, mu, d, x)
    assert np.all(got[:, 0] == -np.inf)
    assert_agrees(got, direct_difference(w, mu, d, x))


def test_common_offset(rng):
    w, mu, d, x = _inputs(rng, N=100)
    for offset in (1e3, 1e6):
        args = (w, mu + offset, d, x + offset)
        assert_agrees(backend.log_joints(*args), direct_difference(*args))


@pytest.mark.parametrize("separation", [1e2, 1e4, 1e6])
def test_separated_clusters_keep_precision_and_argmax(rng, separation):
    args = two_cluster_inputs(rng, separation)
    got = backend.log_joints(*args)
    want = direct_difference(*args)
    assert_agrees(got, want)
    assert np.array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))


def test_guard_is_what_keeps_separated_clusters_exact(rng, monkeypatch):
    args = two_cluster_inputs(rng, 1e6)
    monkeypatch.setattr(backend, "GUARD_RTOL", np.inf)  # never re-evaluate
    unguarded = backend.log_joints(*args)
    want = direct_difference(*args)
    err = np.abs(unguarded - want) / np.maximum(1.0, np.abs(want))
    assert np.max(err) > RTOL


def test_single_row(rng):
    w, mu, d, x = _inputs(rng)
    for offset in (0.0, 1e6):
        row = x[:1] + offset
        got = backend.log_joints(w, mu + offset, d, row)
        assert got.shape == (1, 7)
        assert_agrees(got, direct_difference(w, mu + offset, d, row))


def test_row_chunking_matches_single_pass(rng, monkeypatch):
    args = _inputs(rng, N=100)
    whole = backend.log_joints(*args)
    monkeypatch.setattr(backend, "CHUNK_ROWS", 8)  # force many chunks
    chunked = backend.log_joints(*args)
    assert np.array_equal(whole, chunked)


def test_backend_is_python_whatever_the_environment():
    code = "import somgmm; print(somgmm.BACKEND)"
    for value in ("python", "cython", ""):
        env = dict(os.environ, SOMGMM_BACKEND=value)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "python"


# Signed zeros, infinities, NaN, subnormals, the smallest normal and values
# whose difference or square overflows or underflows.
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                    1e-310, 2.2250738585072014e-308, 1e-160, -1e-160, 1e200,
                    -1e200, 1.7e308, -1.7e308, 1.0, -3.5])


def _flags(f, *args):
    """The result of ``f(*args)`` as int64 bits, and the floating-point
    errors it signalled, in order."""
    seen = []
    with np.errstate(all="call", call=lambda kind, flag: seen.append(kind)):
        out = f(*args)
    return out.view(np.int64), seen


class TestSameShapeLoops:
    """``backend._difference`` against the broadcast ``x - centroids`` and
    ``np.square`` against ``np.multiply``: the same bits, NaN payloads and
    signs of zero included, and the same floating-point errors."""

    @staticmethod
    def broadcast(x, centroids):
        return x - centroids

    def assert_same_difference(self, x, centroids):
        got, got_flags = _flags(backend._difference, x, centroids)
        want, want_flags = _flags(self.broadcast, x, centroids)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got_flags == want_flags

    def test_every_pair_of_special_values(self):
        # Row k of the centroids is SPECIAL rolled by k, so every value
        # meets every other one.
        n = SPECIAL.size
        centroids = np.array([np.roll(SPECIAL, k) for k in range(n)])
        self.assert_same_difference(SPECIAL, centroids)
        self.assert_same_difference(SPECIAL[::-1].copy(), centroids)

    @pytest.mark.parametrize("K,D", [(1, 1), (1, 17), (17, 1), (25, 784)])
    def test_shapes(self, rng, K, D):
        x = rng.choice(SPECIAL, D)
        centroids = rng.choice(SPECIAL, (K, D))
        self.assert_same_difference(x, centroids)
        self.assert_same_difference(rng.normal(size=D), rng.normal(size=(K, D)))

    def test_strided_views(self, rng):
        big = rng.choice(SPECIAL, (30, 40))
        row = rng.choice(SPECIAL, 80)
        for centroids in (big[::2, ::3], big[1::3, 5:9], big.T[:14, :25],
                          big[:, ::-1]):
            D = centroids.shape[1]
            self.assert_same_difference(row[:D].copy(), centroids)
            self.assert_same_difference(row[::2][:D], centroids)

    def test_result_is_a_new_array(self, rng):
        x, centroids = rng.normal(size=3), rng.normal(size=(4, 3))
        before = centroids.copy()
        diff = backend._difference(x, centroids)
        assert diff.flags.owndata and diff.flags.c_contiguous
        assert diff.dtype == np.float64
        assert np.array_equal(centroids, before)

    @pytest.mark.parametrize("x, mu", [(1.7e308, -1.7e308), (-1.7e308, 1.7e308)])
    def test_overflow_warns_alike(self, x, mu):
        # The project's filterwarnings = error turns the warning into an
        # exception, on both forms alike.
        for f in (self.broadcast, backend._difference):
            with pytest.raises(RuntimeWarning, match="overflow encountered in subtract"):
                f(np.array([x]), np.array([[mu], [0.0]]))

    def test_invalid_warns_alike(self):
        for f in (self.broadcast, backend._difference):
            with pytest.raises(RuntimeWarning, match="invalid value encountered in subtract"):
                f(np.array([np.inf]), np.array([[np.inf]]))

    @pytest.mark.parametrize("shape", [(1, 1), (17, 17), (25, 784)])
    def test_square_is_multiply(self, rng, shape):
        for diff in (rng.choice(SPECIAL, shape), rng.normal(size=shape)):
            got, got_flags = _flags(np.square, diff)
            want, want_flags = _flags(lambda a: np.multiply(a, a), diff)
            assert np.array_equal(got, want) and got_flags == want_flags
            out = np.empty(shape)
            got, _ = _flags(lambda a: np.square(a, out=a), diff.copy())
            want, _ = _flags(lambda a: np.multiply(a, a, out=out), diff)
            assert np.array_equal(got, want)

    def test_square_overflow_warns_alike(self):
        diff = np.array([[1e200, 2.0]])
        with pytest.raises(RuntimeWarning, match="overflow encountered in square"):
            np.square(diff)
        with pytest.raises(RuntimeWarning, match="overflow encountered in multiply"):
            np.multiply(diff, diff)

    def test_single_row_is_the_two_temporary_formula(self, rng):
        for K, D in [(1, 1), (4, 2), (25, 784)]:
            m = random_model(rng, K, D)
            x = rng.normal(size=D)
            base, psq = backend._fresh_terms(m.weights, m.precision_roots)
            diff = x - m.centroids
            want = base - 0.5 * np.einsum("ki,ki->k", psq, np.multiply(diff, diff))
            got = backend._single_row(base, m.centroids, psq, x)
            assert got.tobytes() == want.tobytes()
            kept = diff.copy()
            assert backend._difference_row(base, psq, diff).tobytes() == want.tobytes()
            assert np.array_equal(diff, kept)


def fresh(*args):
    """log_joints with the normaliser memo cleared first."""
    backend._terms = None
    return backend.log_joints(*args)


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def frozen(arr):
    """A read-only copy that owns its data, as every model holds."""
    out = arr.copy()
    out.setflags(write=False)
    return out


class TestNormaliserMemo:
    def test_one_ulp_nudge_in_place_misses(self, rng):
        w, mu, d, x = _inputs(rng)
        d = d.copy()  # writeable
        for rows in (x[:1], x):
            backend.log_joints(w, mu, d, rows)
            memo = backend._terms
            d[2, 3] = np.nextafter(d[2, 3], np.inf)
            got = backend.log_joints(w, mu, d, rows)
            assert backend._terms is not memo  # a miss
            assert_bitwise(got, fresh(w, mu, d, rows))

    def test_weights_changed_in_place_miss(self, rng):
        w, mu, d, x = _inputs(rng)
        w = w.copy()  # writeable
        before = backend.log_joints(w, mu, d, x[:1])
        w[[0, 1]] = w[[1, 0]]
        got = backend.log_joints(w, mu, d, x[:1])
        assert not np.array_equal(got, before)
        assert_bitwise(got, fresh(w, mu, d, x[:1]))

    def test_alternating_models(self, rng):
        a = _inputs(rng, K=7, D=5)
        b = _inputs(rng, K=3, D=9)
        want = {id(a): fresh(*a), id(b): fresh(*b)}
        for args in (a, b, a, a, b, b, a):
            assert_bitwise(backend.log_joints(*args), want[id(args)])

    def test_zero_weight_hit_keeps_minus_inf(self, rng):
        w, mu, d, x = _inputs(rng, K=3)
        w = frozen(np.array([0.0, 0.4, 0.6]))
        want = fresh(w, mu, d, x[:1])
        memo = backend._terms
        got = backend.log_joints(w, mu, d, x[:1])
        assert backend._terms is memo  # a hit
        assert got[0, 0] == -np.inf
        assert_bitwise(got, want)

    @pytest.mark.parametrize("where", ["weights", "precision_roots"])
    def test_nan_input_always_misses(self, rng, where):
        # A writeable array misses whatever it holds, NaN included.
        w, mu, d, x = _inputs(rng)
        w, d = w.copy(), d.copy()
        (w if where == "weights" else d)[1] = np.nan
        backend.log_joints(w, mu, d, x[:1])
        memo = backend._terms
        got = backend.log_joints(w, mu, d, x[:1])
        assert backend._terms is not memo
        assert_bitwise(got, fresh(w, mu, d, x[:1]))

    @pytest.mark.parametrize("first, then", [(1, 4), (4, 1)])
    def test_broadcast_equal_model_of_other_size_misses(self, rng, first, then):
        # One weight and one row of d, repeated: the K=1 entry must not serve
        # the K=4 model, nor the other way round.
        row = rng.uniform(0.4, 2.5, (1, 5))
        mus = {K: rng.normal(size=(K, 5)) for K in (1, 4)}
        x = rng.normal(size=(3, 5))
        models = {K: (frozen(np.full(K, 0.25)), mus[K],
                      frozen(np.repeat(row, K, axis=0)), x[:1]) for K in (1, 4)}
        backend.log_joints(*models[first])
        memo = backend._terms
        got = backend.log_joints(*models[then])
        assert backend._terms is not memo  # a miss
        assert backend._terms[2].shape == (then,)
        assert_bitwise(got, fresh(*models[then]))

    def test_cached_arrays_are_read_only(self, rng):
        w, _, d, _ = _inputs(rng)
        base, psq = backend._kernel_terms(w, d)
        assert backend._terms[2] is base and backend._terms[3] is psq
        for arr in (base, psq):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestFrozenKeys:
    """The memo keys every array by a weak reference and serves it only
    while it is the same object and still frozen: read-only and owning its
    data, as a model's weights and precision roots always are."""

    def test_frozen_arrays_are_keyed_by_identity(self, rng):
        w, mu, d, x = _inputs(rng)
        w, d = frozen(w), frozen(d)
        backend.log_joints(w, mu, d, x[:1])
        memo = backend._terms
        assert memo[0]() is w and memo[1]() is d
        for rows in (x[:1], x):
            backend.log_joints(w, mu, d, rows)
            assert backend._terms is memo  # a hit

    @pytest.mark.parametrize("where", ["weights", "precision_roots"])
    def test_read_only_view_of_a_writeable_base_misses(self, rng, where):
        # A write through the base would change the view, so it is never
        # served from the memo and never stale.
        w, mu, d, x = _inputs(rng)
        owner = (w if where == "weights" else d).copy()
        view = owner.view()
        view.setflags(write=False)
        args = (view, mu, d, x[:1]) if where == "weights" else (w, mu, view, x[:1])
        before = backend.log_joints(*args)
        memo = backend._terms
        assert_bitwise(backend.log_joints(*args), before)
        assert backend._terms is not memo  # a miss, though nothing changed
        owner[[0, 1]] = owner[[1, 0]]  # a write through the base
        got = backend.log_joints(*args)
        assert not np.array_equal(got, before)
        assert_bitwise(got, fresh(*args))

    @pytest.mark.parametrize("rows", [1, 40])
    def test_made_writeable_again_misses(self, rng, rows):
        w, mu, d, x = _inputs(rng)
        d = frozen(d)
        backend.log_joints(w, mu, d, x[:rows])
        memo = backend._terms
        d.setflags(write=True)
        backend.log_joints(w, mu, d, x[:rows])
        assert backend._terms is not memo  # a miss, though d is unchanged
        d[2, 3] = np.nextafter(d[2, 3], np.inf)
        assert_bitwise(backend.log_joints(w, mu, d, x[:rows]), fresh(w, mu, d, x[:rows]))

    def test_dead_key_misses(self, rng):
        w, mu, d, x = _inputs(rng)
        d = frozen(d)
        backend.log_joints(w, mu, d, x[:1])
        key = backend._terms[1]
        del d
        assert key() is None
        d = frozen(rng.uniform(0.4, 2.5, mu.shape))
        assert_bitwise(backend.log_joints(w, mu, d, x[:1]), fresh(w, mu, d, x[:1]))

    def test_equal_values_of_the_other_kind_miss(self, rng):
        # An entry serves only the arrays it was made from: an equal copy,
        # frozen or writeable, makes the entry afresh.
        w, mu, d, x = _inputs(rng)
        for first, then in ((d.copy(), frozen(d)), (frozen(d), d.copy()),
                            (frozen(d), frozen(d))):
            want = fresh(w, mu, then, x[:1])
            backend.log_joints(w, mu, first, x[:1])
            memo = backend._terms
            got = backend.log_joints(w, mu, then, x[:1])
            assert backend._terms is not memo
            assert_bitwise(got, want)

    def test_bitwise_the_cleared_memo(self, rng):
        # Tied, untied and zero-weight models, frozen or not, one row or a
        # batch: a hit gives the bits of a cleared memo.
        for K, D in [(1, 1), (4, 2), (7, 5), (25, 30)]:
            models = [random_model(rng, K, D, tied=True), random_model(rng, K, D)]
            if K > 1:
                models.append(random_model(rng, K, D))
                w = models[-1].weights.copy()
                w[::2] = 0.0  # -inf columns
                models[-1].weights = w / w.sum()
            x = random_data(rng, 30, D).samples
            for m in models:
                for freeze in (False, True):
                    w, d = m.weights, m.precision_roots
                    if not freeze:
                        w, d = w.copy(), d.copy()
                    for rows in (x[:1], x[7:8], x):
                        args = (w, m.centroids, d, rows)
                        want = fresh(*args)
                        for _ in range(2):
                            assert_bitwise(backend.log_joints(*args), want)


def serial(monkeypatch, *args):
    """log_joints on one usable CPU: every block in the calling thread."""
    with monkeypatch.context() as m:
        m.setattr(backend, "_usable_cpus", lambda: 1)
        return backend.log_joints(*args)


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was made")


def no_cpu_count():
    raise AssertionError("the CPUs were counted")


class TestParallelBlocks:
    """``log_joints`` runs its blocks on up to MAX_PARTS threads with the
    bits of one thread; CHUNK_ROWS = 8 gives many blocks."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(backend, "CHUNK_ROWS", 8)

    def inputs(self, rng):
        """N a multiple of the block, N with a tail block, zero-weight
        columns and separated clusters, whose rows the guard evaluates
        again."""
        w, mu, d, x = _inputs(rng, K=4, D=5, N=41)
        zero = np.array([0.0, 0.7, 0.0, 0.3])
        yield from [(w, mu, d, x[:9]), (w, mu, d, x[:40]), (w, mu, d, x),
                    (zero, mu, d, x), two_cluster_inputs(rng, 1e6, N=200),
                    two_cluster_inputs(rng, 1e6, N=203)]

    @pytest.mark.parametrize("cpus, max_parts", [(1, 2), (2, 2), (3, 2), (3, 3)])
    def test_bitwise_serial(self, rng, monkeypatch, cpus, max_parts):
        monkeypatch.setattr(backend, "MAX_PARTS", max_parts)
        for args in self.inputs(rng):
            want = serial(monkeypatch, *args)
            monkeypatch.setattr(backend, "_usable_cpus", lambda: cpus)
            assert_bitwise(backend.log_joints(*args), want)

    @pytest.mark.parametrize("cpus", [2, 64])
    def test_guard_rows_are_evaluated_in_workers(self, rng, monkeypatch, cpus):
        # At most MAX_PARTS threads, the calling one included.
        args = two_cluster_inputs(rng, 1e6, N=64)
        threads = set()
        single_row = backend._single_row

        def recording(*a):
            threads.add(threading.get_ident())
            return single_row(*a)

        monkeypatch.setattr(backend, "_single_row", recording)
        monkeypatch.setattr(backend, "_usable_cpus", lambda: cpus)
        backend.log_joints(*args)
        assert len(threads) == 2 and threading.get_ident() in threads

    def test_worker_exception_propagates_and_no_thread_outlives(self, rng, monkeypatch):
        args = two_cluster_inputs(rng, 1e6, N=64)
        monkeypatch.setattr(backend, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        assert_bitwise(backend.log_joints(*args), serial(monkeypatch, *args))
        assert threading.active_count() == before
        single_row = backend._single_row

        def fail_in_worker(*a):
            if threading.current_thread() is not threading.main_thread():
                raise ZeroDivisionError("in a worker")
            return single_row(*a)

        monkeypatch.setattr(backend, "_single_row", fail_in_worker)
        with pytest.raises(ZeroDivisionError, match="in a worker"):
            backend.log_joints(*args)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_one_row_or_one_block_starts_no_thread(self, rng, monkeypatch, n):
        args = _inputs(rng, N=n)
        want = serial(monkeypatch, *args)
        monkeypatch.setattr(backend, "ThreadPoolExecutor", NoPool)
        monkeypatch.setattr(backend, "_usable_cpus", no_cpu_count)
        assert_bitwise(backend.log_joints(*args), want)

    def overflow_inputs(self, rng):
        """Rows of 1e300 and -1e300 in block 1, which a worker evaluates;
        the row mean stays finite, so no other block overflows."""
        w, mu, d, x = _inputs(rng, N=24)
        x[9], x[10] = 1e300, -1e300
        return w, mu, d, x

    def test_caller_errstate_ignore(self, rng, monkeypatch):
        args = self.overflow_inputs(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                want = serial(monkeypatch, *args)
                monkeypatch.setattr(backend, "_usable_cpus", lambda: 2)
                assert_bitwise(backend.log_joints(*args), want)

    def test_caller_errstate_raise(self, rng, monkeypatch):
        args = self.overflow_inputs(rng)
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError) as want:
                serial(monkeypatch, *args)
            monkeypatch.setattr(backend, "_usable_cpus", lambda: 2)
            with pytest.raises(FloatingPointError) as got:
                backend.log_joints(*args)
        assert str(got.value) == str(want.value)

    def test_caller_errstate_call(self, rng, monkeypatch):
        args = self.overflow_inputs(rng)
        seen = []
        with np.errstate(all="call", call=lambda kind, flag: seen.append(kind)):
            want = serial(monkeypatch, *args)
            want_seen, seen[:] = sorted(seen), []
            monkeypatch.setattr(backend, "_usable_cpus", lambda: 2)
            got = backend.log_joints(*args)
        assert want_seen and sorted(seen) == want_seen
        assert_bitwise(got, want)
