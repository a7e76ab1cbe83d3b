import os
import subprocess
import sys

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


def fresh(*args):
    """log_joints with the normaliser memo cleared first."""
    backend._terms = None
    return backend.log_joints(*args)


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestNormaliserMemo:
    def test_one_ulp_nudge_in_place_misses(self, rng):
        w, mu, d, x = _inputs(rng)
        for rows in (x[:1], x):
            backend.log_joints(w, mu, d, rows)
            memo = backend._terms
            d[2, 3] = np.nextafter(d[2, 3], np.inf)
            got = backend.log_joints(w, mu, d, rows)
            assert backend._terms is not memo  # a miss
            assert_bitwise(got, fresh(w, mu, d, rows))

    def test_weights_changed_in_place_miss(self, rng):
        w, mu, d, x = _inputs(rng)
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
        w = np.array([0.0, 0.4, 0.6])
        want = fresh(w, mu, d, x[:1])
        memo = backend._terms
        got = backend.log_joints(w, mu, d, x[:1])
        assert backend._terms is memo  # a hit
        assert got[0, 0] == -np.inf
        assert_bitwise(got, want)

    @pytest.mark.parametrize("where", ["weights", "precision_roots"])
    def test_nan_input_always_misses(self, rng, where):
        w, mu, d, x = _inputs(rng)
        (w if where == "weights" else d)[1] = np.nan
        backend.log_joints(w, mu, d, x[:1])
        memo = backend._terms
        got = backend.log_joints(w, mu, d, x[:1])
        assert backend._terms is not memo
        assert_bitwise(got, fresh(w, mu, d, x[:1]))

    def test_cached_arrays_are_read_only(self, rng):
        w, _, d, _ = _inputs(rng)
        base = backend._log_normaliser(w, d)
        assert backend._terms[2] is base
        for arr in backend._terms:
            with pytest.raises(ValueError):
                arr[0] = 0.0
