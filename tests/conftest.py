import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from somgmm import backend
from somgmm.model import DataSet, MixtureModel
from somgmm.topology import AnnealingSchedule
from somgmm.trainer import TrainConfig

CLUSTER_CENTERS = np.array([[5.0, 5.0], [5.0, -5.0], [-5.0, 5.0], [-5.0, -5.0]])
CLUSTER_STD = 1.0
SAMPLES_PER_CLUSTER = 250


def random_model(rng, K, D, tied=False):
    if tied:
        d = rng.uniform(0.4, 2.5)
        return MixtureModel(
            np.full(K, 1.0 / K),
            rng.normal(scale=1.5, size=(K, D)),
            np.full((K, D), d),
            tied_spherical=True,
        )
    w = rng.uniform(0.1, 1.0, K)
    w /= w.sum()
    return MixtureModel(
        w,
        rng.normal(scale=1.5, size=(K, D)),
        rng.uniform(0.4, 2.5, (K, D)),
    )


def assert_frozen(model):
    """The model's weights and precision roots are read-only arrays that own
    their data, so an in-place write raises; its centroids are writeable."""
    for arr in (model.weights, model.precision_roots):
        assert arr.flags.owndata and not arr.flags.writeable
        assert arr.dtype == np.float64 and arr.flags.c_contiguous
        before = arr.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.5
        assert arr.tobytes() == before
    assert model.centroids.flags.writeable


def fraction_energies(g, x, mu):
    """The energies V_k = sum_j g_kj ||x - mu_j||^2 of one row x, exactly:
    Fractions of the float inputs.  A non-finite entry of x or of row j puts
    mu_j infinitely far, so V_k = inf for every k with g_kj > 0."""
    fx = [Fraction(v) for v in x.tolist()] if np.isfinite(x).all() else None
    sq = [sum((a - Fraction(b)) ** 2 for a, b in zip(fx, row))
          if fx is not None and all(map(math.isfinite, row)) else math.inf
          for row in mu.tolist()]
    return [sum(Fraction(c) * q for c, q in zip(row, sq) if c) for row in g.tolist()]


def fraction_winner(g, x, mu):
    """The lowest index of the least ``fraction_energies``."""
    v = fraction_energies(g, x, mu)
    return v.index(min(v))


def random_data(rng, N, D):
    return DataSet(rng.normal(scale=1.5, size=(N, D)))


def four_cluster_data(seed):
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        [c + CLUSTER_STD * rng.standard_normal((SAMPLES_PER_CLUSTER, 2))
         for c in CLUSTER_CENTERS]
    )
    return DataSet(pts)


def blob_images(rng, n):
    """n 28 x 28 byte images, each a bright 2D Gaussian bump at a random
    location."""
    yy, xx = np.mgrid[0:28, 0:28]
    imgs = np.empty((n, 28, 28), dtype=np.uint8)
    for i in range(n):
        cy, cx = rng.uniform(6, 22, 2)
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 3.0 ** 2))
        imgs[i] = np.rint(255 * bump).astype(np.uint8)
    return imgs


def cluster_means(data):
    n = SAMPLES_PER_CLUSTER
    return np.array([data.samples[i * n:(i + 1) * n].mean(axis=0) for i in range(4)])


def annealed_benchmark_config(T=4000):
    return TrainConfig(
        "smoothed", 4, T,
        eps_schedule=AnnealingSchedule(0.1, 0.002, 0.5 * T, 0.85 * T),
        sigma_schedule=AnnealingSchedule(1.0, 0.01, 0.2 * T, 0.5 * T),
        grid="2d", tied_spherical=True, init_dsq=1.0, diag_every=1000,
    )


def plain_benchmark_config(T=4000):
    return TrainConfig(
        "max_component", 4, T,
        eps_schedule=AnnealingSchedule(0.1, 0.002, 0.5 * T, 0.85 * T),
        grid="2d", init_mode="data_mean", init_dsq=1.0,
        train_weights=True, train_precisions=True, diag_every=1000,
    )


def matched_rmse(model, targets):
    """Best-permutation centroid RMSE, brute force over all K! matchings."""
    best = min(
        np.mean(np.sum((model.centroids - targets[list(p)]) ** 2, axis=1))
        for p in itertools.permutations(range(len(targets)))
    )
    return float(np.sqrt(best))


def numeric_grad(f, model, name, h=1e-5):
    """Central finite differences of a scalar function over the model's
    array ``name``.  Each entry is moved on a new array, since a model's
    weights and precision roots are read-only; the original is restored."""
    arr = getattr(model, name)
    g = np.zeros(arr.shape)
    for idx in np.ndindex(arr.shape):
        values = []
        for step in (h, -h):
            moved = arr.copy()
            moved[idx] = arr[idx] + step
            setattr(model, name, moved)
            values.append(f())
        setattr(model, name, arr)
        g[idx] = (values[0] - values[1]) / (2 * h)
    return g


@pytest.fixture
def fresh_terms_calls(monkeypatch):
    """Records every computation of the kernel terms, ``backend._fresh_terms``."""
    calls = []
    fresh = backend._fresh_terms
    monkeypatch.setattr(backend, "_fresh_terms", lambda *a: calls.append(a) or fresh(*a))
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
