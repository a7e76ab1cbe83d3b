import math

import mpmath
import numpy as np
import pytest

from conftest import random_data, random_model
from somgmm.exceptions import DataError, UsageError
from somgmm.model import (
    DataSet,
    MixtureModel,
    component_log_density,
    full_log_likelihood,
    max_component_log_likelihood,
    responsibilities,
    smoothed_log_likelihood,
)
from somgmm.topology import GridTopology, NeighborhoodKernel, build_kernel

mpmath.mp.dps = 40


def mp_component_density(x, model, k):
    """Oracle: diagonal Gaussian density in probability space at 40 digits,
    then the log."""
    p = mpmath.mpf(1)
    for i in range(model.dim):
        d = mpmath.mpf(model.precision_roots[k, i])
        diff = mpmath.mpf(x[i]) - mpmath.mpf(model.centroids[k, i])
        p *= d / mpmath.sqrt(2 * mpmath.pi) * mpmath.e ** (-(d * diff) ** 2 / 2)
    return float(mpmath.log(p))


class TestComponentLogDensity:
    def test_standard_normal_at_mean(self):
        m = MixtureModel([1.0], [[0.0]], [[1.0]])
        assert component_log_density(np.array([0.0]), m, 0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_unit_gaussian_2d(self):
        m = MixtureModel([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        val = component_log_density(np.array([1.0, 1.0]), m, 0)
        assert val == pytest.approx(-math.log(2 * math.pi) - 1.0, abs=1e-12)

    def test_matches_probability_space_oracle(self, rng):
        m = random_model(rng, 2, 3)
        x = rng.normal(size=3)
        for k in range(2):
            assert component_log_density(x, m, k) == pytest.approx(
                mp_component_density(x, m, k), abs=1e-10
            )

    def test_index_out_of_range(self, rng):
        m = random_model(rng, 2, 3)
        with pytest.raises(UsageError):
            component_log_density(np.zeros(3), m, 5)

    def test_non_finite_input(self, rng):
        m = random_model(rng, 2, 3)
        with pytest.raises(DataError):
            component_log_density(np.array([np.nan, 0, 0]), m, 0)

    @pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 0.5], 0.5, [[0.5, 0.5]]])
    def test_not_a_model_vector(self, rng, x):
        # A length-1 vector would broadcast against a D = 2 centroid.
        with pytest.raises(UsageError, match="dimension 2"):
            component_log_density(np.array(x), random_model(rng, 2, 2), 0)


class TestFullLogLikelihood:
    def test_single_component_collapses(self, rng):
        m = random_model(rng, 1, 2)
        data = random_data(rng, 6, 2)
        expected = np.mean([component_log_density(x, m, 0) for x in data.samples])
        assert full_log_likelihood(data, m) == pytest.approx(expected, rel=1e-12)

    def test_identical_components(self, rng):
        mu = rng.normal(size=2)
        d = rng.uniform(0.5, 2, 2)
        m = MixtureModel([0.5, 0.5], np.stack([mu, mu]), np.stack([d, d]))
        data = random_data(rng, 5, 2)
        expected = np.mean([component_log_density(x, m, 0) for x in data.samples])
        assert full_log_likelihood(data, m) == pytest.approx(expected, rel=1e-12)

    def test_matches_extended_precision_sum(self, rng):
        m = random_model(rng, 3, 2)
        data = random_data(rng, 5, 2)
        total = mpmath.mpf(0)
        for x in data.samples:
            s = mpmath.mpf(0)
            for k in range(3):
                s += mpmath.mpf(m.weights[k]) * mpmath.e ** mpmath.mpf(
                    mp_component_density(x, m, k)
                )
            total += mpmath.log(s)
        assert full_log_likelihood(data, m) == pytest.approx(
            float(total / 5), abs=1e-10
        )

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            DataSet(np.empty((0, 2)))


class TestMaxComponent:
    def test_k1_equals_full(self, rng):
        m = random_model(rng, 1, 3)
        data = random_data(rng, 8, 3)
        assert max_component_log_likelihood(data, m) == full_log_likelihood(data, m)

    def test_lower_bound_many_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            K = int(rng.integers(1, 6))
            D = int(rng.integers(1, 5))
            m = random_model(rng, K, D)
            data = random_data(rng, int(rng.integers(1, 10)), D)
            assert max_component_log_likelihood(data, m) <= full_log_likelihood(data, m)

    def test_matches_explicit_argmax_oracle(self, rng):
        m = random_model(rng, 4, 3)
        data = random_data(rng, 8, 3)
        per_sample = []
        for x in data.samples:
            terms = [math.log(m.weights[k]) + component_log_density(x, m, k)
                     for k in range(4)]
            per_sample.append(max(terms))
        assert max_component_log_likelihood(data, m) == pytest.approx(
            float(np.mean(per_sample)), rel=1e-12
        )


class TestSmoothed:
    def test_identity_kernel_equals_max_component(self, rng):
        m = random_model(rng, 4, 2)
        data = random_data(rng, 6, 2)
        ident = NeighborhoodKernel(np.eye(4), 0.0)
        assert smoothed_log_likelihood(data, m, ident) == max_component_log_likelihood(
            data, m
        )

    def test_uniform_kernel(self, rng):
        m = random_model(rng, 3, 2)
        data = random_data(rng, 6, 2)
        uniform = NeighborhoodKernel(np.full((3, 3), 1.0 / 3), 1e9)
        expected = 0.0
        for x in data.samples:
            expected += sum(
                math.log(m.weights[j]) + component_log_density(x, m, j)
                for j in range(3)
            ) / 3
        assert smoothed_log_likelihood(data, m, uniform) == pytest.approx(
            expected / 6, rel=1e-12
        )

    def test_matches_dense_convolution_oracle(self, rng):
        m = random_model(rng, 4, 2)
        data = random_data(rng, 6, 2)
        kernel = build_kernel(GridTopology("2d", 4), 0.7)
        total = 0.0
        for x in data.samples:
            terms = [math.log(m.weights[j]) + component_log_density(x, m, j)
                     for j in range(4)]
            total += max(
                sum(kernel.g[k, j] * terms[j] for j in range(4)) for k in range(4)
            )
        assert smoothed_log_likelihood(data, m, kernel) == pytest.approx(
            total / 6, rel=1e-12
        )

    def test_never_exceeds_max_component(self, rng):
        for _ in range(50):
            m = random_model(rng, 9, 2)
            data = random_data(rng, 4, 2)
            kernel = build_kernel(GridTopology("2d", 9), rng.uniform(0.2, 3.0))
            assert smoothed_log_likelihood(data, m, kernel) <= \
                max_component_log_likelihood(data, m) + 1e-12

    def test_size_mismatch(self, rng):
        m = random_model(rng, 4, 2)
        data = random_data(rng, 3, 2)
        wrong = build_kernel(GridTopology("2d", 9), 1.0)
        with pytest.raises(UsageError):
            smoothed_log_likelihood(data, m, wrong)


class TestResponsibilities:
    def test_identical_components_uniform(self, rng):
        mu = rng.normal(size=2)
        d = rng.uniform(0.5, 2, 2)
        K = 5
        m = MixtureModel(np.full(K, 0.2), np.tile(mu, (K, 1)), np.tile(d, (K, 1)))
        gamma = responsibilities(random_data(rng, 4, 2), m).gamma
        assert np.allclose(gamma, 0.2, atol=1e-14)

    def test_dominant_component(self):
        m = MixtureModel(
            [0.5, 0.5],
            [[0.0], [1e6]],
            [[1.0], [1.0]],
        )
        gamma = responsibilities(DataSet([[0.0]]), m).gamma
        assert abs(gamma[0, 0] - 1.0) < 1e-12

    def test_matches_extended_precision_oracle(self, rng):
        m = random_model(rng, 3, 2)
        data = random_data(rng, 4, 2)
        gamma = responsibilities(data, m).gamma
        for n, x in enumerate(data.samples):
            joint = [
                mpmath.mpf(m.weights[k]) * mpmath.e ** mpmath.mpf(
                    mp_component_density(x, m, k)
                )
                for k in range(3)
            ]
            z = sum(joint)
            for k in range(3):
                assert gamma[n, k] == pytest.approx(float(joint[k] / z), abs=1e-12)

    def test_rows_sum_to_one(self, rng):
        m = random_model(rng, 6, 3)
        gamma = responsibilities(random_data(rng, 20, 3), m).gamma
        assert np.all(np.abs(gamma.sum(axis=1) - 1.0) < 1e-9)
        assert np.all((gamma >= 0) & (gamma <= 1))


def test_losses_invariant_under_component_permutation(rng):
    K = 9
    m = random_model(rng, K, 2)
    data = random_data(rng, 5, 2)
    kernel = build_kernel(GridTopology("2d", K), 0.8)
    perm = rng.permutation(K)
    m2 = MixtureModel(m.weights[perm], m.centroids[perm], m.precision_roots[perm])
    k2 = NeighborhoodKernel(kernel.g[np.ix_(perm, perm)], kernel.sigma)
    assert full_log_likelihood(data, m2) == pytest.approx(
        full_log_likelihood(data, m), rel=1e-12)
    assert max_component_log_likelihood(data, m2) == pytest.approx(
        max_component_log_likelihood(data, m), rel=1e-12)
    assert smoothed_log_likelihood(data, m2, k2) == pytest.approx(
        smoothed_log_likelihood(data, m, kernel), rel=1e-12)


def test_model_invariants_enforced():
    with pytest.raises(UsageError):
        MixtureModel([0.6, 0.5], [[0.0], [1.0]], [[1.0], [1.0]]).validate()
    with pytest.raises(UsageError):
        MixtureModel([0.5, 0.5], [[0.0], [1.0]], [[1e9], [1.0]]).validate()
    with pytest.raises(UsageError):
        MixtureModel(
            [0.5, 0.5], [[0.0], [1.0]], [[1.0], [2.0]], tied_spherical=True
        ).validate()
