import copy
import math
import pickle
import re

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import assert_frozen, random_data, random_model
import somgmm.model as model_mod
from somgmm.exceptions import DataError, UsageError
from somgmm.model import (
    DataSet,
    MixtureModel,
    component_log_density,
    full_log_likelihood,
    log_joint_matrix,
    max_component_log_likelihood,
    responsibilities,
    smoothed_log_likelihood,
)
from somgmm.topology import GridTopology, NeighborhoodKernel, build_kernel
from somgmm.trainer import enforce_constraints

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


def logsumexp_cases():
    """(name, N x K matrix) pairs: random rows at scales 1e-3 to 1e6, -inf
    columns and rows, +inf and NaN entries, exact ties, equal rows, values
    near -1e300, and K = 1 and N = 1."""
    rng = np.random.default_rng(26)
    for case in range(1200):
        n, k = (int(v) for v in rng.integers(1, 12, size=2))
        scale = 10.0 ** rng.uniform(-3, 6)
        lj = rng.normal(size=(n, k)) * scale - rng.uniform(0, 1) * scale
        row, col = rng.integers(n), rng.integers(k)
        kind = ("random", "-inf column", "-inf row", "+inf", "nan", "ties",
                "equal rows", "near -1e300")[case % 8]
        if kind == "-inf column":
            lj[:, col] = -np.inf
        elif kind == "-inf row":
            lj[row] = -np.inf
        elif kind == "+inf":
            lj[row, col] = np.inf
        elif kind == "nan":
            lj[row, col] = np.nan
        elif kind == "ties":
            lj = np.round(lj / scale)
        elif kind == "equal rows":
            lj[row] = lj[0, 0]
        elif kind == "near -1e300":
            lj = -1e300 + rng.normal(size=(n, k)) * 1e285
        yield kind, lj
    yield "K = 1", rng.normal(size=(7, 1)) * 1e3
    yield "K = 1 at -inf", np.array([[-np.inf], [np.inf], [np.nan], [0.0]])
    yield "N = 1", rng.normal(size=(1, 25)) * 1e3
    yield "N = 1 at -inf", np.full((1, 25), -np.inf)


class TestLogsumexpRows:
    """``_logsumexp_rows`` gives the bytes of the reference logsumexp."""

    def test_bytes_match_the_reference(self):
        # pytest's configuration turns any floating-point warning into an error.
        for kind, lj in logsumexp_cases():
            got = model_mod._logsumexp_rows(lj)
            want = logsumexp(lj, axis=1, keepdims=True)
            assert got.shape == want.shape == (lj.shape[0], 1), kind
            assert got.tobytes() == want.tobytes(), (kind, lj)

    def test_a_nan_entry_gives_nan(self):
        # The sign of a NaN result follows the hardware's NaN propagation,
        # so only NaN-ness is compared for mixed-sign NaN rows.
        lj = np.array([[np.nan, -np.nan, 1.0], [-np.nan, 1.0, 2.0], [-np.nan, -np.inf, 0.0]])
        assert np.isnan(model_mod._logsumexp_rows(lj)).all()

    def test_losses_use_it(self, rng):
        m = random_model(rng, 5, 3)
        data = random_data(rng, 40, 3)
        lj = log_joint_matrix(data, m)
        want = logsumexp(lj, axis=1)
        assert full_log_likelihood(data, m) == float(np.mean(want))
        gamma = responsibilities(data, m).gamma
        assert gamma.tobytes() == np.exp(lj - want[:, None]).tobytes()


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


class TestFrozenArrays:
    """A model's weights and precision roots are frozen on every assignment,
    the constructor's included: a frozen array is kept as it is, anything
    else is copied, so no write to the caller's arrays reaches the model."""

    def test_constructed_from_lists_arrays_and_read_only_views(self):
        w, mu, d = np.array([0.25, 0.75]), np.zeros((2, 3)), np.ones((2, 3))
        w_base, d_base = np.array([0.25, 0.0, 0.75]), np.ones((2, 6))
        w_view, d_view = w_base[::2], d_base[:, ::2]
        for view in (w_view, d_view):
            view.setflags(write=False)
        models = [MixtureModel(w.tolist(), mu.tolist(), d.tolist()),
                  MixtureModel(w, mu, d), MixtureModel(w_view, mu, d_view)]
        for m in models:
            assert_frozen(m)
            assert m.weights is not w and m.precision_roots is not d
        w[0], d[0, 0] = 0.5, 2.0
        w_base[0], d_base[0, 0] = 0.5, 2.0
        for m in models:
            assert m.weights.tolist() == [0.25, 0.75]
            assert np.all(m.precision_roots == 1.0)

    def test_frozen_array_is_kept_as_is(self, rng):
        m = random_model(rng, 3, 2)
        again = MixtureModel(m.weights, m.centroids, m.precision_roots)
        assert again.weights is m.weights
        assert again.precision_roots is m.precision_roots

    def test_attribute_assignment(self, rng):
        m = random_model(rng, 3, 2)
        w, d = np.array([0.2, 0.3, 0.5]), np.full((3, 2), 1.5)
        m.weights, m.precision_roots = w, d
        assert_frozen(m)
        assert w.flags.writeable and d.flags.writeable
        w[0], d[0, 0] = 0.9, 9.0
        assert m.weights.tolist() == [0.2, 0.3, 0.5]
        assert np.all(m.precision_roots == 1.5)
        with pytest.raises(ValueError, match="read-only"):
            m.weights += 0.0
        with pytest.raises(UsageError, match="2-dimensional"):
            m.precision_roots = np.ones(3)

    @staticmethod
    def converted(name, value):
        """The store's conversions, which every assignment went through
        before frozen arrays were kept without them, ending in one read-only
        copy unless they give back a frozen array of the field's rank."""
        if name == "weights":
            arr, rank = np.ascontiguousarray(value, dtype=np.float64), 1
        else:
            arr, rank = model_mod._as_matrix(value, name), 2
        if arr.ndim != rank or not model_mod.backend._frozen(arr):
            arr = arr.copy()
            arr.setflags(write=False)
        return arr

    @staticmethod
    def frozen(arr):
        arr.setflags(write=False)
        return arr

    class Sub(np.ndarray):
        pass

    STORE_CASES = {
        "frozen": lambda shape: TestFrozenArrays.frozen(np.full(shape, 0.5)),
        "writeable": lambda shape: np.full(shape, 0.5),
        "read_only_view": lambda shape: TestFrozenArrays.frozen(np.full((2,) + shape, 0.5))[1],
        "fortran_order": lambda shape: TestFrozenArrays.frozen(
            np.asfortranarray(np.arange(math.prod(shape), dtype=float).reshape(shape))),
        "float32": lambda shape: TestFrozenArrays.frozen(np.full(shape, 0.5, np.float32)),
        "byte_swapped": lambda shape: TestFrozenArrays.frozen(np.full(shape, 0.5, ">f8")),
        "subclass": lambda shape: TestFrozenArrays.frozen(
            np.full(shape, 0.5).view(TestFrozenArrays.Sub).copy()),
        "rank_0": lambda shape: TestFrozenArrays.frozen(np.array(0.5)),
        "rank_1": lambda shape: TestFrozenArrays.frozen(np.full(shape[-1], 0.5)),
        "rank_2": lambda shape: TestFrozenArrays.frozen(np.full((1, shape[-1]), 0.5)),
        "rank_3": lambda shape: TestFrozenArrays.frozen(np.full((1,) + shape, 0.5)),
    }

    @pytest.mark.parametrize("name, shape", [("weights", (3,)), ("precision_roots", (3, 2))])
    @pytest.mark.parametrize("case", list(STORE_CASES))
    def test_store_keeps_frozen_arrays_and_converts_the_rest(self, rng, name, shape, case):
        # A frozen C-contiguous float64 array of the field's rank is stored
        # as the same object; every other value is stored, or refused,
        # exactly as the conversions store or refuse it.
        m = random_model(rng, 3, 2)
        value = self.STORE_CASES[case](shape)
        try:
            want = self.converted(name, value)
        except UsageError as exc:
            with pytest.raises(UsageError, match=re.escape(str(exc))):
                setattr(m, name, value)
            assert case in ("rank_0", "rank_1", "rank_3") and name == "precision_roots"
            return
        setattr(m, name, value)
        got = getattr(m, name)
        assert (got is value) == (want is value)
        if case == "frozen":
            assert got is value
        assert type(got) is type(want) is np.ndarray
        assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
        for flag in ("c_contiguous", "owndata", "writeable"):
            assert getattr(got.flags, flag) == getattr(want.flags, flag)
        assert got.tobytes() == want.tobytes()

    def test_frozen_arrays_skip_the_conversions(self, rng, monkeypatch):
        # The constructor, copy() and the untied training store keep frozen
        # arrays without converting them.
        m = random_model(rng, 3, 2)
        calls = []
        monkeypatch.setattr(model_mod, "_frozen_copy", lambda arr, *_: calls.append(arr) or arr)
        MixtureModel(m.weights, m.centroids, m.precision_roots).copy()
        enforce_constraints(m, m.precision_roots * 2.0, m.weights + 1.0)
        assert calls == []
        m.weights = m.weights + 0.0
        assert len(calls) == 1

    def test_pickle_and_deepcopy(self, rng):
        m = random_model(rng, 3, 2)
        for c in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
            assert_frozen(c)
            for name in ("weights", "centroids", "precision_roots"):
                assert getattr(c, name).tobytes() == getattr(m, name).tobytes()

    def test_copy_shares_the_frozen_arrays_and_their_terms(self, rng, fresh_terms_calls):
        m = random_model(rng, 5, 3)
        x = DataSet(rng.normal(size=(4, 3)))
        want = log_joint_matrix(x, m)
        assert len(fresh_terms_calls) == 1
        c = m.copy()
        assert_frozen(c)
        assert c.weights is m.weights and c.precision_roots is m.precision_roots
        assert c.centroids is not m.centroids
        assert c.centroids.tobytes() == m.centroids.tobytes()
        got = log_joint_matrix(x, c)
        assert len(fresh_terms_calls) == 1
        assert got.tobytes() == want.tobytes()
