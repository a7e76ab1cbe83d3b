import gc
import math
import weakref

import numpy as np
import pytest
from scipy import stats

from conftest import (
    annealed_benchmark_config,
    four_cluster_data,
    random_data,
    random_model,
)
from somgmm import backend
from somgmm.exceptions import DataError, UsageError
from somgmm.inference import (
    assign_cluster,
    batch_scores,
    outlier_score,
    sample,
    score_report,
)
from somgmm.io import load_checkpoint, save_checkpoint
from somgmm.model import (
    DataSet,
    MixtureModel,
    full_log_likelihood,
    log_joint_matrix,
    max_component_log_likelihood,
)
from somgmm.trainer import run


def separated_model():
    centers = np.array([[6.0, 6.0], [6.0, -6.0], [-6.0, 6.0], [-6.0, -6.0]])
    return MixtureModel(np.full(4, 0.25), centers, np.ones((4, 2)),
                        tied_spherical=True)


class TestOutlierScore:
    def test_score_at_centroid_closed_form(self):
        m = separated_model()
        got = outlier_score(m.centroids[2], m)
        expected = math.log(0.25) + 2 * (math.log(1.0) - 0.5 * math.log(2 * math.pi))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_distance(self):
        m = separated_model()
        near = m.centroids[0] + np.array([1.0, 0.0])
        far = m.centroids[0] + np.array([10.0, 0.0])
        assert outlier_score(far, m) < outlier_score(near, m)

    def test_mean_equals_max_component_loss(self, rng):
        m = random_model(rng, 3, 2)
        data = random_data(rng, 40, 2)
        assert np.mean(batch_scores(data, m)) == pytest.approx(
            max_component_log_likelihood(data, m), rel=1e-12
        )

    def test_never_exceeds_full_likelihood(self, rng):
        m = random_model(rng, 5, 3)
        for x in random_data(rng, 30, 3).samples:
            single = DataSet(x[None, :])
            assert outlier_score(x, m) <= full_log_likelihood(single, m) + 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(UsageError):
            outlier_score(np.zeros(5), random_model(rng, 2, 3))


class TestScoreReport:
    def test_window_mean_is_arithmetic_mean(self, rng):
        m = random_model(rng, 3, 2)
        data = random_data(rng, 25, 2)
        rep = score_report(data, m, window=10)
        for i in range(25):
            lo = max(0, i - 9)
            assert rep.window_means[i] == pytest.approx(
                rep.scores[lo:i + 1].mean(), abs=1e-12
            )

    @pytest.mark.parametrize("n, window", [(40, 1), (40, 10), (7, 12), (1, 1), (1, 5),
                                           (7, 2 ** 63)])
    def test_window_means_match_loop_definition(self, rng, n, window):
        m = random_model(rng, 3, 2)
        rep = score_report(random_data(rng, n, 2), m, window=window)
        want = np.array([rep.scores[max(0, i - window + 1):i + 1].mean()
                         for i in range(n)])
        err = np.abs(rep.window_means - want) / np.maximum(1.0, np.abs(want))
        assert np.max(err) <= 1e-12

    def test_verdicts_against_reference(self, rng):
        m = separated_model()
        inliers = DataSet(m.centroids + 0.1 * rng.standard_normal((4, 2)))
        noise = DataSet(np.full((3, 2), 40.0))
        rep = score_report(noise, m, window=1, reference=inliers, percentile=1.0)
        assert rep.verdicts.all()


class TestAssignCluster:
    def test_exact_centroid(self):
        m = separated_model()
        assert assign_cluster(m.centroids[2], m) == 2

    def test_agrees_with_identity_bmu(self, rng):
        from somgmm.sombridge import SomView, bmu
        from somgmm.topology import GridTopology, NeighborhoodKernel

        m = random_model(rng, 4, 2, tied=True)
        view = SomView(m, GridTopology("2d", 4), NeighborhoodKernel(np.eye(4), 0.0))
        for x in random_data(rng, 20, 2).samples:
            assert assign_cluster(x, m) == bmu(x, view)

    def test_tie_breaks_low_index(self):
        m = MixtureModel([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
        assert assign_cluster(np.array([0.0]), m) == 0

    @pytest.mark.parametrize("x", [3.0, [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_not_a_model_vector(self, x):
        with pytest.raises(UsageError, match="dimension 2"):
            assign_cluster(x, separated_model())

    @pytest.mark.parametrize("fn", [assign_cluster, outlier_score])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector(self, fn, bad):
        with pytest.raises(DataError, match="non-finite"):
            fn([bad, 0.0], separated_model())

    def test_strided_vector(self):
        m = separated_model()
        rows = np.array([[6.0, 0.0, 6.0], [-6.0, 0.0, 5.0]])
        for x in (rows[0, ::2], rows[:, 2]):
            assert assign_cluster(x, m) == assign_cluster(x.copy(), m)
            assert outlier_score(x, m) == outlier_score(x.copy(), m)

    def test_invariant_under_monotone_shift(self, rng):
        # Scaling all weights equally shifts every log-score by a constant.
        m = random_model(rng, 4, 2)
        x = rng.normal(size=2)
        k = assign_cluster(x, m)
        m2 = MixtureModel(m.weights.copy(), m.centroids, m.precision_roots)
        assert assign_cluster(x, m2) == k


class TestPerRowPath:
    """assign_cluster and outlier_score call the one-row kernel directly;
    they must match the argmax and max of log_joint_matrix on that row."""

    @staticmethod
    def models(rng):
        for K, D in [(1, 1), (4, 2), (7, 5), (25, 30)]:
            yield random_model(rng, K, D)
            yield random_model(rng, K, D, tied=True)
            if K > 1:
                m = random_model(rng, K, D)
                w = m.weights.copy()
                w[::2] = 0.0  # -inf columns
                m.weights = w / w.sum()
                yield m

    def test_bitwise_equal_to_log_joint_matrix(self, rng):
        for m in self.models(rng):
            X = np.concatenate([random_data(rng, 20, m.dim).samples, m.centroids])
            for x in X:
                lj = log_joint_matrix(DataSet(x[None, :]), m)[0]
                k = assign_cluster(x, m)
                assert type(k) is int and k == int(np.argmax(lj))
                score = outlier_score(x, m)
                assert type(score) is float
                assert np.float64(score).tobytes() == np.max(lj).tobytes()

    def test_exact_ties_pick_the_lowest_index(self, rng):
        # Components 1, 3 and 5 are copies, so their log-joints are equal bit
        # for bit; at their centroid they are the maximum.
        m = random_model(rng, 6, 3)
        d = m.precision_roots.copy()
        for k in (3, 5):
            m.centroids[k] = m.centroids[1]
            d[k] = d[1]
        w = np.full(6, 0.1 / 3)
        w[[1, 3, 5]] = 0.3
        w[0] = 0.0
        m.weights, m.precision_roots = w / w.sum(), d
        for x in (m.centroids[1], m.centroids[1] + 1e-3):
            lj = log_joint_matrix(DataSet(x[None, :]), m)[0]
            assert lj[1] == lj[3] == lj[5] == lj.max() and lj[0] == -np.inf
            assert assign_cluster(x, m) == 1
            assert outlier_score(x, m) == lj[1]


class TestFrozenModel:
    """A loaded checkpoint and a tied run give a model with read-only weights
    and d; per-row calls on it find the kernel terms by identity."""

    @staticmethod
    def loaded(tmp_path, rng, tied):
        from test_io import TestCheckpoint
        ckpt = TestCheckpoint()._ckpt(rng, tied=tied)
        save_checkpoint(tmp_path / "m.ckpt", ckpt)
        return load_checkpoint(tmp_path / "m.ckpt").model

    @staticmethod
    def tied_run_model():
        cfg = annealed_benchmark_config(200)
        cfg.seed = 5
        state = run(cfg, four_cluster_data(5))
        return state.model, state

    @staticmethod
    def assert_per_row_calls_hit(model, rng, calls, psq=None):
        X = rng.normal(size=(30, model.dim))
        assign_cluster(X[0], model)
        kept = backend._terms[3]
        assert psq is None or kept is psq
        calls.clear()
        for x in X:
            assign_cluster(x, model)
            outlier_score(x, model)
            assert backend._terms[3] is kept
        assert calls == []

    @pytest.mark.parametrize("tied", [False, True])
    def test_loaded_model_hits_by_identity(self, tmp_path, rng, fresh_terms_calls, tied):
        backend._terms = None
        self.assert_per_row_calls_hit(self.loaded(tmp_path, rng, tied), rng,
                                      fresh_terms_calls)

    def test_tied_run_model_uses_the_runs_terms(self, rng, fresh_terms_calls):
        # The run's own psq serves inference after it: one computation of
        # d^2 for the whole life of the model.
        model, state = self.tied_run_model()
        self.assert_per_row_calls_hit(model, rng, fresh_terms_calls,
                                      psq=state.tied_terms[2])

    @pytest.mark.parametrize("source", ["loaded", "tied_run"])
    def test_memo_keeps_no_array_of_a_dropped_model(self, tmp_path, rng, source):
        if source == "loaded":
            model = self.loaded(tmp_path, rng, True)
        else:
            model, state = self.tied_run_model()
            del state
        x = rng.normal(size=model.dim)
        assign_cluster(x, model)
        refs = [weakref.ref(a) for a in
                (model.weights, model.centroids, model.precision_roots)]
        del model
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert backend._terms[0]() is None and backend._terms[1]() is None

    def test_bitwise_the_cleared_memo(self, tmp_path, rng):
        models = [self.loaded(tmp_path, rng, tied) for tied in (False, True)]
        models.append(self.tied_run_model()[0])
        w = models[0].weights.copy()
        w[::2] = 0.0  # -inf columns
        w /= w.sum()
        w.setflags(write=False)
        models.append(MixtureModel(w, models[0].centroids, models[0].precision_roots))
        for m in models:
            for x in np.concatenate([rng.normal(size=(10, m.dim)), m.centroids]):
                k, score = assign_cluster(x, m), outlier_score(x, m)
                backend._terms = None
                assert assign_cluster(x, m) == k
                backend._terms = None
                again = outlier_score(x, m)
                assert np.float64(again).tobytes() == np.float64(score).tobytes()


class TestSample:
    def test_oversized_count_refused_before_drawing(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(UsageError, match="too large"):
            sample(separated_model(), 10 ** 20, rng)
        assert rng.bit_generator.state == before

    def test_tiny_variance_sticks_to_centroids(self):
        m = separated_model()
        m.precision_roots = np.full_like(m.precision_roots, 1e3)
        rng = np.random.default_rng(5)
        drawn = sample(m, 50, rng)
        dists = np.min(
            np.linalg.norm(drawn[:, None, :] - m.centroids[None, :, :], axis=2), axis=1
        )
        assert np.all(dists <= 3e-3)

    def test_k1_sample_mean_clt_bound(self):
        d = 1.3
        mu = np.array([0.7, -0.4])
        m = MixtureModel([1.0], mu[None, :], np.full((1, 2), d))
        rng = np.random.default_rng(9)
        drawn = sample(m, 10 ** 5, rng)
        bound = 4.0 / math.sqrt(10 ** 5 * d * d)
        assert np.all(np.abs(drawn.mean(axis=0) - mu) < bound)

    def test_tied_selection_uniform_chi_square(self):
        m = separated_model()
        rng = np.random.default_rng(10)
        drawn = sample(m, 10 ** 4, rng)
        ks = np.array([assign_cluster(x, m) for x in drawn])
        counts = np.bincount(ks, minlength=4)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_untied_multinomial_selection(self, rng):
        m = MixtureModel([0.9, 0.1], [[-20.0], [20.0]], [[1.0], [1.0]])
        drawn = sample(m, 5000, np.random.default_rng(11))
        frac = np.mean(drawn > 0)
        assert abs(frac - 0.1) < 0.02

    def test_deterministic_under_seed(self, rng):
        m = random_model(rng, 3, 2)
        a = sample(m, 20, np.random.default_rng(4))
        b = sample(m, 20, np.random.default_rng(4))
        assert np.array_equal(a, b)

    def test_generated_samples_score_above_noise(self, rng):
        m = separated_model()
        gen = DataSet(sample(m, 1000, np.random.default_rng(12)))
        lo, hi = gen.samples.min(), gen.samples.max()
        noise = DataSet(np.random.default_rng(13).uniform(lo, hi, (1000, 2)))
        assert batch_scores(gen, m).mean() > batch_scores(noise, m).mean()

    def test_bad_count(self, rng):
        with pytest.raises(UsageError):
            sample(random_model(rng, 2, 2), 0, rng)
