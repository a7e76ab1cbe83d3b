import math

import numpy as np
import pytest

from conftest import random_data, random_model
from somgmm.exceptions import DataError, UsageError
from somgmm import backend, sombridge, somstep, trainer
from somgmm.model import DataSet, MixtureModel
from somgmm.sombridge import (
    SomView,
    bmu,
    som_energy,
    som_update,
    verify_equivalence,
)
from somgmm.topology import AnnealingSchedule, GridTopology, NeighborhoodKernel, build_kernel
from somgmm.trainer import TrainConfig, make_state, sgd_step


def tied_view(rng, K=4, D=3, sigma=0.7, grid="2d"):
    model = random_model(rng, K, D, tied=True)
    top = GridTopology(grid, K)
    return SomView(model, top, build_kernel(top, sigma))


def identity_view(model, grid="2d"):
    K = model.n_components
    top = GridTopology(grid, K)
    return SomView(model, top, NeighborhoodKernel(np.eye(K), 0.0))


class TestSomEnergy:
    def test_single_prototype_at_sample(self):
        m = MixtureModel([1.0], [[1.0, 2.0]], [[1.5, 1.5]], tied_spherical=True)
        view = identity_view(m, grid="1d")
        assert som_energy(DataSet([[1.0, 2.0]]), view) == 0.0

    def test_identity_kernel_is_quantization_error(self, rng):
        view = identity_view(random_model(rng, 4, 2, tied=True))
        data = random_data(rng, 10, 2)
        expected = np.mean([
            min(np.sum((x - p) ** 2) for p in view.prototypes)
            for x in data.samples
        ])
        assert som_energy(data, view) == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force(self, rng):
        view = tied_view(rng, K=4, D=3, sigma=0.7)
        data = random_data(rng, 6, 3)
        total = 0.0
        for x in data.samples:
            best = math.inf
            for k in range(4):
                conv = sum(
                    view.kernel.g[k, j] * np.sum((x - view.prototypes[j]) ** 2)
                    for j in range(4)
                )
                best = min(best, conv)
            total += best
        assert som_energy(data, view) == pytest.approx(total / 6, rel=1e-12)

    def test_row_chunking_is_bitwise(self, rng, monkeypatch):
        view = tied_view(rng, K=9, D=5, sigma=0.7)
        X = random_data(rng, 50, 5).samples
        whole = sombridge._convolved_sq_distances(X, view)
        monkeypatch.setattr(sombridge, "_CHUNK_ELEMS", 2 * 9 * 5 + 1)  # 2 rows
        assert np.array_equal(sombridge._convolved_sq_distances(X, view), whole)


class TestBmu:
    def test_exact_prototype_identity_kernel(self, rng):
        view = identity_view(random_model(rng, 4, 2, tied=True))
        assert bmu(view.prototypes[3], view) == 3

    def test_tie_break_lowest_index(self):
        m = MixtureModel(
            np.full(4, 0.25), np.zeros((4, 2)), np.ones((4, 2)), tied_spherical=True
        )
        assert bmu(np.array([1.0, 1.0]), identity_view(m)) == 0

    def test_agrees_with_smoothed_argmax(self, rng):
        # Cross-module consistency: for tied models the convolved-distance
        # argmin is the smoothed-score argmax — the equivalence in action.
        from somgmm.model import log_joint_matrix

        for _ in range(25):
            view = tied_view(rng, K=9, D=2, sigma=rng.uniform(0.3, 1.5))
            x = rng.normal(scale=2.0, size=2)
            lj = log_joint_matrix(DataSet(x[None, :]), view.model)
            argmax = int(np.argmax(lj @ view.kernel.g.T, axis=1)[0])
            assert bmu(x, view) == argmax

    def test_scale_invariance(self, rng):
        view = tied_view(rng, K=4, D=2)
        x = rng.normal(size=2)
        k1 = bmu(x, view)
        view.model.centroids *= 3.0
        assert bmu(3.0 * x, view) == k1

    def test_dimension_mismatch(self, rng):
        view = tied_view(rng, D=3)
        before = view.prototypes.copy()
        for x in (np.array([0.3]), np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(UsageError, match="dimension 3"):
                bmu(x, view)
            with pytest.raises(UsageError, match="dimension 3"):
                som_update(view, x, 0.5)
        assert np.array_equal(view.prototypes, before)


class TestSomUpdate:
    def test_full_step_jumps_to_sample(self, rng):
        view = identity_view(random_model(rng, 4, 2, tied=True))
        x = view.prototypes[1] + np.array([0.05, -0.02])
        others = np.delete(view.prototypes.copy(), 1, axis=0)
        som_update(view, x, 1.0)
        assert np.array_equal(view.prototypes[1], x)
        assert np.array_equal(np.delete(view.prototypes, 1, axis=0), others)

    def test_zero_epsilon_no_change(self, rng):
        view = tied_view(rng)
        before = view.prototypes.copy()
        som_update(view, rng.normal(size=3), 0.0)
        assert np.array_equal(view.prototypes, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, rng, bad):
        view = tied_view(rng)
        before = view.prototypes.copy()
        x = np.array([bad, 0.0, 1.0])
        with pytest.raises(DataError, match="non-finite"):
            bmu(x, view)
        with pytest.raises(DataError, match="non-finite"):
            som_update(view, x, 0.5)
        assert np.array_equal(view.prototypes, before)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, -0.5])
    def test_bad_epsilon_rejected(self, rng, eps):
        view = tied_view(rng)
        before = view.prototypes.copy()
        with pytest.raises(UsageError, match="epsilon"):
            som_update(view, rng.normal(size=3), eps)
        assert np.array_equal(view.prototypes, before)

    def test_one_vector_check_per_update(self, rng, monkeypatch):
        calls = []
        as_vector = sombridge.mc.as_vector

        def counting(*args):
            calls.append(1)
            return as_vector(*args)

        monkeypatch.setattr(sombridge.mc, "as_vector", counting)
        view = tied_view(rng)
        for x in rng.normal(size=(3, 3)):
            som_update(view, x, 0.1)
        assert len(calls) == 3
        bmu(rng.normal(size=3), view)
        assert len(calls) == 4

    def test_shares_the_tied_steps_winner_and_difference(self, rng, monkeypatch):
        # bmu, som_update and the tied sgd_step take their winner from one
        # helper, and each step takes x - mu once; som_update and the tied
        # one-row step take their pull from one shared helper.
        calls = []

        def counting(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        winner = counting("winner", somstep._tied_winner)
        monkeypatch.setattr(somstep, "_tied_winner", winner)
        monkeypatch.setattr(sombridge, "_tied_winner", winner)
        pull = counting("pull", somstep._tied_pull)
        monkeypatch.setattr(trainer, "_tied_pull", pull)
        monkeypatch.setattr(sombridge, "_tied_pull", pull)
        monkeypatch.setattr(backend, "_difference", counting("difference", backend._difference))
        view = tied_view(rng)
        x = rng.normal(size=3)
        cfg = TrainConfig("smoothed", 4, 10, eps_schedule=AnnealingSchedule(0.1, 0.1, 0, 10),
                          sigma_schedule=AnnealingSchedule(0.7, 0.7, 0, 10),
                          tied_spherical=True, seed=0)
        state = make_state(cfg, DataSet(x[None, :]))
        state.model = view.model.copy()
        for step, want in ((lambda: bmu(x, view), ["difference", "winner"]),
                           (lambda: som_update(view, x, 0.1), ["pull", "difference", "winner"]),
                           (lambda: sgd_step(state, DataSet(x[None, :]), cfg),
                            ["pull", "difference", "winner"])):
            calls.clear()
            step()
            assert calls == want

    def test_equals_sgd_step_after_rate_mapping(self, rng):
        # One update must be bit-identical to a smoothed-regime step on the
        # tied model with learning rate eps/d^2.
        for _ in range(20):
            K, D = 4, 3
            model = random_model(rng, K, D, tied=True)
            sigma = rng.uniform(0.4, 1.2)
            lr = rng.uniform(0.01, 0.2)
            dsq = model.tied_precision_root ** 2
            eps = lr * dsq

            x = rng.normal(scale=2.0, size=D)
            cfg = TrainConfig(
                "smoothed", K, 10,
                eps_schedule=AnnealingSchedule(lr, lr, 0, 10),
                sigma_schedule=AnnealingSchedule(sigma, sigma, 0, 10),
                tied_spherical=True, seed=0,
            )
            data = DataSet(x[None, :])
            state = make_state(cfg, data)
            state.model = model.copy()
            sgd_step(state, data, cfg)

            top = GridTopology("2d", K)
            view = SomView(model.copy(), top, build_kernel(top, sigma))
            som_update(view, x, eps)
            assert np.array_equal(view.prototypes, state.model.centroids)

    @pytest.mark.parametrize("regime,sigma", [("max_component", 0.0), ("smoothed", 0.7)])
    def test_negative_zero_centroids_step_like_sgd_step(self, rng, regime, sigma):
        # Column 0 of the centroids holds -0.0 and x_0 >= 0, where the full
        # pull makes +0.0.  The update and the tied sgd_step write the same
        # bits, and under the identity kernel every row that no step has
        # pulled keeps its -0.0.
        K, D, lr = 9, 3, 0.1
        model = random_model(rng, K, D, tied=True)
        model.centroids[:, 0] = -0.0
        top = GridTopology("2d", K)
        view = SomView(model.copy(), top, build_kernel(top, sigma))
        cfg = TrainConfig(regime, K, 10, eps_schedule=AnnealingSchedule(lr, lr, 0, 10),
                          sigma_schedule=AnnealingSchedule(sigma, sigma, 0, 10)
                          if regime == "smoothed" else None,
                          tied_spherical=True, seed=0)
        xs = rng.normal(size=(8, D))
        xs[:, 0] = np.abs(xs[:, 0])
        state = make_state(cfg, DataSet(xs))
        state.model = model
        pulled = set()
        for x in xs:
            pulled.add(bmu(x, view))
            sgd_step(state, DataSet(x[None, :]), cfg)
            som_update(view, x, lr * model.tied_precision_root ** 2)
            assert view.prototypes.tobytes() == model.centroids.tobytes()
        unpulled = sorted(set(range(K)) - pulled)
        if view.kernel.is_identity:
            assert unpulled and np.signbit(model.centroids[unpulled, 0]).all()
        else:
            assert not np.signbit(model.centroids[:, 0]).any()

    def test_identity_kernel_pulls_one_row_view(self, rng, monkeypatch):
        pulls = []

        def recording_pull(centroids, coeff, diff, _fn=sombridge.neighborhood_pull):
            pulls.append((centroids.shape[0], centroids.base is view.prototypes))
            return _fn(centroids, coeff, diff)

        monkeypatch.setattr(sombridge, "neighborhood_pull", recording_pull)
        view = identity_view(random_model(rng, 9, 3, tied=True))
        for x in rng.normal(size=(5, 3)):
            som_update(view, x, 0.1)
        assert pulls == [(1, True)] * 5


class TestVerifyEquivalence:
    def test_identity_holds_on_random_tied_instances(self, rng):
        for _ in range(30):
            K = int(rng.choice([1, 4, 9]))
            D = int(rng.integers(1, 6))
            grid = "1d" if K == 1 else "2d"
            view = tied_view(rng, K=K, D=D, sigma=rng.uniform(0.3, 2.0), grid=grid)
            data = random_data(rng, 12, D)
            report = verify_equivalence(data, view)
            assert report.max_abs_err <= 1e-10

    def test_untied_model_rejected(self, rng):
        m = random_model(rng, 4, 2, tied=False)
        top = GridTopology("2d", 4)
        with pytest.raises(UsageError):
            SomView(m, top, build_kernel(top, 0.5))

    def test_k1_constant_is_the_normalizer(self, rng):
        # Closed form for one component: the smoothed loss is the plain log
        # density, so lhs - rhs isolates the Gaussian normalizer exactly.
        d = 1.7
        D = 3
        m = MixtureModel([1.0], rng.normal(size=(1, D)), np.full((1, D), d),
                         tied_spherical=True)
        view = identity_view(m, grid="1d")
        data = random_data(rng, 5, D)
        report = verify_equivalence(data, view)
        assert report.constant == pytest.approx(
            D * (math.log(d) - 0.5 * math.log(2 * math.pi)), rel=1e-12
        )
        assert report.max_abs_err <= 1e-10

    def test_kohonen_rule_recovered_at_small_sigma(self, rng):
        # Identity-kernel update touches only the BMU: classic rule.
        model = random_model(rng, 4, 2, tied=True)
        top = GridTopology("2d", 4)
        view = SomView(model, top, build_kernel(top, 1e-9))
        x = rng.normal(size=2)
        winner = bmu(x, view)
        before = view.prototypes.copy()
        som_update(view, x, 0.3)
        for k in range(4):
            if k == winner:
                assert np.allclose(
                    view.prototypes[k], before[k] + 0.3 * (x - before[k]), rtol=1e-15
                )
            else:
                assert np.array_equal(view.prototypes[k], before[k])
