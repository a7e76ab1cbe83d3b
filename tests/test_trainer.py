import math

import numpy as np
import pytest

from conftest import (
    annealed_benchmark_config,
    four_cluster_data,
    numeric_grad,
    random_data,
    random_model,
)
import somgmm.trainer as trainer_mod
from somgmm.exceptions import DataError, NumericsError, UsageError
from somgmm.model import (
    D_MAX,
    D_MIN,
    DataSet,
    MixtureModel,
    component_log_density,
    full_log_likelihood,
    smoothed_log_likelihood,
)
from somgmm.topology import AnnealingSchedule, GridTopology, NeighborhoodKernel, build_kernel
from somgmm.trainer import (
    DataStats,
    TrainConfig,
    detect_collapse,
    enforce_constraints,
    grad_exact,
    grad_smoothed,
    init_model,
    make_state,
    neighborhood_pull,
    project_weight_gradient,
    run,
    sgd_step,
    train,
)


def flat_schedule(v):
    return AnnealingSchedule(v, v, 0, 1)


def basic_config(regime="smoothed", K=4, T=10, **kw):
    kw.setdefault("eps_schedule", flat_schedule(0.05))
    if regime == "smoothed":
        kw.setdefault("sigma_schedule", flat_schedule(0.8))
    kw.setdefault("seed", 11)
    return TrainConfig(regime, K, T, **kw)


class TestInitModel:
    def test_reference_init(self):
        cfg = basic_config(K=25, init_dsq=5.0)
        rng = np.random.default_rng(0)
        m = init_model(cfg, rng, 784)
        assert np.all(m.weights == 0.04)
        assert np.allclose(m.precision_roots, math.sqrt(5.0), atol=1e-12)
        assert np.all(np.abs(m.centroids) <= 0.01)

    def test_deterministic_under_seed(self):
        cfg = basic_config()
        a = init_model(cfg, np.random.default_rng(5), 3)
        b = init_model(cfg, np.random.default_rng(5), 3)
        assert np.array_equal(a.centroids, b.centroids)


class TestGradExact:
    def test_centroid_sample_k1(self, rng):
        m = random_model(rng, 1, 3)
        batch = DataSet(m.centroids[0][None, :].copy())
        gmu, _, _ = grad_exact(batch, m)
        assert np.all(gmu == 0)

    def test_degenerate_solution_gradients_vanish(self):
        rng = np.random.default_rng(2)
        data = DataSet(rng.normal(size=(400, 3)) * [1.0, 2.0, 0.5])
        mean = data.samples.mean(axis=0)
        var = data.samples.var(axis=0)
        K = 4
        m = MixtureModel(
            np.full(K, 0.25),
            np.tile(mean, (K, 1)),
            np.tile(1.0 / np.sqrt(var), (K, 1)),
        )
        gmu, gd, gpi = grad_exact(data, m)
        assert np.linalg.norm(gmu) < 1e-10
        assert np.linalg.norm(gd) < 1e-10
        assert np.linalg.norm(project_weight_gradient(gpi, m.weights)) < 1e-10

    def test_matches_finite_differences(self, rng):
        m = random_model(rng, 3, 2)
        batch = random_data(rng, 6, 2)
        loss = lambda: full_log_likelihood(batch, m)
        gmu, gd, gpi = grad_exact(batch, m)
        assert np.allclose(gmu, numeric_grad(loss, m.centroids), rtol=1e-4, atol=1e-7)
        assert np.allclose(gd, numeric_grad(loss, m.precision_roots), rtol=1e-4, atol=1e-7)
        assert np.allclose(gpi, numeric_grad(loss, m.weights), rtol=1e-4, atol=1e-7)


class TestGradSmoothed:
    def test_identity_kernel_is_hard_assignment(self, rng):
        m = random_model(rng, 4, 2)
        batch = random_data(rng, 5, 2)
        ident = NeighborhoodKernel(np.eye(4), 0.0)
        gmu, gd, gpi = grad_smoothed(batch, m, ident)
        # Oracle: explicit per-sample winner, Eq.5-style terms with a hard
        # indicator in place of the responsibilities.
        egmu = np.zeros_like(gmu)
        egd = np.zeros_like(gd)
        egpi = np.zeros_like(gpi)
        for x in batch.samples:
            terms = [math.log(m.weights[k]) + component_log_density(x, m, k)
                     for k in range(4)]
            k = int(np.argmax(terms))
            d = m.precision_roots[k]
            diff = x - m.centroids[k]
            egmu[k] += d * d * diff
            egd[k] += 1.0 / d - d * diff * diff
            egpi[k] += 1.0 / m.weights[k]
        n = batch.count
        assert np.allclose(gmu, egmu / n, rtol=1e-10)
        assert np.allclose(gd, egd / n, rtol=1e-10)
        assert np.allclose(gpi, egpi / n, rtol=1e-10)

    def test_tied_model_update_direction(self, rng):
        m = random_model(rng, 4, 3, tied=True)
        kernel = build_kernel(GridTopology("2d", 4), 0.9)
        x = rng.normal(size=3)
        gmu, _, _ = grad_smoothed(DataSet(x[None, :]), m, kernel)
        d2 = m.tied_precision_root ** 2
        lj = np.array([math.log(m.weights[k]) + component_log_density(x, m, k)
                       for k in range(4)])
        winner = int(np.argmax(kernel.g @ lj))
        for j in range(4):
            expected = d2 * kernel.g[winner, j] * (x - m.centroids[j])
            assert np.allclose(gmu[j], expected, rtol=1e-12)

    def test_matches_finite_differences_where_stable(self, rng):
        kernel = build_kernel(GridTopology("2d", 4), 0.8)
        while True:
            m = random_model(rng, 4, 2)
            batch = random_data(rng, 5, 2)
            lj = np.array(
                [[math.log(m.weights[k]) + component_log_density(x, m, k)
                  for k in range(4)] for x in batch.samples]
            )
            scores = lj @ kernel.g.T
            top2 = np.sort(scores, axis=1)[:, -2:]
            if np.min(top2[:, 1] - top2[:, 0]) > 1e-3:  # argmax stable
                break
        loss = lambda: smoothed_log_likelihood(batch, m, kernel)
        gmu, gd, gpi = grad_smoothed(batch, m, kernel)
        assert np.allclose(gmu, numeric_grad(loss, m.centroids), rtol=1e-4, atol=1e-7)
        assert np.allclose(gd, numeric_grad(loss, m.precision_roots), rtol=1e-4, atol=1e-7)
        assert np.allclose(gpi, numeric_grad(loss, m.weights), rtol=1e-4, atol=1e-7)

    def test_single_component_solution_gradients_vanish(self):
        rng = np.random.default_rng(4)
        data = DataSet(rng.normal(size=(300, 2)) * [1.5, 0.7])
        mean = data.samples.mean(axis=0)
        var = data.samples.var(axis=0)
        K = 4
        weights = np.zeros(K)
        weights[0] = 1.0
        centroids = rng.normal(size=(K, 2))
        centroids[0] = mean
        droots = np.full((K, 2), 1.0)
        droots[0] = 1.0 / np.sqrt(var)
        m = MixtureModel(weights, centroids, droots)
        ident = NeighborhoodKernel(np.eye(K), 0.0)
        gmu, gd, gpi = grad_smoothed(data, m, ident)
        assert np.linalg.norm(gmu) < 1e-10
        assert np.linalg.norm(gd) < 1e-10
        assert np.linalg.norm(project_weight_gradient(gpi, m.weights)) < 1e-10


class TestEnforceConstraints:
    def test_normalization(self):
        m = MixtureModel([0.5, 0.5], [[0.0], [1.0]], [[1.0], [1.0]])
        m.weights = np.array([2.0, 2.0])
        enforce_constraints(m)
        assert np.allclose(m.weights, [0.5, 0.5], atol=1e-15)

    def test_idempotent_on_valid_weights(self, rng):
        m = random_model(rng, 5, 2)
        before = m.weights.copy()
        enforce_constraints(m)
        assert np.all(np.abs(m.weights - before) < 1e-15)

    def test_precision_clamp(self):
        m = MixtureModel([1.0], [[0.0]], [[1.0]])
        m.precision_roots = np.array([[1e9]])
        enforce_constraints(m)
        assert m.precision_roots[0, 0] == 1e3

    def test_tied_retie(self):
        m = MixtureModel([0.5, 0.5], [[0.0], [1.0]], [[2.0], [2.0]],
                         tied_spherical=True)
        m.weights = np.array([0.6, 0.4])
        enforce_constraints(m)
        assert np.all(m.weights == 0.5)


def retie_as_written_before_the_record(model):
    """The tied branch of enforce_constraints as it was written before it
    kept a record of the settled value."""
    np.clip(model.precision_roots, D_MIN, D_MAX, out=model.precision_roots)
    model.precision_roots[...] = model.precision_roots.mean()
    model.weights[...] = 1.0 / model.n_components
    return model


def tied_model(d, K=25, D=64):
    return MixtureModel(np.full(K, 1.0 / K), np.zeros((K, D)),
                        np.full((K, D), d), tied_spherical=True)


def assert_same_bits(a, b):
    for name in ("weights", "centroids", "precision_roots"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


class TestSettledRetie:
    """Every tied enforce_constraints call equals the full clip, mean and
    assign; the training step alone records where the re-tie settled."""

    def check(self, model):
        """One call, compared bitwise with the full re-tie on a copy."""
        want = retie_as_written_before_the_record(model.copy())
        enforce_constraints(model)
        assert_same_bits(model, want)

    def settle(self, model, calls=4):
        for _ in range(calls):
            model.weights[0] = 0.5  # weights are reset on every call
            self.check(model)
        before = model.precision_roots.copy()
        self.check(model)
        assert model.precision_roots.tobytes() == before.tobytes()

    def test_non_uniform(self, rng):
        m = tied_model(1.0)
        m.precision_roots[...] = rng.uniform(0.5, 2.0, m.precision_roots.shape)
        for _ in range(4):
            self.check(m)

    def test_non_uniform_with_mean_at_first_entry(self):
        # d averages to d[0, 0] = v, but 5 x 5 copies of v do not average to v.
        v = float.fromhex("0x1.5d58f88c4dcafp+1")
        m = tied_model(v, K=5, D=5)
        m.precision_roots[2, 1] += 0.29258146994545403
        m.precision_roots[3, 4] -= 0.29258146994545403
        self.check(m)
        assert m.precision_roots[0, 0] == v
        fresh = tied_model(v, K=5, D=5)
        self.check(fresh)
        assert fresh.precision_roots[0, 0] != v

    def test_uniform_ulp_drift_then_settles(self, rng):
        # sqrt(3) over 25 x 64 averages one ulp up, twice, then stays;
        # sqrt(8.551) over 5 x 5 one ulp down, twice.  The first step that
        # keeps terms is the first whose re-tie wrote back its value, so the
        # step after it is the first to use them.
        for K, D, init_dsq in ((25, 64, 3.0), (5, 5, 8.551)):
            cfg = basic_config("max_component", K=K, T=8, grid="1d",
                               tied_spherical=True, init_dsq=init_dsq)
            data = random_data(rng, 8, D)
            state = make_state(cfg, data)
            seen, hits = [state.model.precision_roots[0, 0]], []
            for x in data.samples:
                before = state.tied_terms
                sgd_step(state, DataSet(x[None, :]), cfg)
                hits.append(before is not None and state.tied_terms is before)
                seen.append(state.model.precision_roots[0, 0])
                want = retie_as_written_before_the_record(tied_model(seen[-2], K, D))
                assert want.precision_roots[0, 0] == seen[-1]
            assert seen[0] != seen[1] != seen[2] == seen[-1]
            assert hits == [False] * 3 + [True] * 5

    @pytest.mark.parametrize("v", [0.5 * D_MIN, 2.0 * D_MAX])
    def test_uniform_out_of_bounds(self, v):
        m = tied_model(1.0)
        self.settle(m)
        m.precision_roots[...] = v
        for _ in range(3):
            self.check(m)
        assert D_MIN <= m.precision_roots[0, 0] <= D_MAX

    def test_nan(self):
        m = tied_model(1.0)
        self.settle(m)
        m.precision_roots[3, 5] = np.nan
        self.check(m)
        assert np.all(np.isnan(m.precision_roots))

    @pytest.mark.parametrize("direction", [np.inf, -np.inf])
    def test_one_element_written_in_place(self, direction):
        m = tied_model(math.sqrt(3.0))
        self.settle(m)
        m.precision_roots[7, 11] = np.nextafter(m.precision_roots[7, 11], direction)
        for _ in range(3):
            self.check(m)

    def test_two_shapes_alternating(self):
        # b holds a's settled value, which 5 x 5 entries do not average to.
        a = tied_model(math.sqrt(3.0))
        self.settle(a)
        v = a.precision_roots[0, 0]
        b = tied_model(v, K=5, D=5)
        for m in (b, a, b, a, a, b, b, a):
            self.check(m)
        assert b.precision_roots[0, 0] != v
        c = tied_model(math.sqrt(7.0), K=4, D=2)
        for m in (a, c, b, c, a, a, c, b):
            self.check(m)

    def test_strided_view(self):
        # Same shape and value as a settled array, different layout.
        a = tied_model(math.sqrt(3.0))
        self.settle(a)
        b, want = tied_model(1.0), tied_model(1.0)
        b.precision_roots = np.full((25, 128), a.precision_roots[0, 0])[:, ::2]
        want.precision_roots = b.precision_roots.base.copy()[:, ::2]
        enforce_constraints(b)
        retie_as_written_before_the_record(want)
        assert_same_bits(b, want)


class TestNeighborhoodPull:
    @pytest.mark.parametrize("x0", [0.0, 2.5, -2.5, -0.0, 5e-324, -5e-324])
    def test_negative_zero_centroids(self, x0):
        coeff = np.array([0.0, 5e-324, 1e-310, 0.3, 1.0, -0.0])
        c = np.full((6, 3), -0.0)
        c[:, 1] = [0.0, -1.0, 1.0, -0.0, 2.0, 1e-300]
        x = np.array([x0, x0, -0.0])
        want = c.copy()
        want += coeff[:, None] * (x - want)
        neighborhood_pull(c, coeff, x - c)
        assert c.tobytes() == want.tobytes()

    def test_random(self, rng):
        for _ in range(50):
            K, D = rng.integers(1, 30, 2)
            c = rng.normal(size=(K, D))
            c[rng.random((K, D)) < 0.2] = -0.0
            coeff = rng.uniform(0, 1, K)
            coeff[rng.random(K) < 0.3] = 0.0
            x = rng.normal(size=D)
            want = c.copy()
            want += coeff[:, None] * (x - want)
            neighborhood_pull(c, coeff, x - c)
            assert c.tobytes() == want.tobytes()


class TestSgdStep:
    def test_zero_gradient_batch(self, rng):
        cfg = basic_config("max_component", K=4, tied_spherical=True, init_dsq=1.0)
        data = random_data(rng, 20, 2)
        state = make_state(cfg, data)
        x = state.model.centroids[2].copy()
        before = state.model.centroids.copy()
        sgd_step(state, DataSet(x[None, :]), cfg)
        assert np.array_equal(state.model.centroids, before)

    def test_single_step_matches_scripted_oracle(self, rng):
        cfg = basic_config("smoothed", K=4, train_weights=True, train_precisions=True)
        data = random_data(rng, 30, 2)
        state = make_state(cfg, data)
        m0 = state.model.copy()
        batch = DataSet(data.samples[:1].copy())
        eps = 0.05
        kernel = build_kernel(GridTopology("2d", 4), 0.8)
        gmu, gd, gpi = grad_smoothed(batch, m0, kernel)
        expected = m0.copy()
        expected.centroids += eps * gmu
        expected.precision_roots += eps * gd
        expected.weights += eps * gpi
        enforce_constraints(expected)
        sgd_step(state, batch, cfg)
        assert np.allclose(state.model.centroids, expected.centroids, rtol=1e-12)
        assert np.allclose(state.model.weights, expected.weights, rtol=1e-12)
        assert np.allclose(state.model.precision_roots, expected.precision_roots,
                           rtol=1e-12)

    def test_history_sigma_matches_schedule(self, rng):
        sig = AnnealingSchedule(1.0, 0.1, 2, 8)
        cfg = basic_config("smoothed", T=10, sigma_schedule=sig, diag_every=1)
        data = random_data(rng, 15, 2)
        _, history = train(cfg, data)
        assert len(history) == 11
        for row in history:
            assert row.sigma == sig.value_at(row.t)

    def test_non_finite_loss_aborts_with_snapshot(self, rng):
        cfg = basic_config("smoothed", T=5, diag_every=1)
        data = random_data(rng, 10, 2)
        state = make_state(cfg, data)
        state.model.centroids[0, 0] = np.nan
        with pytest.raises(NumericsError) as err:
            sgd_step(state, DataSet(data.samples[:1]), cfg)
        assert err.value.snapshot is not None
        assert "model" in err.value.snapshot

    def test_step_past_end_rejected(self, rng):
        cfg = basic_config(T=1)
        data = random_data(rng, 5, 2)
        state = make_state(cfg, data)
        batch = DataSet(data.samples[:1])
        sgd_step(state, batch, cfg)
        with pytest.raises(UsageError):
            sgd_step(state, batch, cfg)


def tied_step_as_written_before_the_terms(model, kernel, eps, x):
    """The tied single-sample step and re-tie as they were before sgd_step
    kept the settled terms: winner row through the log-joint kernel, a pull
    from a fresh difference, the full enforce_constraints."""
    winners, _ = trainer_mod._winner_rows(DataSet(x[None, :]), model, kernel)
    coeff = (eps * model.tied_precision_root ** 2) * kernel.g[winners[0]]
    neighborhood_pull(model.centroids, coeff, x - model.centroids)
    enforce_constraints(model)


def clone(model):
    """A copy of the model; precision roots held in a [:, ::2] view are
    copied into one of the same strides."""
    out = model.copy()
    d = model.precision_roots
    if d.strides != out.precision_roots.strides:
        out.precision_roots = np.repeat(d, 2, axis=1)[:, ::2]
        assert out.precision_roots.strides == d.strides
    return out


class TestTiedTerms:
    """The tied single-sample branch of sgd_step keeps the settled precision
    terms on the state and skips the re-tie while they hold; every step must
    equal the step as written before, bit for bit."""

    EPS = 0.05

    def make(self, rng, regime="smoothed", K=25, D=64, init_dsq=5.0):
        cfg = basic_config(regime, K=K, T=1000, tied_spherical=True,
                           init_dsq=init_dsq, eps_schedule=flat_schedule(self.EPS))
        data = random_data(rng, 40, D)
        state = make_state(cfg, data)
        state.probe = None  # no history rows: only the step is compared
        if regime == "smoothed":
            kernel = build_kernel(state.topology, 0.8)
        else:
            kernel = NeighborhoodKernel(np.eye(K), 0.0)
        return cfg, data, state, kernel

    def step(self, state, cfg, kernel, x):
        """One sgd_step, compared bitwise with the old chain on a clone;
        returns whether the step used the kept terms."""
        want = clone(state.model)
        before = state.tied_terms
        sgd_step(state, DataSet(x[None, :]), cfg)
        tied_step_as_written_before_the_terms(want, kernel, self.EPS, x)
        assert_same_bits(state.model, want)
        return before is not None and state.tied_terms is before

    def settle(self, state, cfg, kernel, data, steps=4):
        for i in range(steps):
            self.step(state, cfg, kernel, data.samples[i])
        assert state.tied_terms is not None
        assert self.step(state, cfg, kernel, data.samples[steps])

    @pytest.mark.parametrize("regime", ["smoothed", "max_component"])
    def test_settled_steps_use_the_terms(self, rng, regime):
        cfg, data, state, kernel = self.make(rng, regime)
        hits = [self.step(state, cfg, kernel, x) for x in data.samples]
        assert hits[0] is False and all(hits[5:])
        assert not state.tied_terms.psq.flags.writeable
        # A settled step writes neither d nor the weights.
        state.model.precision_roots.setflags(write=False)
        state.model.weights.setflags(write=False)
        assert self.step(state, cfg, kernel, data.samples[0])

    def test_ulp_drift_before_settling(self, rng):
        # sqrt(3) tiled over 25 x 64 averages one ulp up, twice, then stays.
        cfg, data, state, kernel = self.make(rng, init_dsq=3.0)
        seen, hits = [], []
        for x in data.samples[:8]:
            hits.append(self.step(state, cfg, kernel, x))
            seen.append(state.model.precision_roots[0, 0])
        assert math.sqrt(3.0) < seen[0] < seen[1] == seen[-1]
        assert hits == [False] * 3 + [True] * 5

    def test_second_run_in_the_same_process(self):
        # Nothing outside a run's state records a settled value, so a second
        # run of the same config keeps and uses terms on the same steps.
        runs = []
        for _ in range(2):
            cfg, data, state, kernel = self.make(np.random.default_rng(5), init_dsq=3.0)
            hits = [self.step(state, cfg, kernel, x) for x in data.samples[:8]]
            runs.append((hits, state.model))
        assert runs[0][0] == runs[1][0] == [False] * 3 + [True] * 5
        assert_same_bits(runs[0][1], runs[1][1])

    @pytest.mark.parametrize("direction", [np.inf, -np.inf])
    def test_one_ulp_nudge_in_place(self, rng, direction):
        cfg, data, state, kernel = self.make(rng)
        self.settle(state, cfg, kernel, data)
        d = state.model.precision_roots
        d[7, 11] = np.nextafter(d[7, 11], direction)
        assert not self.step(state, cfg, kernel, data.samples[10])
        for x in data.samples[11:16]:
            self.step(state, cfg, kernel, x)

    def test_weights_edited_in_place(self, rng):
        cfg, data, state, kernel = self.make(rng, "max_component")
        self.settle(state, cfg, kernel, data)
        state.model.weights[:] = np.linspace(1.0, 2.0, 25) / np.linspace(1.0, 2.0, 25).sum()
        assert not self.step(state, cfg, kernel, data.samples[10])
        assert np.all(state.model.weights == 1.0 / 25)
        assert self.step(state, cfg, kernel, data.samples[11])

    def test_strided_precision_roots(self, rng):
        cfg, data, state, kernel = self.make(rng)
        self.settle(state, cfg, kernel, data)
        v = state.model.precision_roots[0, 0]
        state.model.precision_roots = np.full((25, 128), v)[:, ::2]
        assert not self.step(state, cfg, kernel, data.samples[10])
        for x in data.samples[11:16]:
            self.step(state, cfg, kernel, x)
        assert state.model.precision_roots.strides == (1024, 16)

    def test_model_swapped_for_a_copy(self, rng):
        cfg, data, state, kernel = self.make(rng)
        self.settle(state, cfg, kernel, data)
        state.model = state.model.copy()
        assert self.step(state, cfg, kernel, data.samples[10])

    def test_model_swapped_for_another(self, rng):
        cfg, data, state, kernel = self.make(rng)
        self.settle(state, cfg, kernel, data)
        other = state.model.copy()
        other.precision_roots[...] = 1.5
        state.model = other
        assert not self.step(state, cfg, kernel, data.samples[10])

    @pytest.mark.parametrize("regime", ["smoothed", "max_component"])
    @pytest.mark.parametrize("settled", [False, True])
    def test_wrong_kernel_size_raises(self, rng, regime, settled):
        cfg, data, state, kernel = self.make(rng, regime)
        if settled:
            self.settle(state, cfg, kernel, data)
        state.kernel = NeighborhoodKernel(np.eye(24), 0.8 if regime == "smoothed" else 0.0)
        with pytest.raises(UsageError, match="kernel size"):
            sgd_step(state, DataSet(data.samples[:1]), cfg)

    @pytest.mark.parametrize("dim", [1, 65])
    def test_wrong_sample_dimension_raises(self, rng, dim):
        # A one-dimensional sample would broadcast against the centroids.
        cfg, data, state, kernel = self.make(rng)
        self.settle(state, cfg, kernel, data)
        with pytest.raises(UsageError, match="dimension"):
            sgd_step(state, DataSet(np.ones((1, dim))), cfg)


class TestDetectCollapse:
    def _stats(self, data):
        return DataStats.from_data(data)

    def test_degenerate(self, rng):
        data = random_data(rng, 100, 2)
        mean = data.samples.mean(axis=0)
        var = data.samples.var(axis=0)
        m = MixtureModel(np.full(4, 0.25), np.tile(mean, (4, 1)),
                         np.tile(1.0 / np.sqrt(var), (4, 1)))
        assert detect_collapse(m, self._stats(data), data) == "degenerate"

    def test_single_component(self, rng):
        data = random_data(rng, 50, 2)
        w = np.array([0.99, 0.005, 0.003, 0.002])
        m = MixtureModel(w, rng.normal(size=(4, 2)), np.ones((4, 2)))
        assert detect_collapse(m, self._stats(data), data) == "single_component"

    def test_sparse(self, rng):
        data = random_data(rng, 50, 2)
        w = np.full(8, 0.06 / 7)
        w[0] = 0.94
        m = MixtureModel(w, rng.normal(size=(8, 2)), np.ones((8, 2)))
        assert detect_collapse(m, self._stats(data), data) == "sparse"

    def test_healthy_separated_fit(self):
        data = four_cluster_data(0)
        from conftest import cluster_means

        m = MixtureModel(np.full(4, 0.25), cluster_means(data), np.ones((4, 2)))
        assert detect_collapse(m, self._stats(data), data) == "healthy"


class TestMaxPairwiseDistance:
    """The row-by-row spread of detect_collapse against the broadcast
    formula it replaced, bit for bit."""

    @staticmethod
    def broadcast(mu):
        return np.max(np.linalg.norm(mu[:, None, :] - mu[None, :, :], axis=2))

    @pytest.mark.parametrize("K,D", [(1, 3), (2, 1), (4, 2), (9, 17), (25, 784)])
    def test_random(self, rng, K, D):
        for scale in (1e-6, 1.0, 1e6):
            mu = scale * rng.normal(size=(K, D))
            got = trainer_mod._max_pairwise_distance(mu)
            assert got.tobytes() == self.broadcast(mu).tobytes()

    def test_degenerate(self, rng):
        mu = np.tile(rng.normal(size=3), (5, 1))
        assert trainer_mod._max_pairwise_distance(mu) == self.broadcast(mu) == 0.0

    def test_k1(self):
        assert trainer_mod._max_pairwise_distance(np.array([[1.0, -2.0]])) == 0.0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_row_gives_nan(self, rng, bad):
        # inf - inf on the diagonal is NaN in the broadcast formula too.
        mu = rng.normal(size=(4, 2))
        mu[2, 1] = bad
        assert np.isnan(self.broadcast(mu))
        assert np.isnan(trainer_mod._max_pairwise_distance(mu))

    def test_verdicts_match(self, rng, monkeypatch):
        data = random_data(rng, 60, 2)
        stats = DataStats.from_data(data)
        models = [random_model(rng, 4, 2, tied=True) for _ in range(20)]
        for m in models[::2]:
            m.centroids *= 1e-9
        got = [detect_collapse(m, stats, data) for m in models]
        monkeypatch.setattr(trainer_mod, "_max_pairwise_distance", self.broadcast)
        assert got == [detect_collapse(m, stats, data) for m in models]
        assert {"healthy", "degenerate"} <= set(got)


def _one_draw_per_step(config, data):
    """run's loop with one rng.integers(0, N, size=batch_size) call per
    step, as before the indices were drawn in blocks."""
    state = make_state(config, data)
    trainer_mod._regime_kernel(state, config, trainer_mod._sigma(config, 0))
    trainer_mod._log_row(state, config)
    for _ in range(config.total_iters):
        idx = state.rng.integers(0, data.count, size=config.batch_size)
        sgd_step(state, DataSet(data.samples[idx]), config)
    return state


class TestBlockDraw:
    """run draws up to DRAW_BLOCK indices per rng call and must end where a
    call per step ends: the same model, history and rng state."""

    T = 50

    def config(self, batch_size, T=T):
        return basic_config(T=T, batch_size=batch_size, diag_every=5,
                            sigma_schedule=AnnealingSchedule(1.0, 0.1, 5, 40))

    @staticmethod
    def assert_same_end(a, b):
        assert a.t == b.t
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
        for name in ("weights", "centroids", "precision_roots"):
            assert getattr(a.model, name).tobytes() == getattr(b.model, name).tobytes()

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_blocks_end_where_one_draw_per_step_ends(self, rng, monkeypatch, batch_size):
        # 7 indices per draw: blocks of 7 single steps, or of 2 steps of 3.
        monkeypatch.setattr(trainer_mod, "DRAW_BLOCK", 7)
        data = random_data(rng, 40, 2)
        draws = []

        class CountingRng:
            def __init__(self, gen):
                self.gen = gen

            def integers(self, low, high, size):
                draws.append(size)
                return self.gen.integers(low, high, size=size)

            def __getattr__(self, name):
                return getattr(self.gen, name)

        def counting_make_state(*args):
            state = make_state(*args)
            state.rng = CountingRng(state.rng)
            return state

        monkeypatch.setattr(trainer_mod, "make_state", counting_make_state)
        state = run(self.config(batch_size), data)
        steps = max(1, 7 // batch_size)
        assert draws == [(min(steps, self.T - t), batch_size)
                         for t in range(0, self.T, steps)]
        ref = _one_draw_per_step(self.config(batch_size), data)
        self.assert_same_end(state, ref)
        assert state.history == ref.history

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_resume_mid_block(self, rng, monkeypatch, batch_size):
        monkeypatch.setattr(trainer_mod, "DRAW_BLOCK", 7)
        data = random_data(rng, 40, 2)
        full = run(self.config(batch_size), data)
        half = run(self.config(batch_size, T=23), data)
        resumed = run(self.config(batch_size), data, resume={
            "model": half.model, "t": half.t,
            "rng_state": half.rng.bit_generator.state,
        })
        self.assert_same_end(resumed, full)
        assert resumed.history == [r for r in full.history if r.t > 23]

    @pytest.mark.parametrize("N", [1, 3, 500, 2 ** 33])
    @pytest.mark.parametrize("B", [1, 3])
    def test_numpy_draws_bounded_integers_one_after_another(self, N, B):
        # The property the block draw rests on: one (n, B) draw gives the
        # values and the end state of n draws of size B.  A numpy build
        # without it fails here, not only in the golden digests.
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        block = a.integers(0, N, size=(41, B))
        rows = [b.integers(0, N, size=B) for _ in range(41)]
        assert np.array_equal(block, rows)
        assert a.bit_generator.state == b.bit_generator.state


class TestTrain:
    def test_bitwise_determinism(self):
        data = four_cluster_data(99)
        cfg = annealed_benchmark_config(T=300)
        cfg.seed = 42
        m1, _ = train(cfg, data)
        m2, _ = train(cfg, data)
        assert np.array_equal(m1.centroids, m2.centroids)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.precision_roots, m2.precision_roots)

    def test_grid_built_once_per_run(self, monkeypatch):
        # Annealing rebuilds the kernel on about every second step; every
        # rebuild reuses the run's one topology and its distance matrix.
        counts = {"topologies": 0, "kernels": 0}
        post_init = GridTopology.__post_init__

        def counting_post_init(top):
            counts["topologies"] += 1
            post_init(top)

        def counting_build_kernel(topology, sigma):
            counts["kernels"] += 1
            return build_kernel(topology, sigma)

        monkeypatch.setattr(GridTopology, "__post_init__", counting_post_init)
        monkeypatch.setattr(trainer_mod, "build_kernel", counting_build_kernel)
        cfg = annealed_benchmark_config(T=400)
        cfg.seed = 1
        state = trainer_mod.run(cfg, four_cluster_data(1))
        assert counts["kernels"] > 50
        assert counts["topologies"] <= 3
        assert state.kernel.g.base is None  # the kernel owns its values
        assert not state.topology.distance_sq.flags.writeable

    def test_tied_batch1_run_steps_and_pulls_once_per_iteration(self, monkeypatch):
        # The benchmark cross-checks both call counts against T.
        counts = {"sgd_step": 0, "neighborhood_pull": 0}
        for name in counts:
            def counting(*args, _fn=getattr(trainer_mod, name), _name=name, **kw):
                counts[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(trainer_mod, name, counting)
        cfg = annealed_benchmark_config(T=300)
        cfg.seed = 2
        state = run(cfg, four_cluster_data(2))
        assert state.tied_terms is not None
        assert counts == {"sgd_step": 300, "neighborhood_pull": 300}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_set_raises_data_error(self, rng, bad):
        # Minibatches are not checked one by one; run checks every row once.
        data = random_data(rng, 50, 2)
        data.samples[37, 1] = bad
        cfg = basic_config(T=1)
        with pytest.raises(DataError, match="non-finite"):
            run(cfg, data)

    def test_requires_seed(self, rng):
        cfg = basic_config()
        cfg.seed = None
        with pytest.raises(UsageError):
            train(cfg, random_data(rng, 10, 2))

    def test_epoch_shuffle_runs(self, rng):
        cfg = basic_config(T=25, shuffle="epoch")
        model, history = train(cfg, random_data(rng, 10, 2))
        assert history[-1].t == 25

    def test_exact_regime_from_common_mean_goes_degenerate(self):
        data = four_cluster_data(1)
        T = 300
        cfg = TrainConfig(
            "exact", 4, T,
            eps_schedule=flat_schedule(0.05),
            grid="2d", init_mode="data_mean", init_dsq=1.0,
            train_weights=True, train_precisions=True, seed=3, diag_every=100,
        )
        _, history = train(cfg, data)
        assert history[-1].diagnosis == "degenerate"
