import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    annealed_benchmark_config,
    assert_frozen,
    four_cluster_data,
    fraction_energies,
    fraction_winner,
    numeric_grad,
    plain_benchmark_config,
    random_data,
    random_model,
)
import somgmm.backend as backend_mod
import somgmm.model as mc
import somgmm.somstep as somstep
import somgmm.trainer as trainer_mod
from somgmm.exceptions import DataError, NumericsError, UsageError
from somgmm.model import (
    D_MAX,
    D_MIN,
    WEIGHT_FLOOR,
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

    @pytest.mark.parametrize("regime", ["exact", "smoothed"])
    def test_oversized_component_count(self, regime):
        # Refused before any allocation: the smoothed run's K x K kernel in
        # validate, the exact run's K x D centroids in init_model.
        what = "centroid matrix" if regime == "exact" else "neighbourhood kernel"
        with pytest.raises(UsageError, match=f"{what} of shape .* is too large"):
            init_model(basic_config(regime, K=10 ** 20), np.random.default_rng(0), 2)

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
        assert np.allclose(gmu, numeric_grad(loss, m, "centroids"), rtol=1e-4, atol=1e-7)
        assert np.allclose(gd, numeric_grad(loss, m, "precision_roots"), rtol=1e-4, atol=1e-7)
        assert np.allclose(gpi, numeric_grad(loss, m, "weights"), rtol=1e-4, atol=1e-7)


def n_axis_gradients(batch, model, kernel):
    """grad_smoothed as every batch computed it before the one-row branch:
    the winners' kernel rows from the N x K smoothed log-joints, then the
    einsum moments over the N x K x D differences."""
    _, W = trainer_mod._winner_rows(batch, model, kernel)
    X = batch.samples
    N = X.shape[0]
    d = model.precision_roots
    diff = X[:, None, :] - model.centroids[None, :, :]
    gmu = np.einsum("nk,ki,nki->ki", W, d * d, diff) / N
    gd = np.einsum("nk,nki->ki", W, 1.0 / d - d * diff * diff) / N
    gpi = trainer_mod._safe_ratio(np.add.reduce(W, axis=0) / N, model.weights)
    return gmu, gd, gpi


class TestGradSmoothed:
    def test_identity_kernel_is_hard_assignment(self, rng):
        # A batch of 5 takes the N-axis path, a batch of 1 the one-row branch.
        for n in (5, 1):
            m = random_model(rng, 4, 2)
            batch = random_data(rng, n, 2)
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
            assert np.allclose(gmu, egmu / n, rtol=1e-10)
            assert np.allclose(gd, egd / n, rtol=1e-10)
            assert np.allclose(gpi, egpi / n, rtol=1e-10)

    CASES = 80  # per kind: 800 random one-row cases

    # Identity-kernel cases whose log-joint row has no maximum above
    # LOG_JOINT_FLOOR and below inf, so the winner comes from the smoothing:
    # every joint -inf, every joint at or below the floor, a NaN joint from
    # a NaN centroid row or from an infinite d (an infinite normaliser
    # minus an infinite quadratic term), and a +inf joint.
    FALLBACK_KINDS = ("all_zero_weights", "far_centroids", "nan_centroid",
                      "infinite_base", "infinite_weight")

    def one_row_case(self, rng, kind):
        K, D = int(rng.integers(1, 10)), int(rng.integers(1, 17))
        if kind == "annealed":
            # Far nodes of a 5 x 5 map at sigma < 0.07 get exact zeros.
            K = 25
            kernel = build_kernel(GridTopology("2d", K), rng.uniform(0.03, 0.07))
            assert (kernel.g == 0).any()
        elif kind == "tied":
            kernel = build_kernel(GridTopology("1d", K), rng.uniform(0.2, 2.0))
        elif kind == "signed_zero_kernel":
            # A caller's kernel may hold -0.0; the N-axis sum turns the weight
            # gradient's -0.0 / pi into +0.0.
            g = np.eye(K)
            g[g == 0] = -0.0
            kernel = NeighborhoodKernel(g, 0.0)
        else:
            kernel = NeighborhoodKernel(np.eye(K), 0.0)
        m = random_model(rng, K, D, tied=kind == "tied")
        k = rng.integers(K)
        if kind in ("zero_weight", "all_zero_weights", "infinite_weight"):
            # A -inf joint, and a weight gradient of 0 from _safe_ratio; or
            # every joint -inf; or a +inf joint.
            w = np.zeros(K) if kind == "all_zero_weights" else m.weights.copy()
            w[k] = math.inf if kind == "infinite_weight" else 0.0
            m.weights = w
        elif kind == "far_centroids":
            # 1e151 to 1e165 away: finite joints at or below the floor, or
            # squares that overflow to -inf joints.
            scale = 10.0 ** rng.uniform(151.5, 165.0)
            m.centroids[...] = rng.choice([-scale, scale], (K, D))
        elif kind == "nan_centroid":
            m.centroids[k] = math.nan
        elif kind == "infinite_base":
            d = m.precision_roots.copy()
            d[k, rng.integers(D)] = math.inf
            m.precision_roots = d
        return m, kernel, random_data(rng, 1, D)

    @pytest.mark.parametrize("kind", ["identity", "annealed", "zero_weight", "tied",
                                      "signed_zero_kernel", *FALLBACK_KINDS])
    def test_one_row_branch_is_bitwise_the_n_axis_path(self, rng, kind, monkeypatch):
        smooth_calls = []
        smooth = mc._smooth
        monkeypatch.setattr(mc, "_smooth", lambda *a: smooth_calls.append(1) or smooth(*a))
        negative_zeros, moved, seen = 0, 0, set()
        for _ in range(self.CASES):
            m, kernel, batch = self.one_row_case(rng, kind)
            quiet = {"all": "ignore"} if kind in self.FALLBACK_KINDS else {}
            del smooth_calls[:]
            with np.errstate(**quiet):
                got = grad_smoothed(batch, m, kernel)
                calls = len(smooth_calls)
                want = n_axis_gradients(batch, m, kernel)
                lj = mc.log_joint_matrix(batch, m)[0]
                winner = trainer_mod._winner_rows(batch, m, kernel)[0][0]
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            # The identity kernel smooths only to take a fallback.
            top = lj[lj.argmax()]
            shortcut = kernel.is_identity and bool(mc.LOG_JOINT_FLOOR < top < math.inf)
            assert calls == (not shortcut)
            if kind in self.FALLBACK_KINDS:
                assert not shortcut
                seen.add("nan" if math.isnan(top) else top if math.isinf(top) else "finite")
                # Where the row's own argmax is another winner, the
                # shortcut would have changed the step.
                moved += int(winner != lj.argmax())
                continue
            assert shortcut is kernel.is_identity or kind == "zero_weight"
            # Zero couplings times negative differences round to -0.0 before
            # the sum; the branch must give the sum's +0.0.
            _, coupling = trainer_mod._winner_rows(batch, m, kernel)
            products = (coupling.T * m.precision_roots ** 2) * (
                batch.samples - m.centroids)
            negative_zeros += int(np.signbit(products[products == 0]).sum())
            assert not np.signbit(got[0][products == 0]).any()
        if kind in ("identity", "annealed", "zero_weight"):
            assert negative_zeros > 0
        if kind in self.FALLBACK_KINDS:
            assert seen == {"all_zero_weights": {-math.inf},
                            "far_centroids": {"finite", -math.inf},
                            "infinite_weight": {math.inf}}.get(kind, {"nan"})
            # Every joint -inf smooths to a tie that the row's argmax also
            # gives to index 0; each other fallback guards a winner.
            assert (moved > 0) is (kind != "all_zero_weights")

    @pytest.mark.parametrize("n", [1, 3])
    def test_wrong_kernel_size_raises(self, rng, n):
        m = random_model(rng, 4, 2)
        with pytest.raises(UsageError, match="kernel size"):
            grad_smoothed(random_data(rng, n, 2), m, NeighborhoodKernel(np.eye(5), 0.0))

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_wrong_sample_dimension_raises(self, rng, n, dim):
        m = random_model(rng, 4, 2)
        with pytest.raises(UsageError, match="dimension"):
            grad_smoothed(random_data(rng, n, dim), m, NeighborhoodKernel(np.eye(4), 0.0))

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
        assert np.allclose(gmu, numeric_grad(loss, m, "centroids"), rtol=1e-4, atol=1e-7)
        assert np.allclose(gd, numeric_grad(loss, m, "precision_roots"), rtol=1e-4, atol=1e-7)
        assert np.allclose(gpi, numeric_grad(loss, m, "weights"), rtol=1e-4, atol=1e-7)

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
        enforce_constraints(m, m.precision_roots, m.weights)
        assert np.allclose(m.weights, [0.5, 0.5], atol=1e-15)

    def test_idempotent_on_valid_weights(self, rng):
        m = random_model(rng, 5, 2)
        before = m.weights.copy()
        enforce_constraints(m, m.precision_roots, m.weights)
        assert np.all(np.abs(m.weights - before) < 1e-15)

    def test_precision_clamp(self):
        m = MixtureModel([1.0], [[0.0]], [[1.0]])
        m.precision_roots = np.array([[1e9]])
        enforce_constraints(m, m.precision_roots, m.weights)
        assert m.precision_roots[0, 0] == 1e3

    def test_tied_model_left_as_is(self):
        # A tied model's d and weights are set once per run, by make_state.
        m = MixtureModel([0.5, 0.5], [[0.0], [1.0]], [[2.0], [2.0]],
                         tied_spherical=True)
        m.weights = np.array([0.6, 0.4])
        m.precision_roots = np.array([[1e9], [2.0]])
        want = m.copy()
        enforce_constraints(m, m.precision_roots, m.weights)
        assert_same_bits(m, want)


class TestFrozenModelArrays:
    """Every model that training makes or steps holds frozen weights and
    precision roots (see ``MixtureModel``)."""

    @pytest.mark.parametrize("tied", [False, True])
    def test_init_model_and_make_state(self, rng, fresh_terms_calls, tied):
        cfg = basic_config(K=4, tied_spherical=tied)
        data = random_data(rng, 20, 3)
        assert_frozen(init_model(cfg, np.random.default_rng(1), 3))
        state = make_state(cfg, data)
        assert_frozen(state.model)
        m = state.model
        backend_mod.log_joints(m.weights, m.centroids, m.precision_roots, data.samples[:1])
        fresh_terms_calls.clear()
        resumed = make_state(cfg, data, resume={
            "model": m, "t": 0, "rng_state": state.rng.bit_generator.state})
        # The resumed copy shares the frozen arrays, and their kernel terms.
        assert_frozen(resumed.model)
        assert resumed.model.weights is m.weights
        assert resumed.model.precision_roots is m.precision_roots
        assert resumed.model.centroids is not m.centroids
        backend_mod.log_joints(m.weights, resumed.model.centroids, m.precision_roots,
                               data.samples[:1])
        assert fresh_terms_calls == []

    @pytest.mark.parametrize("regime", ["exact", "max_component", "smoothed"])
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_untied_step(self, rng, regime, batch_size):
        cfg = basic_config(regime, K=4, train_weights=True, train_precisions=True,
                           batch_size=batch_size)
        data = random_data(rng, 20, 3)
        state = make_state(cfg, data)
        w, d = state.model.weights, state.model.precision_roots
        kept = w.tobytes(), d.tobytes()
        sgd_step(state, DataSet(data.samples[:batch_size]), cfg)
        assert_frozen(state.model)
        assert state.model.weights is not w and state.model.precision_roots is not d
        assert (w.tobytes(), d.tobytes()) == kept
        assert state.model.weights.tobytes() != kept[0]

    def test_enforce_constraints(self):
        m = MixtureModel([0.5, 0.5], [[0.0], [1.0]], [[1e9], [1.0]])
        enforce_constraints(m, m.precision_roots, m.weights)
        assert_frozen(m)
        assert m.precision_roots[0, 0] == D_MAX


def in_place_apply(mu, d, w, train_precisions, train_weights, eps, gmu, gd, gpi):
    """Oracle: the update as it was written in place on writeable arrays."""
    mu += eps * gmu
    if train_precisions:
        d += eps * gd
    if train_weights:
        w += eps * gpi


def in_place_constraints(d, w):
    """Oracle: ``enforce_constraints`` as it was written in place."""
    np.maximum(d, D_MIN, out=d)
    np.minimum(d, D_MAX, out=d)
    np.maximum(w, WEIGHT_FLOOR, out=w)
    w /= np.add.reduce(w)
    np.maximum(w, WEIGHT_FLOOR, out=w)
    w /= np.add.reduce(w)


def fp_errors(f, *args):
    """Run f and return the floating-point errors it signalled, in order."""
    seen = []
    with np.errstate(all="call", call=lambda kind, flag: seen.append(kind)):
        f(*args)
    return seen


ROOTS = np.array([np.nan, 0.0, -0.0, D_MIN, D_MAX, np.nextafter(D_MIN, 0.0),
                  np.nextafter(D_MIN, 1.0), np.nextafter(D_MAX, 0.0),
                  np.nextafter(D_MAX, np.inf), 1e-9, 1e9, -1.0, 1.0, np.inf, -np.inf])


def weights_summing_to(rng, K, target):
    """Random non-negative weights whose ``np.add.reduce`` is ``target``."""
    while True:
        w = rng.uniform(0.0, 1.0, K)
        w /= w.sum()
        for _ in range(8):
            total = np.add.reduce(w)
            if total == target:
                return w
            w[-1] = np.nextafter(w[-1], target - total + w[-1])


class TestFreshArrayUpdates:
    """``_apply`` and ``enforce_constraints`` build new arrays; bit for bit,
    and floating-point errors alike, they are the in-place oracles."""

    def weight_cases(self, rng):
        one = 1.0
        for K in (1, 2, 5, 25):
            for target in (np.nextafter(one, 0.0), one, np.nextafter(one, 2.0)):
                yield weights_summing_to(rng, K, target)
            w = rng.uniform(0.0, 1.0, K)
            w[rng.random(K) < 0.5] = rng.choice([0.0, -0.0, 1e-12, WEIGHT_FLOOR,
                                                 np.nextafter(WEIGHT_FLOOR, 0.0)])
            yield w
            if K > 1:
                yield rng.choice([np.nan, 0.0, -0.0, 1e-300, 0.5, 2.0, np.inf], K)

    def check(self, d, w, step=None):
        m = MixtureModel(w, np.zeros(d.shape), d)
        want_d, want_w, want_mu = d.copy(), w.copy(), np.zeros(d.shape)

        def new():
            if step is None:
                enforce_constraints(m, m.precision_roots, m.weights)
            else:
                enforce_constraints(m, *trainer_mod._apply(m, step[0], *step[1:]))

        def old():
            if step is not None:
                in_place_apply(want_mu, want_d, want_w, step[0].train_precisions,
                               step[0].train_weights, *step[1:])
            in_place_constraints(want_d, want_w)

        assert fp_errors(new) == fp_errors(old)
        for got, want in ((m.precision_roots, want_d), (m.weights, want_w),
                          (m.centroids, want_mu)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_enforce_constraints(self, rng):
        for w in self.weight_cases(rng):
            K = w.size
            d = rng.choice(ROOTS, (K, 3))
            self.check(d, w)
            self.check(rng.uniform(D_MIN, D_MAX, (K, 3)), w)

    @pytest.mark.parametrize("train_precisions", [False, True])
    @pytest.mark.parametrize("train_weights", [False, True])
    def test_apply_then_enforce(self, rng, train_precisions, train_weights):
        cfg = basic_config(train_precisions=train_precisions, train_weights=train_weights)
        for w in self.weight_cases(rng):
            K = w.size
            d = rng.choice(ROOTS, (K, 3))
            for eps in (0.05, 1e-3, 0.0):
                grads = (rng.normal(size=(K, 3)), rng.choice(ROOTS, (K, 3)),
                         rng.normal(size=K))
                self.check(d, w, (cfg, eps, *grads))


def tied_model(d, K=25, D=64):
    return MixtureModel(np.full(K, 1.0 / K), np.zeros((K, D)),
                        np.full((K, D), d), tied_spherical=True)


def assert_same_bits(a, b):
    for name in ("weights", "centroids", "precision_roots"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def assert_uniform_d_never_moves(rng, regime, K, D, init_dsq):
    """A tied run from a uniform d that is one ulp away from its own mean
    steps bitwise like the reference step, makes its terms at its first step
    and uses them from then on, and leaves d and the weights exactly as
    make_state set them."""
    cfg, data, state, kernel = tied_state(rng, regime, K, D, init_dsq)
    d, weights = state.model.precision_roots, state.model.weights
    assert d.mean() != math.sqrt(init_dsq)
    assert state.tied_terms is None
    assert not tied_step(state, cfg, kernel, data.samples[0])
    assert all(tied_step(state, cfg, kernel, x) for x in data.samples[1:8])
    assert state.model.precision_roots is d
    assert state.model.weights is weights
    assert np.all(d == math.sqrt(init_dsq))
    assert np.all(weights == 1.0 / K)


def assert_refused(model, match, regime="smoothed", batch_size=1):
    """model is refused as the starting model of a tied run and as a model
    swapped into a running one, before a step changes anything."""
    cfg = basic_config(regime, K=model.n_components, T=10, grid="1d",
                       tied_spherical=True, batch_size=batch_size)
    rng = np.random.default_rng(3)
    data = random_data(rng, 10, model.dim)
    with pytest.raises(UsageError, match=match):
        make_state(cfg, data, resume={"model": model, "t": 0,
                                      "rng_state": rng.bit_generator.state})
    state = make_state(cfg, data)
    state.model = model
    before = model.copy()
    with pytest.raises(UsageError, match=match):
        sgd_step(state, DataSet(data.samples[:batch_size]), cfg)
    assert state.t == 0
    assert_same_bits(model, before)


class TestSettledRetie:
    """The inputs that the per-step re-tie of d used to average, clip or let
    settle.  A tied run no longer re-ties: it refuses a model that breaks the
    tied invariants before training on it, and leaves a valid model's d
    exactly as make_state set it."""

    def test_non_uniform(self, rng):
        m = tied_model(1.0)
        m.precision_roots = rng.uniform(0.5, 2.0, m.precision_roots.shape)
        for regime, batch_size in (("smoothed", 1), ("smoothed", 3), ("exact", 4)):
            assert_refused(m, "one shared precision root", regime, batch_size)

    def test_non_uniform_with_mean_at_first_entry(self):
        # d averages to d[0, 0] = v: the re-tie used to accept it silently.
        v = float.fromhex("0x1.5d58f88c4dcafp+1")
        d = np.full((5, 5), v)
        d[2, 1] += 0.29258146994545403
        d[3, 4] -= 0.29258146994545403
        m = tied_model(v, K=5, D=5)
        m.precision_roots = d
        assert m.precision_roots.mean() == v
        assert_refused(m, "one shared precision root")

    def test_uniform_ulp_drift_then_settles(self, rng):
        # sqrt(3) over 25 x 64 and sqrt(8.551) over 5 x 5: the per-step
        # average moved d one ulp on the first steps before it settled.  d is
        # settled from make_state on, and every step after the first uses the
        # terms that the first kept.
        for K, D, init_dsq in ((25, 64, 3.0), (5, 5, 8.551)):
            assert_uniform_d_never_moves(rng, "max_component", K, D, init_dsq)

    @pytest.mark.parametrize("v", [0.5 * D_MIN, 2.0 * D_MAX])
    def test_uniform_out_of_bounds(self, v):
        assert_refused(tied_model(v), "precision roots must lie")

    def test_nan(self):
        d = np.ones((25, 64))
        d[3, 5] = np.nan
        m = tied_model(1.0)
        m.precision_roots = d
        assert_refused(m, "finite")

    @pytest.mark.parametrize("direction", [np.inf, -np.inf])
    def test_one_element_written_in_place(self, rng, direction):
        cfg, data, state, kernel = tied_state(rng, init_dsq=3.0)
        d = state.model.precision_roots
        with pytest.raises(ValueError, match="read-only"):
            d[7, 11] = np.nextafter(d[7, 11], direction)
        # Made writeable and written, d is checked again before the next step.
        d.setflags(write=True)
        d[7, 11] = np.nextafter(d[7, 11], direction)
        before = state.model.copy()
        with pytest.raises(UsageError, match="one shared precision root"):
            sgd_step(state, DataSet(data.samples[:1]), cfg)
        assert_same_bits(state.model, before)

    def test_two_shapes_alternating(self):
        # Each run keeps its terms on its own state: three runs stepped in
        # turn end bitwise where each ends alone.
        def states():
            return [tied_state(np.random.default_rng(K), "smoothed", K, D, init_dsq)
                    for K, D, init_dsq in ((25, 64, 3.0), (9, 5, 8.551), (4, 2, 7.0))]

        alone, turns = states(), states()
        for cfg, data, state, kernel in alone:
            for x in data.samples:
                tied_step(state, cfg, kernel, x)
        for i in range(len(turns[0][1].samples)):
            for cfg, data, state, kernel in turns:
                tied_step(state, cfg, kernel, data.samples[i])
        for a, b in zip(alone, turns):
            assert_same_bits(a[2].model, b[2].model)

    def test_strided_view(self, rng):
        # A strided d swapped in is tied to a read-only copy of its own, so
        # writes through the view's base do not reach the run.
        cfg, data, state, kernel = tied_state(rng)
        base = np.full((25, 128), math.sqrt(3.0))
        state.model.precision_roots = base[:, ::2]
        assert not tied_step(state, cfg, kernel, data.samples[0])
        assert state.model.precision_roots.base is None
        base[...] = 1.0
        assert all(tied_step(state, cfg, kernel, x) for x in data.samples[1:6])
        assert np.all(state.model.precision_roots == math.sqrt(3.0))


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
        expected.precision_roots = expected.precision_roots + eps * gd
        expected.weights = expected.weights + eps * gpi
        enforce_constraints(expected, expected.precision_roots, expected.weights)
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

    @pytest.mark.parametrize("regime", ["exact", "max_component"])
    def test_sigma_schedule_belongs_to_the_smoothed_regime(self, rng, regime):
        with pytest.raises(UsageError, match="sigma schedule"):
            basic_config(regime, sigma_schedule=flat_schedule(0.8)).validate()
        with pytest.raises(UsageError, match="sigma schedule"):
            run(basic_config(regime, sigma_schedule=flat_schedule(0.8)), random_data(rng, 5, 2))
        with pytest.raises(UsageError, match="sigma schedule"):
            basic_config("smoothed", sigma_schedule=None).validate()

    @pytest.mark.parametrize("key", ["train_weights", "train_precisions"])
    def test_tied_config_trains_neither_weights_nor_precisions(self, rng, key):
        # A tied model's d and weights are fixed for the run, so a tied
        # config that asks to train either is refused before any step.
        cfg = basic_config(tied_spherical=True, **{key: True})
        with pytest.raises(UsageError, match="tied model trains neither"):
            run(cfg, random_data(rng, 5, 2))
        basic_config(**{key: True}).validate()

    def test_max_component_trains_under_the_identity_at_sigma_zero(self, rng, monkeypatch):
        # The kernel is built once, at sigma 0, as the grid's identity, and
        # every history row reports that sigma.
        built = []
        monkeypatch.setattr(trainer_mod, "build_kernel",
                            lambda top, sigma: built.append(sigma) or build_kernel(top, sigma))
        cfg = basic_config("max_component", T=10, diag_every=1)
        state = run(cfg, random_data(rng, 15, 2))
        assert built == [0.0]
        assert state.kernel.g is state.topology.identity and state.kernel.sigma == 0.0
        assert [row.sigma for row in state.history] == [0.0] * 11

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


EPS = 0.05


def tied_state(rng, regime="smoothed", K=25, D=64, init_dsq=5.0):
    """A tied run's state from make_state, without history rows, and the
    kernel that its steps use."""
    cfg = basic_config(regime, K=K, T=1000, grid="1d", tied_spherical=True,
                       init_dsq=init_dsq, eps_schedule=flat_schedule(EPS))
    data = random_data(rng, 40, D)
    state = make_state(cfg, data)
    state.probe = None
    if regime == "smoothed":
        kernel = build_kernel(state.topology, 0.8)
    else:
        kernel = NeighborhoodKernel(np.eye(K), 0.0)
    return cfg, data, state, kernel


def tied_step_reference(model, kernel, eps, x):
    """The tied single-sample step from the model's own d: winner row
    through the log-joint kernel, then a pull from a fresh difference."""
    winners, _ = trainer_mod._winner_rows(DataSet(x[None, :]), model, kernel)
    coeff = (eps * model.tied_precision_root ** 2) * kernel.g[winners[0]]
    neighborhood_pull(model.centroids, coeff, x - model.centroids)


def tied_step(state, cfg, kernel, x):
    """One sgd_step, compared bitwise with the reference step on a copy;
    returns whether the step used the terms it found on the state."""
    want = state.model.copy()
    before = state.tied_terms
    sgd_step(state, DataSet(x[None, :]), cfg)
    tied_step_reference(want, kernel, EPS, x)
    assert_same_bits(state.model, want)
    return state.tied_terms is before


def assert_steps_like_a_fresh_state(state, cfg, data, samples):
    """state, whose model was swapped in, steps bitwise like the state that
    make_state builds from that model."""
    fresh = make_state(cfg, data, resume={
        "model": state.model, "t": state.t,
        "rng_state": state.rng.bit_generator.state,
    })
    fresh.probe = None
    for x in samples:
        for s in (state, fresh):
            sgd_step(s, DataSet(x[None, :]), cfg)
        assert_same_bits(state.model, fresh.model)
    assert state.tied_terms[2] == fresh.tied_terms[2]
    for a, b in zip(state.tied_terms[:2], fresh.tied_terms):
        assert a.tobytes() == b.tobytes()


class TestTiedTerms:
    """A tied run's first step keeps the run's terms on its state.  The tied
    single-sample step uses them while the model holds the read-only d and
    weights they were made from, ties any other model afresh, and equals the
    reference step bit for bit."""

    @pytest.mark.parametrize("regime", ["smoothed", "max_component"])
    def test_settled_steps_use_the_terms(self, rng, regime):
        cfg, data, state, kernel = tied_state(rng, regime)
        assert state.tied_terms is None
        assert not tied_step(state, cfg, kernel, data.samples[0])
        terms = state.tied_terms
        assert terms[0] is state.model.precision_roots
        assert terms[1] is state.model.weights
        assert all(tied_step(state, cfg, kernel, x) for x in data.samples[1:])
        assert not any(arr.flags.writeable for arr in terms[:2])
        assert terms[2] == math.sqrt(5.0) ** 2 and len(terms) == 3

    def test_ulp_drift_before_settling(self, rng):
        # The smoothed step at the shapes whose d the per-step average used
        # to move by an ulp: d never moves.
        for K, D, init_dsq in ((25, 64, 3.0), (5, 5, 8.551)):
            assert_uniform_d_never_moves(rng, "smoothed", K, D, init_dsq)

    def test_second_run_in_the_same_process(self):
        # Nothing outside a run's state keeps terms, so a second run of the
        # same config is bitwise the first, history and rng state included.
        cfg = basic_config(K=25, T=60, tied_spherical=True, init_dsq=3.0, diag_every=10,
                           sigma_schedule=AnnealingSchedule(2.0, 0.1, 10, 50))
        data = random_data(np.random.default_rng(5), 40, 64)
        a, b = run(cfg, data), run(cfg, data)
        assert_same_bits(a.model, b.model)
        assert a.history == b.history
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
        assert a.tied_terms[0] is not b.tied_terms[0]

    @pytest.mark.parametrize("direction", [np.inf, -np.inf])
    def test_one_ulp_nudge_in_place(self, rng, direction):
        cfg, data, state, kernel = tied_state(rng)
        for x in data.samples[:5]:
            tied_step(state, cfg, kernel, x)
        d = state.model.precision_roots
        before = d.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            d[7, 11] = np.nextafter(d[7, 11], direction)
        assert d.tobytes() == before
        assert all(tied_step(state, cfg, kernel, x) for x in data.samples[5:10])

    def test_weights_edited_in_place(self, rng):
        cfg, data, state, kernel = tied_state(rng, "max_component")
        for x in data.samples[:5]:
            tied_step(state, cfg, kernel, x)
        w = np.linspace(1.0, 2.0, 25)
        with pytest.raises(ValueError, match="read-only"):
            state.model.weights[:] = w / w.sum()
        assert np.all(state.model.weights == 1.0 / 25)
        assert tied_step(state, cfg, kernel, data.samples[11])

    def test_strided_precision_roots(self, rng):
        cfg, data, state, kernel = tied_state(rng)
        for x in data.samples[:5]:
            tied_step(state, cfg, kernel, x)
        v = state.model.precision_roots[0, 0]
        state.model.precision_roots = np.full((25, 128), v)[:, ::2]
        assert_steps_like_a_fresh_state(state, cfg, data, data.samples[10:16])
        d = state.model.precision_roots
        assert state.tied_terms[0] is d
        assert d.flags.c_contiguous and not d.flags.writeable

    def test_model_swapped_for_a_copy(self, rng):
        # A copy shares the frozen d and weights, so it shares the terms.
        cfg, data, state, kernel = tied_state(rng)
        for x in data.samples[:5]:
            tied_step(state, cfg, kernel, x)
        state.model = state.model.copy()
        assert tied_step(state, cfg, kernel, data.samples[10])
        assert_steps_like_a_fresh_state(state, cfg, data, data.samples[11:16])

    def test_model_swapped_for_another(self, rng):
        # The other model's own d is used from its first step on, never the
        # terms kept for the model it replaced.
        cfg, data, state, kernel = tied_state(rng)
        for x in data.samples[:5]:
            tied_step(state, cfg, kernel, x)
        other = state.model.copy()
        other.precision_roots = np.full((25, 64), 1.5)
        state.model = other
        assert not tied_step(state, cfg, kernel, data.samples[10])
        assert state.tied_terms[0] is other.precision_roots and state.tied_terms[2] == 2.25
        assert_steps_like_a_fresh_state(state, cfg, data, data.samples[11:16])

    @pytest.mark.parametrize("regime", ["smoothed", "max_component"])
    @pytest.mark.parametrize("settled", [False, True])
    def test_wrong_kernel_size_raises(self, rng, regime, settled):
        cfg, data, state, kernel = tied_state(rng, regime)
        if settled:
            for x in data.samples[:5]:
                tied_step(state, cfg, kernel, x)
        state.kernel = NeighborhoodKernel(np.eye(24), 0.8 if regime == "smoothed" else 0.0)
        with pytest.raises(UsageError, match="kernel size"):
            sgd_step(state, DataSet(data.samples[:1]), cfg)

    @pytest.mark.parametrize("dim", [1, 65])
    def test_wrong_sample_dimension_raises(self, rng, dim):
        # A one-dimensional sample would broadcast against the centroids.
        cfg, data, state, kernel = tied_state(rng)
        for x in data.samples[:5]:
            tied_step(state, cfg, kernel, x)
        with pytest.raises(UsageError, match="dimension"):
            sgd_step(state, DataSet(np.ones((1, dim))), cfg)


def frozen_tied_step(model, terms, kernel, eps, x):
    """The reference tied single-sample step, without the guard and the
    one-row pull: the winner of the exact energies, then the pull of every
    row.  It differs from the one-row pull only in the sign of a zero: it
    turns a -0.0 centroid entry with x_i >= 0 into +0.0."""
    g, mu = kernel.g, model.centroids
    diff = x - mu
    coupling = g[screened_winner(g, x, mu)]
    neighborhood_pull(mu, (eps * terms[2]) * coupling, diff)


EPS64 = np.finfo(np.float64).eps

# The exact fallback as the module defines it, out of reach of the
# ``winner_calls`` fixture's counting wrapper.
EXACT_WINNER = somstep._exact_tied_winner


def screened_winner(g, x, mu):
    """The exact winner, from float64 where it leaves no doubt: the least of
    g @ ||x - mu_j||^2 ahead by a relative gap of 1e-6, far beyond the
    rounding of that product, about (D + K) 1e-16 relative.  Otherwise it
    is ``_exact_tied_winner``'s, which ``test_exact_winner_is_the_fraction_winner``
    checks against Fractions."""
    if g.shape[0] == 1:
        return 0
    with np.errstate(all="ignore"):
        v = g @ np.sum((x - mu) ** 2, axis=1)
    if np.isfinite(v).all():
        v1, v2 = np.partition(v, 1)[:2]
        if v2 - v1 > 1e-6 * v2 + 1e-250:
            return int(np.argmin(v))
    return EXACT_WINNER(g, x, mu)


def tied_terms_of(model, K):
    """A tied model's run terms, made as a run's first tied step makes them."""
    state = trainer_mod.TrainState(model, 0, None, GridTopology("1d", K))
    return trainer_mod._tied_terms(state)


def grid_topology(K):
    return GridTopology("2d", K) if math.isqrt(K) ** 2 == K else GridTopology("1d", K)


@pytest.fixture
def winner_calls(monkeypatch):
    """Counts the exact winners that the tied step falls back to."""
    calls = []

    def counting(*args, _fn=somstep._exact_tied_winner):
        calls.append(1)
        return _fn(*args)

    monkeypatch.setattr(somstep, "_exact_tied_winner", counting)
    return calls


def assert_tied_step_exact(model, kernel, eps, x, terms=None):
    """One tied single-sample step, bitwise against the frozen step."""
    if terms is None:
        terms = tied_terms_of(model, model.n_components)
    want = model.copy()
    trainer_mod.neighborhood_pull(*somstep._tied_pull(model.centroids, kernel, x,
                                                      eps * terms[2]))
    frozen_tied_step(want, terms, kernel, eps, x)
    assert model.centroids.tobytes() == want.centroids.tobytes()


# Kernel radii: the identity (below IDENTITY_SIGMA, and at 0.02, where every
# off-diagonal coupling underflows to 0.0), exact-zero couplings beyond the
# nearest cells of the larger grids (0.05), and dense rows.
GUARD_SIGMAS = (1e-7, 0.02, 0.05, 0.3, 1.0, 3.0)


def guard_case(rng, K, D):
    """A random tied model, kernel, rate and sample: offsets up to 1e6,
    scales from 1e-4 to 1e3, d log-uniform over [D_MIN, D_MAX] (the bounds
    themselves one time in five), centroids spread over six decades of
    distance from x one time in four, and one time in four near ties: the
    centroids on a sphere around x, radii apart by 1e-16 to 1e-10."""
    d = rng.choice([D_MIN, D_MAX]) if rng.random() < 0.2 else \
        math.exp(rng.uniform(math.log(D_MIN), math.log(D_MAX)))
    offset = rng.choice([0.0, 1.0, -1e3, 1e6])
    scale = 10.0 ** rng.uniform(-4, 3)
    x = offset + scale * rng.normal(size=D)
    mu = offset + scale * rng.normal(size=(K, D))
    kind = rng.random()
    if kind < 0.25:
        mu = x + (mu - offset) * 10.0 ** rng.uniform(-3, 3, (K, 1))
    elif kind < 0.5:
        v = mu - offset
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        mu = x + scale * v * (1.0 + 10.0 ** rng.uniform(-16, -10) * rng.normal(size=(K, 1)))
    model = MixtureModel(np.full(K, 1.0 / K), mu, np.full((K, D), d), tied_spherical=True)
    kernel = build_kernel(grid_topology(K), rng.choice(GUARD_SIGMAS))
    eps = 10.0 ** rng.uniform(-3, 0) / d ** 2
    return model, kernel, eps, x


class TestTiedWinnerGuard:
    """The tied single-sample step takes the least u = g @ ||x - mu_j||^2
    when its gap clears the guard's bound, and the exact integer winner
    otherwise; either way it is bitwise the frozen step, whose winner is the
    exact argmin of V_k = sum_j g_kj ||x - mu_j||^2."""

    def test_random_cases_match_the_frozen_step(self, rng, winner_calls, monkeypatch):
        rows = []

        def recording_pull(centroids, coeff, diff, _fn=neighborhood_pull):
            rows.append(centroids.shape[0])
            return _fn(centroids, coeff, diff)

        monkeypatch.setattr(trainer_mod, "neighborhood_pull", recording_pull)
        cases = one_row = 0
        for K in (1, 4, 9, 25):
            for D in (1, 2, 64, 784):
                for _ in range(130):
                    model, kernel, eps, x = guard_case(rng, K, D)
                    assert_tied_step_exact(model, kernel, eps, x)
                    cases += 1
                    one_row += K > 1 and rows[-1] == 1
        assert cases >= 2000
        # It falls back on near ties only: 150 of the 2080 cases.
        assert len(winner_calls) < cases // 10
        assert one_row > cases // 10  # and the one-row pull is taken

    def test_error_stays_within_half_the_guard(self, rng):
        # The worst error of the gap u_k - u_w against the exact V_k - V_w
        # over the bound of ``_tied_winner``'s derivation (TIED_GUARD_FACTOR
        # = 1), on the random cases, near ties included, with s formed as
        # ``_tied_winner`` forms it (batched BLAS dot products).  The bound
        # grows with D faster than the error.  Measured: 0.16 on the 600
        # cases at D <= 64 and 0.35 over 30000 more such cases; 0.002 on the
        # 40 cases at D = 784 and 0.003 over 200 more.
        worst = 0.0
        for i in range(640):
            K = int(rng.choice([4, 9, 25]))
            D = int(rng.choice([1, 2, 8, 64])) if i < 600 else 784
            model, kernel, _, x = guard_case(rng, K, D)
            g, mu = kernel.g, model.centroids
            diff = x - mu
            with np.errstate(over="ignore"):
                s = np.matmul(diff[:, None, :], diff[:, :, None]).ravel()
            if not np.isfinite(s.sum()):
                continue
            u = (g @ s).tolist()
            v = fraction_energies(g, x, mu)
            w = u.index(min(u))
            for k in range(K):
                if k != w:
                    err = abs((v[k] - v[w]) - (Fraction(u[k]) - Fraction(u[w])))
                    bound = (D + K + 2) * (1.01 * EPS64 * max(u[k], u[w]) + 2.0 ** -1074)
                    worst = max(worst, float(err) / bound)
        assert 0.0 < worst <= 1.0 and somstep.TIED_GUARD_FACTOR >= 2.0

    def test_exact_winner_is_the_fraction_winner(self, rng):
        # The integer fallback against Fraction arithmetic on random cases,
        # rows made infinite or NaN, and differences that overflow a float.
        cases = [guard_case(rng, K, D) for K in (1, 4, 9, 25) for D in (1, 2, 64)
                 for _ in range(25)]
        for K, far in ((9, np.inf), (9, -np.inf), (9, np.nan), (9, 1e200), (9, -3e150),
                       (4, 1.7e308)):
            model, kernel, eps, x = guard_case(rng, K, 3)
            model.centroids[int(rng.integers(K))] = far
            cases.append((model, kernel, eps, x))
        for model, kernel, _, x in cases:
            g, mu = kernel.g, model.centroids
            assert somstep._exact_tied_winner(g, x, mu) == fraction_winner(g, x, mu)

    @pytest.mark.parametrize("K", [4, 25])
    def test_equal_rows_measured_once(self, rng, monkeypatch, K):
        # Equal rows have equal distances, so the fallback measures each
        # distinct row of mu once: its first common scale holds x and the
        # distinct rows, its second g.  -0.0 equals 0.0, and a non-finite
        # row is not measured.
        D = 64
        scaled = []

        def recording(values, _fn=somstep._on_common_scale):
            scaled.append(len(values))
            return _fn(values)

        monkeypatch.setattr(somstep, "_on_common_scale", recording)
        x = rng.normal(size=D)
        for sigma in (1e-7, 0.8):
            g = build_kernel(grid_topology(K), sigma).g
            mu = np.tile(rng.normal(size=D), (K, 1))
            assert EXACT_WINNER(g, x, mu) == fraction_winner(g, x, mu)
            assert scaled[-2:] == [(1 + 1) * D, K * K]
            a, b = rng.normal(size=(2, D))
            a[0] = 0.0
            mu = np.array([a, b] * K)[:K]
            mu[K - 1, 0] = -0.0
            mu[1, 5] = np.inf
            assert EXACT_WINNER(g, x, mu) == fraction_winner(g, x, mu)
            assert scaled[-2:] == [(1 + 2) * D, K * K]

    @pytest.mark.parametrize("sigma", [1e-7, 0.8])
    @pytest.mark.parametrize("K", [4, 25])
    def test_duplicate_centroids(self, rng, winner_calls, sigma, K):
        model, _, eps, x = guard_case(rng, K, 64)
        model.centroids[...] = x + rng.normal(size=(K, 64))
        model.centroids[K - 1] = model.centroids[1] = x + 0.01
        assert_tied_step_exact(model, build_kernel(grid_topology(K), sigma), eps, x)
        if sigma < 1e-6:
            assert len(winner_calls) == 1

    @pytest.mark.parametrize("x0", [0.0, 1.0, -1e6])
    def test_equidistant_from_two_centroids(self, rng, winner_calls, x0):
        model, _, eps, _ = guard_case(rng, 9, 2)
        x = np.full(2, x0)
        model.centroids[...] = x0 + 100.0 + rng.uniform(size=(9, 2))
        model.centroids[6] = x + [0.5, -0.25]
        model.centroids[2] = x + [-0.25, 0.5]
        assert_tied_step_exact(model, NeighborhoodKernel(np.eye(9), 0.0), eps, x)
        assert len(winner_calls) == 1

    @pytest.mark.parametrize("regime", ["smoothed", "max_component"])
    def test_data_mean_start(self, winner_calls, regime):
        # Every centroid is the data mean, so every score ties up to rounding.
        cfg = basic_config(regime, K=9, T=50, tied_spherical=True, init_mode="data_mean",
                           eps_schedule=flat_schedule(EPS))
        data = random_data(np.random.default_rng(4), 30, 5)
        state = make_state(cfg, data)
        kernel = trainer_mod._regime_kernel(state, trainer_mod._sigma(cfg, 0))
        x = data.samples[3]
        want = state.model.copy()
        sgd_step(state, DataSet(x[None, :]), cfg)
        assert len(winner_calls) == 1
        frozen_tied_step(want, state.tied_terms, kernel, EPS, x)
        assert state.model.centroids.tobytes() == want.centroids.tobytes()

    @pytest.mark.parametrize("sigma", [1e-7, 0.8])
    @pytest.mark.parametrize("far", [np.inf, np.nan, 1e200, -3e150])
    def test_overflowing_difference(self, rng, winner_calls, sigma, far):
        # A row holding an inf or a NaN is infinitely far: with the identity
        # kernel another row wins, and with every row coupled to it (sigma
        # 0.8 on the 3 x 3 grid) every V is infinite and row 0 wins.  1e200
        # squares to inf in floats and stays exact in the fallback.  -3e150
        # gives a finite squared distance: the fast path settles it unless
        # the couplings to it tie the least u.
        model = MixtureModel(np.full(9, 1 / 9), rng.normal(size=(9, 3)),
                             np.ones((9, 3)), tied_spherical=True)
        terms = tied_terms_of(model, 9)
        model.centroids[4] = far
        x = rng.normal(size=3)
        kernel = build_kernel(grid_topology(9), sigma)
        with np.errstate(all="ignore"):
            w, _ = somstep._tied_winner(kernel.g, x, model.centroids,
                                            x - model.centroids)
            assert_tied_step_exact(model, kernel, EPS, x, terms)
        if not np.isfinite(far):
            assert w == 0 if sigma > 0.1 else w != 4
        # One fallback for the winner above and one for the step, or none.
        assert len(winner_calls) == (2 if far != -3e150 or sigma > 0.1 else 0)

    @pytest.mark.parametrize("sigma", [1e-7, 0.8])
    @pytest.mark.parametrize("far", [2e154, -1e300])
    def test_overflowing_squared_norm_warns(self, rng, winner_calls, sigma, far):
        # A finite x - mu whose squared norm overflows: the row norms report
        # the overflow, and the inf sum takes the exact winner.
        mu = rng.normal(size=(9, 3))
        mu[4, 1] = far
        x = rng.normal(size=3)
        g = build_kernel(grid_topology(9), sigma).g
        diff = x - mu
        assert np.isfinite(diff).all()
        with pytest.warns(RuntimeWarning, match="overflow"):
            w, settled = somstep._tied_winner(g, x, mu, diff)
        assert w == fraction_winner(g, x, mu) and not settled
        assert len(winner_calls) == 1

    @pytest.mark.parametrize("K", [9, 25])
    def test_identity_fallback_measures_its_candidates_only(self, rng, monkeypatch, K):
        # Under the identity kernel a fallback with a finite sum measures
        # the rows within the guard's bound of the least u: here the two
        # rows tied with the winner and the one a few ulps behind.  Equal
        # candidate rows are measured once.  Under an annealed kernel it
        # measures the rows that some candidate couples to: at sigma 0.05
        # on the 5 x 5 grid, couplings at squared grid distance 4 or more
        # are exact zeros, so each candidate's 3 x 3 neighbourhood.  A dense
        # kernel needs every row: on a sphere around x each V_k is 0.25 r_k,
        # whose row sums r_k differ by rounding only.
        D = 64
        scaled = []

        def recording(values, _fn=somstep._on_common_scale):
            scaled.append(len(values))
            return _fn(values)

        def winner(sigma, mu):
            g = build_kernel(grid_topology(K), sigma).g
            w, settled = somstep._tied_winner(g, x, mu, x - mu)
            assert w == fraction_winner(g, x, mu) and not settled
            return w

        monkeypatch.setattr(somstep, "_on_common_scale", recording)
        x = rng.normal(size=D)
        x[:K] = 0.0
        e = 0.5 * np.eye(D)[:K]
        mu = x + rng.normal(size=(K, D))  # squared distances near D
        mu[K - 2], mu[3] = x + e[0], x - e[0]  # an exact tie at 0.25
        mu[5] = x + (1.0 + 2e-15) * e[0]  # a few ulps farther
        for sigma in (1e-7, 0.02):
            assert winner(sigma, mu) == 3
            assert scaled[-2:] == [(1 + 3) * D, K * K]
        if K == 25:
            top = grid_topology(K)
            g = build_kernel(top, 0.05).g
            assert np.array_equal(g > 0, top.distance_sq < 4)
            near = {j for k in (3, 5, K - 2) for j in range(K) if top.distance_sq[k, j] < 4}
            assert 9 < len(near) < K
            winner(0.05, mu)
            assert scaled[-2:] == [(1 + len(near)) * D, K * K]
        mu[5] = mu[3]
        assert winner(0.02, mu) == 3
        assert scaled[-2:] == [(1 + 2) * D, K * K]
        sphere = x + e * np.where(np.arange(K) % 2, -1.0, 1.0)[:, None]
        for sigma in (0.02, 0.8):
            winner(sigma, sphere)
            assert scaled[-2:] == [(1 + K) * D, K * K]


def tied_k25_d64_run():
    """The config and data of the ``smoothed_tied_k25_d64`` golden run."""
    T = 300
    config = TrainConfig(
        "smoothed", 25, T,
        eps_schedule=AnnealingSchedule(0.1, 0.005, 0.3 * T, 0.8 * T),
        sigma_schedule=AnnealingSchedule(2.0, 0.01, 0.2 * T, 0.6 * T),
        init_dsq=3.0, tied_spherical=True, seed=29, diag_every=25,
    )
    rng = np.random.default_rng(23)
    centres = rng.normal(scale=3.0, size=(6, 64))
    return config, DataSet(centres[rng.integers(0, 6, 600)] + rng.standard_normal((600, 64)))


class TestOneRowPull:
    """Once the kernel is the identity, the tied step pulls the winner's
    row alone, through a one-row view."""

    @staticmethod
    def record_pulls(monkeypatch):
        """(identity kernel?, rows pulled, a view of the model's centroids?)
        per tied step."""
        steps = []

        def recording_step(mu, kernel, x, rate, _fn=trainer_mod._tied_pull):
            steps.append([np.count_nonzero(kernel.g) == kernel.g.shape[0], mu])
            return _fn(mu, kernel, x, rate)

        def recording_pull(centroids, coeff, diff, _fn=neighborhood_pull):
            steps[-1][1] = (centroids.shape[0], centroids.base is steps[-1][1])
            return _fn(centroids, coeff, diff)

        monkeypatch.setattr(trainer_mod, "_tied_pull", recording_step)
        monkeypatch.setattr(trainer_mod, "neighborhood_pull", recording_pull)
        return steps

    def test_tied_max_component_run(self, monkeypatch):
        steps = self.record_pulls(monkeypatch)
        cfg = basic_config("max_component", K=4, T=300, tied_spherical=True,
                           init_dsq=1.0, seed=17)
        run(cfg, four_cluster_data(5))
        assert len(steps) == 300
        assert all(identity and pulled == (1, True) for identity, pulled in steps)

    def test_smoothed_tied_k25_d64_run(self, monkeypatch):
        steps = self.record_pulls(monkeypatch)
        config, data = tied_k25_d64_run()
        run(config, data)
        assert len(steps) == 300
        identity = [pulled for one_hot, pulled in steps if one_hot]
        assert len(identity) > 100 and all(p == (1, True) for p in identity)
        assert all(p == (25, False) for one_hot, p in steps if not one_hot)

    def test_negative_zero_start_keeps_the_far_rows_sign(self, rng):
        # Column 0 of the data is >= 0, so the full pull would turn each -0.0
        # there into +0.0; the one-row pull leaves it in the far rows 5-8,
        # which never win.  Up to that sign the run is the frozen step's.
        cfg = basic_config("max_component", K=9, T=200, tied_spherical=True,
                           init_dsq=2.0, eps_schedule=flat_schedule(EPS))
        data = random_data(rng, 50, 3)
        data.samples[:, 0] = np.abs(data.samples[:, 0])
        start = init_model(cfg, np.random.default_rng(8), 3)
        start.centroids[:, 0] = -0.0
        start.centroids[5:, 1] = 100.0
        resume = {"model": start, "t": 0,
                  "rng_state": np.random.default_rng(9).bit_generator.state}

        got = run(cfg, data, resume).model
        want = make_state(cfg, data, resume).model
        terms = tied_terms_of(want, 9)
        kernel = NeighborhoodKernel(np.eye(9), 0.0)
        for idx in trainer_mod._batch_indices(cfg, np.random.default_rng(9), 50, 0):
            frozen_tied_step(want, terms, kernel, EPS, data.samples[idx[0]])
        assert np.array_equal(got.centroids, want.centroids)
        assert got.centroids[:5].tobytes() == want.centroids[:5].tobytes()
        assert np.signbit(got.centroids[5:, 0]).all()
        assert not np.signbit(want.centroids[:, 0]).any()


class TestResumeModel:
    """make_state refuses a starting model that contradicts the run's
    config, before the first step."""

    @staticmethod
    def resume(cfg, model):
        data = random_data(np.random.default_rng(1), 10, model.dim)
        return make_state(cfg, data, resume={
            "model": model, "t": 0,
            "rng_state": np.random.default_rng(2).bit_generator.state,
        })

    def test_untied_model_in_a_tied_config(self, rng):
        with pytest.raises(UsageError, match="tied_spherical = False"):
            self.resume(basic_config(K=4, tied_spherical=True), random_model(rng, 4, 2))
        with pytest.raises(UsageError, match="tied_spherical = True"):
            self.resume(basic_config(K=4), random_model(rng, 4, 2, tied=True))

    def test_k9_model_in_a_k4_exact_config(self, rng):
        with pytest.raises(UsageError, match="9 components"):
            self.resume(basic_config("exact", K=4), random_model(rng, 9, 2))

    def test_non_uniform_tied_model(self, rng):
        cfg = basic_config(K=4, tied_spherical=True)
        m = random_model(rng, 4, 2, tied=True)
        d = m.precision_roots.copy()
        d[1, 0] *= 1.5
        m.precision_roots = d
        with pytest.raises(UsageError, match="one shared precision root"):
            self.resume(cfg, m)
        m = random_model(rng, 4, 2, tied=True)
        m.weights = np.array([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(UsageError, match="uniform weights"):
            self.resume(cfg, m)


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


def broadcast_spread(mu):
    """The largest entry of the K x K broadcast ``np.linalg.norm`` matrix:
    the spread whose verdict ``_spread_below`` gives."""
    return np.max(np.linalg.norm(mu[:, None, :] - mu[None, :, :], axis=2))


def oracle_below(mu, threshold):
    return broadcast_spread(mu) < threshold


def assert_verdicts_match(mu):
    """_spread_below against the oracle at thresholds around the spread,
    around row 0's largest distance and at fixed values."""
    spread = broadcast_spread(mu)
    row0 = np.max(np.linalg.norm(mu - mu[0], axis=1))
    near = [np.nextafter(v, side) for v in (spread, row0) for side in (0.0, np.inf)]
    thresholds = [0.0, 1e-300, 1e-3, 1.0, np.inf, np.nan, spread, row0, *near]
    for threshold in thresholds:
        assert trainer_mod._spread_below(mu, threshold) == oracle_below(mu, threshold)
    return len(thresholds)


class TestMaxPairwiseDistance:
    """The spread test of detect_collapse, ``_spread_below``, gives the
    verdict of the broadcast maximum pairwise distance, bit for bit."""

    @pytest.mark.parametrize("K,D", [(1, 3), (2, 1), (4, 2), (9, 17), (25, 784)])
    def test_random(self, rng, K, D):
        for scale in (1e-6, 1.0, 1e6):
            assert_verdicts_match(scale * rng.normal(size=(K, D)))

    def test_degenerate(self, rng):
        mu = np.tile(rng.normal(size=3), (5, 1))
        assert broadcast_spread(mu) == 0.0
        assert_verdicts_match(mu)
        assert trainer_mod._spread_below(mu, 1e-300)
        assert not trainer_mod._spread_below(mu, 0.0)

    def test_k1(self):
        mu = np.array([[1.0, -2.0]])
        assert_verdicts_match(mu)
        assert trainer_mod._spread_below(mu, 1e-300)
        assert not trainer_mod._spread_below(mu, 0.0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_row_gives_nan(self, rng, bad):
        # inf - inf on the diagonal is NaN in the broadcast formula too, and
        # a NaN spread is below no threshold.
        for row in (0, 2):
            mu = rng.normal(size=(4, 2))
            mu[row, 1] = bad
            assert np.isnan(broadcast_spread(mu))
            assert_verdicts_match(mu)
            assert not trainer_mod._spread_below(mu, np.inf)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_verdicts_match(self, rng, monkeypatch):
        data = random_data(rng, 60, 2)
        stats = DataStats.from_data(data)
        models = [random_model(rng, 4, 2, tied=True) for _ in range(20)]
        for m in models[::2]:
            m.centroids *= 1e-9
        models[3].centroids[0, 1] = np.inf
        models[4].centroids[2, 0] = np.nan
        got = [detect_collapse(m, stats, data) for m in models]
        monkeypatch.setattr(trainer_mod, "_spread_below", oracle_below)
        assert got == [detect_collapse(m, stats, data) for m in models]
        assert {"healthy", "degenerate"} <= set(got)


class TestSpreadBelow:
    """``_spread_below`` goes over the rows and stops at the first whose
    largest distance to itself and the rows after it is not below the
    threshold; its verdict is the broadcast oracle's."""

    @staticmethod
    def cases(rng):
        for K, D in [(1, 3), (2, 1), (4, 2), (9, 17), (25, 784)]:
            for scale in (1e-9, 1.0, 1e6):
                yield scale * rng.normal(size=(K, D))
            yield np.tile(rng.normal(size=D), (K, 1))  # degenerate
            yield np.tile(rng.normal(size=D), (K, 1)) + 1e-9 * rng.normal(size=(K, D))
            mu = rng.normal(size=(K, D))
            mu[0] = mu.mean(axis=0)  # row 0 in the middle: its distances are short
            yield mu
            for bad in (np.nan, np.inf, -np.inf):
                for row in {0, K - 1}:
                    mu = rng.normal(size=(K, D))
                    mu[row, D // 2] = bad
                    yield mu

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_matches_the_full_maximum(self, rng):
        n = sum(assert_verdicts_match(mu) for mu in self.cases(rng))
        assert n > 600

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_verdicts_match(self, rng, monkeypatch):
        data = random_data(rng, 60, 5)
        stats = DataStats.from_data(data)
        models = []
        for K in (4, 9):
            for scale in (0.0, 1e-9, 1e-4, 1e-2, 1.0):
                mu = data.samples.mean(axis=0) + scale * rng.normal(size=(K, 5))
                models.append(MixtureModel(np.full(K, 1.0 / K), mu, np.ones((K, 5)),
                                           tied_spherical=True))
                middle = models[-1].copy()
                middle.centroids[0] = middle.centroids.mean(axis=0)
                models.append(middle)
            for bad in (np.nan, np.inf):
                for row in (0, 3):
                    m = models[-1].copy()
                    m.centroids[row, 2] = bad
                    models.append(m)
        got = [detect_collapse(m, stats, data) for m in models]
        monkeypatch.setattr(trainer_mod, "_spread_below", oracle_below)
        assert got == [detect_collapse(m, stats, data) for m in models]
        assert {"healthy", "degenerate"} <= set(got)

    @staticmethod
    def rows_visited(monkeypatch, mu, threshold):
        """_spread_below's verdict and the rows it measured from, one
        ``np.square`` call per row."""
        calls = []
        square = np.square
        monkeypatch.setattr(np, "square", lambda a: calls.append(a.shape[0]) or square(a))
        below = trainer_mod._spread_below(mu, threshold)
        monkeypatch.setattr(np, "square", square)
        return below, [mu.shape[0] - n for n in calls]

    def test_a_clearing_row_0_skips_the_full_maximum(self, rng, monkeypatch):
        mu = rng.normal(size=(25, 784))
        assert self.rows_visited(monkeypatch, mu, 1e-3) == (False, [0])

    def test_stops_at_the_first_row_not_below(self, rng, monkeypatch):
        # Rows 0 and 1 near the middle, rows 2 and 3 a distance 2 apart on
        # either side of it: only row 2 sees the full distance.
        mu = np.zeros((5, 3))
        mu[1, 0] = 0.1
        mu[2, 1], mu[3, 1] = 1.0, -1.0
        threshold = 1.5
        assert broadcast_spread(mu) == 2.0
        assert np.max(np.linalg.norm(mu[:2, None] - mu[None], axis=2)) < threshold
        assert self.rows_visited(monkeypatch, mu, threshold) == (False, [0, 1, 2])
        assert self.rows_visited(monkeypatch, mu, 2.5) == (True, [0, 1, 2, 3, 4])


def _one_draw_per_step(config, data):
    """run's loop with one rng.integers(0, N, size=batch_size) call per
    step, as before the indices were drawn in blocks."""
    state = make_state(config, data)
    trainer_mod._regime_kernel(state, trainer_mod._sigma(config, 0))
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

    def test_every_step_uses_the_kernel_of_its_sigma(self, monkeypatch):
        # The kernel is rebuilt exactly when sigma changes, the one-ulp step
        # to sigma_inf after t_inf included, and only then.
        builds, sigmas = [], []
        original_step = trainer_mod.sgd_step

        def counting_build_kernel(topology, sigma):
            builds.append(sigma)
            return build_kernel(topology, sigma)

        def checked_step(state, batch, config):
            sigmas.append(trainer_mod._sigma(config, state.t))
            original_step(state, batch, config)
            assert state.kernel.sigma == sigmas[-1]
            assert state.kernel.g.tobytes() == build_kernel(state.topology,
                                                            sigmas[-1]).g.tobytes()

        monkeypatch.setattr(trainer_mod, "build_kernel", counting_build_kernel)
        monkeypatch.setattr(trainer_mod, "sgd_step", checked_step)
        cfg = annealed_benchmark_config(T=400)
        cfg.seed = 4
        run(cfg, four_cluster_data(4))
        assert len(sigmas) == 400
        assert builds == list(dict.fromkeys(sigmas))

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

    @pytest.mark.parametrize("regime,batch_size", [("smoothed", 3), ("exact", 4)])
    def test_tied_minibatch_runs_never_write_d_or_weights(self, regime, batch_size):
        # sqrt(3) over 25 x 64 is not its own mean: an average of d on any
        # step would move it.
        cfg = basic_config(regime, K=25, T=300, batch_size=batch_size,
                           tied_spherical=True, init_dsq=3.0, seed=7)
        data = random_data(np.random.default_rng(7), 200, 64)
        init = init_model(cfg, np.random.default_rng(cfg.seed), data.dim)
        model = run(cfg, data).model
        for name in ("precision_roots", "weights"):
            assert getattr(model, name).tobytes() == getattr(init, name).tobytes()
        assert not np.array_equal(model.centroids, init.centroids)

    def test_untied_batch1_run_takes_the_one_row_gradient(self, monkeypatch):
        # The benchmark's traced plain run expects T grad_smoothed calls and
        # no neighborhood_pull; the one-row branch uses neither the N-axis
        # moments nor the log-joint kernel, which only the history rows call.
        counts = {"grad_smoothed": 0, "neighborhood_pull": 0, "_moment_gradients": 0}
        for name in counts:
            def counting(*args, _fn=getattr(trainer_mod, name), _name=name, **kw):
                counts[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(trainer_mod, name, counting)
        callers = []

        def counting_log_joints(*args, _fn=backend_mod.log_joints):
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            callers.append("_log_row" in names)
            return _fn(*args)

        monkeypatch.setattr(backend_mod, "log_joints", counting_log_joints)
        cfg = plain_benchmark_config(T=300)
        cfg.seed = 2
        run(cfg, four_cluster_data(2))
        assert counts == {"grad_smoothed": 300, "neighborhood_pull": 0,
                          "_moment_gradients": 0}
        assert callers and all(callers)

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
