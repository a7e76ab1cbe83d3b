import itertools
import math
import pickle
from dataclasses import FrozenInstanceError, asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somgmm.exceptions import UsageError
from somgmm.topology import (
    IDENTITY_SIGMA,
    AnnealingSchedule,
    GridTopology,
    NeighborhoodKernel,
    build_kernel,
    epsilon_at,
    grid_distance_sq,
    sigma_at,
)


def image_distance_sq(kind, K, periodic):
    """Oracle: squared distance to the nearest wrapped image of each cell,
    enumerating the images one period away along each axis (none when open)."""
    rows, cols = (1, K) if kind == "1d" else (math.isqrt(K),) * 2
    shifts = (-1, 0, 1) if periodic else (0,)
    out = np.empty((K, K))
    for j in range(K):
        for k in range(K):
            dr, dc = k // cols - j // cols, k % cols - j % cols
            out[j, k] = min((dr + a * rows) ** 2 + (dc + b * cols) ** 2
                            for a in shifts for b in shifts)
    return out


class TestGridDistance:
    def test_self_distance_zero(self):
        top = GridTopology("2d", 9)
        assert grid_distance_sq(top, 4, 4) == 0.0

    def test_diagonal_cells(self):
        top = GridTopology("2d", 4, periodic=False)
        assert grid_distance_sq(top, 0, 3) == 2.0

    def test_periodic_wrap(self):
        # Every pair (j, k) on 1d/2d x periodic/open grids.
        grids = [("1d", 1), ("1d", 5), ("1d", 9), ("1d", 25),
                 ("2d", 1), ("2d", 9), ("2d", 25)]
        for (kind, K), periodic in itertools.product(grids, (True, False)):
            top = GridTopology(kind, K, periodic=periodic)
            oracle = image_distance_sq(kind, K, periodic)
            for j, k in itertools.product(range(K), repeat=2):
                assert grid_distance_sq(top, j, k) == oracle[j, k]
            assert np.array_equal(top.distance_sq, oracle)
        # cells (0,0) and (4,0) of a 5x5 grid: one step across the torus seam
        assert grid_distance_sq(GridTopology("2d", 25), 0, 20) == 1.0
        assert grid_distance_sq(GridTopology("2d", 25, periodic=False), 0, 20) == 16.0

    def test_distance_matrix_cached_read_only(self):
        top = GridTopology("2d", 9)
        assert top.distance_sq is top.distance_sq
        with pytest.raises(ValueError):
            top.distance_sq[0, 1] = 0.0

    def test_index_out_of_range(self):
        with pytest.raises(UsageError):
            grid_distance_sq(GridTopology("1d", 3), 0, 3)

    def test_non_square_2d_rejected(self):
        with pytest.raises(UsageError):
            GridTopology("2d", 5)


class TestBuildKernel:
    def test_tiny_sigma_identity_fast_path(self):
        kernel = build_kernel(GridTopology("2d", 9), 1e-8)
        assert np.array_equal(kernel.g, np.eye(9))

    def test_huge_sigma_flat(self):
        kernel = build_kernel(GridTopology("2d", 4), 1e6)
        assert np.allclose(kernel.g, 0.25, atol=1e-9)

    def test_hand_evaluated_row(self):
        # Oracle: direct evaluation of exp(-dist^2 / 2) on a 1x3 open line,
        # row 0 raw entries (1, e^-1/2, e^-2), then unit-sum normalization.
        kernel = build_kernel(GridTopology("1d", 3, periodic=False), 1.0)
        raw = np.array([1.0, math.exp(-0.5), math.exp(-2.0)])
        assert np.allclose(kernel.g[0], raw / raw.sum(), atol=1e-4)
        assert np.allclose(kernel.g[0], [0.574126, 0.348210, 0.077664], atol=1e-4)

    @pytest.mark.parametrize("sigma", [0.01, 0.3, 1.2, 7.0])
    def test_k25_kernel_bitwise_against_oracle(self, sigma):
        g = np.exp(-image_distance_sq("2d", 25, True) / (2.0 * sigma * sigma))
        g /= g.sum(axis=1, keepdims=True)
        assert np.array_equal(build_kernel(GridTopology("2d", 25), sigma).g, g)

    @pytest.mark.parametrize("K, sigma, want", [
        (1, 0.5, True), (25, 1e-7, True), (25, 0.02, True), (25, 0.1, False), (9, 1.0, False),
    ])
    def test_is_identity(self, K, sigma, want):
        # At sigma = 0.02 every off-diagonal coupling underflows to 0.0; at
        # 0.1 the nearest cells keep exp(-50).
        kernel = build_kernel(GridTopology("2d", K), sigma)
        assert kernel.is_identity is want
        assert kernel.is_identity is np.array_equal(kernel.g, np.eye(K))

    @pytest.mark.parametrize("K", [1, 4])
    def test_is_identity_of_a_given_matrix(self, K):
        # Set at construction from g: -0.0 is a zero, a diagonal entry
        # other than 1.0 (or NaN) is not the identity.
        signed = np.eye(K)
        signed[signed == 0] = -0.0
        off_one = np.eye(K)
        off_one[K - 1, K - 1] = 0.5
        nan_diag = np.eye(K)
        nan_diag[0, 0] = math.nan
        for g, want in ((np.eye(K), True), (signed, True), (2.0 * np.eye(K), False),
                        (off_one, False), (nan_diag, False), (np.ones((K, K)), K == 1)):
            kernel = NeighborhoodKernel(g, 0.0)
            assert kernel.is_identity is want
            assert pickle.loads(pickle.dumps(kernel)).is_identity is want
        assert "is_identity" not in repr(kernel)
        with pytest.raises(FrozenInstanceError):
            kernel.is_identity = True

    @pytest.mark.parametrize("kind, K, periodic", [
        ("1d", 5, False), ("1d", 6, True), ("2d", 9, True), ("2d", 25, True), ("2d", 16, False),
    ])
    def test_sigma_sweep_bitwise_the_negated_quotient(self, kind, K, periodic):
        # Across IDENTITY_SIGMA and the radius below which every off-diagonal
        # coupling underflows (exp(-1 / (2 sigma^2)) == 0 from about 0.0259).
        top = GridTopology(kind, K, periodic)
        sigmas = np.concatenate([np.geomspace(1e-7, 10.0, 301),
                                 np.geomspace(0.024, 0.028, 101),
                                 [np.nextafter(IDENTITY_SIGMA, 0.0), IDENTITY_SIGMA,
                                  np.nextafter(IDENTITY_SIGMA, 1.0)]])
        kinds = set()
        for sigma in sigmas.tolist():
            if sigma < IDENTITY_SIGMA:
                want = np.eye(K)
            else:
                want = np.exp(-top.distance_sq / (2.0 * sigma * sigma))
                want /= np.add.reduce(want, axis=1, keepdims=True)
            kernel = build_kernel(top, sigma)
            assert kernel.g.tobytes() == want.tobytes()
            assert kernel.is_identity is np.array_equal(want, np.eye(K))
            kinds.add((sigma < IDENTITY_SIGMA, kernel.is_identity))
        assert kinds == {(True, True), (False, True), (False, False)}

    def test_non_positive_sigma(self):
        for sigma in (0.0, -1.0, math.nan):
            with pytest.raises(UsageError):
                build_kernel(GridTopology("1d", 3), sigma)

    @given(st.floats(0.05, 50.0), st.sampled_from([4, 9, 16, 25]))
    @settings(max_examples=40, deadline=None)
    def test_rows_stochastic(self, sigma, K):
        kernel = build_kernel(GridTopology("2d", K), sigma)
        assert np.all(kernel.g >= 0)
        assert np.all(np.abs(kernel.g.sum(axis=1) - 1.0) < 1e-12)

    def test_symmetry_periodic(self):
        # Unit-sum normalization preserves symmetry only when all rows share
        # the same sum, i.e. on translation-invariant (periodic) grids.
        for top in (GridTopology("1d", 6), GridTopology("2d", 9)):
            g = build_kernel(top, 0.9).g
            assert np.allclose(g, g.T, atol=1e-15)

    def test_periodic_rows_are_translates(self):
        top = GridTopology("1d", 5, periodic=True)
        g = build_kernel(top, 0.8).g
        for k in range(5):
            assert np.allclose(g[k], np.roll(g[0], k), atol=1e-15)

    def test_entropy_grows_with_sigma(self):
        rng = np.random.default_rng(3)
        for top in (GridTopology("1d", 5), GridTopology("2d", 9)):
            for _ in range(10):
                sa, sb = sorted(rng.uniform(0.2, 3.0, 2))
                if sb - sa < 1e-3:
                    continue
                ga = build_kernel(top, sa).g
                gb = build_kernel(top, sb).g
                ent = lambda g: -np.sum(g * np.log(np.maximum(g, 1e-300)), axis=1)
                assert np.all(ent(gb) > ent(ga))


class TestAnnealingSchedule:
    def setup_method(self):
        self.s = AnnealingSchedule(1.2, 0.01, 100, 900)

    def test_before_t0(self):
        assert sigma_at(self.s, 0) == 1.2
        assert sigma_at(self.s, 99) == 1.2

    def test_after_t_inf(self):
        assert sigma_at(self.s, 901) == 0.01

    def test_geometric_midpoint(self):
        assert sigma_at(self.s, 500) == pytest.approx(math.sqrt(1.2 * 0.01), rel=1e-12)

    def test_continuous_at_endpoints(self):
        assert sigma_at(self.s, 100) == pytest.approx(1.2, rel=1e-12)
        assert sigma_at(self.s, 900) == pytest.approx(0.01, rel=1e-12)

    def test_monotone_non_increasing(self):
        ts = np.linspace(0, 1800, 2000)
        vals = [sigma_at(self.s, t) for t in ts]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_learning_rate_endpoints(self):
        eps = AnnealingSchedule(0.05, 0.009, 100, 900)
        assert epsilon_at(eps, 50) == 0.05
        assert epsilon_at(eps, 1000) == 0.009
        assert epsilon_at(eps, 500) == pytest.approx(math.sqrt(0.05 * 0.009), rel=1e-12)

    def test_tau_computed_once_and_not_a_field(self):
        # asdict, which writes checkpoints, and equality see the fields only.
        fresh = AnnealingSchedule(1.2, 0.01, 100, 900)
        assert sigma_at(self.s, 500) == sigma_at(self.s, 500)
        assert vars(self.s)["tau"] == math.log(1.2 / 0.01) / 800
        assert asdict(self.s) == asdict(fresh) and self.s == fresh
        assert set(asdict(self.s)) == {"value0", "value_inf", "t0", "t_inf"}

    def test_flat_schedule_keeps_its_value_bitwise(self):
        # value0 == value_inf makes tau 0.0, and value0 * exp(-0.0 * (t - t0))
        # is value0 bitwise at every time in [t0, t_inf].
        rng = np.random.default_rng(11)
        for _ in range(2000):
            v = float(10.0 ** rng.uniform(-300, 300))
            t0 = float(rng.choice([0.0, rng.uniform(0, 1e6)]))
            t_inf = t0 + float(10.0 ** rng.uniform(-3, 6))
            s = AnnealingSchedule(v, v, t0, t_inf)
            assert s.tau == 0.0
            for t in (t0, t_inf, rng.uniform(t0, t_inf), 0.5 * (t0 + t_inf)):
                assert s.value_at(t) == v

    def test_invalid_parameters(self):
        with pytest.raises(UsageError):
            AnnealingSchedule(0.01, 1.2, 0, 10)
        with pytest.raises(UsageError):
            AnnealingSchedule(1.0, 0.1, 10, 10)
