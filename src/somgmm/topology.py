"""Component grid geometry, Gaussian neighborhood kernels and the annealing
schedule for the radius sigma(t) and the learning rate eps(t)."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import UsageError

# Below this sigma the kernel is an exact identity (documented fast path).
IDENTITY_SIGMA = 1e-6


@dataclass(frozen=True)
class GridTopology:
    """Arrangement of K components on a (1,K) line or a (sqrt(K),sqrt(K)) grid.

    Periodic grids measure distance as the minimum over wrapped images per
    axis; periodic is the default.
    """

    kind: str
    n_components: int
    periodic: bool = True

    def __post_init__(self):
        if self.kind not in ("1d", "2d"):
            raise UsageError(f"unknown grid kind {self.kind!r}")
        if self.n_components < 1:
            raise UsageError("need at least one component")
        if self.kind == "2d":
            side = math.isqrt(self.n_components)
            if side * side != self.n_components:
                raise UsageError("2d grid requires a perfect-square component count")

    @property
    def shape(self):
        if self.kind == "1d":
            return (1, self.n_components)
        side = math.isqrt(self.n_components)
        return (side, side)

    @cached_property
    def distance_sq(self):
        """K x K squared distances between row-major cell coordinates; computed
        once, and read-only because every kernel on this grid shares it."""
        rows, cols = self.shape
        k = np.arange(self.n_components)
        coords = np.stack([k // cols, k % cols], axis=1)
        delta = np.abs(coords[:, None, :] - coords[None, :, :])
        if self.periodic:
            extent = np.array(self.shape)
            delta = np.minimum(delta, extent - delta)
        dist2 = np.sum(delta * delta, axis=2).astype(np.float64)
        dist2.setflags(write=False)
        return dist2


def grid_distance_sq(topology: GridTopology, j: int, k: int) -> float:
    """Squared Euclidean grid distance between cells j and k."""
    K = topology.n_components
    if not (0 <= j < K and 0 <= k < K):
        raise UsageError("grid index out of range")
    return float(topology.distance_sq[j, k])


@dataclass(frozen=True)
class NeighborhoodKernel:
    """Row-stochastic K x K smoothing matrix g, tagged with the sigma that
    produced it."""

    g: np.ndarray
    sigma: float

    @property
    def n_components(self):
        return self.g.shape[0]

    @cached_property
    def is_identity(self):
        """Whether g is the identity matrix, so that each row couples its own
        component alone; computed once per kernel, whose g is not changed
        after it is built."""
        g = self.g
        return bool(np.count_nonzero(g) == g.shape[0] and (g.diagonal() == 1.0).all())


def build_kernel(topology: GridTopology, sigma: float) -> NeighborhoodKernel:
    """Gaussian grid kernel g_kj = exp(-dist2(k,j) / (2 sigma^2)), rows
    normalized to unit sum; identity below the fast-path threshold."""
    if not sigma > 0:  # also rejects NaN
        raise UsageError("sigma must be positive")
    K = topology.n_components
    if sigma < IDENTITY_SIGMA:
        return NeighborhoodKernel(np.eye(K), sigma)
    g = np.exp(-topology.distance_sq / (2.0 * sigma * sigma))
    g /= np.add.reduce(g, axis=1, keepdims=True)
    return NeighborhoodKernel(g, sigma)


@dataclass(frozen=True)
class AnnealingSchedule:
    """Piecewise-exponential decay: value0 until t0, exponential decay to
    value_inf at t_inf, constant afterwards.

    The decay rate tau = log(value0/value_inf) / (t_inf - t0) makes the curve
    continuous at both endpoints.  The same schedule type drives both
    sigma(t) and the learning rate eps(t).
    """

    value0: float
    value_inf: float
    t0: float
    t_inf: float

    def __post_init__(self):
        # A finite ratio keeps tau, and so every value, finite.
        if not (self.value0 >= self.value_inf > 0
                and math.isfinite(self.value0 / self.value_inf)):
            raise UsageError("schedule requires value0 >= value_inf > 0, finite ratio")
        if not (math.isfinite(self.t_inf) and self.t_inf > self.t0 >= 0):
            raise UsageError("schedule requires finite t_inf > t0 >= 0")

    @cached_property
    def tau(self):
        """The decay rate; computed once per schedule (a cached attribute is
        not a dataclass field, so ``asdict`` and equality ignore it)."""
        return math.log(self.value0 / self.value_inf) / (self.t_inf - self.t0)

    def value_at(self, t: float) -> float:
        if t < self.t0:
            return self.value0
        if t > self.t_inf:
            return self.value_inf
        return self.value0 * math.exp(-self.tau * (t - self.t0))


def sigma_at(schedule: AnnealingSchedule, t: float) -> float:
    """Neighborhood radius at iteration t."""
    return schedule.value_at(t)


def epsilon_at(schedule: AnnealingSchedule, t: float) -> float:
    """Learning rate at iteration t (same decay law as sigma)."""
    return schedule.value_at(t)
