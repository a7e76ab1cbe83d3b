"""Mixture parameters, per-component log-densities, the three losses and
responsibilities.

Sign convention: all three likelihood-style quantities are to be *maximized*;
the trainer negates internally when it reports "descent".
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from . import backend
from .backend import HALF_LOG_2PI
from .exceptions import DataError, UsageError

# Bounds on the precision roots d; keeps every implied variance finite and
# positive and stops variance collapse onto single samples.
D_MIN = 1e-3
D_MAX = 1e3

# Weights are floored here after renormalization so log(pi) stays finite.
WEIGHT_FLOOR = 1e-8


def _require_size(shape, what):
    """Refuse with a UsageError, before anything is allocated, a float64
    array of this shape that numpy cannot make on any machine: one whose
    byte count exceeds the range of ``np.intp``."""
    if 8 * math.prod(shape) > np.iinfo(np.intp).max:
        raise UsageError(f"{what} of shape {tuple(shape)} is too large")


def _as_matrix(a, name):
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise UsageError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    return arr


@dataclass
class MixtureModel:
    """Learnable parameters: simplex weights pi_k, centroids mu_k and the
    diagonal precision roots d_k (precision = d^2, variance = d^-2).

    With ``tied_spherical`` set, all precision roots share one scalar and the
    weights are frozen at 1/K; this is the configuration in which the model
    is exactly a grid-organized prototype map.
    """

    weights: np.ndarray
    centroids: np.ndarray
    precision_roots: np.ndarray
    tied_spherical: bool = False

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.centroids = _as_matrix(self.centroids, "centroids")
        self.precision_roots = _as_matrix(self.precision_roots, "precision_roots")

    @property
    def n_components(self):
        return self.centroids.shape[0]

    @property
    def dim(self):
        return self.centroids.shape[1]

    @property
    def tied_precision_root(self):
        """The shared scalar d of a tied-spherical model."""
        if not self.tied_spherical:
            raise UsageError("model is not tied_spherical")
        return float(self.precision_roots.flat[0])

    def validate(self):
        K, D = self.centroids.shape
        if self.weights.shape != (K,):
            raise UsageError("weights must have length K")
        if self.precision_roots.shape != (K, D):
            raise UsageError("precision_roots must match centroids' shape")
        # NaN fails none of the comparisons below, so test finiteness first.
        for name in ("weights", "centroids", "precision_roots"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise UsageError(f"{name} must be finite")
        if np.any(self.weights < 0):
            raise UsageError("weights must be non-negative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise UsageError("weights must sum to 1")
        if np.any(self.precision_roots < D_MIN) or np.any(self.precision_roots > D_MAX):
            raise UsageError(f"precision roots must lie in [{D_MIN}, {D_MAX}]")
        if self.tied_spherical:
            d0 = self.precision_roots.flat[0]
            if not np.all(self.precision_roots == d0):
                raise UsageError("tied_spherical model requires one shared precision root")
            if not np.all(self.weights == self.weights[0]):
                raise UsageError("tied_spherical model requires uniform weights")
        return self

    def copy(self):
        return MixtureModel(
            self.weights.copy(),
            self.centroids.copy(),
            self.precision_roots.copy(),
            self.tied_spherical,
        )


@dataclass
class DataSet:
    """N x D sample matrix plus provenance metadata."""

    samples: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = _as_matrix(self.samples, "samples")
        if self.samples.shape[0] < 1 or self.samples.shape[1] < 1:
            raise DataError("dataset must contain at least one sample and one dimension")
        _require_finite(self.samples)

    @property
    def count(self):
        return self.samples.shape[0]

    @property
    def dim(self):
        return self.samples.shape[1]


def _require_finite(samples):
    if not np.all(np.isfinite(samples)):
        raise DataError("dataset contains non-finite entries")


def _trusted_dataset(samples, meta):
    """A DataSet built without the __post_init__ pass, for samples known to
    pass its checks: ``samples`` must be a non-empty, finite, C-contiguous
    float64 matrix."""
    data = object.__new__(DataSet)
    data.samples = samples
    data.meta = meta
    return data


@dataclass
class Responsibilities:
    """Posterior membership probabilities, rows summing to one."""

    gamma: np.ndarray


def _check_dims(data: DataSet, model: MixtureModel):
    if data.dim != model.dim:
        raise UsageError(f"data dimension {data.dim} != model dimension {model.dim}")


def as_vector(x, model: MixtureModel) -> np.ndarray:
    """x as a finite, C-contiguous float64 vector of the model's dimension."""
    x = np.asarray(x, dtype=np.float64, order="C")
    if x.shape != (model.dim,):
        raise UsageError(f"expected a vector of dimension {model.dim}")
    if not np.isfinite(x).all():
        raise DataError("non-finite input vector")
    return x


def component_log_density(x, model: MixtureModel, k: int) -> float:
    """log p_k(x) for the diagonal Gaussian of component k."""
    x = as_vector(x, model)
    if not 0 <= k < model.n_components:
        raise UsageError(f"component index {k} out of range")
    d = model.precision_roots[k]
    diff = x - model.centroids[k]
    return float(np.sum(np.log(d) - HALF_LOG_2PI - 0.5 * d * d * diff * diff))


def log_joint_matrix(data: DataSet, model: MixtureModel) -> np.ndarray:
    """N x K matrix of log(pi_k) + log p_k(x_n); the package's hot kernel."""
    _check_dims(data, model)
    return backend.log_joints(
        model.weights, model.centroids, model.precision_roots, data.samples
    )


def full_log_likelihood(data: DataSet, model: MixtureModel) -> float:
    """Mean over samples of log sum_k pi_k p_k(x_n), max-shifted."""
    lj = log_joint_matrix(data, model)
    return float(np.mean(logsumexp(lj, axis=1)))


def max_component_log_likelihood(data: DataSet, model: MixtureModel) -> float:
    """Mean over samples of max_k [log pi_k + log p_k(x_n)]; a lower bound
    on the full log-likelihood."""
    lj = log_joint_matrix(data, model)
    return float(np.mean(np.max(lj, axis=1)))


def _kernel_matrix(model: MixtureModel, kernel) -> np.ndarray:
    """The kernel's K x K couplings, checked against the model."""
    g = kernel.g
    if g.shape != (model.n_components, model.n_components):
        raise UsageError("kernel size does not match the model's component count")
    return g


def _smooth(lj: np.ndarray, g: np.ndarray) -> np.ndarray:
    """N x K matrix of sum_j g_kj lj_nj for log-joints lj."""
    # Clamp -inf joints (zero weights) so identity-kernel zeros cannot
    # produce 0 * -inf = nan in the convolution.
    return np.maximum(lj, -1e300) @ g.T


def smoothed_log_joints(data: DataSet, model: MixtureModel, kernel) -> np.ndarray:
    """N x K matrix of sum_j g_kj [log pi_j + log p_j(x_n)]."""
    g = _kernel_matrix(model, kernel)
    return _smooth(log_joint_matrix(data, model), g)


def smoothed_log_likelihood(data: DataSet, model: MixtureModel, kernel) -> float:
    """Mean over samples of max_k sum_j g_kj [log pi_j + log p_j(x_n)]."""
    return float(np.mean(np.max(smoothed_log_joints(data, model, kernel), axis=1)))


def responsibilities(data: DataSet, model: MixtureModel) -> Responsibilities:
    """gamma_nk = pi_k p_k(x_n) / sum_j pi_j p_j(x_n), computed in log space."""
    lj = log_joint_matrix(data, model)
    lj = lj - logsumexp(lj, axis=1, keepdims=True)
    return Responsibilities(np.exp(lj))
