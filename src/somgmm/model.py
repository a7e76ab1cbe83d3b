"""Mixture parameters, per-component log-densities, the three losses and
responsibilities.

Sign convention: all three likelihood-style quantities are to be *maximized*;
the trainer ascends them and reports each loss as it is.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .backend import HALF_LOG_2PI
from .exceptions import DataError, UsageError

# Bounds on the precision roots d; keeps every implied variance finite and
# positive and stops variance collapse onto single samples.
D_MIN = 1e-3
D_MAX = 1e3

# Weights are floored here after renormalization so log(pi) stays finite.
WEIGHT_FLOOR = 1e-8

# Smoothing clamps log-joints up to this floor (see ``_smooth``).
LOG_JOINT_FLOOR = -1e300


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

    The weights and precision roots are frozen, read-only arrays that own
    their data, so that ``backend`` can key its terms by identity: every
    assignment, the constructor's, unpickling's and ``copy.deepcopy``'s
    included, keeps a frozen array as it is and stores a frozen copy of
    anything else.  An in-place write to either
    raises ``ValueError``; assign a new array instead.  The centroids stay
    writeable.
    """

    weights: np.ndarray
    centroids: np.ndarray
    precision_roots: np.ndarray
    tied_spherical: bool = False

    def __setattr__(self, name, value):
        if name == "weights":
            if not _stored_as_is(value, 1):
                value = _freeze(np.ascontiguousarray(value, dtype=np.float64))
        elif name == "precision_roots":
            if not _stored_as_is(value, 2):
                value = _freeze(_as_matrix(value, name))
        # No field is a descriptor, so this is object.__setattr__'s store.
        self.__dict__[name] = value

    def __setstate__(self, state):
        # Unpickling and copy.deepcopy set the attributes through the hook.
        for name, value in state.items():
            setattr(self, name, value)

    def __post_init__(self):
        self.centroids = _as_matrix(self.centroids, "centroids")

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
        """A model with its own centroids, sharing the frozen weights and
        precision roots."""
        return MixtureModel(self.weights, self.centroids.copy(),
                            self.precision_roots, self.tied_spherical)


_FLOAT64 = np.dtype(np.float64)


def _stored_as_is(value, ndim):
    """Whether ``value`` is a frozen (see ``backend._frozen``), C-contiguous
    float64 ndarray of rank ``ndim``: an array that the conversions and
    ``_freeze`` would return as it is, so the store keeps it without
    calling them.  The dtype is tested by identity, which every native
    float64 array that numpy makes passes; any other array takes the
    conversions, which give it the same treatment as before."""
    if type(value) is not np.ndarray or value.dtype is not _FLOAT64 or value.ndim != ndim:
        return False
    flags = value.flags
    return flags.c_contiguous and flags.owndata and not flags.writeable


def _freeze(arr):
    """``arr`` if it is frozen (see ``backend._frozen``), else a read-only
    copy of it."""
    if not backend._frozen(arr):
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


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
    return float(np.mean(_logsumexp_rows(lj)))


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
    return np.maximum(lj, LOG_JOINT_FLOOR) @ g.T


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
    lj = lj - _logsumexp_rows(lj)
    return Responsibilities(np.exp(lj))


def _logsumexp_rows(lj: np.ndarray) -> np.ndarray:
    """N x 1 column of log sum_k exp(lj_nk).

    The m entries equal to the row maximum ``top`` are taken out of the sum
    s of the others' ``exp(lj - top)``, and the value is
    ``log1p(s / m) + log(m) + top``.  A row whose value is not finite (every
    entry -inf, or a +inf or NaN entry) gets its ``top``.  This is the
    arithmetic of the reference library's ``logsumexp`` from its version
    1.15 on, and ``tests/test_model.py`` holds the two to the same bytes;
    the textbook ``top + log(sum exp(lj - top))`` rounds differently."""
    top = lj.max(axis=1, keepdims=True)
    at_top = lj == top
    m = np.count_nonzero(at_top, axis=1, keepdims=True).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.add.reduce(np.exp(np.where(at_top, -np.inf, lj) - top), axis=1, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + top
    return np.where(np.isfinite(out), out, top)
