"""Energy-based prototype map as a first-class view of a tied-spherical
mixture, plus an executable check that its energy is the smoothed loss up to
an affine constant.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import backend, model as mc
from .exceptions import UsageError
from .model import DataSet, MixtureModel, HALF_LOG_2PI
from .topology import GridTopology, NeighborhoodKernel
from .trainer import neighborhood_pull


class SomView:
    """Prototype-map view over a tied-spherical mixture: prototypes are the
    centroids, the shared precision root is the single scalar d."""

    def __init__(self, model: MixtureModel, topology: GridTopology,
                 kernel: NeighborhoodKernel):
        if not model.tied_spherical:
            raise UsageError("SomView requires a tied_spherical model")
        model.validate()
        if topology.n_components != model.n_components:
            raise UsageError("topology size does not match the model")
        if kernel.n_components != model.n_components:
            raise UsageError("kernel size does not match the model")
        self.model = model
        self.topology = topology
        self.kernel = kernel

    @property
    def prototypes(self):
        return self.model.centroids

    @property
    def d(self):
        return self.model.tied_precision_root


# Cap on the rows x K x D difference temporary (floats) behind each block of
# squared distances.
_CHUNK_ELEMS = 2 ** 20


def _convolved_sq_distances(X: np.ndarray, view: SomView) -> np.ndarray:
    """N x K matrix of sum_j g_kj ||x_n - mu_j||^2."""
    mu = view.prototypes
    step = max(1, _CHUNK_ELEMS // mu.size)
    sq = np.empty((X.shape[0], mu.shape[0]))
    for lo in range(0, X.shape[0], step):
        diff = X[lo:lo + step, None, :] - mu[None, :, :]
        sq[lo:lo + step] = np.sum(diff * diff, axis=2)
    return sq @ view.kernel.g.T


def som_energy(data: DataSet, view: SomView) -> float:
    """Mean over samples of min_k sum_j g_kj ||x_n - mu_j||^2."""
    if data.dim != view.model.dim:
        raise UsageError("data dimension does not match the prototypes")
    conv = _convolved_sq_distances(data.samples, view)
    return float(np.mean(np.min(conv, axis=1)))


def bmu(x, view: SomView) -> int:
    """Best-matching unit: argmin of the kernel-convolved squared distance,
    lowest index on ties.  Identity kernel gives the classic nearest
    prototype."""
    return _bmu(mc.as_vector(x, view.model), view)


def _bmu(x: np.ndarray, view: SomView) -> int:
    """The best-matching unit of an already checked vector."""
    conv = _convolved_sq_distances(x[None, :], view)
    return int(np.argmin(conv[0]))


def som_update(view: SomView, x, epsilon: float):
    """One online step: pull every prototype toward x in proportion to its
    kernel coupling with the BMU."""
    if not 0 <= epsilon < math.inf:
        raise UsageError("epsilon must be finite and non-negative")
    x = mc.as_vector(x, view.model)
    winner = _bmu(x, view)
    coeff = epsilon * view.kernel.g[winner]
    neighborhood_pull(view.prototypes, coeff, backend._difference(x, view.prototypes))
    return view


@dataclass
class EquivalenceReport:
    lhs: np.ndarray  # per-sample smoothed loss terms
    rhs: np.ndarray  # constant - (d^2/2) * per-sample energy terms
    constant: float
    max_abs_err: float


def verify_equivalence(data: DataSet, view: SomView) -> EquivalenceReport:
    """Check, per sample and in aggregate, that the smoothed loss equals
    C - (d^2/2) * E with E the map energy.

    C collects the terms the map discards from the probability computation:
    -log K for the uniform weights plus the Gaussian normalizer
    D*(log d - log sqrt(2 pi)) per sample.
    """
    model = view.model
    K, D = model.n_components, model.dim
    d = view.d
    constant = float(-math.log(K) + D * (math.log(d) - HALF_LOG_2PI))

    lhs = np.max(mc.smoothed_log_joints(data, model, view.kernel), axis=1)

    conv = _convolved_sq_distances(data.samples, view)
    rhs = constant - 0.5 * d * d * np.min(conv, axis=1)

    return EquivalenceReport(lhs, rhs, constant, float(np.max(np.abs(lhs - rhs))))
