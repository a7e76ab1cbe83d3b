"""Energy-based prototype map as a first-class view of a tied-spherical
mixture, plus an executable check that its energy is the smoothed loss up to
an affine constant.

The map's best-matching unit and update share the tied training step's
code: ``bmu`` takes x - mu through ``backend._difference`` and its winner
from ``somstep._tied_winner`` (the exact argmin of the kernel-convolved
squared distances), and ``som_update`` is
``trainer.neighborhood_pull(*somstep._tied_pull(...))``, the pull behind
the tied single-sample SGD step, at rate epsilon, with the rows that
``_tied_pull`` chooses: the winner's alone under the identity kernel.  So
an update is bitwise such a step under the eps/d^2 rate mapping, ties
included.  ``_convolved_sq_distances`` is the reference formula
behind ``som_energy`` and ``verify_equivalence``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import backend, model as mc
from .exceptions import UsageError
from .model import DataSet, MixtureModel, HALF_LOG_2PI
from .topology import GridTopology, NeighborhoodKernel
from .somstep import _tied_pull, _tied_winner
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
    exact, lowest index on ties.  Identity kernel gives the classic nearest
    prototype."""
    x = mc.as_vector(x, view.model)
    mu = view.prototypes
    return _tied_winner(view.kernel.g, x, mu, backend._difference(x, mu))[0]


def som_update(view: SomView, x, epsilon: float):
    """One online step: pull every prototype toward x in proportion to its
    kernel coupling with the BMU (under the identity kernel, the BMU's row
    alone; see ``somstep._tied_pull``)."""
    if not 0 <= epsilon < math.inf:
        raise UsageError("epsilon must be finite and non-negative")
    x = mc.as_vector(x, view.model)
    neighborhood_pull(*_tied_pull(view.prototypes, view.kernel, x, epsilon))
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
