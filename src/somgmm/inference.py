"""Downstream uses of a trained model: outlier scoring, cluster assignment
and generative sampling."""

from dataclasses import dataclass

import numpy as np

from . import backend, model as mc
from .exceptions import UsageError
from .model import DataSet, MixtureModel


def _row_log_joints(x, model: MixtureModel) -> np.ndarray:
    """The K log-joints of one row, straight from the one-row kernel."""
    x = mc.as_vector(x, model)
    return backend.log_joints(model.weights, model.centroids,
                              model.precision_roots, x[None, :])[0]


def outlier_score(x, model: MixtureModel) -> float:
    """Single-sample score max_k [log pi_k + log p_k(x)], in nats; higher
    means more likely inlier."""
    return float(_row_log_joints(x, model).max())


def batch_scores(data: DataSet, model: MixtureModel) -> np.ndarray:
    lj = mc.log_joint_matrix(data, model)
    return np.max(lj, axis=1)


def assign_cluster(x, model: MixtureModel) -> int:
    """Index of the component with the largest joint log-density; lowest
    index on ties."""
    return int(_row_log_joints(x, model).argmax())


@dataclass
class OutlierReport:
    scores: np.ndarray
    window_means: np.ndarray
    window: int
    verdicts: np.ndarray | None = None
    threshold: float | None = None


def score_report(
    data: DataSet,
    model: MixtureModel,
    window: int = 10,
    reference: DataSet | None = None,
    percentile: float = 1.0,
) -> OutlierReport:
    """Per-sample scores plus trailing-window means; if a reference batch is
    given, verdicts mark samples whose window mean falls below the reference
    scores' given percentile."""
    if window < 1:
        raise UsageError("window must be >= 1")
    if not 0 <= percentile <= 100:
        raise UsageError("percentile must be in [0, 100]")
    scores = batch_scores(data, model)
    n = scores.size
    span = min(window, n)  # a window past n, even beyond int64, spans all rows
    # Shifted-slice adds rather than a cumsum, whose differences drift at
    # large N.
    sums = np.zeros(n)
    for lag in range(span):
        sums[lag:] += scores[: n - lag]
    means = sums / np.minimum(np.arange(1, n + 1), span)
    verdicts = None
    threshold = None
    if reference is not None:
        threshold = float(np.percentile(batch_scores(reference, model), percentile))
        verdicts = means < threshold
    return OutlierReport(scores, means, window, verdicts, threshold)


def sample(model: MixtureModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples: pick a component (uniformly for tied models, else by
    the weight multinomial), then a diagonal Gaussian draw around its
    centroid with per-coordinate standard deviation 1/d."""
    if n < 1:
        raise UsageError("sample count must be >= 1")
    mc._require_size((n, model.dim), "sample")
    K = model.n_components
    if model.tied_spherical:
        ks = rng.integers(0, K, size=n)
    else:
        ks = rng.choice(K, size=n, p=model.weights)
    noise = rng.standard_normal((n, model.dim))
    return model.centroids[ks] + noise / model.precision_roots[ks]
