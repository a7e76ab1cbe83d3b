"""SGD training of the three loss regimes with constraint enforcement,
neighborhood annealing and collapse diagnostics.

The losses are maximized; ``sgd_step`` performs gradient *ascent* and the
history reports the loss as-is.

A tied single-sample step is the SOM update: ``somstep._tied_pull`` finds
the exact winner and returns the pull's rows, and ``neighborhood_pull``
applies them, as in ``sombridge.som_update``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import backend
from . import model as mc
from .exceptions import NumericsError, UsageError
from .model import DataSet, MixtureModel, D_MAX, D_MIN, WEIGHT_FLOOR
from .somstep import _tied_pull
from .topology import (
    AnnealingSchedule,
    GridTopology,
    NeighborhoodKernel,
    build_kernel,
    epsilon_at,
    sigma_at,
)

LOSS_REGIMES = ("exact", "max_component", "smoothed")

PROBE_SIZE = 200

# detect_collapse: a weight above COLLAPSE_SINGLE_WEIGHT is a single
# component; fewer than ceil(K/4) weights above 1/(COLLAPSE_SPARSE_FACTOR K)
# are sparse; centroids within COLLAPSE_SPREAD data scales of one another
# with responsibilities within COLLAPSE_RESP of 1/K are degenerate.
COLLAPSE_SINGLE_WEIGHT = 0.95
COLLAPSE_SPARSE_FACTOR = 10.0
COLLAPSE_SPREAD = 1e-3
COLLAPSE_RESP = 1e-3

# Cap on the minibatch indices that ``run`` draws in one rng call.
DRAW_BLOCK = 2 ** 16


@dataclass
class TrainConfig:
    loss_regime: str
    n_components: int
    total_iters: int
    eps_schedule: AnnealingSchedule
    sigma_schedule: AnnealingSchedule | None = None
    grid: str = "2d"
    periodic: bool = True
    batch_size: int = 1
    centroid_scale: float = 0.01
    init_dsq: float = 5.0
    init_mode: str = "random"
    tied_spherical: bool = False
    train_weights: bool = False
    train_precisions: bool = False
    seed: int | None = None
    diag_every: int = 100

    def validate(self):
        if self.loss_regime not in LOSS_REGIMES:
            raise UsageError(f"unknown loss regime {self.loss_regime!r}")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")
        mc._require_size((self.batch_size,), "minibatch")
        if self.total_iters < 1:
            raise UsageError("total_iters must be >= 1")
        if self.diag_every < 1:
            raise UsageError("diag_every must be >= 1")
        # rng.uniform(-s, s) needs a finite, non-negative range 2s.
        if not 0.0 <= 2.0 * self.centroid_scale < math.inf:
            raise UsageError("centroid_scale must be finite and non-negative")
        if not D_MIN ** 2 <= self.init_dsq <= D_MAX ** 2:
            raise UsageError("initial precision outside the allowed bounds")
        if self.init_mode not in ("random", "data_mean"):
            raise UsageError(f"unknown init mode {self.init_mode!r}")
        if self.tied_spherical and (self.train_weights or self.train_precisions):
            raise UsageError("a tied model trains neither weights nor precisions")
        # Only the smoothed regime has a neighbourhood radius to anneal.
        if (self.loss_regime == "smoothed") != (self.sigma_schedule is not None):
            raise UsageError("the smoothed regime, and only it, takes a sigma schedule")
        if self.loss_regime != "exact":
            mc._require_size((self.n_components,) * 2, "neighbourhood kernel")
        # Constructing the topology validates K against the grid kind.
        self.topology()
        return self

    def topology(self):
        return GridTopology(self.grid, self.n_components, self.periodic)


@dataclass
class HistoryRow:
    t: int
    loss: float
    sigma: float
    epsilon: float
    diagnosis: str


@dataclass
class DataStats:
    mean: np.ndarray
    var: np.ndarray

    @property
    def scale(self):
        return float(np.sqrt(np.mean(self.var)))

    @classmethod
    def from_data(cls, data: DataSet):
        return cls(data.samples.mean(axis=0), data.samples.var(axis=0))


@dataclass
class TrainState:
    """A run in progress.  A parameter its config does not train keeps its
    frozen array for the run (``_apply``).  A tied config trains neither d
    nor the weights: the first tied step validates the model
    and keeps ``tied_terms = (d, weights, p)`` with the scalar ``p = d^2``
    of the pull ``somstep._tied_pull`` that the step shares with
    ``sombridge.som_update`` (see ``_tied_terms``).  A tied step uses them
    while the model holds those same arrays, d and the weights still
    read-only, as a copy of the model does; a model with other d or
    weights, or with those made writeable again, is validated and gets
    fresh terms first."""

    model: MixtureModel
    t: int
    rng: np.random.Generator
    topology: GridTopology  # the run's one grid; every kernel rebuild uses it
    history: list = field(default_factory=list)
    kernel: NeighborhoodKernel | None = None
    probe: DataSet | None = None
    stats: DataStats | None = None
    tied_terms: tuple | None = None


def init_model(config: TrainConfig, rng: np.random.Generator, dim: int) -> MixtureModel:
    """Small random centroids, equiprobable weights, uniform precision."""
    config.validate()
    K = config.n_components
    mc._require_size((K, dim), "centroid matrix")
    centroids = rng.uniform(-config.centroid_scale, config.centroid_scale, (K, dim))
    weights = np.full(K, 1.0 / K)
    droots = np.full((K, dim), math.sqrt(config.init_dsq))
    return MixtureModel(weights, centroids, droots, config.tied_spherical)


def _safe_ratio(num, den):
    out = np.zeros(num.shape, num.dtype)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _moment_gradients(X: np.ndarray, W: np.ndarray, model: MixtureModel):
    """Batch-averaged gradients of sum_k W_nk log[pi_k p_k(x_n)] with the
    N x K sample weights W held fixed: the weighted moments of the data that
    every regime's gradient is made of.

    Returns (gmu, gd, gpi) in the d-parameterization: the precision gradient
    is taken with respect to the precision roots d via P = D*D.

    A single sample never comes here from ``grad_smoothed``: its one-row
    branch, ``_sample_gradients``, forms the same moments without the N axis.
    """
    N = X.shape[0]
    d = model.precision_roots
    diff = X[:, None, :] - model.centroids[None, :, :]  # N x K x D
    gmu = np.einsum("nk,ki,nki->ki", W, d * d, diff) / N
    gd = np.einsum("nk,nki->ki", W, 1.0 / d - d * diff * diff) / N
    gpi = _safe_ratio(np.add.reduce(W, axis=0) / N, model.weights)  # W.mean
    return gmu, gd, gpi


def grad_exact(batch: DataSet, model: MixtureModel):
    """Analytic gradients of the full log-likelihood, averaged over the batch:
    each sample weighted by its responsibilities."""
    gamma = mc.responsibilities(batch, model).gamma  # N x K
    return _moment_gradients(batch.samples, gamma, model)


def _winner_rows(batch: DataSet, model: MixtureModel, kernel: NeighborhoodKernel):
    """Per-sample argmax row of the smoothed scores plus its kernel coupling."""
    scores = mc.smoothed_log_joints(batch, model, kernel)
    winners = scores.argmax(axis=1)  # ties: lowest index
    return winners, kernel.g[winners]  # N, N x K


def grad_smoothed(batch: DataSet, model: MixtureModel, kernel: NeighborhoodKernel):
    """Subgradient of the smoothed loss: flows through each sample's winning
    row only, weighting component j by its coupling g[winner, j].

    With the identity kernel this is exactly the max-component (hard
    assignment) gradient.

    A batch of one row takes ``_sample_gradients``, which has no N axis and
    is bitwise the N-axis path: the winner's row is the one-row log-joint
    kernel by direct differences, and with N = 1 each einsum is one product
    added to 0.0 and divided by 1.  The products keep the einsum's operand
    order, ``(W * P) * diff`` and ``W * (1/d - d * diff * diff)``; another
    grouping, such as ``W * (P * diff)``, rounds differently.  Adding 0.0
    turns the -0.0 that a zero coupling times a negative term gives into
    the +0.0 of the einsum's (and the weight gradient's) sum.
    """
    if batch.count == 1:
        return _sample_gradients(batch, model, kernel)
    _, coupling = _winner_rows(batch, model, kernel)
    return _moment_gradients(batch.samples, coupling, model)


def _sample_gradients(batch: DataSet, model: MixtureModel, kernel: NeighborhoodKernel):
    """``grad_smoothed`` of a one-row batch; see ``grad_smoothed`` for why
    it is bitwise ``_moment_gradients`` of the winner's row: the log-joint
    row made from ``diff = x - mu`` is smoothed by the couplings g and
    argmaxed (ties: lowest index).

    Under the identity kernel the winner is the argmax w of the log-joint
    row itself while ``LOG_JOINT_FLOOR < lj[w] < inf``: the clamped row
    times the identity is the clamped row, a maximum above the floor is
    not clamped and keeps the first index of the maximum, and it rules out
    NaN, because ``argmax`` returns the first NaN.  A row maximum at or
    below the floor, a NaN or +inf (where inf * 0 makes NaN scores) takes
    the smoothing, as every other kernel does."""
    d, weights = model.precision_roots, model.weights
    base, psq = backend._fresh_terms(weights, d)
    g = mc._kernel_matrix(model, kernel)
    mc._check_dims(batch, model)
    diff = backend._difference(batch.samples[0], model.centroids)
    lj = backend._difference_row(base, psq, diff)
    w = lj.argmax() if kernel.is_identity else None
    if w is None or not mc.LOG_JOINT_FLOOR < lj[w] < math.inf:
        w = mc._smooth(lj[None, :], g).argmax(axis=1)[0]
    coupling = g[w]
    W = coupling[:, None]
    gmu = (W * psq) * diff
    gmu += 0.0
    gd = W * (1.0 / d - d * diff * diff)
    gd += 0.0
    gpi = _safe_ratio(coupling, weights)
    gpi += 0.0
    return gmu, gd, gpi


def project_weight_gradient(gpi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """First-order effect of a weight-gradient step followed by simplex
    renormalization; vanishing projected gradient means the renormalized
    weights are stationary."""
    return gpi - weights * gpi.sum()


def neighborhood_pull(centroids: np.ndarray, coeff: np.ndarray, diff: np.ndarray):
    """In-place pull of every centroid toward x, scaled per component, from
    the caller's ``diff = x - centroids``, which is scaled in place: bitwise
    centroids += coeff[:, None] * (x - centroids) with one K x D temporary.
    The tied step and ``sombridge.som_update`` pass it the rows of
    ``somstep._tied_pull``."""
    diff *= coeff[:, None]
    centroids += diff


def enforce_constraints(model: MixtureModel, precision_roots: np.ndarray | None,
                        weights: np.ndarray | None) -> MixtureModel:
    """Give the model new precision roots, the given ones clamped to
    [D_MIN, D_MAX], and new weights, the given ones renormalized onto the
    (floored) simplex.  A parameter given as None keeps the model's array:
    a step passes only what its config trains (``_apply``)."""
    # Bitwise np.clip, NaN kept, without its wrapper.  Each result is a new
    # array, made read-only here and kept by the model without a copy.
    if precision_roots is not None:
        d = np.maximum(precision_roots, D_MIN)
        np.minimum(d, D_MAX, out=d)
        d.setflags(write=False)
        model.precision_roots = d
    if weights is not None:
        w = np.maximum(weights, WEIGHT_FLOOR)
        w /= np.add.reduce(w)
        np.maximum(w, WEIGHT_FLOOR, out=w)
        w /= np.add.reduce(w)
        w.setflags(write=False)
        model.weights = w
    return model


def _regime_kernel(state: TrainState, sigma: float):
    """The run's kernel at radius sigma, rebuilt when sigma changes; the
    ``max_component`` regime's sigma is always 0, whose kernel is the
    identity."""
    if state.kernel is None or sigma != state.kernel.sigma:
        state.kernel = build_kernel(state.topology, sigma)
    return state.kernel


def _current_loss(state: TrainState, config: TrainConfig):
    """The probe loss: the smoothed loss under the run's kernel, which for
    ``max_component`` is the identity, so the max-component loss."""
    if config.loss_regime == "exact":
        return mc.full_log_likelihood(state.probe, state.model)
    return mc.smoothed_log_likelihood(state.probe, state.model, state.kernel)


def _sigma(config: TrainConfig, t: int) -> float:
    """The neighbourhood radius at step t; 0 without a sigma schedule."""
    return sigma_at(config.sigma_schedule, t) if config.sigma_schedule else 0.0


def _log_row(state: TrainState, config: TrainConfig):
    sigma = _sigma(config, state.t)
    eps = epsilon_at(config.eps_schedule, state.t)
    loss = _current_loss(state, config)
    if not np.isfinite(loss):
        raise NumericsError(
            f"non-finite loss at iteration {state.t}",
            snapshot={"t": state.t, "model": state.model.copy()},
        )
    diagnosis = detect_collapse(state.model, state.stats, state.probe)
    state.history.append(HistoryRow(state.t, loss, sigma, eps, diagnosis))


def sgd_step(state: TrainState, batch: DataSet, config: TrainConfig) -> TrainState:
    """One ascent step: evaluate schedules, rebuild the kernel if the radius
    changed, apply regime gradients, re-impose constraints, log at cadence."""
    if state.t >= config.total_iters:
        raise UsageError("training already ran its configured iterations")
    model = state.model
    t = state.t
    eps = epsilon_at(config.eps_schedule, t)
    sigma = _sigma(config, t)
    terms = _tied_terms(state) if model.tied_spherical else None

    if config.loss_regime == "exact":
        gmu, gd, gpi = grad_exact(batch, model)
        enforce_constraints(model, *_apply(model, config, eps, gmu, gd, gpi))
    else:
        kernel = _regime_kernel(state, sigma)
        if terms is not None and batch.count == 1:
            mc._kernel_matrix(model, kernel)
            mc._check_dims(batch, model)
            neighborhood_pull(*_tied_pull(model.centroids, kernel, batch.samples[0],
                                          eps * terms[2]))
        else:
            gmu, gd, gpi = grad_smoothed(batch, model, kernel)
            enforce_constraints(model, *_apply(model, config, eps, gmu, gd, gpi))

    state.t = t + 1
    if state.probe is not None and (
        state.t % config.diag_every == 0 or state.t == config.total_iters
    ):
        _log_row(state, config)
    return state


def _tied_terms(state: TrainState) -> tuple:
    """The terms (d, weights, p) of the state's tied model, made afresh when
    its d or weights are not the arrays they were made from, or were made
    writeable again: the model is validated and p is the pull's scalar d^2."""
    terms, model = state.tied_terms, state.model
    d, weights = model.precision_roots, model.weights
    if (terms is None or terms[0] is not d or terms[1] is not weights
            or d.flags.writeable or weights.flags.writeable):
        model.validate()
        terms = state.tied_terms = (d, weights, model.tied_precision_root ** 2)
    return terms


def _apply(model, config, eps, gmu, gd, gpi):
    """Step the centroids in place and return the stepped precision roots
    and weights as new arrays, each only if the config trains it and None
    otherwise, for ``enforce_constraints`` to give the model.  An untrained
    parameter keeps its frozen array for the whole run; a tied config
    trains neither (``TrainConfig.validate``)."""
    mu = model.centroids
    mu += eps * gmu
    d = model.precision_roots + eps * gd if config.train_precisions else None
    w = model.weights + eps * gpi if config.train_weights else None
    return d, w


def detect_collapse(model: MixtureModel, data_stats: DataStats, probe: DataSet) -> str:
    """Classify the model as healthy / degenerate / single_component / sparse.

    Degenerate: all centroids coincide (relative to the data scale) and the
    probe batch gets uniform responsibilities.  Single-component: one weight
    absorbs nearly everything.  Sparse: too few components carry weight.
    """
    K = model.n_components
    w = model.weights
    if np.max(w) > COLLAPSE_SINGLE_WEIGHT:
        return "single_component"
    if np.count_nonzero(w > 1.0 / (COLLAPSE_SPARSE_FACTOR * K)) < math.ceil(K / 4):
        return "sparse"
    if _spread_below(model.centroids, COLLAPSE_SPREAD * data_stats.scale):
        gamma = mc.responsibilities(probe, model).gamma
        if np.max(np.abs(gamma - 1.0 / K)) < COLLAPSE_RESP:
            return "degenerate"
    return "healthy"


def _spread_below(mu: np.ndarray, threshold: float) -> bool:
    """Whether every Euclidean distance between two rows of mu, a row and
    itself included, is below the threshold: bitwise the verdict of the max
    of the K x K broadcast ``np.linalg.norm`` matrix against it, without its
    K x K x D temporary.  Row k's squared distances to rows k, k+1, ... run
    over the same contiguous last axis, (a - b)^2 == (b - a)^2 and the
    correctly rounded sqrt is monotone, so these pairs j >= k hold every
    distance of the matrix; the loop stops at the first row whose largest
    is not below.  The diagonal keeps the matrix's NaN for a row holding
    inf, and a NaN is never below."""
    for k in range(mu.shape[0]):
        if not np.sqrt(np.add.reduce(np.square(mu[k:] - mu[k]), axis=1).max()) < threshold:
            return False
    return True


def _probe_subset(data: DataSet) -> DataSet:
    if data.count <= PROBE_SIZE:
        return data
    stride = data.count / PROBE_SIZE
    idx = (np.arange(PROBE_SIZE) * stride).astype(int)
    return DataSet(data.samples[idx], dict(data.meta, probe=True))


def make_state(config: TrainConfig, data: DataSet, resume: dict | None = None) -> TrainState:
    config.validate()
    if config.seed is None or config.seed < 0:
        raise UsageError("training requires an explicit non-negative rng seed")
    rng = np.random.default_rng(config.seed)
    if resume is not None:
        rng.bit_generator.state = resume["rng_state"]
        model = resume["model"].copy().validate()
        t = resume["t"]
        if model.tied_spherical != config.tied_spherical:
            raise UsageError(f"starting model has tied_spherical = {model.tied_spherical}, "
                             f"the config {config.tied_spherical}")
        if model.n_components != config.n_components:
            raise UsageError(f"starting model has {model.n_components} components, "
                             f"the config {config.n_components}")
    else:
        model = init_model(config, rng, data.dim)
        t = 0
    state = TrainState(model=model, t=t, rng=rng, topology=config.topology())
    state.stats = DataStats.from_data(data)
    state.probe = _probe_subset(data)
    if resume is None and config.init_mode == "data_mean":
        model.centroids[...] = state.stats.mean
    return state


def run(config: TrainConfig, data: DataSet, resume: dict | None = None) -> TrainState:
    """Run the configured number of iterations and return the final state.

    Deterministic under a fixed seed; a run resumed from a checkpoint (model,
    iteration, rng state) continues exactly where the original left off.
    The minibatch indices come from ``_batch_indices``, which draws them
    with replacement, in blocks, and leaves the rng stream of one draw per
    step.  A one-row batch is the basic-index view ``samples[i, None]`` of
    its row, which holds the same values as the copy ``samples[[i]]`` that
    a larger batch's index array makes, without the copy.
    """
    samples = data.samples
    mc._require_finite(samples)
    state = make_state(config, data, resume)
    if state.t == 0:
        if config.loss_regime != "exact":
            _regime_kernel(state, _sigma(config, 0))
        _log_row(state, config)
    single = config.batch_size == 1
    for idx in _batch_indices(config, state.rng, data.count, state.t):
        rows = samples[idx[0], None] if single else samples[idx]
        sgd_step(state, mc._trusted_dataset(rows, {"batch": True}), config)
    return state


def _batch_indices(config: TrainConfig, rng: np.random.Generator, N: int, t0: int):
    """The row indices of the minibatches of steps t0 .. total_iters - 1,
    always drawn with replacement.

    Sampling draws the indices of up to ``DRAW_BLOCK // B``
    steps in one ``rng.integers(0, N, size=(n, B))`` call.  numpy draws
    bounded integers one after another from a bit generator whose buffered
    32-bit half lives in its state, so a block holds the values that n
    calls of size B would give and leaves the same state; the last block
    ends at ``total_iters``, so a finished run's (checkpointed) rng state is
    that of one call per step.  A run that aborts with ``NumericsError``
    leaves its rng up to one block further along, which nothing observes:
    no state is returned and no checkpoint is written.
    """
    T, B = config.total_iters, config.batch_size
    steps = max(1, DRAW_BLOCK // B)
    for t in range(t0, T, steps):
        yield from rng.integers(0, N, size=(min(steps, T - t), B))


def train(config: TrainConfig, data: DataSet, resume: dict | None = None):
    """Convenience wrapper around :func:`run` returning (model, history)."""
    state = run(config, data, resume)
    return state.model, state.history
