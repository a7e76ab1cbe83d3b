"""SGD training of the three loss regimes with constraint enforcement,
neighborhood annealing and collapse diagnostics.

The losses are maximized; ``sgd_step`` performs gradient *ascent* and the
history reports the loss as-is.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import backend
from . import model as mc
from .exceptions import NumericsError, UsageError
from .model import DataSet, MixtureModel, D_MAX, D_MIN, WEIGHT_FLOOR
from .topology import (
    AnnealingSchedule,
    GridTopology,
    NeighborhoodKernel,
    build_kernel,
    epsilon_at,
    sigma_at,
)

LOSS_REGIMES = ("exact", "max_component", "smoothed")

# Relative sigma drift that triggers a kernel rebuild.
KERNEL_REBUILD_TOL = 1e-4

PROBE_SIZE = 200

# Cap on the minibatch indices that ``run`` draws in one rng call.
DRAW_BLOCK = 2 ** 16

# Margin of the tied winner's guard over its rounding bound
# (``_tied_sample_step``); the measured worst error over the bound is in
# ``tests/test_trainer.py``.
TIED_GUARD_FACTOR = 2.0
_EPS = np.finfo(np.float64).eps
_TINY = 2.0 ** -1074


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
    shuffle: str = "replacement"

    def validate(self):
        if self.loss_regime not in LOSS_REGIMES:
            raise UsageError(f"unknown loss regime {self.loss_regime!r}")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")
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
        if self.shuffle not in ("replacement", "epoch"):
            raise UsageError(f"unknown shuffle mode {self.shuffle!r}")
        if self.loss_regime == "smoothed" and self.sigma_schedule is None:
            raise UsageError("smoothed regime requires a sigma schedule")
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
    """A run in progress.  A tied model's d and weights, frozen like every
    model's, are fixed for the run: ``make_state`` validates the starting
    model and keeps ``tied_terms = (d, weights, psq, base, p, rel, slack,
    one_row, mu)`` with the kernel's precisions ``psq = d ** 2`` and
    normaliser ``base``, the scalar ``p = d^2`` of the pull, the bound of
    the winner's guard, whether the one-row pull is exact and the centroids
    it was judged on (see ``_tied_terms``).  A tied step uses them while the
    model holds those same arrays, d and the weights still read-only; another
    model, a copy included, or arrays made writeable again, are validated and
    get fresh terms first."""

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


def _sample_winner(g: np.ndarray, diff: np.ndarray, base: np.ndarray, psq: np.ndarray):
    """The exact winner of one row from its differences ``diff = x - mu``:
    the log-joint row (normaliser ``base``, precisions ``psq``) is smoothed
    by the couplings g and argmaxed (ties: lowest index).  The untied
    single-sample gradient takes every winner from here, and the tied step
    every winner that its guard does not settle."""
    scores = mc._smooth(backend._difference_row(base, psq, diff)[None, :], g)
    return scores.argmax(axis=1)[0]


def _sample_gradients(batch: DataSet, model: MixtureModel, kernel: NeighborhoodKernel):
    """``grad_smoothed`` of a one-row batch; see ``grad_smoothed`` for why
    it is bitwise ``_moment_gradients`` of the winner's row."""
    d, weights = model.precision_roots, model.weights
    base, psq = backend._fresh_terms(weights, d)
    g = mc._kernel_matrix(model, kernel)
    mc._check_dims(batch, model)
    diff = backend._difference(batch.samples[0], model.centroids)
    coupling = g[_sample_winner(g, diff, base, psq)]
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
    centroids += coeff[:, None] * (x - centroids) with one K x D temporary."""
    diff *= coeff[:, None]
    centroids += diff


def enforce_constraints(model: MixtureModel, precision_roots: np.ndarray,
                        weights: np.ndarray) -> MixtureModel:
    """Give an untied model new precision roots, the given ones clamped to
    [D_MIN, D_MAX], and new weights, the given ones renormalized onto the
    (floored) simplex.  A tied model is left as it is: its d and weights
    are set once per run (``make_state``)."""
    if model.tied_spherical:
        return model
    # Bitwise np.clip, NaN kept, without its wrapper.  Each result is a new
    # array, made read-only here and kept by the model without a copy.
    d = np.maximum(precision_roots, D_MIN)
    np.minimum(d, D_MAX, out=d)
    w = np.maximum(weights, WEIGHT_FLOOR)
    w /= np.add.reduce(w)
    np.maximum(w, WEIGHT_FLOOR, out=w)
    w /= np.add.reduce(w)
    d.setflags(write=False)
    w.setflags(write=False)
    model.precision_roots, model.weights = d, w
    return model


def _regime_kernel(state: TrainState, config: TrainConfig, sigma: float):
    if config.loss_regime == "max_component":
        if state.kernel is None:
            state.kernel = NeighborhoodKernel(np.eye(config.n_components), 0.0)
        return state.kernel
    k = state.kernel
    if k is None or abs(sigma - k.sigma) > KERNEL_REBUILD_TOL * k.sigma:
        state.kernel = build_kernel(state.topology, sigma)
    return state.kernel


def _current_loss(state: TrainState, config: TrainConfig):
    probe = state.probe
    if config.loss_regime == "exact":
        return mc.full_log_likelihood(probe, state.model)
    if config.loss_regime == "max_component":
        return mc.max_component_log_likelihood(probe, state.model)
    return mc.smoothed_log_likelihood(probe, state.model, state.kernel)


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
    drifted, apply regime gradients, re-impose constraints, log at cadence."""
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
        kernel = _regime_kernel(state, config, sigma)
        if terms is not None and batch.count == 1:
            _tied_sample_step(model, terms, batch, kernel, eps)
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
    """The terms (d, weights, psq, base, p, rel, slack, one_row, mu) of the
    state's tied model, made afresh when its d, weights or centroids are not
    the arrays they were made from, or d or the weights were made writeable
    again: the model is validated, psq and base are the
    ``backend.log_joints`` terms of its d and weights, p is the pull's
    scalar d^2, rel and slack are the bound of the winner's guard, and
    one_row says that the centroids mu held no -0.0 when the terms were made
    (see ``_tied_sample_step``)."""
    terms, model = state.tied_terms, state.model
    d, weights, mu = model.precision_roots, model.weights, model.centroids
    if (terms is None or terms[0] is not d or terms[1] is not weights
            or terms[8] is not mu or d.flags.writeable or weights.flags.writeable):
        model.validate()
        base, psq = backend._kernel_terms(weights, d)
        K, D = mu.shape
        P, b = float(psq[0, 0]), abs(float(base[0]))
        rel = TIED_GUARD_FACTOR * 2.05 * (D + K + 1) * _EPS
        slack = TIED_GUARD_FACTOR * (4.05 * (K + 1) * _EPS * b / P
                                     + (D + K + 4) * _TINY * (1.0 + 2.0 / P))
        one_row = not np.any(np.signbit(mu) & (mu == 0.0))
        terms = state.tied_terms = (d, weights, psq, base,
                                    model.tied_precision_root ** 2,
                                    rel, slack, one_row, mu)
    return terms


def _tied_sample_step(model: MixtureModel, terms: tuple, batch: DataSet,
                      kernel: NeighborhoodKernel, eps: float):
    """Single-sample tied update, grouped so that it is bit-identical to the
    prototype-map rule under the eps/d^2 rate mapping.

    x - mu is computed once and serves both the winner and the pull; ``p``
    is the run's pull scalar, so the step never reads d or the weights.

    The winner.  A tied model has one normaliser b (every entry of
    ``base``) and one precision P (every entry of ``psq``), so the smoothed
    score of row k is

        sum_j g_kj (b - P S_j / 2) = b r_k - (P/2) V_k,
        S_j = sum_i diff_ji^2,  V_k = sum_j g_kj S_j,  r_k = sum_j g_kj,

    and with r_k = 1 the best score has the least V.  The guard computes
    ``u = g @ s`` with ``s = einsum(diff, diff)``, one read of diff, and
    takes the first index of the least entry u1 of u when the runner-up u2
    clears

        u2 - u1 > rel * u2 + slack,  and  p * sum(s) < 1e300.

    The bound, in units of u, with unit roundoff e = 2^-53 and
    g_n = n e / (1 - n e) <= 1.01 n e:

    - Fast path: the einsum of D non-negative products is within g_D of S_j,
      the smoothing product within g_K, so |u_k - V_k| <= g_(D+K) V_k.
    - Exact path: squares, products by P and the einsum put the precision
      term within g_(D+2) of P S_j, ``b - 0.5 * t`` rounds by e, and the
      smoothing product by g_K of sum_j g_kj |lj_j|: each score is within
      g_(K+1) |b| r_k + (P/2) g_(D+K+2) V_k of b r_k - (P/2) V_k.
    - Row sums: the identity's are 1; ``build_kernel`` divides each row by
      its floating sum, so |r_k - 1| <= g_(K+1) and b r_w - b r_k is at most
      2 g_(K+1) |b|.
    - Subnormal results lose relative precision: each of at most D + K + 4
      operations per score or u adds up to 2^-1075, times 2/P in units of u
      on the exact path.

    So the exact score of the least u beats every other k when u2 - u1
    exceeds 2.01 (g_(D+K) + g_(D+K+2)) u2 + 8 g_(K+1) |b| / P plus the
    subnormal term, which ``_tied_terms`` bounds by 2.05 (D+K+1) eps u2 +
    4.05 (K+1) eps |b| / P + (D+K+4) 2^-1074 (1 + 2/P), eps = 2e, and
    multiplies by ``TIED_GUARD_FACTOR``.  The gap is strict, so exact ties
    fall back and resolve to the lowest index.  ``p * sum(s) < 1e300``
    (the sum bounds every s_j) keeps every exact log-joint above the
    -1e300 floor of ``model._smooth`` (|b| is below log K + 8 D), which
    would otherwise change the exact scores, and makes diff, s and u
    finite, so a NaN or inf falls back too; it is tested first, so the
    smoothing product never meets an inf and raises no floating-point
    warning that the exact path would not.  Near ties, non-finite
    differences and huge distances take ``_sample_winner``.  K = 1 needs
    no guard.  The few values are compared as Python floats, which costs
    less than numpy calls on arrays this small.

    The pull.  When the guard settled the winner (so diff is finite) and
    the kernel is the identity, only the winner's row is pulled, through
    one-row views.  A zero coefficient changes a finite centroid entry only
    when it is -0.0 and x_i >= 0, which it turns into +0.0, and a pull
    never makes a -0.0; so the one-row pull is bitwise the full pull for a
    model whose centroids held no -0.0 when ``_tied_terms`` made its terms,
    and a model that held one takes the full pull.
    """
    psq, base, p, rel, slack, one_row = terms[2:8]
    g = mc._kernel_matrix(model, kernel)
    mc._check_dims(batch, model)
    diff = backend._difference(batch.samples[0], model.centroids)
    w = None
    if g.shape[0] == 1:
        w = 0
    else:
        s = np.einsum("ki,ki->k", diff, diff)
        if p * sum(s.tolist()) < 1e300:
            u = (g @ s).tolist()
            u1, u2 = sorted(u)[:2]
            if u2 - u1 > rel * u2 + slack:
                w = u.index(u1)
    if w is None:
        w = _sample_winner(g, diff, base, psq)
    elif one_row and kernel.is_identity:
        row = slice(w, w + 1)
        neighborhood_pull(model.centroids[row], (eps * p) * g[w, row], diff[row])
        return
    neighborhood_pull(model.centroids, (eps * p) * g[w], diff)


def _apply(model, config, eps, gmu, gd, gpi):
    """Step the centroids in place and return the stepped precision roots
    and weights, new arrays where they are trained, for
    ``enforce_constraints`` to give the model."""
    mu = model.centroids
    mu += eps * gmu
    d, w = model.precision_roots, model.weights
    if config.train_precisions and not model.tied_spherical:
        d = d + eps * gd
    if config.train_weights and not model.tied_spherical:
        w = w + eps * gpi
    return d, w


@dataclass
class CollapseThresholds:
    single_weight: float = 0.95
    degenerate_spread: float = 1e-3
    degenerate_resp: float = 1e-3
    sparse_weight_factor: float = 10.0


def detect_collapse(
    model: MixtureModel,
    data_stats: DataStats,
    probe: DataSet | None = None,
    thresholds: CollapseThresholds = CollapseThresholds(),
) -> str:
    """Classify the model as healthy / degenerate / single_component / sparse.

    Degenerate: all centroids coincide (relative to the data scale) and a
    probe batch gets uniform responsibilities.  Single-component: one weight
    absorbs nearly everything.  Sparse: too few components carry weight.
    """
    K = model.n_components
    w = model.weights
    if np.max(w) > thresholds.single_weight:
        return "single_component"
    if np.count_nonzero(w > 1.0 / (thresholds.sparse_weight_factor * K)) < math.ceil(K / 4):
        return "sparse"
    if _spread_below(model.centroids, thresholds.degenerate_spread * data_stats.scale):
        if probe is None:
            return "degenerate"
        gamma = mc.responsibilities(probe, model).gamma
        if np.max(np.abs(gamma - 1.0 / K)) < thresholds.degenerate_resp:
            return "degenerate"
    return "healthy"


def _max_pairwise_distance(mu: np.ndarray) -> np.float64:
    """Largest Euclidean distance between two rows of mu, row by row over
    the pairs j >= k: bitwise the max of the K x K broadcast
    ``np.linalg.norm`` matrix, without its K x K x D temporary.  Each sum of
    squares runs over the same contiguous last axis, (a - b)^2 == (b - a)^2,
    the correctly rounded sqrt is monotone, so the root of the largest sum
    is the largest root, and keeping the diagonal keeps its NaN for a row
    holding inf."""
    return np.sqrt(np.max([_largest_sq_distance_from(mu, k) for k in range(mu.shape[0])]))


def _largest_sq_distance_from(mu: np.ndarray, k: int) -> np.float64:
    """Largest squared distance from row k of mu to rows k, k+1, ..."""
    return np.add.reduce(np.square(mu[k:] - mu[k]), axis=1).max()


def _spread_below(mu: np.ndarray, threshold: float) -> bool:
    """``_max_pairwise_distance(mu) < threshold``, bit for bit, with the full
    maximum only when row 0 leaves the answer open.  Row 0's distances are
    the pairs (0, j) of the full maximum, the same floats, so their largest
    bounds it from below: when that clears the threshold, so does the
    spread.  A NaN clears nothing and takes the full path.  At K=25, D=784
    a model whose row 0 clears took 52 us against 605 us for the full
    maximum, which makes K row passes."""
    return (not np.sqrt(_largest_sq_distance_from(mu, 0)) >= threshold
            and _max_pairwise_distance(mu) < threshold)


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
    if model.tied_spherical:
        _tied_terms(state)
    return state


def run(config: TrainConfig, data: DataSet, resume: dict | None = None) -> TrainState:
    """Run the configured number of iterations and return the final state.

    Deterministic under a fixed seed; a run resumed from a checkpoint (model,
    iteration, rng state) continues exactly where the original left off.
    The minibatch indices come from ``_batch_indices``, which draws them in
    blocks and leaves the rng stream of one draw per step.
    """
    mc._require_finite(data.samples)
    state = make_state(config, data, resume)
    if state.t == 0:
        if config.loss_regime != "exact":
            _regime_kernel(state, config, _sigma(config, 0))
        _log_row(state, config)
    for idx in _batch_indices(config, state.rng, data.count, state.t):
        batch = mc._trusted_dataset(data.samples[idx], {"batch": True})
        sgd_step(state, batch, config)
    return state


def _batch_indices(config: TrainConfig, rng: np.random.Generator, N: int, t0: int):
    """The row indices of the minibatches of steps t0 .. total_iters - 1.

    Sampling with replacement draws the indices of up to ``DRAW_BLOCK // B``
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
    if config.shuffle == "epoch":
        perm = None
        for t in range(t0, T):
            start = (t * B) % N
            if perm is None or start == 0:
                perm = rng.permutation(N)
            yield perm.take(range(start, start + B), mode="wrap")
        return
    steps = max(1, DRAW_BLOCK // B)
    for t in range(t0, T, steps):
        yield from rng.integers(0, N, size=(min(steps, T - t), B))


def train(config: TrainConfig, data: DataSet, resume: dict | None = None):
    """Convenience wrapper around :func:`run` returning (model, history)."""
    state = run(config, data, resume)
    return state.model, state.history
