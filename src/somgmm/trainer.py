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
    _is_identity,
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

# Margin of the tied winner's guard over its rounding bound
# (``_tied_winner``); the measured worst error over the bound is in
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
    """A run in progress.  A tied model's d and weights, frozen like every
    model's, are fixed for the run: ``make_state`` validates the starting
    model and keeps ``tied_terms = (d, weights, p, one_row, mu)`` with the
    scalar ``p = d^2`` of the pull, whether the one-row pull is exact and
    the centroids it was judged on (see ``_tied_terms``), for the update
    ``_tied_update`` that the step shares with ``sombridge.som_update``.  A
    tied step uses them while the model holds those same arrays, d and the
    weights still read-only; another model, a copy included, or arrays made
    writeable again, are validated and get fresh terms first."""

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
            g = mc._kernel_matrix(model, kernel)
            mc._check_dims(batch, model)
            _tied_update(model.centroids, g, batch.samples[0], eps * terms[2],
                         terms[3] and kernel.is_identity)
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
    """The terms (d, weights, p, one_row, mu) of the state's tied model, made
    afresh when its d, weights or centroids are not the arrays they were
    made from, or d or the weights were made writeable again: the model is
    validated, p is the pull's scalar d^2, and one_row says that the
    centroids mu held no -0.0 when the terms were made (see
    ``_tied_update``)."""
    terms, model = state.tied_terms, state.model
    d, weights, mu = model.precision_roots, model.weights, model.centroids
    if (terms is None or terms[0] is not d or terms[1] is not weights
            or terms[4] is not mu or d.flags.writeable or weights.flags.writeable):
        model.validate()
        one_row = not np.any(np.signbit(mu) & (mu == 0.0))
        terms = state.tied_terms = (d, weights, model.tied_precision_root ** 2, one_row, mu)
    return terms


def _tied_winner(g: np.ndarray, x: np.ndarray, mu: np.ndarray, diff: np.ndarray):
    """The winner for one row x of a tied model, from ``diff = x - mu``:
    the least V_k = sum_j g_kj ||x - mu_j||^2 over the float inputs, lowest
    index on exact ties, and whether the fast path settled it (so diff is
    finite).  ``sombridge.bmu`` and ``_tied_update``, behind
    ``sombridge.som_update`` and the tied step, take their winner from here.

    A tied model has one normaliser b and one precision P, so the smoothed
    score of row k is b r_k - (P/2) V_k with row sums r_k = sum_j g_kj;
    with unit row sums, as in the paper, the best score has the least V,
    the map's energy.

    Fast path: ``u = g @ s`` with s the row norms of diff as batched BLAS
    dot products, one read of diff.  The first index w of the least entry
    u1 wins when the runner-up u2 clears
    u2 - u1 > F n (1.01 eps u2 + 2^-1074), n = D + K + 2,
    F = ``TIED_GUARD_FACTOR``.  The bound, with unit roundoff e = eps / 2
    and g_n = n e / (1 - n e) <= 1.01 n e, for couplings >= 0 with row
    sums near 1 (every ``build_kernel`` kernel): the difference, its
    square and a sum of D products in any order, fused or not, put each
    s_j within g_(D+2) of ||x - mu_j||^2 (a subnormal difference is
    exact), the smoothing products and their sum add g_K, and each of the
    D + K products behind a u that falls below the normal range adds at
    most 2^-1075.  So |u_k - V_k| <= g_n V_k + (D+K+1) 2^-1075 =: g_n V_k + c.
    If V_k <= V_w, then u_k - u1 <= 2 g_n V_k + 2c, and V_k <= V_w <=
    (u1 + c) / (1 - g_n) <= (u_k + c) / (1 - g_n); so k != w loses once
    u_k - u1 > 2 g_n u_k + (D+K+1) 2^-1074, the test with F = 1 at u_k.
    F = 2 also covers the rounding of the test itself and the terms in c.
    u_k - u1 - 2 g_n u_k grows with u_k, so the runner-up's test settles
    every k.  The gap is strict, so exact ties fall back.  ``sum(s)`` is
    tested first: a finite sum makes diff, s and u finite (an overflowing
    u fails the gap), so a NaN or inf never reaches the sort.  The few
    values are compared as Python floats, which costs less than numpy
    calls on arrays this small.  Unlike ``einsum``, the dot products
    report overflow: a finite diff whose squared norm overflows (entries
    beyond about 1.3e154) warns with numpy's overflow ``RuntimeWarning``,
    as the step's own subtraction and pull do for larger ones, and its
    inf sum falls back.

    Otherwise the winner is ``_exact_tied_winner``'s.  When the sum was
    finite and g is the identity, so that V_k needs row k alone, only the
    candidates are measured: the rows k that fail the test at u_k,
    u_k - u1 <= F n (1.01 eps u_k + 2^-1074); w beats every other row.
    K = 1 needs neither.
    """
    K, D = diff.shape
    if K == 1:
        return 0, True
    s = np.matmul(diff[:, None, :], diff[:, :, None]).ravel()
    rows = None
    if math.isfinite(sum(s.tolist())):
        u = (g @ s).tolist()
        u1, u2 = sorted(u)[:2]
        bound = TIED_GUARD_FACTOR * (D + K + 2)
        if u2 - u1 > bound * (1.01 * _EPS * u2 + _TINY):
            return u.index(u1), True
        if _is_identity(g):
            rows = [k for k, uk in enumerate(u) if uk - u1 <= bound * (1.01 * _EPS * uk + _TINY)]
    return _exact_tied_winner(g, x, mu, rows), False


def _exact_tied_winner(g: np.ndarray, x: np.ndarray, mu: np.ndarray, rows=None) -> int:
    """The least V_k = sum_j g_kj ||x - mu_j||^2, lowest index on ties,
    computed exactly in Python integers: every float is n / 2^m
    (``float.as_integer_ratio``), so x and the finite rows of mu, and
    apart from them g, are integers on one common scale.  Equal rows have
    equal distances, so each distinct row is measured once.  A finite x
    and mu whose difference would overflow a float stay exact.  A
    non-finite entry in x or in row j of mu puts mu_j infinitely far: every
    k with g_kj > 0 gets V_k = inf, and when every V is infinite the winner
    is 0.  Given ``rows`` (the identity kernel's candidates, see
    ``_tied_winner``), only those rows are measured and the others count
    as infinitely far.
    """
    K, D = mu.shape
    sq = [math.inf] * K
    distinct = {}  # distinct finite row -> the indices j that hold it
    if np.isfinite(x).all():
        finite = np.isfinite(mu).all(axis=1)
        for j in (np.flatnonzero(finite).tolist() if rows is None
                  else [j for j in rows if finite[j]]):
            distinct.setdefault(tuple(mu[j].tolist()), []).append(j)
    if distinct:
        ints = _on_common_scale(x.tolist() + [v for row in distinct for v in row])
        xs = ints[:D]
        for n, near in enumerate(distinct.values(), 1):
            q = sum((a - b) ** 2 for a, b in zip(xs, ints[n * D:(n + 1) * D]))
            for j in near:
                sq[j] = q
    gs = _on_common_scale(g.ravel().tolist())
    v = [sum(c * q for c, q in zip(gs[k * K:(k + 1) * K], sq) if c) for k in range(K)]
    return v.index(min(v))


def _on_common_scale(values: list) -> list:
    """Finite floats as integers in units of the least power of two that
    divides them all: n * (scale // d) for each ratio n / d."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    return [n * (scale // d) for n, d in ratios]


def _tied_update(mu: np.ndarray, g: np.ndarray, x: np.ndarray, rate: float, one_row: bool):
    """The tied single-sample update, in place, behind both
    ``sombridge.som_update`` (rate epsilon) and the tied step of
    ``sgd_step`` (rate eps * p, p the run's d^2, so d and the weights are
    never read): x - mu is taken once, the winner w is ``_tied_winner``'s,
    and the pull scales that difference by ``rate * g[w]``.

    With ``one_row`` set and the winner settled by the fast path (so diff
    is finite), only row w is pulled, through one-row views.  The step
    sets it for the identity kernel when ``_tied_terms`` found no -0.0 in
    the centroids: a zero coefficient changes a finite entry only when it
    is -0.0 and x_i >= 0 (to +0.0), and a pull never makes a -0.0, so the
    one-row pull is then bitwise the full pull.
    """
    diff = backend._difference(x, mu)
    w, settled = _tied_winner(g, x, mu, diff)
    if settled and one_row:
        row = slice(w, w + 1)
        neighborhood_pull(mu[row], rate * g[w, row], diff[row])
    else:
        neighborhood_pull(mu, rate * g[w], diff)


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
    if model.tied_spherical:
        _tied_terms(state)
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
    one_row = config.batch_size == 1
    for idx in _batch_indices(config, state.rng, data.count, state.t):
        rows = samples[idx[0], None] if one_row else samples[idx]
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
