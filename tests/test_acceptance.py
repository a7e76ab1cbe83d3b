"""Acceptance suite: one test per shipping criterion, each printing a single
PASS/FAIL line (run with ``pytest -s`` to see them as they go).
"""

import time

import numpy as np
import pytest

from conftest import (
    CLUSTER_STD,
    annealed_benchmark_config,
    blob_images,
    cluster_means,
    four_cluster_data,
    fraction_winner,
    matched_rmse,
    numeric_grad,
    plain_benchmark_config,
    random_data,
    random_model,
)
from somgmm import cli, trainer
from somgmm.io import load_checkpoint, load_csv, load_idx, save_checkpoint, save_csv, write_idx
from somgmm.model import (
    DataSet,
    MixtureModel,
    full_log_likelihood,
    log_joint_matrix,
    max_component_log_likelihood,
    smoothed_log_likelihood,
)
from somgmm.inference import batch_scores, sample, assign_cluster
from somgmm.sombridge import SomView, bmu, som_update, verify_equivalence
from somgmm.topology import AnnealingSchedule, GridTopology, NeighborhoodKernel, build_kernel
from somgmm.trainer import (
    DataStats,
    TrainConfig,
    detect_collapse,
    grad_exact,
    grad_smoothed,
    make_state,
    neighborhood_pull,
    project_weight_gradient,
    run,
    sgd_step,
)

from test_io import make_idx_bytes


def _report(num, desc, ok):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _close(analytic, numeric):
    return np.all(np.abs(analytic - numeric) <= 1e-4 * np.abs(numeric) + 1e-7)


def test_01_gradients_match_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 50:
        K = int(rng.choice([1, 4, 9]))
        D = int(rng.choice([1, 3, 8]))
        N = int(rng.integers(2, 17))
        m = random_model(rng, K, D)
        batch = random_data(rng, N, D)
        top = GridTopology("1d" if K == 1 else "2d", K)
        kernel = build_kernel(top, float(rng.uniform(0.3, 1.5)))
        ident = NeighborhoodKernel(np.eye(K), 0.0)

        # Skip argmax-tie points: both hard regimes need a stable winner.
        lj = log_joint_matrix(batch, m)
        margins = []
        for g in (ident.g, kernel.g):
            scores = np.sort(lj @ g.T, axis=1)
            margins.append(np.inf if K == 1 else np.min(scores[:, -1] - scores[:, -2]))
        if min(margins) <= 1e-3:
            continue
        checked += 1

        cases = [
            (grad_exact(batch, m), lambda: full_log_likelihood(batch, m)),
            (grad_smoothed(batch, m, ident),
             lambda: max_component_log_likelihood(batch, m)),
            (grad_smoothed(batch, m, kernel),
             lambda: smoothed_log_likelihood(batch, m, kernel)),
        ]
        for (gmu, gd, gpi), loss in cases:
            assert _close(gmu, numeric_grad(loss, m, "centroids"))
            assert _close(gd, numeric_grad(loss, m, "precision_roots"))
            assert _close(gpi, numeric_grad(loss, m, "weights"))
    elapsed = time.monotonic() - start
    _report(1, f"analytic gradients of all 3 losses match central differences "
               f"on 50 instances in {elapsed:.1f}s", elapsed < 30.0)


def test_02_max_component_bounds_full_likelihood():
    rng = np.random.default_rng(102)
    violations = 0
    for _ in range(1000):
        K = int(rng.integers(1, 8))
        D = int(rng.integers(1, 6))
        m = random_model(rng, K, D)
        data = random_data(rng, int(rng.integers(1, 20)), D)
        if max_component_log_likelihood(data, m) > full_log_likelihood(data, m):
            violations += 1
    _report(2, f"lower-bound property held on 1000 instances "
               f"({violations} violations)", violations == 0)


def test_03_kronecker_limit():
    rng = np.random.default_rng(103)
    ok = True
    top25 = GridTopology("2d", 25)
    for _ in range(20):
        m = random_model(rng, 25, 3)
        data = random_data(rng, 10, 3)
        hard = max_component_log_likelihood(data, m)
        # Identity fast path: exact equality.
        tiny = build_kernel(top25, 1e-8)
        ok &= smoothed_log_likelihood(data, m, tiny) == hard
        # sigma = 1e-3 on the 5x5 grid: within 1e-9.
        small = build_kernel(top25, 1e-3)
        ok &= abs(smoothed_log_likelihood(data, m, small) - hard) <= 1e-9
    _report(3, "smoothed loss collapses onto the max-component loss as the "
               "kernel approaches a Kronecker delta", ok)


def test_04_energy_identity_on_tied_models():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        K = int(rng.choice([1, 4, 9, 16]))
        D = int(rng.integers(1, 7))
        m = random_model(rng, K, D, tied=True)
        top = GridTopology("1d" if K == 1 else "2d", K)
        view = SomView(m, top, build_kernel(top, float(rng.uniform(0.2, 2.0))))
        report = verify_equivalence(random_data(rng, 15, D), view)
        worst = max(worst, report.max_abs_err)
    _report(4, f"smoothed loss equals the affine map of the SOM energy on 100 "
               f"tied instances (max abs err {worst:.3e})", worst <= 1e-10)


def test_05_update_rules_bitwise_identical():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(100):
        K = int(rng.choice([4, 9]))
        D = int(rng.integers(1, 6))
        m = random_model(rng, K, D, tied=True)
        sigma = float(rng.uniform(0.3, 1.5))
        lr = float(rng.uniform(0.005, 0.3))
        eps = lr * m.tied_precision_root ** 2
        x = rng.normal(scale=2.0, size=D)

        cfg = TrainConfig(
            "smoothed", K, 10,
            eps_schedule=AnnealingSchedule(lr, lr, 0, 10),
            sigma_schedule=AnnealingSchedule(sigma, sigma, 0, 10),
            tied_spherical=True, seed=0,
        )
        data = DataSet(x[None, :])
        state = make_state(cfg, data)
        state.model = m.copy()
        sgd_step(state, data, cfg)

        top = GridTopology("2d", K)
        view = SomView(m.copy(), top, build_kernel(top, sigma))
        som_update(view, x, eps)
        ok &= bool(np.array_equal(view.prototypes, state.model.centroids))
    _report(5, "prototype-map update and tied smoothed-regime SGD step agree "
               "bitwise on 100 cases under the eps/d^2 rate mapping", ok)


def test_06_collapse_taxonomy_and_stationarity():
    rng = np.random.default_rng(106)
    data = DataSet(rng.normal(size=(400, 3)) * [1.0, 2.0, 0.5])
    stats = DataStats.from_data(data)
    mean, var = data.samples.mean(axis=0), data.samples.var(axis=0)
    ok = True

    # Degenerate: every component at the data mean with the ML variance.
    deg = MixtureModel(np.full(4, 0.25), np.tile(mean, (4, 1)),
                       np.tile(1.0 / np.sqrt(var), (4, 1)))
    gmu, gd, gpi = grad_exact(data, deg)
    norm = np.sqrt(np.linalg.norm(gmu) ** 2 + np.linalg.norm(gd) ** 2
                   + np.linalg.norm(project_weight_gradient(gpi, deg.weights)) ** 2)
    ok &= norm < 1e-10
    ok &= detect_collapse(deg, stats, data) == "degenerate"

    # Single component: one weight absorbs everything, sitting at the ML fit.
    w = np.full(4, 1e-12)
    w[0] = 1.0 - 3e-12
    centroids = rng.normal(scale=5.0, size=(4, 3))
    centroids[0] = mean
    droots = np.ones((4, 3))
    droots[0] = 1.0 / np.sqrt(var)
    single = MixtureModel(w, centroids, droots)
    gmu, gd, gpi = grad_smoothed(data, single, NeighborhoodKernel(np.eye(4), 0.0))
    norm = np.sqrt(np.linalg.norm(gmu) ** 2 + np.linalg.norm(gd) ** 2
                   + np.linalg.norm(project_weight_gradient(gpi, single.weights)) ** 2)
    ok &= norm < 1e-10
    ok &= detect_collapse(single, stats, data) == "single_component"

    _report(6, "degenerate and single-component constructions are stationary "
               "(projected gradient norm < 1e-10) and correctly labeled", ok)


@pytest.fixture(scope="module")
def benchmark_runs():
    """100-seed annealed and plain runs on the four-cluster benchmark,
    shared by criteria 7 and 8."""
    annealed, plain = [], []
    for seed in range(100):
        data = four_cluster_data(1000 + seed)
        targets = cluster_means(data)

        cfg = annealed_benchmark_config()
        cfg.seed = seed
        state = run(cfg, data)
        annealed.append((state.history[-1].diagnosis,
                         matched_rmse(state.model, targets)))

        cfg = plain_benchmark_config()
        cfg.seed = seed
        state = run(cfg, data)
        plain.append(state.history[-1].diagnosis)
    return annealed, plain


def test_07_annealed_benchmark_reproduces_repeated_runs(benchmark_runs):
    start = time.monotonic()
    annealed, _ = benchmark_runs
    good = sum(1 for diag, rmse in annealed
               if diag == "healthy" and rmse <= 0.1 * CLUSTER_STD)
    elapsed = time.monotonic() - start
    _report(7, f"annealed smoothed regime ends healthy with matched centroid "
               f"RMSE <= 0.1*std on {good}/100 seeds", good >= 95 and elapsed < 300)


def test_08_annealing_beats_plain_max_component(benchmark_runs):
    annealed, plain = benchmark_runs
    bad_annealed = sum(1 for diag, _ in annealed if diag != "healthy")
    bad_plain = sum(1 for diag in plain if diag != "healthy")
    _report(8, f"non-healthy runs: {bad_plain}/100 without annealing vs "
               f"{bad_annealed}/100 with", bad_plain > bad_annealed)


def test_09_sampling_sanity():
    centers = np.array([[6.0, 6.0], [6.0, -6.0], [-6.0, 6.0], [-6.0, -6.0]])
    m = MixtureModel(np.full(4, 0.25), centers, np.ones((4, 2)),
                     tied_spherical=True)
    gen = DataSet(sample(m, 10 ** 4, np.random.default_rng(109)))
    lo, hi = gen.samples.min(), gen.samples.max()
    noise = DataSet(np.random.default_rng(110).uniform(lo, hi, (10 ** 4, 2)))
    separation = batch_scores(gen, m).mean() > batch_scores(noise, m).mean()

    from scipy import stats as sstats
    ks = np.array([assign_cluster(x, m) for x in gen.samples])
    pvalue = sstats.chisquare(np.bincount(ks, minlength=4)).pvalue
    _report(9, f"generated samples outscore matched uniform noise and tied "
               f"component selection is uniform (chi-square p={pvalue:.3f})",
            separation and pvalue > 0.01)


def test_10_io_round_trips_and_resume(tmp_path):
    rng = np.random.default_rng(110)
    ok = True

    raw = make_idx_bytes(rng.integers(0, 256, (8, 5, 5)).astype(np.uint8))
    (tmp_path / "a.idx").write_bytes(raw)
    write_idx(load_idx(tmp_path / "a.idx"), tmp_path / "b.idx")
    ok &= (tmp_path / "b.idx").read_bytes() == raw

    data = DataSet(rng.normal(size=(200, 3)))
    save_csv(data, tmp_path / "d.csv")
    ok &= bool(np.all(np.abs(load_csv(tmp_path / "d.csv").samples - data.samples)
                      < 1e-9))

    from test_io import TestCheckpoint
    ckpt = TestCheckpoint()._ckpt(rng)
    save_checkpoint(tmp_path / "m.ckpt", ckpt)
    back = load_checkpoint(tmp_path / "m.ckpt")
    ok &= bool(np.array_equal(back.model.centroids, ckpt.model.centroids))
    ok &= bool(np.array_equal(back.model.weights, ckpt.model.weights))
    ok &= bool(np.array_equal(back.model.precision_roots,
                              ckpt.model.precision_roots))

    bench = four_cluster_data(7)
    T = 200
    cfg = annealed_benchmark_config(T)
    cfg.seed = 23
    full = run(cfg, bench)
    cfg_half = annealed_benchmark_config(T)
    cfg_half.seed = 23
    cfg_half.total_iters = 120
    half = run(cfg_half, bench)
    cfg_rest = annealed_benchmark_config(T)
    cfg_rest.seed = 23
    resumed = run(cfg_rest, bench, resume={
        "model": half.model, "t": half.t,
        "rng_state": half.rng.bit_generator.state,
    })
    ok &= bool(np.array_equal(resumed.model.centroids, full.model.centroids))

    _report(10, "IDX/CSV/checkpoint round trips are bitwise (CSV to 1e-9) and "
                "an interrupted run resumes to identical parameters", ok)


def _mixture_sample(seed, K, D, n=2000, noise_sd=0.7):
    """K centroids drawn N(0, 1) per dimension and n noisy draws around them."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((K, D))
    labels = rng.integers(0, K, n)
    return centres, DataSet(centres[labels] + noise_sd * rng.standard_normal((n, D)))


def _bound_gap(data, model):
    return full_log_likelihood(data, model) - max_component_log_likelihood(data, model)


def test_11_max_component_bound_tightens_with_dimension():
    """The paper's SOM energy approximates the GMM log-likelihood, and the
    approximation is particularly good in high dimensions: the gap between
    the exact log-likelihood and the max-component bound lies in [0, log K]
    and does not grow with D."""
    K, dims, T = 9, (2, 8, 32, 128, 784), 1000
    ok = True
    gaps = {}
    for seed in (0, 1, 2):
        row = []
        for D in dims:
            centres, data = _mixture_sample(seed, K, D)
            model = MixtureModel(np.full(K, 1.0 / K), centres,
                                 np.full((K, D), 1.0 / 0.7), tied_spherical=True)
            row.append(_bound_gap(data, model))
        gaps[seed] = row
        ok &= all(0.0 <= g <= np.log(K) for g in row)
        ok &= all(hi <= lo for lo, hi in zip(row, row[1:]))
        # The same claim on maps trained by annealed smoothing.
        trained = []
        for D in (dims[0], dims[-1]):
            _, data = _mixture_sample(seed, K, D)
            cfg = TrainConfig(
                "smoothed", K, T,
                eps_schedule=AnnealingSchedule(0.1, 0.005, 0.3 * T, 0.8 * T),
                sigma_schedule=AnnealingSchedule(1.0, 0.01, 0.2 * T, 0.6 * T),
                init_dsq=1.0 / 0.49, tied_spherical=True, seed=seed, diag_every=T,
            )
            trained.append(_bound_gap(data, run(cfg, data).model))
        ok &= 0.0 <= trained[1] <= trained[0] <= np.log(K)
    worst = {D: max(gaps[s][i] for s in gaps) for i, D in enumerate(dims)}
    _report(11, "exact log-likelihood minus max-component bound lies in "
                f"[0, log K] and does not grow with D (worst gap per D: "
                + ", ".join(f"{D}: {g:.2g}" for D, g in worst.items()) + ")", ok)


def _near_tie_case(rng):
    """A tied model and a sample x at or next to a tie of its best units.

    x and the offset v are dyadic (multiples of 1/64 and 2^-10), so x + v
    and x + (signs and permutation of v) are exact and equally far from x.
    Kinds: two such prototypes (x on their bisector), one duplicated, every
    prototype at that distance, or every prototype equal; the others lie
    at least twice as far.  Half the cases then nudge one entry of x or of
    a tied prototype by 1 to 3 ulps.  Offsets reach 1e6."""
    K, D = int(rng.choice([4, 9])), int(rng.integers(1, 6))
    offset = float(rng.choice([0.0, 1.0, -1e3, 1e6]))
    x = offset + np.round(64 * rng.normal(size=D)) / 64
    v = (np.round(1024 * rng.normal(size=D)) + rng.choice([-1, 1], D)) / 1024
    far = rng.normal(size=(K, D))
    far *= rng.uniform(2, 3, (K, 1)) * np.linalg.norm(v) / np.linalg.norm(far, axis=1, keepdims=True)
    mu = x + far

    def mirrored():
        return x + rng.choice([-1, 1], D) * rng.permutation(v)

    kind = int(rng.integers(4))
    tied = rng.choice(K, 2, replace=False) if kind < 2 else np.arange(K)
    if kind == 0:
        mu[tied[0]], mu[tied[1]] = x + v, mirrored()
    elif kind == 1:
        mu[tied] = x + v
    elif kind == 2:
        for j in tied:
            mu[j] = mirrored()
    else:
        mu[:] = x + v
    if rng.random() < 0.5:
        target = x if rng.random() < 0.5 else mu[rng.choice(tied)]
        i = int(rng.integers(D))
        for _ in range(int(rng.integers(1, 4))):
            target[i] = np.nextafter(target[i], rng.choice([-np.inf, np.inf]))
    d = float(rng.uniform(0.4, 2.5))
    model = MixtureModel(np.full(K, 1.0 / K), mu, np.full((K, D), d), tied_spherical=True)
    return model, x


def test_14_one_exact_winner_on_near_ties():
    """The SOM identity on the cases where rounding could break it: on
    near-tied and tied winners, under annealed and identity kernels, the
    prototype-map update and the tied SGD step agree bitwise, and both pick
    the winner of exact rational arithmetic."""
    rng = np.random.default_rng(114)
    ok, cases, undecided = True, 2400, 0
    for _ in range(cases):
        model, x = _near_tie_case(rng)
        K = model.n_components
        top = GridTopology("2d", K)
        lr = float(rng.uniform(0.005, 0.3))
        eps = lr * model.tied_precision_root ** 2
        if rng.random() < 0.5:
            sigma = float(rng.uniform(0.3, 1.5))
            kernel = build_kernel(top, sigma)
            cfg = TrainConfig("smoothed", K, 10, eps_schedule=AnnealingSchedule(lr, lr, 0, 10),
                              sigma_schedule=AnnealingSchedule(sigma, sigma, 0, 10),
                              tied_spherical=True, seed=0)
        else:
            kernel = NeighborhoodKernel(np.eye(K), 0.0)
            cfg = TrainConfig("max_component", K, 10,
                              eps_schedule=AnnealingSchedule(lr, lr, 0, 10),
                              tied_spherical=True, seed=0)
        mu = model.centroids
        winner = fraction_winner(kernel.g, x, mu)
        undecided += not trainer._tied_winner(kernel.g, x, mu, x - mu)[1]
        want = mu.copy()
        neighborhood_pull(want, eps * kernel.g[winner], x - want)

        data = DataSet(x[None, :])
        state = make_state(cfg, data)
        state.model = model.copy()
        sgd_step(state, data, cfg)
        view = SomView(model.copy(), top, kernel)
        ok &= bmu(x, view) == winner
        som_update(view, x, eps)
        ok &= view.prototypes.tobytes() == state.model.centroids.tobytes() == want.tobytes()
    _report(14, f"prototype-map update and tied SGD step agree bitwise and pick "
                f"the exact winner on {cases} near-tie cases ({undecided} left to "
                f"the exact fallback)", ok and undecided > cases // 10)


def test_cli_end_to_end_on_image_subset(tmp_path):
    """Full-scale configuration executes on a 500-image IDX subset and emits
    the visualization artifacts without a numeric abort."""
    imgs = blob_images(np.random.default_rng(111), 500)
    data_path = tmp_path / "digits.idx"
    data_path.write_bytes(make_idx_bytes(imgs))

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""
loss_regime = smoothed
components = 25
total_iters = 24000
eps0 = 0.05
eps_inf = 0.009
sigma0 = 1.2
sigma_inf = 0.01
t0 = 0.3T
t_inf = 0.8T
init_dsq = 5
tied = true
seed = 0
diag_every = 2000
data = {data_path}
data_format = idx
output_dir = {tmp_path / 'out'}
image_rows = 28
image_cols = 28
""")
    rc = cli.main(["train", "--config", str(cfg)])
    out = tmp_path / "out"
    ckpt = load_checkpoint(out / "model.ckpt") if rc == 0 else None
    pgm = (out / "centroids.pgm").read_bytes() if rc == 0 else b""
    history = (out / "history.csv").read_text().splitlines() if rc == 0 else []
    ok = (
        rc == 0
        and ckpt is not None
        and ckpt.iteration == 24000
        and ckpt.model.n_components == 25
        and pgm.startswith(b"P5\n" + b"144 144\n")  # 5*28 + 4 separators
        and len(history) == 14  # header + t=0 + 12 cadence rows
        and all(row.split(",")[4] != "" for row in history[1:])
    )
    _report(0, "CLI trains the full-scale configuration on a 500-image IDX "
               "subset and emits checkpoint, centroid sheet and schedule trace",
            ok)
