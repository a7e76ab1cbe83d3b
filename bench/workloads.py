"""The benchmark's workloads: input generation, the timed operations and the
checks on their outputs.

Every input is generated from the workload seed; the program sees only the
generated arrays (``fourcluster``) or files (``digits_train``,
``digits_infer``).  Library and CLI entry points are looked up on their
modules at call time, so the tracer's wrappers see every call.
"""

import contextlib
import hashlib
import itertools
import json
import math
import re
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import somgmm.cli
import somgmm.inference
import somgmm.trainer
from somgmm.exceptions import NumericsError
from somgmm.model import DataSet
from somgmm.topology import AnnealingSchedule

from clock import PlainClock

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Relative tolerance between the program's scores and the oracle's.
SCORE_RTOL = 1e-9
# Rows whose two best joint log-densities are closer than this (relative)
# are ambiguous and skipped when comparing cluster labels.
TIE_MARGIN = 1e-9
# Largest energy-identity error accepted from verify-equivalence.
EQUIVALENCE_TOL = 1e-10
SCORE_WINDOW = 10
SCORE_PERCENTILE = 1.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    fc_configs: int = 6          # four-cluster datasets per run
    fc_iters: int = 4000         # T of each four-cluster training run
    fc_queries: int = 2000       # rows scored and clustered per config
    fc_sample_n: int = 20000     # rows sampled per config
    images: int = 500            # training images (28 x 28 blobs)
    train_iters: int = 24000     # T of the reference CLI run
    diag_every: int = 2000
    train_queries: int = 2000    # digits_train query images and sampled rows
    queries: int = 20000         # digits_infer query images
    setup_iters: int = 4800      # T of the checkpoint trained in set-up
    infer_sample_n: int = 2000   # rows drawn by digits_infer's sample
    setups: int = 3              # set-up repetitions per run


FULL = Sizes()
TINY = Sizes(fc_configs=2, fc_iters=200, fc_queries=50, fc_sample_n=100, images=40,
             train_iters=300, diag_every=100, train_queries=30, queries=300,
             setup_iters=200,
             infer_sample_n=20, setups=2)


@dataclass
class OpSample:
    """Timings of one workload operation as clock marks: ``wall`` lists the
    (start, end) intervals the operation spent in the program and ``rates``
    maps a rate metric to (units of work, start, end)."""

    wall: list = field(default_factory=list)
    rates: dict = field(default_factory=dict)


class Ledger:
    """Counts checked operations.  Each distinct operation is attempted and
    checked once; a repeat (another pass, or the traced phase) must give
    bitwise the same output digest, or the operation fails.

    A ``soft`` failure is a statistical-quality miss that the paper expects
    on a few seeds; any other failure marks the run incorrect.
    """

    def __init__(self):
        self.digests = {}
        self.failed_ops = set()
        self.hard_failure = False
        self.messages = []

    @property
    def attempted(self):
        return len(self.digests)

    @property
    def failed(self):
        return len(self.failed_ops)

    def record(self, op, digest, problems, soft=False):
        """Record one execution; ``problems()`` lists check failures and is
        only evaluated the first time ``op`` is seen."""
        if op not in self.digests:
            self.digests[op] = digest
            found = problems()
            if found:
                self._fail(op, "; ".join(found), hard=not soft)
        elif self.digests[op] != digest:
            self._fail(op, "output differs from its first execution", hard=True)

    def fail(self, op, message):
        self.digests.setdefault(op, None)
        self._fail(op, message, hard=True)

    def _fail(self, op, message, hard):
        self.failed_ops.add(op)
        self.hard_failure |= hard
        self.messages.append(f"{op}: {message}")


def sha256(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Oracle: direct-difference log-joints, independent of the package

def oracle_log_joints(weights, centroids, precision_roots, X, divisor=1.0, chunk=64):
    """N x K log(pi_k) + log p_k(x_n) by direct differences; rows of ``X``
    are divided by ``divisor`` first (255 turns IDX bytes into pixels the
    way the package's loader does).  Small chunks keep the oracle's own
    memory out of the peak-RSS figure."""
    with np.errstate(divide="ignore"):
        const = (np.log(weights) + np.log(precision_roots).sum(axis=1)
                 - centroids.shape[1] * HALF_LOG_2PI)
    psq = precision_roots ** 2
    out = np.empty((X.shape[0], centroids.shape[0]))
    for lo in range(0, X.shape[0], chunk):
        rows = X[lo:lo + chunk] / divisor
        diff = rows[:, None, :] - centroids[None, :, :]
        out[lo:lo + chunk] = const - 0.5 * (psq * diff * diff).sum(axis=2)
    return out


def trailing_means(scores, window):
    sums = np.zeros_like(scores)
    counts = np.zeros_like(scores)
    for k in range(window):
        sums[k:] += scores[:scores.size - k]
        counts[k:] += 1
    return sums / counts


def _close(a, b, rtol=SCORE_RTOL):
    return np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))


def check_scores(scores, means, verdicts, lj, ref_lj):
    """Compare a score report with the oracle: scores, trailing-window means
    and, away from the threshold, the outlier verdicts."""
    want = lj.max(axis=1)
    if scores.shape != want.shape:
        return [f"score rows {scores.size} != {want.size}"]
    problems = []
    if not np.all(_close(scores, want)):
        problems.append(f"{np.count_nonzero(~_close(scores, want))} scores off the oracle")
    want_means = trailing_means(want, SCORE_WINDOW)
    if not np.all(_close(means, want_means)):
        problems.append("window means off the oracle")
    if verdicts is not None:
        threshold = np.percentile(ref_lj.max(axis=1), SCORE_PERCENTILE)
        clear = ~_close(want_means, np.full_like(want_means, threshold))
        if np.any(verdicts[clear] != (want_means < threshold)[clear]):
            problems.append("outlier verdicts disagree with the oracle")
    return problems


def check_clusters(labels, lj):
    if labels.shape != (lj.shape[0],):
        return [f"{labels.size} cluster labels for {lj.shape[0]} rows"]
    top2 = np.sort(lj, axis=1)[:, -2:]
    clear = (top2[:, 1] - top2[:, 0]) > TIE_MARGIN * np.maximum(1.0, np.abs(top2[:, 1]))
    wrong = np.count_nonzero((labels != lj.argmax(axis=1)) & clear)
    return [f"{wrong} cluster labels differ from the oracle argmax"] if wrong else []


def check_samples(drawn, n, dim):
    if drawn.shape != (n, dim):
        return [f"sample shape {drawn.shape} != {(n, dim)}"]
    return [] if np.all(np.isfinite(drawn)) else ["non-finite sample values"]


# ---------------------------------------------------------------------------
# Workload base

class Workload:
    name = ""

    def __init__(self, sizes, seed, workdir):
        self.sizes = sizes
        self.seed = seed
        self.workdir = Path(workdir)
        self.ledger = Ledger()
        self.setup_rates = {}
        self.clock = PlainClock()

    def rng(self, *tags):
        return np.random.default_rng([self.seed, *tags])

    def setup(self):
        """Generate inputs and warm the code paths; repeated per run."""
        raise NotImplementedError

    def op(self, i):
        """Run operation ``i`` and return its OpSample."""
        raise NotImplementedError

    def expected_calls(self, n_ops):
        """Call counts the traced phase must show for ``n_ops`` operations:
        span name -> total calls."""
        raise NotImplementedError

    def counted_work(self, n_ops):
        """Counter totals the traced phase must show: name -> value."""
        return {}


# ---------------------------------------------------------------------------
# fourcluster: library train() on the acceptance 07/08 data

CENTERS = np.array([[5.0, 5.0], [5.0, -5.0], [-5.0, 5.0], [-5.0, -5.0]])
CLUSTER_STD = 1.0
PER_CLUSTER = 250


def annealed_config(T, seed):
    return somgmm.trainer.TrainConfig(
        "smoothed", 4, T,
        eps_schedule=AnnealingSchedule(0.1, 0.002, 0.5 * T, 0.85 * T),
        sigma_schedule=AnnealingSchedule(1.0, 0.01, 0.2 * T, 0.5 * T),
        grid="2d", tied_spherical=True, init_dsq=1.0, diag_every=1000, seed=seed)


def plain_config(T, seed):
    return somgmm.trainer.TrainConfig(
        "max_component", 4, T,
        eps_schedule=AnnealingSchedule(0.1, 0.002, 0.5 * T, 0.85 * T),
        grid="2d", init_mode="data_mean", init_dsq=1.0,
        train_weights=True, train_precisions=True, diag_every=1000, seed=seed)


def matched_rmse(centroids, targets):
    best = min(np.mean(np.sum((centroids - targets[list(p)]) ** 2, axis=1))
               for p in itertools.permutations(range(len(targets))))
    return float(np.sqrt(best))


class FourCluster(Workload):
    name = "fourcluster"

    def setup(self):
        self.cases = []
        for i in range(self.sizes.fc_configs):
            rng = self.rng(1, i)
            pts = np.concatenate([c + CLUSTER_STD * rng.standard_normal((PER_CLUSTER, 2))
                                  for c in CENTERS])
            targets = pts.reshape(4, PER_CLUSTER, 2).mean(axis=1)
            n_out = max(1, self.sizes.fc_queries // 20)
            labels = rng.integers(0, 4, self.sizes.fc_queries - n_out)
            inliers = CENTERS[labels] + rng.standard_normal((labels.size, 2))
            outliers = rng.uniform(-12, 12, (n_out, 2))
            queries = rng.permutation(np.concatenate([inliers, outliers]))
            model_seed, sample_seed = (int(s) for s in rng.integers(0, 2 ** 31, 2))
            self.cases.append((DataSet(pts), targets, DataSet(queries), model_seed,
                               sample_seed))
        data = self.cases[0][0]
        warm = max(2, self.sizes.fc_iters // 4)
        somgmm.trainer.run(annealed_config(warm, 0), data)
        somgmm.trainer.run(plain_config(warm, 0), data)

    def op(self, i):
        T = self.sizes.fc_iters
        case = i % len(self.cases)
        data, targets, queries, model_seed, sample_seed = self.cases[case]
        tag = f"config{case}"

        now = self.clock.now
        start = now()
        annealed = somgmm.trainer.run(annealed_config(T, model_seed), data)
        plain, plain_error = None, None
        try:
            plain = somgmm.trainer.run(plain_config(T, model_seed), data)
        except NumericsError as exc:  # an aborted run leaves the step counts open
            plain_error = exc
            self.aborted = True
        trained = now()
        model = annealed.model
        report = somgmm.inference.score_report(
            queries, model, window=SCORE_WINDOW, reference=data,
            percentile=SCORE_PERCENTILE)
        scored = now()
        labels = np.array([somgmm.inference.assign_cluster(x, model)
                           for x in queries.samples])
        clustered = now()
        n_drawn = self.sizes.fc_sample_n
        drawn = somgmm.inference.sample(model, n_drawn,
                                        np.random.default_rng(sample_seed))
        end = now()

        n = queries.count
        sample = OpSample([(start, end)], {
            "train_steps_per_s": (2 * T, start, trained),
            "score_rows_per_s": (n, trained, scored),
            "cluster_rows_per_s": (n, scored, clustered),
            "sample_rows_per_s": (n_drawn, clustered, end),
        })

        def annealed_problems():
            diagnosis = annealed.history[-1].diagnosis
            rmse = matched_rmse(model.centroids, targets)
            if diagnosis == "healthy" and rmse <= 0.1 * CLUSTER_STD:
                return []
            return [f"annealed run ended {diagnosis} with matched RMSE {rmse:.4g}"]

        def plain_problems():
            return [] if plain_error is None else [f"NumericsError: {plain_error}"]

        def model_digest(state):
            m = state.model
            return sha256(m.weights, m.centroids, m.precision_roots,
                          "|".join(r.diagnosis for r in state.history).encode())

        self.ledger.record(f"{tag}.annealed", model_digest(annealed),
                           annealed_problems, soft=True)
        self.ledger.record(f"{tag}.plain",
                           model_digest(plain) if plain else sha256(str(plain_error).encode()),
                           plain_problems, soft=True)
        lj = ref_lj = None
        if f"{tag}.score" not in self.ledger.digests:
            lj = oracle_log_joints(model.weights, model.centroids,
                                   model.precision_roots, queries.samples)
            ref_lj = oracle_log_joints(model.weights, model.centroids,
                                       model.precision_roots, data.samples)
        self.ledger.record(
            f"{tag}.score",
            sha256(report.scores, report.window_means, report.verdicts),
            lambda: check_scores(report.scores, report.window_means,
                                 report.verdicts, lj, ref_lj))
        self.ledger.record(f"{tag}.cluster", sha256(labels),
                           lambda: check_clusters(labels, lj))
        self.ledger.record(f"{tag}.sample", sha256(drawn),
                           lambda: check_samples(drawn, n_drawn, 2))
        return sample

    aborted = False

    def expected_calls(self, n_ops):
        T = self.sizes.fc_iters
        rows = sum(self.cases[i % len(self.cases)][2].count for i in range(n_ops))
        steps = {} if self.aborted else {
            "trainer.sgd_step": 2 * T * n_ops,
            "trainer.grad_smoothed": T * n_ops,      # plain: untied max_component
        }
        return {
            **steps,
            "trainer.run": 2 * n_ops,
            "trainer.neighborhood_pull": T * n_ops,  # annealed: tied, one sample
            "trainer.grad_exact": 0,
            "inference.score_report": n_ops,
            "inference.assign_cluster": rows,
            "inference.sample": n_ops,
        }


# ---------------------------------------------------------------------------
# digits: the README reference configuration through the CLI

IMAGE_SIDE = 28

REFERENCE_CONFIG = """\
loss_regime = smoothed
components = 25
total_iters = {T}
eps0 = 0.05
eps_inf = 0.009
sigma0 = 1.2
sigma_inf = 0.01
t0 = 0.3T
t_inf = 0.8T
init_dsq = 5
tied = true
seed = {seed}
diag_every = {diag_every}
data = {data}
data_format = idx
output_dir = {out}
image_rows = 28
image_cols = 28
"""


def blob_images(rng, n, block=1000):
    """28 x 28 byte images, each one bright Gaussian bump (sd 3 pixels) at a
    random centre; the recipe of the CLI acceptance test."""
    centres = rng.uniform(6, 22, (n, 2))
    axis = np.arange(IMAGE_SIDE)
    images = np.empty((n, IMAGE_SIDE, IMAGE_SIDE), dtype=np.uint8)
    for lo in range(0, n, block):
        c = centres[lo:lo + block]
        gy = np.exp(-(axis[None, :] - c[:, :1]) ** 2 / (2 * 3.0 ** 2))
        gx = np.exp(-(axis[None, :] - c[:, 1:]) ** 2 / (2 * 3.0 ** 2))
        images[lo:lo + block] = np.rint(255 * gy[:, :, None] * gx[:, None, :])
    return images


def write_idx(path, images):
    header = bytes([0, 0, 0x08, images.ndim])
    header += b"".join(int(d).to_bytes(4, "big") for d in images.shape)
    Path(path).write_bytes(header + images.tobytes())


def read_checkpoint(path):
    """The checkpoint's JSON header and its arrays, parsed without the package."""
    import io as _io
    raw = Path(path).read_bytes()
    magic, meta, binary, payload = raw.split(b"\n", 3)
    buf = _io.BytesIO(payload)
    arrays = [np.load(buf, allow_pickle=False) for _ in range(3)]
    return json.loads(meta), arrays


def parse_score_lines(text):
    rows = [line.split(",") for line in text.splitlines()]
    scores = np.array([float(r[0]) for r in rows])
    means = np.array([float(r[1]) for r in rows])
    verdicts = None
    if rows and len(rows[0]) > 2:
        verdicts = np.array([r[2] == "outlier" for r in rows])
    return scores, means, verdicts


def parse_csv_rows(text, dim):
    lines = text.splitlines()
    if any(line.count(",") != dim - 1 for line in lines):
        return np.empty((len(lines), 0))
    return np.array(",".join(lines).split(","), dtype=float).reshape(len(lines), dim)


class DigitsBase(Workload):
    """Shared CLI plumbing: every command runs in-process through
    ``somgmm.cli.main`` with stdout and stderr redirected to files."""

    def cli(self, name, argv):
        """Run one CLI command; return (exit code, stdout text, (start, end)
        clock marks)."""
        out = self.workdir / f"{name}.out"
        err = self.workdir / f"{name}.err"
        with open(out, "w") as fo, open(err, "w") as fe, \
                contextlib.redirect_stdout(fo), contextlib.redirect_stderr(fe):
            start = self.clock.now()
            try:
                rc = somgmm.cli.main(argv)
            except Exception:  # a traceback is a failed operation, not a crash
                traceback.print_exc()
                rc = None
            fo.flush()
            end = self.clock.now()
        if rc != 0:
            print(f"{self.name}: {' '.join(argv[:1])} exited {rc}: "
                  f"{err.read_text()[-2000:]}", file=sys.stderr)
        return rc, out.read_text(), (start, end)

    def write_training_set(self):
        images = blob_images(self.rng(2), self.sizes.images)
        self.train_pixels = images.reshape(images.shape[0], -1)
        self.train_idx = self.workdir / "digits.idx"
        write_idx(self.train_idx, images)

    def write_queries(self, n, tag):
        """n query images, 95% blobs and 5% uniform noise, in random order."""
        rng = self.rng(4, tag)
        n_noise = n // 20
        images = np.concatenate([
            blob_images(rng, n - n_noise),
            rng.integers(0, 256, (n_noise, IMAGE_SIDE, IMAGE_SIDE), dtype=np.uint8),
        ])
        images = images[rng.permutation(n)]
        self.queries = images.reshape(n, -1)
        self.query_idx = self.workdir / "queries.idx"
        write_idx(self.query_idx, images)

    def write_config(self, name, T, out):
        path = self.workdir / f"{name}.cfg"
        path.write_text(REFERENCE_CONFIG.format(
            T=T, seed=int(self.rng(3).integers(0, 2 ** 31)),
            diag_every=self.sizes.diag_every, data=self.train_idx, out=out))
        return path

    def history_rows(self, T):
        d = self.sizes.diag_every
        return 1 + 1 + T // d + (1 if T % d else 0)  # header, t=0, cadence

    def train_problems(self, rc, ckpt_path, out, T):
        if rc != 0:
            return [f"exit code {rc}"]
        meta, _ = read_checkpoint(ckpt_path)
        problems = []
        if meta["iteration"] != T:
            problems.append(f"checkpoint iteration {meta['iteration']} != {T}")
        rows = len((out / "history.csv").read_text().splitlines())
        if rows != self.history_rows(T):
            problems.append(f"history has {rows} lines, expected {self.history_rows(T)}")
        return problems

    def oracle(self, ckpt_path, pixels):
        _, (weights, centroids, droots) = read_checkpoint(ckpt_path)
        return oracle_log_joints(weights, centroids, droots, pixels, divisor=255.0)

    def inference_ops(self, tag, ckpt, data_idx, X, ref_lj, sample_n, sample):
        """score --reference, cluster and sample --out against one checkpoint."""
        rc_s, score_out, t_score = self.cli(
            "score", ["score", "--model", str(ckpt), "--data", str(data_idx),
                      "--reference", str(self.train_idx),
                      "--window", str(SCORE_WINDOW),
                      "--percentile", str(SCORE_PERCENTILE)])
        rc_c, cluster_out, t_cluster = self.cli(
            "cluster", ["cluster", "--model", str(ckpt), "--data", str(data_idx)])
        drawn_path = self.workdir / "drawn.csv"
        rc_d, _, t_sample = self.cli(
            "sample", ["sample", "--model", str(ckpt), "-n", str(sample_n),
                       "--seed", str(self.seed), "--out", str(drawn_path)])
        n = X.shape[0]
        sample.rates.update({
            "score_rows_per_s": (n, *t_score),
            "cluster_rows_per_s": (n, *t_cluster),
            "sample_rows_per_s": (sample_n, *t_sample),
        })
        sample.wall += [t_score, t_cluster, t_sample]
        drawn_text = drawn_path.read_text() if rc_d == 0 else ""
        cache = {}

        def lj():
            if "lj" not in cache:
                cache["lj"] = self.oracle(ckpt, X)
            return cache["lj"]

        def score_problems():
            if rc_s != 0:
                return [f"exit code {rc_s}"]
            return check_scores(*parse_score_lines(score_out), lj(), ref_lj())

        def cluster_problems():
            if rc_c != 0:
                return [f"exit code {rc_c}"]
            labels = np.array([int(v) for v in cluster_out.split()])
            return check_clusters(labels, lj())

        def sample_problems():
            if rc_d != 0:
                return [f"exit code {rc_d}"]
            return check_samples(parse_csv_rows(drawn_text, X.shape[1]),
                                 sample_n, X.shape[1])

        self.ledger.record(f"{tag}.score", sha256(score_out.encode()), score_problems)
        self.ledger.record(f"{tag}.cluster", sha256(cluster_out.encode()),
                           cluster_problems)
        self.ledger.record(f"{tag}.sample", sha256(drawn_text.encode()),
                           sample_problems)


class DigitsTrain(DigitsBase):
    name = "digits_train"

    def setup(self):
        self.write_training_set()
        self.write_queries(self.sizes.train_queries, 0)
        self.out = self.workdir / "out"
        self.config = self.write_config("run", self.sizes.train_iters, self.out)
        warm_out = self.workdir / "warm"
        warm = self.write_config("warm", max(2, self.sizes.train_iters // 100), warm_out)
        rc, _, _ = self.cli("warm", ["train", "--config", str(warm)])
        if rc != 0:
            raise RuntimeError("warm-up training failed")

    def op(self, i):
        T = self.sizes.train_iters
        ckpt = self.out / "model.ckpt"
        rc_t, train_out, t_train = self.cli("train", ["train", "--config", str(self.config)])
        rc_i, inspect_out, t_inspect = self.cli("inspect", ["inspect", "--model", str(ckpt)])
        rc_v, verify_out, t_verify = self.cli(
            "verify", ["verify-equivalence", "--model", str(ckpt),
                       "--data", str(self.train_idx)])
        sample = OpSample([t_train, t_inspect, t_verify],
                          {"train_steps_per_s": (T, *t_train)})
        artifacts = [ckpt, self.out / "centroids.pgm", self.out / "history.csv"]
        digest = sha256(train_out.encode(), *(p.read_bytes() for p in artifacts
                                              if p.exists()))
        self.ledger.record("train", digest,
                           lambda: self.train_problems(rc_t, ckpt, self.out, T))

        def inspect_problems():
            if rc_i != 0:
                return [f"exit code {rc_i}"]
            return [] if f"iteration: {T} " in inspect_out else ["inspect omits the iteration"]

        def verify_problems():
            # Only max_abs_err is parsed: on numpy 2 the constant prints as
            # np.float64(...), a known seed defect recorded in the README.
            if rc_v != 0:
                return [f"exit code {rc_v}"]
            m = re.search(r"max_abs_err=(\S+)", verify_out)
            if not m:
                return ["no max_abs_err in the output"]
            err = float(m.group(1))
            return [] if err <= EQUIVALENCE_TOL else [f"max_abs_err {err:.3g}"]

        self.ledger.record("inspect", sha256(inspect_out.encode()), inspect_problems)
        self.ledger.record("verify-equivalence", sha256(verify_out.encode()),
                           verify_problems)
        self.inference_ops("queries", ckpt, self.query_idx, self.queries,
                           lambda: self.oracle(ckpt, self.train_pixels),
                           self.sizes.train_queries, sample)
        return sample

    def expected_calls(self, n_ops):
        T = self.sizes.train_iters
        return {
            "cli.train": n_ops,
            "trainer.run": n_ops,
            "trainer.sgd_step": T * n_ops,
            "trainer.neighborhood_pull": T * n_ops,
            "trainer.grad_smoothed": 0,
            "io.save_checkpoint": n_ops,
            "io.load_checkpoint": 5 * n_ops,
            "sombridge.verify_equivalence": n_ops,
            "inference.assign_cluster": self.sizes.train_queries * n_ops,
        }


class DigitsInfer(DigitsBase):
    name = "digits_infer"

    def setup(self):
        self.write_training_set()
        self.write_queries(self.sizes.queries, 1)
        out = self.workdir / "model"
        T = self.sizes.setup_iters
        config = self.write_config("setup", T, out)
        rc, _, marks = self.cli("setup-train", ["train", "--config", str(config)])
        problems = self.train_problems(rc, out / "model.ckpt", out, T)
        if problems:
            raise RuntimeError(f"set-up training failed: {problems}")
        self.ckpt = out / "model.ckpt"
        self.setup_rates = {"train_steps_per_s": (T, *marks)}

    def op(self, i):
        sample = OpSample()
        self.inference_ops("queries", self.ckpt, self.query_idx, self.queries,
                           lambda: self.oracle(self.ckpt, self.train_pixels),
                           self.sizes.infer_sample_n, sample)
        return sample

    def expected_calls(self, n_ops):
        return {
            "trainer.sgd_step": 0,
            "topology.build_kernel": 0,
            "cli.score": n_ops,
            "cli.cluster": n_ops,
            "cli.sample": n_ops,
            "io.load_idx": 3 * n_ops,
            "io.save_csv": n_ops,
            "inference.assign_cluster": self.sizes.queries * n_ops,
        }

    def counted_work(self, n_ops):
        n, ref = self.sizes.queries, self.sizes.images
        return {"backend.log_joints.rows": (2 * n + ref) * n_ops}


WORKLOADS = {w.name: w for w in (FourCluster, DigitsTrain, DigitsInfer)}
