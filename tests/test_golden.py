"""Golden trajectories: short seeded runs of every loss regime, hashed.

Each digest covers the final model arrays and every history row, so a change
meant to preserve behaviour must leave all of them unchanged, bit for bit.
A K=25, D=64 tied run covers a shared precision root of sqrt(3), which
stays exactly sqrt(3) for the whole run, and a neighbourhood annealed until
its off-diagonal couplings are exact zeros; its digest was recorded again
when d came to be set once per run, because averaging d on every step had
moved sqrt(3) by an ulp, twice, at 25 x 64.
One more digest covers the per-row output of ``somgmm cluster`` and
``somgmm score --reference`` on a trained model, and another the labels of
``somgmm cluster`` and the per-row ``outlier_score`` values on a K=25,
D=784 tied checkpoint trained on blob images, the shape of the benchmark's
inference workload; it was recorded before the one-row kernel copied x
into every row of its difference instead of broadcasting it.
The tied max_component batch-1 run covers the identity-kernel branch of the
tied single-sample step; its digest was recorded before that step kept its
settled precision terms on the training state.  It equals the untied
max_component digest: with d = 1 and frozen weights, the tied pull and the
untied gradient step round the same products; for the same reason the tied
smoothed batch-3 run equals the untied one.  The tied batch-3 and batch-4
runs were recorded while every such step re-averaged the shared precision
root; they pin that a tied minibatch or ``exact`` step changes only the
centroids.
The end state of each run's bit generator, which a checkpoint saves, is
pinned too; it was recorded while the run drew its minibatch indices with
one rng call per step.
The two untied batch-1 runs with trained weights and precisions cover the
one-row branch of ``grad_smoothed``; their digests were recorded before that
branch existed, while every batch went through the N-axis winner rows and
einsum moments.  Both runs end in a single-component collapse, so they also
pin the weight floor and the precision clamp on that path.
They were recorded with numpy 2.4 on x86-64; another numpy or BLAS build may
round differently, and then the digests have to be recorded again from an
unchanged commit on that build.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from conftest import blob_images, four_cluster_data
from somgmm import cli, inference
from somgmm.io import Checkpoint, load_checkpoint, load_idx, save_checkpoint, save_csv
from somgmm.model import DataSet
from somgmm.sombridge import SomView, verify_equivalence
from somgmm.topology import AnnealingSchedule, GridTopology, build_kernel
from somgmm.trainer import TrainConfig, run, train
from test_io import make_idx_bytes

T = 300


def _config(regime, batch_size, tied=False, trained=False, components=4):
    return TrainConfig(
        regime, components, T,
        eps_schedule=AnnealingSchedule(0.1, 0.005, 0.3 * T, 0.8 * T),
        sigma_schedule=(AnnealingSchedule(1.0, 0.05, 0.2 * T, 0.6 * T)
                        if regime == "smoothed" else None),
        batch_size=batch_size, init_dsq=1.0, tied_spherical=tied,
        train_weights=trained, train_precisions=trained,
        seed=17, diag_every=25,
    )


RUNS = {
    "exact_batch4_trained": _config("exact", 4, trained=True),
    "max_component_untied_batch1": _config("max_component", 1),
    "max_component_untied_batch1_trained": _config("max_component", 1, trained=True),
    "max_component_tied_batch1": _config("max_component", 1, tied=True),
    "smoothed_untied_batch1_trained": _config("smoothed", 1, trained=True),
    "smoothed_untied_batch3": _config("smoothed", 3),
    "smoothed_tied_batch1": _config("smoothed", 1, tied=True),
    "smoothed_tied_batch3": _config("smoothed", 3, tied=True),
    "exact_tied_batch4": _config("exact", 4, tied=True),
}

GOLDEN = {
    "exact_batch4_trained":
        "42bd0e2e74a2e6948e5357c2bc0024cd43f374c00279013fa9a30d3d5828ac2b",
    "max_component_untied_batch1":
        "842186d36a13aeafa3538f8adb476d5b24f6a9b3251aee0063a4c455a25f751d",
    "max_component_tied_batch1":
        "842186d36a13aeafa3538f8adb476d5b24f6a9b3251aee0063a4c455a25f751d",
    "max_component_untied_batch1_trained":
        "4d170fe5b440f4a5ebc6bcbcdfeb112bb26e7bf4f333ea84080bcd0fb29178b5",
    "smoothed_untied_batch1_trained":
        "408d9797057513c30ebfdafe554941739541c6c897f09fba9d70e4c927829056",
    "smoothed_untied_batch3":
        "c27ddfb22d5838daf2cef2eca182a83e8f7f825dad319079907ca861618fa53e",
    "smoothed_tied_batch1":
        "c35fda4c768a9bdd529aa3c73c486c759d9bfc973123ebca5ed63ab99d431046",
    "smoothed_tied_batch3":
        "c27ddfb22d5838daf2cef2eca182a83e8f7f825dad319079907ca861618fa53e",
    "exact_tied_batch4":
        "4291ccb083280c20f0ee3145b24a7665f5b38e0e0aaeef7156412e84f3dde1e7",
    "verify_equivalence":
        "615ab2bcb9da259def071f2d7a9e2a4cfa8060f72680953bb6a345a6305dba4e",
    "inference":
        "f8e5210f51fc0172e0918f1a2f759dd7763e05e1e120cf7e56020ebfa30cd3fa",
    "inference_k25_d784":
        "c84cf30145694a79eb21734fedab93977689473e66df7a8dcb268900c6df2b50",
    "smoothed_tied_k25_d64":
        "6a70a4b1196cd63fae2fdbcb36bc7bd9a2e3baadd3433cfdd67afe8144b8701b",
}

# The end state of the run's bit generator, which a checkpoint saves: it
# depends only on the seed, the batch size and the number of steps.
GOLDEN_RNG = {
    "exact_batch4_trained":
        "389a39f84c0377ed0e5d67b969d412d8e4b59317c461e31e90a571a034c14137",
    "exact_tied_batch4":
        "389a39f84c0377ed0e5d67b969d412d8e4b59317c461e31e90a571a034c14137",
    "max_component_tied_batch1":
        "4ec7c574d3033e1f1003c0f084ceeec752416654dfd80287664da9842a6c2992",
    "max_component_untied_batch1":
        "4ec7c574d3033e1f1003c0f084ceeec752416654dfd80287664da9842a6c2992",
    "max_component_untied_batch1_trained":
        "4ec7c574d3033e1f1003c0f084ceeec752416654dfd80287664da9842a6c2992",
    "smoothed_untied_batch1_trained":
        "4ec7c574d3033e1f1003c0f084ceeec752416654dfd80287664da9842a6c2992",
    "smoothed_tied_batch1":
        "4ec7c574d3033e1f1003c0f084ceeec752416654dfd80287664da9842a6c2992",
    "smoothed_tied_batch3":
        "ac9051527afffdaa9250d9b74886dcf952012f9e9e9336136525013f1e3c7753",
    "smoothed_untied_batch3":
        "ac9051527afffdaa9250d9b74886dcf952012f9e9e9336136525013f1e3c7753",
}


def _digest(arrays, history=()):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    for row in history:
        h.update(f"{row.t},{row.loss!r},{row.sigma!r},{row.epsilon!r},"
                 f"{row.diagnosis}\n".encode())
    return h.hexdigest()


def _run(name):
    return train(RUNS[name], four_cluster_data(5))


def _rng_digest(rng):
    """sha256 of the bit generator state, as a checkpoint saves it."""
    state = json.dumps(rng.bit_generator.state, sort_keys=True)
    return hashlib.sha256(state.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trajectory_digest(name):
    model, history = _run(name)
    assert len(history) == T // 25 + 1
    digest = _digest([model.weights, model.centroids, model.precision_roots],
                     history)
    assert digest == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_end_rng_state_digest(name):
    state = run(RUNS[name], four_cluster_data(5))
    assert state.t == T
    assert _rng_digest(state.rng) == GOLDEN_RNG[name]


def test_tied_k25_high_dim_digest():
    # sqrt(3) tiled over 25 x 64 averages to a value one ulp away, so a
    # per-step average of d would move it; sigma = 0.01 leaves only the
    # diagonal of the kernel nonzero.
    config = TrainConfig(
        "smoothed", 25, T,
        eps_schedule=AnnealingSchedule(0.1, 0.005, 0.3 * T, 0.8 * T),
        sigma_schedule=AnnealingSchedule(2.0, 0.01, 0.2 * T, 0.6 * T),
        init_dsq=3.0, tied_spherical=True, seed=29, diag_every=25,
    )
    rng = np.random.default_rng(23)
    centres = rng.normal(scale=3.0, size=(6, 64))
    data = DataSet(centres[rng.integers(0, 6, 600)] + rng.standard_normal((600, 64)))
    state = run(config, data)
    model = state.model
    assert np.all(model.precision_roots == math.sqrt(3.0))
    assert np.all(model.weights == 1.0 / 25)
    assert np.array_equal(state.kernel.g, np.eye(25))
    digest = _digest([model.weights, model.centroids, model.precision_roots],
                     state.history)
    assert digest == GOLDEN["smoothed_tied_k25_d64"]


def test_verify_equivalence_digest():
    model, _ = _run("smoothed_tied_batch1")
    topology = GridTopology("2d", 4, True)
    view = SomView(model, topology, build_kernel(topology, 0.5))
    report = verify_equivalence(four_cluster_data(6), view)
    digest = _digest([report.lhs, report.rhs,
                      [report.constant, report.max_abs_err]])
    assert digest == GOLDEN["verify_equivalence"]


def test_inference_digest(tmp_path, capsys):
    config = _config("smoothed", 1, tied=True, components=9)
    model, _ = train(config, four_cluster_data(5))
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, Checkpoint(model, "smoothed", config.topology(),
                                     config.eps_schedule, config.sigma_schedule,
                                     T, config.seed))
    data, reference = str(tmp_path / "rows.csv"), str(tmp_path / "reference.csv")
    # Wide enough that some rows fall outside every cluster.
    save_csv(DataSet(np.random.default_rng(11).normal(scale=6.0, size=(300, 2))), data)
    save_csv(four_cluster_data(6), reference)
    h = hashlib.sha256()
    for argv in (["cluster", "--model", ckpt, "--data", data],
                 ["score", "--model", ckpt, "--data", data, "--reference", reference]):
        assert cli.main(argv) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == GOLDEN["inference"]


def test_inference_k25_d784_digest(tmp_path, capsys):
    # The README reference schedule, shortened, on 300 blob images; the
    # queries are 190 more blobs and 10 uniform-noise images.
    T784 = 2000
    config = TrainConfig(
        "smoothed", 25, T784,
        eps_schedule=AnnealingSchedule(0.05, 0.009, 0.3 * T784, 0.8 * T784),
        sigma_schedule=AnnealingSchedule(1.2, 0.01, 0.3 * T784, 0.8 * T784),
        init_dsq=5.0, tied_spherical=True, seed=7, diag_every=T784,
    )
    rng = np.random.default_rng(41)
    train_path, query_path = tmp_path / "train.idx", tmp_path / "query.idx"
    train_path.write_bytes(make_idx_bytes(blob_images(rng, 300)))
    noise = rng.integers(0, 256, (10, 28, 28))
    query_path.write_bytes(make_idx_bytes(np.concatenate([blob_images(rng, 190), noise])))
    model, _ = train(config, load_idx(train_path))
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, Checkpoint(model, "smoothed", config.topology(),
                                     config.eps_schedule, config.sigma_schedule,
                                     T784, config.seed))
    assert cli.main(["cluster", "--model", ckpt, "--data", str(query_path)]) == 0
    labels = capsys.readouterr().out
    assert len(set(labels.split())) > 5
    loaded = load_checkpoint(ckpt).model
    scores = [inference.outlier_score(x, loaded) for x in load_idx(query_path).samples]
    h = hashlib.sha256(labels.encode())
    h.update(np.array(scores).tobytes())
    assert h.hexdigest() == GOLDEN["inference_k25_d784"]
