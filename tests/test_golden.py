"""Golden trajectories: short seeded runs of every loss regime, hashed.

Each digest covers the final model arrays and every history row, so a change
meant to preserve behaviour must leave all of them unchanged, bit for bit.
They were recorded with numpy 2.4 on x86-64; another numpy or BLAS build may
round differently, and then the digests have to be recorded again from an
unchanged commit on that build.
"""

import hashlib

import numpy as np
import pytest

from conftest import four_cluster_data
from somgmm.sombridge import SomView, verify_equivalence
from somgmm.topology import AnnealingSchedule, GridTopology, build_kernel
from somgmm.trainer import TrainConfig, train

T = 300


def _config(regime, batch_size, tied=False, trained=False):
    return TrainConfig(
        regime, 4, T,
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
    "smoothed_untied_batch3": _config("smoothed", 3),
    "smoothed_tied_batch1": _config("smoothed", 1, tied=True),
}

GOLDEN = {
    "exact_batch4_trained":
        "42bd0e2e74a2e6948e5357c2bc0024cd43f374c00279013fa9a30d3d5828ac2b",
    "max_component_untied_batch1":
        "842186d36a13aeafa3538f8adb476d5b24f6a9b3251aee0063a4c455a25f751d",
    "smoothed_untied_batch3":
        "c27ddfb22d5838daf2cef2eca182a83e8f7f825dad319079907ca861618fa53e",
    "smoothed_tied_batch1":
        "c35fda4c768a9bdd529aa3c73c486c759d9bfc973123ebca5ed63ab99d431046",
    "verify_equivalence":
        "615ab2bcb9da259def071f2d7a9e2a4cfa8060f72680953bb6a345a6305dba4e",
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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trajectory_digest(name):
    model, history = _run(name)
    assert len(history) == T // 25 + 1
    digest = _digest([model.weights, model.centroids, model.precision_roots],
                     history)
    assert digest == GOLDEN[name]


def test_verify_equivalence_digest():
    model, _ = _run("smoothed_tied_batch1")
    topology = GridTopology("2d", 4, True)
    view = SomView(model, topology, build_kernel(topology, 0.5))
    report = verify_equivalence(four_cluster_data(6), view)
    digest = _digest([report.lhs, report.rhs,
                      [report.constant, report.max_abs_err]])
    assert digest == GOLDEN["verify_equivalence"]
