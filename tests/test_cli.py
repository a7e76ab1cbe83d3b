import re

import numpy as np
import pytest

from conftest import four_cluster_data
from somgmm import cli
from somgmm.exceptions import NumericsError
from somgmm.io import load_checkpoint, save_csv
from somgmm.model import DataSet
from test_io import make_idx_bytes


def write_training_setup(tmp_path, *, tied=True, seed=5, total_iters=600):
    """Small four-cluster CSV run; fast enough for several tests."""
    data_path = tmp_path / "train.csv"
    save_csv(four_cluster_data(seed), data_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""
loss_regime = smoothed
components = 4
total_iters = {total_iters}
grid = 2d
eps0 = 0.1
eps_inf = 0.005
sigma0 = 1.0
sigma_inf = 0.01
t0 = 0.3T
t_inf = 0.7T
init_dsq = 1.0
tied = {str(tied).lower()}
seed = {seed}
data = {data_path}
data_format = csv
output_dir = {tmp_path / 'out'}
image_rows = 1
image_cols = 2
""")
    return cfg


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    cfg = write_training_setup(tmp_path)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return tmp_path


class TestTrain:
    def test_artifacts_exist(self, trained):
        out = trained / "out"
        assert (out / "model.ckpt").exists()
        assert (out / "centroids.pgm").read_bytes().startswith(b"P5\n")
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "t,loss,sigma,epsilon,diagnosis"
        assert len(lines) == 2 + 600 // 100  # rows at t=0,100,...,600

    def test_checkpoint_records_provenance(self, trained):
        ckpt = load_checkpoint(trained / "out" / "model.ckpt")
        assert len(ckpt.provenance["data_sha256"]) == 64
        assert len(ckpt.provenance["config_sha256"]) == 64
        assert ckpt.iteration == 600
        assert ckpt.seed == 5
        assert ckpt.model.tied_spherical

    def test_deterministic_across_runs(self, tmp_path):
        # Provenance hashes embed tmp paths, so compare parameters and rng
        # state rather than raw bytes.
        ckpts = []
        for name in ("a", "b"):
            sub = tmp_path / name
            sub.mkdir()
            cfg = write_training_setup(sub, total_iters=200)
            assert cli.main(["train", "--config", str(cfg)]) == 0
            ckpts.append(load_checkpoint(sub / "out" / "model.ckpt"))
        a, b = ckpts
        assert np.array_equal(a.model.centroids, b.model.centroids)
        assert np.array_equal(a.model.weights, b.model.weights)
        assert np.array_equal(a.model.precision_roots, b.model.precision_roots)
        assert a.rng_state == b.rng_state

    def test_trains_from_idx_input(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, (60, 2, 2)).astype(np.uint8)
        data_path = tmp_path / "imgs.idx"
        data_path.write_bytes(make_idx_bytes(imgs))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"""
loss_regime = smoothed
components = 4
total_iters = 120
eps0 = 0.05
eps_inf = 0.01
sigma0 = 1.0
sigma_inf = 0.1
t0 = 0.3T
t_inf = 0.7T
tied = true
init_dsq = 1.0
seed = 1
data = {data_path}
data_format = idx
output_dir = {tmp_path / 'out'}
image_rows = 2
image_cols = 2
""")
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert load_checkpoint(tmp_path / "out" / "model.ckpt").model.dim == 4

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("loss_regime = smoothed\nwat = 1\n")
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_data_file_exit_2(self, tmp_path, capsys):
        cfg = write_training_setup(tmp_path)
        (tmp_path / "train.csv").unlink()
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "data error" in capsys.readouterr().err


class TestScoreAndCluster:
    def test_score_output_shape(self, trained, capsys):
        data = trained / "scoreme.csv"
        save_csv(DataSet(np.zeros((7, 2)) + 5.0), data)
        rc = cli.main(["score", "--model", str(trained / "out" / "model.ckpt"),
                       "--data", str(data), "--window", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        first = [float(tok) for tok in lines[0].split(",")]
        assert len(first) == 2 and np.isfinite(first).all()

    def test_score_with_reference_emits_verdicts(self, trained, capsys):
        ref = trained / "ref.csv"
        save_csv(four_cluster_data(9), ref)
        noise = trained / "noise.csv"
        save_csv(DataSet(np.full((4, 2), 60.0)), noise)
        rc = cli.main(["score", "--model", str(trained / "out" / "model.ckpt"),
                       "--data", str(noise), "--reference", str(ref),
                       "--window", "1", "--percentile", "1.0"])
        assert rc == 0
        for line in capsys.readouterr().out.splitlines():
            assert line.endswith("outlier")

    def test_cluster_prints_component_per_sample(self, trained, capsys):
        data = trained / "cl.csv"
        save_csv(four_cluster_data(2), data)
        rc = cli.main(["cluster", "--model", str(trained / "out" / "model.ckpt"),
                       "--data", str(data)])
        assert rc == 0
        labels = [int(tok) for tok in capsys.readouterr().out.split()]
        assert len(labels) == 1000
        assert set(labels) <= {0, 1, 2, 3}
        # A healthy run covers all four clusters with distinct components.
        assert len(set(labels)) == 4


class TestSample:
    def test_sample_to_file(self, trained, tmp_path):
        out = tmp_path / "drawn.csv"
        rc = cli.main(["sample", "--model", str(trained / "out" / "model.ckpt"),
                       "-n", "25", "--seed", "6", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 25

    def test_sample_deterministic(self, trained, capsys):
        outs = []
        for _ in range(2):
            assert cli.main(["sample", "--model",
                             str(trained / "out" / "model.ckpt"),
                             "-n", "5", "--seed", "42"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_zero_count_exit_1(self, trained, capsys):
        rc = cli.main(["sample", "--model", str(trained / "out" / "model.ckpt"),
                       "-n", "0", "--seed", "1"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err


class TestVerifyEquivalence:
    def test_tied_checkpoint_passes(self, trained, capsys):
        data = trained / "eq.csv"
        save_csv(four_cluster_data(4), data)
        rc = cli.main(["verify-equivalence",
                       "--model", str(trained / "out" / "model.ckpt"),
                       "--data", str(data), "--sigma", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        err = float(out.split("max_abs_err=")[1].split()[0])
        assert err <= 1e-10

    def test_output_prints_plain_floats(self, trained, capsys):
        data = trained / "eq.csv"
        save_csv(four_cluster_data(4), data)
        rc = cli.main(["verify-equivalence",
                       "--model", str(trained / "out" / "model.ckpt"),
                       "--data", str(data)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "np." not in out
        m = re.fullmatch(r"max_abs_err=(\S+) constant=(\S+)", out.strip())
        assert m is not None
        assert all(np.isfinite([float(v) for v in m.groups()]))

    def test_untied_checkpoint_exit_1(self, tmp_path, capsys):
        cfg = write_training_setup(tmp_path, tied=False, total_iters=100)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        data = tmp_path / "eq.csv"
        save_csv(four_cluster_data(4), data)
        rc = cli.main(["verify-equivalence",
                       "--model", str(tmp_path / "out" / "model.ckpt"),
                       "--data", str(data)])
        assert rc == 1


class TestInspectAndErrors:
    def test_inspect(self, trained, capsys):
        rc = cli.main(["inspect", "--model", str(trained / "out" / "model.ckpt")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "loss_regime: smoothed" in out
        assert "components: 4  dim: 2  tied: True" in out
        assert "provenance.data_sha256" in out

    def test_missing_model_exit_2(self, tmp_path, capsys):
        rc = cli.main(["inspect", "--model", str(tmp_path / "nope.ckpt")])
        assert rc == 2

    def test_corrupt_model_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        assert cli.main(["inspect", "--model", str(bad)]) == 2

    def test_unknown_subcommand_exit_1(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_numeric_abort_exit_3(self, monkeypatch, capsys):
        def boom(path):
            raise NumericsError("loss became non-finite", snapshot=None)

        monkeypatch.setattr(cli.sio, "load_checkpoint", boom)
        rc = cli.main(["inspect", "--model", "whatever.ckpt"])
        assert rc == 3
        assert "numeric abort" in capsys.readouterr().err
