import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import somgmm
from conftest import four_cluster_data
from somgmm import backend, cli, inference, io as sio
from somgmm.exceptions import NumericsError, UsageError
from somgmm.io import Checkpoint, load_checkpoint, save_checkpoint, save_csv
from somgmm.model import DataSet, MixtureModel
from somgmm.topology import AnnealingSchedule, GridTopology
from somgmm.trainer import TrainConfig
from test_io import make_idx_bytes


def package_env():
    """The environment for a child ``python -m somgmm`` that imports this
    somgmm."""
    path = [str(Path(somgmm.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


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


def test_config_keys_set_train_config_fields_once():
    # Every TrainConfig field but the two schedules, which to_train_config
    # builds from their own keys, is set by exactly one key, and a key that
    # names a field names a real one.
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    named = sorted(name for _, name in cli.CONFIG_KEYS.values() if name is not None)
    assert named == sorted(fields - {"eps_schedule", "sigma_schedule"})


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

    @staticmethod
    def write_idx_setup(tmp_path, format_line):
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
{format_line}
output_dir = {tmp_path / 'out'}
image_rows = 2
image_cols = 2
""")
        return cfg

    def test_trains_from_idx_input(self, tmp_path):
        cfg = self.write_idx_setup(tmp_path, "data_format = idx")
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert load_checkpoint(tmp_path / "out" / "model.ckpt").model.dim == 4

    def test_detects_idx_input_without_data_format(self, tmp_path):
        # data_format defaults to auto, as the --format of score does.
        cfg = self.write_idx_setup(tmp_path, "")
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert load_checkpoint(tmp_path / "out" / "model.ckpt").model.dim == 4

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("loss_regime = smoothed\nwat = 1\n")
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("t0 = 0.3T", "t0 = abcT"),
        ("sigma_inf = 0.01\n", ""),
        ("sigma0 = 1.0\n", ""),
        ("tied = true", "tied = maybe"),
        ("seed = 5", "seed = -1"),
        ("init_dsq = 1.0", "init_dsq = 1.0\ndiag_every = 0"),
        ("init_dsq = 1.0", "init_dsq = 1.0\ncentroid_scale = -1"),
        ("eps_inf = 0.005", "eps_inf = 5e-324"),
        ("sigma0 = 1.0", "sigma0 = inf"),
        ("image_rows = 1\nimage_cols = 2", "image_rows = -1\nimage_cols = -2"),
        ("seed = 5", "seed = 5\ntau_convention = continuous"),
        ("seed = 5", "seed = 5\nshuffle = replacement"),
        ("seed = 5", "seed = 5\nseed = 6"),
        ("grid = 2d", "grid = 2d\n# grid = 1d\nsigma0 = 1.0"),
        ("eps0 = 0.1", "eps0 = 0.05#x"),  # '#' after a value is part of it
        ("tied = true", "tied = true\ntrain_weights = true"),
        ("tied = true", "tied = true\ntrain_precisions = true"),
        # A size numpy cannot allocate on any machine: a K x K kernel.
        ("components = 4", "components = 100000000000000000000"),
        # A minibatch index array numpy cannot make on any machine.
        ("seed = 5", "seed = 5\nbatch_size = 1000000000000000000000000000000"),
        # The exact regime refuses the sigma keys before any size check;
        # test_oversized_exact_run_exit_1 drops them.
        ("loss_regime = smoothed\ncomponents = 4",
         "loss_regime = exact\ncomponents = 100000000000000000000"),
    ])
    def test_malformed_config_exit_1(self, tmp_path, capsys, old, new):
        cfg = write_training_setup(tmp_path)
        cfg.write_text(cfg.read_text().replace(old, new))
        assert cli.main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err
        assert "Traceback" not in err
        for line in new.splitlines():
            key = line.partition("#")[0].partition("=")[0].strip()
            if key and key not in cli.CONFIG_KEYS:
                assert f"unknown key {key!r}" in err
        # A key set twice is named with the lines of both settings.
        keys = [line.partition("#")[0].partition("=")[0].strip()
                for line in cfg.read_text().splitlines()]
        for key in set(keys) - {""}:
            at = [n for n, k in enumerate(keys, 1) if k == key]
            if len(at) > 1:
                assert f"line {at[1]}: key {key!r} repeats line {at[0]}" in err

    @staticmethod
    def without_sigma_keys(text):
        return text.replace("sigma0 = 1.0\n", "").replace("sigma_inf = 0.01\n", "")

    def test_oversized_exact_run_exit_1(self, tmp_path, capsys):
        # The exact regime has no kernel: its K x D centroids are refused.
        cfg = write_training_setup(tmp_path)
        text = cfg.read_text().replace("loss_regime = smoothed", "loss_regime = exact")
        text = text.replace("components = 4", "components = 100000000000000000000")
        cfg.write_text(self.without_sigma_keys(text))
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert "centroid matrix of shape" in capsys.readouterr().err

    @pytest.mark.parametrize("regime", ["exact", "max_component"])
    def test_sigma_keys_belong_to_the_smoothed_regime(self, tmp_path, capsys, regime):
        # Refused outside the smoothed regime; without them the run trains
        # and history.csv reports the sigma it trained with, 0.
        cfg = write_training_setup(tmp_path, total_iters=200)
        text = cfg.read_text().replace("loss_regime = smoothed", f"loss_regime = {regime}")
        cfg.write_text(text)
        assert cli.main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "sigma schedule" in err
        cfg.write_text(self.without_sigma_keys(text))
        assert cli.main(["train", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "history.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 and {row.split(",")[2] for row in rows} == {"0.0"}

    def test_undecodable_config_exit_1(self, tmp_path, capsys):
        cfg = write_training_setup(tmp_path)
        cfg.write_bytes(cfg.read_bytes().replace(b"grid = 2d", b"grid = 2d\xff"))
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_undecodable_data_exit_2(self, tmp_path, capsys):
        cfg = write_training_setup(tmp_path)
        data = tmp_path / "train.csv"
        data.write_bytes(data.read_bytes() + b"1.0,\xff\n")
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_image_shape_checked_before_training(self, tmp_path, capsys):
        cfg = write_training_setup(tmp_path, total_iters=50)
        cfg.write_text(cfg.read_text().replace("image_rows = 1", "image_rows = 3"))
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert "image shape" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.ckpt").exists()

    def test_output_dir_made_before_training(self, tmp_path, capsys, monkeypatch):
        # An output_dir under a regular file cannot be made; the command
        # exits 2 before it trains.
        cfg = write_training_setup(tmp_path, total_iters=20000)
        (tmp_path / "blocker").write_text("a file\n")
        cfg.write_text(cfg.read_text().replace(
            f"output_dir = {tmp_path / 'out'}", f"output_dir = {tmp_path / 'blocker' / 'out'}"))
        trained = []
        monkeypatch.setattr(cli, "train_run", lambda *args: trained.append(args))
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "data error" in capsys.readouterr().err
        assert trained == []

    def test_output_dir_left_empty_by_a_numeric_abort(self, tmp_path, capsys, monkeypatch):
        cfg = write_training_setup(tmp_path)

        def abort(*args):
            raise NumericsError("non-finite loss at iteration 0", snapshot=None)

        monkeypatch.setattr(cli, "train_run", abort)
        assert cli.main(["train", "--config", str(cfg)]) == 3
        assert list((tmp_path / "out").iterdir()) == []

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

    @pytest.mark.parametrize("flag, value", [
        ("--window", "0"), ("--percentile", "150"), ("--percentile", "-1"),
        ("--percentile", "nan"),
    ])
    def test_bad_window_or_percentile_exit_1(self, trained, capsys, flag, value):
        ref = trained / "ref.csv"
        save_csv(four_cluster_data(9), ref)
        rc = cli.main(["score", "--model", str(trained / "out" / "model.ckpt"),
                       "--data", str(ref), "--reference", str(ref), f"{flag}={value}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err

    def test_score_output_matches_per_line_formatting(self, trained, capsys):
        ref = trained / "ref.csv"
        save_csv(four_cluster_data(9), ref)
        queries = np.concatenate([four_cluster_data(3).samples[::50],
                                  np.full((3, 2), 60.0)])
        data = trained / "mixed.csv"
        save_csv(DataSet(queries), data)
        ckpt = trained / "out" / "model.ckpt"
        rc = cli.main(["score", "--model", str(ckpt), "--data", str(data),
                       "--reference", str(ref), "--window", "2"])
        assert rc == 0
        report = inference.score_report(
            sio.load_csv(data), load_checkpoint(ckpt).model, window=2,
            reference=sio.load_csv(ref), percentile=1.0)
        want = ""
        for i in range(report.scores.size):
            want += (f"{float(report.scores[i])!r},{float(report.window_means[i])!r},"
                     f"{'outlier' if report.verdicts[i] else 'inlier'}\n")
        out = capsys.readouterr().out
        assert out == want
        assert out.endswith("outlier\n") and "inlier\n" in out

    @pytest.mark.parametrize("with_reference", [False, True])
    def test_score_blocks_give_the_per_line_bytes(self, trained, capsys, monkeypatch,
                                                  with_reference):
        # Lines are formatted from tolist() and written a block at a time;
        # the bytes are those of one print per row of the float reprs.
        ref = trained / "ref.csv"
        save_csv(four_cluster_data(9), ref)
        queries = np.concatenate([four_cluster_data(4).samples[::37],
                                  np.full((2, 2), 60.0), np.full((1, 2), -1e6)])
        data = trained / "blocks.csv"
        save_csv(DataSet(queries), data)
        ckpt = trained / "out" / "model.ckpt"
        argv = ["score", "--model", str(ckpt), "--data", str(data), "--window", "3"]
        reference = None
        if with_reference:
            argv += ["--reference", str(ref)]
            reference = sio.load_csv(ref)
        report = inference.score_report(sio.load_csv(data), load_checkpoint(ckpt).model,
                                        window=3, reference=reference)
        want = io.StringIO()
        with contextlib.redirect_stdout(want):
            for i in range(report.scores.size):
                line = f"{float(report.scores[i])!r},{float(report.window_means[i])!r}"
                if report.verdicts is not None:
                    line += "," + ("outlier" if report.verdicts[i] else "inlier")
                print(line)
        for block in (4096, 7, 1):
            monkeypatch.setattr(cli, "SCORE_BLOCK", block)
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == want.getvalue()

    def test_cluster_calls_the_per_row_kernel_once_per_row(self, trained, capsys,
                                                           monkeypatch):
        # The benchmark's traced runs count one assign_cluster call and one
        # one-row log_joints call per clustered row.
        calls, rows = [], []

        def counting_assign(*args, _fn=inference.assign_cluster):
            calls.append(1)
            return _fn(*args)

        def counting_log_joints(*args, _fn=backend.log_joints):
            rows.append(args[3].shape[0])
            return _fn(*args)

        monkeypatch.setattr(inference, "assign_cluster", counting_assign)
        monkeypatch.setattr(backend, "log_joints", counting_log_joints)
        data = trained / "cl37.csv"
        save_csv(DataSet(four_cluster_data(4).samples[:37]), data)
        rc = cli.main(["cluster", "--model", str(trained / "out" / "model.ckpt"),
                       "--data", str(data)])
        assert rc == 0
        assert len(capsys.readouterr().out.split()) == 37
        assert len(calls) == 37
        assert rows == [1] * 37

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

    def test_stdout_matches_file_bytes(self, trained, tmp_path, capsysbinary):
        out = tmp_path / "drawn.csv"
        args = ["sample", "--model", str(trained / "out" / "model.ckpt"),
                "-n", "7", "--seed", "3"]
        assert cli.main(args + ["--out", str(out)]) == 0
        assert cli.main(args) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_split_stdout_matches_file_bytes(self, trained, tmp_path, capsys,
                                             monkeypatch):
        # Three parts through a captured sys.stdout and through --out.
        monkeypatch.setattr(backend, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(backend, "MAX_PARTS", 3)
        monkeypatch.setattr(sio, "MIN_PART_VALUES", 1)
        out = tmp_path / "drawn.csv"
        args = ["sample", "--model", str(trained / "out" / "model.ckpt"),
                "-n", "40", "--seed", "8"]
        assert cli.main(args + ["--out", str(out)]) == 0
        assert cli.main(args) == 0
        drawn = inference.sample(load_checkpoint(trained / "out" / "model.ckpt").model,
                                 40, np.random.default_rng(8))
        want = "".join(sio.csv_lines(drawn))
        assert capsys.readouterr().out == out.read_text() == want

    def test_python_dash_m_sample_at_split_size(self, tmp_path):
        # 400 x 784 values fill two parts of MIN_PART_VALUES.
        model = MixtureModel(np.full(4, 0.25),
                             np.random.default_rng(9).normal(size=(4, 784)),
                             np.random.default_rng(10).uniform(0.4, 2.5, (4, 784)))
        ckpt = tmp_path / "wide.ckpt"
        save_checkpoint(ckpt, Checkpoint(model, "max_component", GridTopology("2d", 4),
                                         AnnealingSchedule(0.1, 0.01, 0, 10), None, 10, 1))
        drawn = inference.sample(load_checkpoint(ckpt).model, 400, np.random.default_rng(2))
        want = "".join(sio.csv_lines(drawn)).encode()
        env = package_env()
        argv = [sys.executable, "-m", "somgmm", "sample", "--model", str(ckpt),
                "-n", "400", "--seed", "2"]
        out = tmp_path / "drawn.csv"
        to_file = subprocess.run(argv + ["--out", str(out)], env=env,
                                 capture_output=True, timeout=120)
        to_stdout = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
        assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
        assert to_stdout.stdout == out.read_bytes() == want

    @pytest.mark.parametrize("n, seed", [("0", "1"), ("3", "-1"),
                                         ("99999999999999999999", "1")],
                             ids=["count", "seed", "oversized"])
    def test_zero_count_exit_1(self, trained, capsys, n, seed):
        rc = cli.main(["sample", "--model", str(trained / "out" / "model.ckpt"),
                       "-n", n, "--seed", seed])
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

    def test_max_component_checkpoint_defaults_to_sigma_zero(self, tmp_path, capsys):
        # A checkpoint without a sigma schedule trained under the identity
        # kernel, and is checked under it when --sigma is not given.
        cfg = write_training_setup(tmp_path, total_iters=100)
        text = cfg.read_text().replace("loss_regime = smoothed", "loss_regime = max_component")
        cfg.write_text(text.replace("sigma0 = 1.0\n", "").replace("sigma_inf = 0.01\n", ""))
        assert cli.main(["train", "--config", str(cfg)]) == 0
        data = tmp_path / "eq.csv"
        save_csv(four_cluster_data(4), data)
        verify = ["verify-equivalence", "--model", str(tmp_path / "out" / "model.ckpt"),
                  "--data", str(data)]
        outs = []
        for extra in ([], ["--sigma", "0"], ["--sigma", "0.5"]):
            capsys.readouterr()
            assert cli.main(verify + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] != outs[2]

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

    @pytest.mark.parametrize("module", ["somgmm", "somgmm.cli"])
    def test_python_dash_m_runs_the_cli(self, tmp_path, module):
        env = package_env()
        for args, code, message in (
                (["inspect", "--model", str(tmp_path / "nope.ckpt")], 2, "data error"),
                ([], 1, "usage error")):
            out = subprocess.run([sys.executable, "-m", module, *args], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert out.returncode == code
            assert message in out.stderr and "Traceback" not in out.stderr

    def test_corrupt_model_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        assert cli.main(["inspect", "--model", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["train", "score", "sample"])
    def test_directory_input_exit_2(self, trained, tmp_path, capsys, command):
        cfg = write_training_setup(tmp_path)
        cfg.write_text(cfg.read_text().replace(
            f"data = {tmp_path / 'train.csv'}", f"data = {tmp_path}"))
        model = str(trained / "out" / "model.ckpt")
        argv = {
            "train": ["train", "--config", str(cfg)],
            "score": ["score", "--model", model, "--data", str(tmp_path)],
            "sample": ["sample", "--model", str(tmp_path), "-n", "2", "--seed", "1"],
        }[command]
        assert cli.main(argv) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        (b"SOMGMMCKPT 2\n", b"SOMGMMCKPT x\n"),
        (b'{"eps_schedule"', b'{"eps_schedule'),
        (b'"seed":', b'"sead":'),
        (b'"value_inf":', b'"value_imf":'),
        (b'"topology": {"kind": "2d", "n_components": 4, "periodic": true}',
         b'"topology": null'),
        (b'"kind": "2d"', b'"kind": "3d"'),
        (b'"n_components": 4', b'"n_components": 9'),
        (b'"provenance": {', b'"provenance": 7, "unused": {'),
        (b'"tied_spherical": true', b'"tied_spherical": false'),
    ])
    def test_malformed_checkpoint_header_exit_2(self, trained, tmp_path, capsys,
                                                old, new):
        raw = (trained / "out" / "model.ckpt").read_bytes()
        assert raw.count(old) >= 1
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw.replace(old, new, 1))
        assert cli.main(["inspect", "--model", str(bad)]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("array", ["weights", "centroids", "precision_roots"])
    def test_non_finite_parameters_rejected(self, tmp_path, capsys, monkeypatch,
                                            array):
        # Untied, so no tied-uniformity check can catch the NaN instead.
        arrays = {"weights": np.array([0.1, 0.2, 0.3, 0.4]),
                  "centroids": np.arange(8.0).reshape(4, 2),
                  "precision_roots": np.ones((4, 2))}
        arrays[array][1] = np.nan
        model = MixtureModel(arrays["weights"], arrays["centroids"],
                             arrays["precision_roots"])
        ckpt = Checkpoint(model, "max_component", GridTopology("2d", 4),
                          AnnealingSchedule(0.1, 0.01, 0, 10), None, 10, 1)
        bad = tmp_path / "nan.ckpt"
        with pytest.raises(UsageError, match=f"{array} must be finite"):
            save_checkpoint(str(bad), ckpt)
        # A file written without the check must not load either.
        monkeypatch.setattr(MixtureModel, "validate", lambda self: self)
        save_checkpoint(str(bad), ckpt)
        monkeypatch.undo()
        rows = tmp_path / "rows.csv"
        save_csv(four_cluster_data(3), rows)
        for argv in (["inspect", "--model", str(bad)],
                     ["cluster", "--model", str(bad), "--data", str(rows)]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert "data error" in captured.err and "must be finite" in captured.err
            assert captured.out == ""

    def test_unknown_subcommand_exit_1(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command", ["train", "sample"])
    def test_out_of_memory_exit_1(self, trained, tmp_path, monkeypatch, capsys, command):
        # A request too large for the machine (a huge K, batch_size or -n)
        # ends in numpy's MemoryError.  It is raised here, not allocated.
        text = ("Unable to allocate 7.28 TiB for an array with shape "
                "(1, 1000000000000) and data type int64")

        def too_large(*args, **kwargs):
            raise MemoryError(text)

        if command == "train":
            monkeypatch.setattr(cli, "train_run", too_large)
            argv = ["train", "--config", str(write_training_setup(tmp_path))]
        else:
            monkeypatch.setattr(cli.inference, "sample", too_large)
            argv = ["sample", "--model", str(trained / "out" / "model.ckpt"), "-n", "3",
                    "--seed", "1"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {text}\n"
        assert captured.out == ""

    def test_numeric_abort_exit_3(self, monkeypatch, capsys):
        def boom(path):
            raise NumericsError("loss became non-finite", snapshot=None)

        monkeypatch.setattr(cli.sio, "load_checkpoint", boom)
        rc = cli.main(["inspect", "--model", "whatever.ckpt"])
        assert rc == 3
        assert "numeric abort" in capsys.readouterr().err


# Values that probe number parsing and the checks behind it.
EDGE_VALUES = ["", "0", "-1", "9", "inf", "-inf", "nan", "1e308", "5e-324", "0.5T",
               "2T", "-1T", "infT", "true", "1d", "3d", "epoch", "literal", "exact",
               "data_mean", ".", "idx", "auto", "1_0", "\u0661"]

# Numbers at the edges of the numeric CLI flags' ranges.
NUMERIC_EDGES = [0, 1, -1, 100, 101, -0.0, 0.5, 1e-300, 2 ** 63, float("nan"),
                 float("inf"), float("-inf")]

FUZZ_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def run_cli(argv, stdout=None):
    """Exit code and stderr of one in-process CLI call; stdout goes to
    ``stdout``, or is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout or io.StringIO()):
        rc = cli.main(argv)
    return rc, err.getvalue()


class TestBoundaryFuzz:
    """Malformed inputs exit with a documented code, never a traceback."""

    @FUZZ_SETTINGS
    @given(line=st.integers(0, 100), value=st.one_of(
        st.sampled_from(EDGE_VALUES), st.text(max_size=12), st.binary(max_size=12)))
    def test_config_line_values(self, tmp_path, line, value):
        # total_iters stays 20 so no example trains for long; output_dir stays
        # inside tmp_path because every run writes its artifacts there.
        cfg = write_training_setup(tmp_path, total_iters=20)
        lines = [ln for ln in cfg.read_bytes().splitlines()
                 if b"=" in ln and not ln.startswith((b"total_iters", b"output_dir"))]
        key = lines[line % len(lines)].split(b"=")[0]
        lines[line % len(lines)] = key + b"= " + (
            value if isinstance(value, bytes) else value.encode())
        cfg.write_bytes(b"\n".join(lines + [b"total_iters = 20",
                                           f"output_dir = {tmp_path / 'out'}".encode()]))
        rc, err = run_cli(["train", "--config", str(cfg)])
        # 3 is the documented numeric abort, e.g. eps0 = 1e308 diverges.
        assert rc in (0, 1, 2, 3)
        assert "Traceback" not in err

    @FUZZ_SETTINGS
    @given(flag=st.sampled_from(["--window", "--percentile", "-n", "--seed", "--sigma"]),
           value=st.one_of(st.sampled_from(NUMERIC_EDGES), st.integers(-2 ** 70, 2 ** 70),
                           st.floats()))
    def test_numeric_flags(self, trained, flag, value):
        if flag == "-n" and isinstance(value, int):
            value = min(value, 20)  # every example draws that many rows
        model = str(trained / "out" / "model.ckpt")
        data = trained / "fuzz.csv"
        save_csv(DataSet(four_cluster_data(1).samples[:40]), data)
        score = ["score", "--model", model, "--data", str(data), "--reference", str(data)]
        sample = ["sample", "--model", model, "-n", "3", "--seed", "1"]
        verify = ["verify-equivalence", "--model", model, "--data", str(data)]
        argv = {"--window": score, "--percentile": score, "-n": sample, "--seed": sample,
                "--sigma": verify}[flag]
        # "--flag=value" keeps a negative value from reading as an option; the
        # last occurrence of a flag wins.
        out = io.StringIO()
        rc, err = run_cli(argv + [f"{flag}={value}"], stdout=out)
        assert rc in (0, 1, 2)
        assert "Traceback" not in err
        if rc == 0:  # a run that succeeds prints only finite numbers
            assert "nan" not in out.getvalue()

    @FUZZ_SETTINGS
    @given(edits=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255)),
                          min_size=1, max_size=4))
    def test_checkpoint_header_bytes(self, trained, tmp_path, edits):
        raw = bytearray((trained / "out" / "model.ckpt").read_bytes())
        header_len = raw.index(b"\n\x93NUMPY") + 1  # magic, JSON and BINARY lines
        for pos, byte in edits:
            raw[pos % header_len] = byte
        path = tmp_path / "mutated.ckpt"
        path.write_bytes(bytes(raw))
        rc, err = run_cli(["inspect", "--model", str(path)])
        assert rc in (0, 1, 2)
        assert "Traceback" not in err
