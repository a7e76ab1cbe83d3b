import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    annealed_benchmark_config,
    assert_frozen,
    four_cluster_data,
    plain_benchmark_config,
    random_model,
)
from somgmm import backend, cli, inference, io as sio
from somgmm.cli import CONFIG_PARSERS, to_train_config
from somgmm.exceptions import DataError, UsageError
from somgmm.io import (
    CHECKPOINT_VERSION,
    Checkpoint,
    csv_lines,
    emit_centroid_grid,
    emit_schedule_trace,
    load_checkpoint,
    load_config,
    load_csv,
    load_idx,
    save_checkpoint,
    save_csv,
    write_csv,
    write_idx,
)
from somgmm.model import DataSet, MixtureModel
from somgmm.sombridge import SomView, som_update
from somgmm.topology import AnnealingSchedule, GridTopology, build_kernel
from somgmm.trainer import HistoryRow, TrainConfig, make_state, run


def make_idx_bytes(images: np.ndarray) -> bytes:
    n, h, w = images.shape
    header = bytes([0, 0, 0x08, 3])
    header += n.to_bytes(4, "big") + h.to_bytes(4, "big") + w.to_bytes(4, "big")
    return header + images.astype(np.uint8).tobytes()


class TestIdx:
    def test_all_zero_images(self, tmp_path):
        path = tmp_path / "zeros.idx"
        path.write_bytes(make_idx_bytes(np.zeros((2, 28, 28), dtype=np.uint8)))
        data = load_idx(path)
        assert data.count == 2 and data.dim == 784
        assert np.all(data.samples == 0.0)

    def test_full_byte_scales_to_one(self, tmp_path):
        imgs = np.zeros((1, 2, 2), dtype=np.uint8)
        imgs[0, 0, 0] = 255
        path = tmp_path / "one.idx"
        path.write_bytes(make_idx_bytes(imgs))
        assert load_idx(path).samples[0, 0] == 1.0

    def test_byte_level_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = make_idx_bytes(rng.integers(0, 256, (5, 4, 3)).astype(np.uint8))
        src = tmp_path / "src.idx"
        dst = tmp_path / "dst.idx"
        src.write_bytes(raw)
        write_idx(load_idx(src), dst)
        assert dst.read_bytes() == raw

    @pytest.mark.parametrize("shape", [(5, 4, 3), (7,), (1, 1, 1)])
    def test_samples_are_the_scaled_bytes(self, tmp_path, shape):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, shape).astype(np.uint8)
        pixels.flat[0], pixels.flat[-1] = 0, 255
        dims = list(shape)
        raw = bytes([0, 0, 0x08, len(dims)])
        raw += b"".join(d.to_bytes(4, "big") for d in dims) + pixels.tobytes()
        path = tmp_path / "px.idx"
        path.write_bytes(raw)
        data = load_idx(path)
        flat = pixels.reshape(shape[0] if len(shape) > 1 else pixels.size, -1)
        want = flat.astype(np.float64) / 255.0
        assert data.samples.dtype == np.float64
        assert data.samples.flags.c_contiguous
        assert data.samples.shape == want.shape
        assert data.samples.tobytes() == want.tobytes()
        assert data.meta == {"source": str(path), "format": "idx", "idx_dims": dims,
                             "normalization": "byte/255"}

    def test_every_byte_scales_as_cast_then_divided(self, tmp_path):
        # load_idx divides in one pass with a float64 loop; the bits are
        # those of the cast followed by an in-place division.
        pixels = np.arange(256, dtype=np.uint8).reshape(16, 4, 4)
        path = tmp_path / "bytes.idx"
        path.write_bytes(make_idx_bytes(pixels))
        want = pixels.reshape(16, -1).astype(np.float64)
        want /= 255.0
        assert load_idx(path).samples.tobytes() == want.tobytes()

    # The cases the tests below do not cover; with them every DataError of
    # load_idx is raised by some test.
    @pytest.mark.parametrize("raw, match", [
        (b"\x00\x00\x08", "truncated IDX header"),
        (bytes([0, 0, 0x08, 3]) + (2).to_bytes(4, "big"), "dimension table"),
        (bytes([0, 0, 0x08, 2]) + (3).to_bytes(4, "big") + (0).to_bytes(4, "big"),
         "no data"),
        (bytes([0, 0, 0x08, 1]) + (0).to_bytes(4, "big"), "no data"),
    ])
    def test_short_header_or_empty_row_raises(self, tmp_path, raw, match):
        path = tmp_path / "bad.idx"
        path.write_bytes(raw)
        with pytest.raises(DataError, match=match):
            load_idx(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x12\x34\x08\x01" + b"\x00" * 8)
        with pytest.raises(DataError, match="magic"):
            load_idx(path)

    def test_truncated_payload(self, tmp_path):
        raw = make_idx_bytes(np.zeros((2, 2, 2), dtype=np.uint8))
        path = tmp_path / "trunc.idx"
        path.write_bytes(raw[:-3])
        with pytest.raises(DataError, match="payload"):
            load_idx(path)

    def test_zero_length_first_dimension(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_bytes(make_idx_bytes(np.zeros((0, 28, 28), dtype=np.uint8)))
        with pytest.raises(DataError, match="no data"):
            load_idx(path)

    def test_unsupported_type_code(self, tmp_path):
        path = tmp_path / "float.idx"
        path.write_bytes(bytes([0, 0, 0x0D, 1]) + (1).to_bytes(4, "big") + b"\x00" * 4)
        with pytest.raises(DataError, match="type code"):
            load_idx(path)


def as_version_1(raw: bytes) -> bytes:
    """A checkpoint's bytes rewritten in the version-1 layout, whose checksum
    covers only the array payload."""
    _, header, _, payload = raw.split(b"\n", 3)
    meta = json.loads(header)
    meta["version"] = 1
    return (b"SOMGMMCKPT 1\n" + json.dumps(meta, sort_keys=True).encode() + b"\n"
            + f"BINARY {len(payload)} {hashlib.sha256(payload).hexdigest()}\n".encode()
            + payload)


def with_header(raw: bytes, edit) -> bytes:
    """A checkpoint's bytes with ``edit`` applied to its header's dict and
    signed again as ``save_checkpoint`` signs them: SHA-256 over the header
    line and the payload."""
    magic, header, _, payload = raw.split(b"\n", 3)
    meta = json.loads(header)
    edit(meta)
    header = json.dumps(meta, sort_keys=True).encode() + b"\n"
    digest = hashlib.sha256(header + payload).hexdigest()
    return magic + b"\n" + header + f"BINARY {len(payload)} {digest}\n".encode() + payload


def with_convention(convention):
    """A header edit that gives every schedule the ``convention`` field that
    checkpoints held while schedules had one."""
    def edit(meta):
        for key in ("eps_schedule", "sigma_schedule"):
            if meta[key] is not None:
                meta[key]["convention"] = convention
    return edit


class TestCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        data = load_csv(path)
        assert data.count == 2 and data.dim == 2
        assert np.array_equal(data.samples, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path)

    def test_round_trip_large(self, tmp_path):
        rng = np.random.default_rng(1)
        data = DataSet(rng.normal(size=(10 ** 4, 3)))
        path = tmp_path / "big.csv"
        save_csv(data, path)
        back = load_csv(path)
        assert np.all(np.abs(back.samples - data.samples) < 1e-9)

    def test_lines_match_per_value_repr(self):
        values = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, -1e-7, 1.0]
        rng = np.random.default_rng(3)
        samples = np.concatenate([np.array(values * 4).reshape(4, 8),
                                  rng.normal(size=(4, 8))])
        want = [",".join(repr(float(v)) for v in row) + "\n" for row in samples]
        assert list(csv_lines(samples)) == want


def serial_csv(samples):
    return "".join(csv_lines(samples))


def written_csv(samples):
    buf = io.StringIO()
    write_csv(samples, buf)
    return buf.getvalue()


def force_parts(monkeypatch, cpus, min_values=1):
    monkeypatch.setattr(sio, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(sio, "MAX_PARTS", cpus)
    monkeypatch.setattr(sio, "MIN_PART_VALUES", min_values)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def helpers(monkeypatch):
    """Every helper process that write_csv starts, in order."""
    started = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(sio.subprocess, "Popen", spy)
    return started


class TestParallelCsv:
    """write_csv writes the bytes of csv_lines however many parts it formats
    at the same time and whether or not its helpers run."""

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("dim", [1, 4])
    def test_bytes_match_csv_lines(self, monkeypatch, helpers, cpus, n, dim):
        force_parts(monkeypatch, cpus)
        samples = np.random.default_rng(n * dim).normal(size=(n, dim))
        assert written_csv(samples) == serial_csv(samples)
        assert len(helpers) == min(cpus, n) - 1
        assert all(proc.returncode == 0 for proc in helpers)
        assert_no_child()

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("n, dim", [(61, 1), (37, 3), (11, 10)])
    def test_parts_span_several_blocks(self, monkeypatch, helpers, cpus, n, dim):
        # 8, 2 and 1 rows a block: every helper's part spans several blocks,
        # and some parts are not a whole number of blocks.
        force_parts(monkeypatch, cpus)
        monkeypatch.setattr(sio, "_BLOCK_VALUES", 8)
        samples = np.random.default_rng(n + dim).normal(size=(n, dim))
        assert written_csv(samples) == serial_csv(samples)
        assert len(helpers) == cpus - 1
        rows = max(1, 8 // dim)
        assert [proc.args[-2:] for proc in helpers] == [[str(dim), str(rows)]] * (cpus - 1)
        sizes = np.diff(sio._part_bounds(samples))[1:]
        assert sizes.min() > 2 * rows and (rows == 1 or any(sizes % rows))

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_special_values(self, monkeypatch, helpers, cpus):
        force_parts(monkeypatch, cpus)
        values = [-0.0, 5e-324, 1e-05, 1e16, 1e300, -1e-7, np.inf, -np.inf, np.nan]
        samples = np.array([np.roll(values, k) for k in range(len(values))])
        assert written_csv(samples) == serial_csv(samples)
        assert len(helpers) == cpus - 1

    def test_strided_rows(self, monkeypatch, helpers):
        force_parts(monkeypatch, 3)
        base = np.random.default_rng(5).normal(size=(10, 12))
        for samples in (base[::2, ::3], base.T, np.asfortranarray(base)):
            assert written_csv(samples) == serial_csv(samples)
        assert len(helpers) == 6

    @pytest.fixture(scope="class")
    def drawn(self):
        model = random_model(np.random.default_rng(11), 25, 784)
        samples = inference.sample(model, 2000, np.random.default_rng(12))
        return samples, serial_csv(samples)

    @pytest.mark.parametrize("cpus, max_parts", [(2, 2), (3, 3), (64, 2)])
    def test_sampled_digits_size(self, monkeypatch, helpers, drawn, cpus, max_parts):
        # The real MIN_PART_VALUES and block size: 2000 x 784 values fill
        # three parts.
        monkeypatch.setattr(sio, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sio, "MAX_PARTS", max_parts)
        samples, want = drawn
        assert written_csv(samples) == want
        assert len(helpers) == min(cpus, max_parts) - 1

    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    @pytest.mark.parametrize("max_parts", [2, 64])
    @pytest.mark.parametrize("n, dim", [(1, 1), (335, 784), (336, 784), (2000, 784),
                                        (2 ** 18, 1), (2 ** 18 - 1, 1), (9, 2 ** 17)])
    def test_parts_are_contiguous_and_never_small(self, monkeypatch, cpus, max_parts,
                                                  n, dim):
        monkeypatch.setattr(sio, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sio, "MAX_PARTS", max_parts)
        bounds = sio._part_bounds(np.empty((n, dim)))
        parts = len(bounds) - 1
        most = min(cpus, max_parts)
        assert bounds[0] == 0 and bounds[-1] == n
        assert 1 <= parts <= most
        sizes = np.diff(bounds) * dim
        assert parts == 1 or sizes.min() >= sio.MIN_PART_VALUES
        if parts < most:  # one more part would be too small
            assert n // (parts + 1) * dim < sio.MIN_PART_VALUES

    def test_at_most_two_parts(self, monkeypatch):
        # The only CPU count the gain was measured with.
        monkeypatch.setattr(sio, "_usable_cpus", lambda: 64)
        assert sio.MAX_PARTS == 2
        assert sio._part_bounds(np.empty((2000, 784))) == [0, 1000, 2000]

    def test_cpu_count_and_cap_are_the_kernels(self):
        # One CPU count and one cap for both parallel paths.
        assert sio._usable_cpus is backend._usable_cpus
        assert sio.MAX_PARTS == backend.MAX_PARTS == 2

    @pytest.mark.parametrize("samples", [np.arange(12).reshape(6, 2),
                                         np.linspace(0, 1, 12, dtype=np.float32).reshape(6, 2),
                                         np.ones((6, 0))])
    def test_other_arrays_take_one_part(self, monkeypatch, helpers, samples):
        force_parts(monkeypatch, 3)
        assert written_csv(samples) == serial_csv(samples)
        assert helpers == []

    def test_helper_that_cannot_start(self, monkeypatch):
        force_parts(monkeypatch, 3)

        def refuse(*args, **kwargs):
            raise OSError("no interpreter")

        monkeypatch.setattr(sio.subprocess, "Popen", refuse)
        samples = np.random.default_rng(1).normal(size=(8, 3))
        assert written_csv(samples) == serial_csv(samples)
        assert_no_child()

    def test_empty_executable(self, monkeypatch, helpers):
        force_parts(monkeypatch, 3)
        monkeypatch.setattr(sys, "executable", "")
        samples = np.random.default_rng(2).normal(size=(8, 3))
        assert written_csv(samples) == serial_csv(samples)
        assert helpers == []
        assert_no_child()

    def test_helper_that_fails(self, monkeypatch, helpers):
        force_parts(monkeypatch, 3)
        monkeypatch.setattr(sio, "_FORMATTER",
                            "import sys; sys.stdout.write('junk'); sys.exit(3)")
        samples = np.random.default_rng(3).normal(size=(8, 3))
        assert written_csv(samples) == serial_csv(samples)
        assert [proc.returncode for proc in helpers] == [3, 3]
        assert_no_child()

    def test_interrupt_kills_and_reaps_every_helper(self, monkeypatch, helpers):
        force_parts(monkeypatch, 3)
        monkeypatch.setattr(sio, "_FORMATTER", "import time; time.sleep(600)")

        class Interrupted(io.StringIO):
            def writelines(self, lines):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_csv(np.ones((8, 3)), Interrupted())
        assert len(helpers) == 2
        assert all(proc.returncode is not None for proc in helpers)
        assert_no_child()

    def test_interrupt_while_starting_kills_and_reaps_the_started(self, monkeypatch,
                                                                 helpers):
        # The second helper's first temporary file is the third one made.
        force_parts(monkeypatch, 3)
        made = []
        temporary_file = sio.tempfile.TemporaryFile

        def interrupt_third():
            made.append(None)
            if len(made) == 3:
                raise KeyboardInterrupt
            return temporary_file()

        monkeypatch.setattr(sio.tempfile, "TemporaryFile", interrupt_third)
        monkeypatch.setattr(sio, "_FORMATTER", "import time; time.sleep(600)")
        with pytest.raises(KeyboardInterrupt):
            write_csv(np.ones((8, 3)), io.StringIO())
        assert len(helpers) == 1 and helpers[0].returncode is not None
        assert_no_child()

    def test_unwritable_out_starts_no_helper(self, monkeypatch, helpers, tmp_path, capsys):
        force_parts(monkeypatch, 2)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, TestCheckpoint()._ckpt(np.random.default_rng(4)))
        argv = ["sample", "--model", str(ckpt), "-n", "50", "--seed", "1", "--out"]
        assert cli.main(argv + [str(tmp_path / "missing" / "x.csv")]) == 2
        assert "data error" in capsys.readouterr().err
        assert helpers == []
        # The same command into a writable path does start one.
        assert cli.main(argv + [str(tmp_path / "x.csv")]) == 0
        assert len(helpers) == 1 and helpers[0].returncode == 0


class TestCheckpoint:
    def _ckpt(self, rng, tied=False):
        model = random_model(rng, 4, 3, tied=tied)
        return Checkpoint(
            model=model,
            loss_regime="smoothed",
            topology=GridTopology("2d", 4),
            eps_schedule=AnnealingSchedule(0.05, 0.009, 10, 90),
            sigma_schedule=AnnealingSchedule(1.2, 0.01, 10, 90),
            iteration=100,
            seed=7,
            rng_state=np.random.default_rng(7).bit_generator.state,
            provenance={"data_sha256": "ab" * 32},
        )

    def test_bitwise_round_trip(self, tmp_path, rng):
        ckpt = self._ckpt(rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert np.array_equal(back.model.weights, ckpt.model.weights)
        assert np.array_equal(back.model.centroids, ckpt.model.centroids)
        assert np.array_equal(back.model.precision_roots, ckpt.model.precision_roots)
        assert back.loss_regime == "smoothed"
        assert back.topology == ckpt.topology
        assert back.eps_schedule == ckpt.eps_schedule
        assert back.rng_state == ckpt.rng_state
        assert back.provenance == ckpt.provenance

    @pytest.mark.parametrize("tied", [False, True])
    def test_loaded_weights_and_d_are_frozen(self, tmp_path, rng, tied):
        # Read-only arrays that own their data, like every model's: the
        # kernel keys its terms by their identity.  The centroids stay
        # writeable, and a copy or a resumed run shares the frozen arrays.
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._ckpt(rng, tied=tied))
        ckpt = load_checkpoint(path)
        m = ckpt.model
        assert_frozen(m)
        assert m.weights.base is None and m.precision_roots.base is None
        cfg = TrainConfig("smoothed", 4, 10, ckpt.eps_schedule, ckpt.sigma_schedule,
                          tied_spherical=tied, seed=3)
        state = make_state(cfg, DataSet(rng.normal(size=(5, m.dim))), resume={
            "model": m, "t": 0, "rng_state": np.random.default_rng(3).bit_generator.state})
        for copy in (m.copy(), state.model):
            assert_frozen(copy)
            assert copy.weights is m.weights and copy.precision_roots is m.precision_roots

    def test_som_update_on_a_loaded_model(self, tmp_path, rng):
        ckpt = self._ckpt(rng, tied=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        kernel = build_kernel(back.topology, 0.8)
        want = ckpt.model.copy()
        for x in rng.normal(scale=1.5, size=(5, 3)):
            som_update(SomView(back.model, back.topology, kernel), x, 0.1)
            som_update(SomView(want, ckpt.topology, kernel), x, 0.1)
        assert back.model.centroids.tobytes() == want.centroids.tobytes()
        assert not np.array_equal(want.centroids, ckpt.model.centroids)

    @pytest.mark.parametrize("make_config", [annealed_benchmark_config,
                                             plain_benchmark_config])
    def test_resume_from_a_loaded_checkpoint_is_bitwise(self, tmp_path, make_config):
        # The tied run and the untied run that trains weights and d both
        # continue from the frozen arrays exactly where they stopped.
        def config(T):
            cfg = make_config(200)
            cfg.seed, cfg.total_iters, cfg.diag_every = 23, T, 40
            return cfg

        data = four_cluster_data(7)
        full = run(config(200), data)
        half = run(config(120), data)
        save_checkpoint(tmp_path / "m.ckpt", Checkpoint(
            model=half.model, loss_regime=config(120).loss_regime,
            topology=half.topology, eps_schedule=config(120).eps_schedule,
            sigma_schedule=config(120).sigma_schedule, iteration=half.t, seed=23,
            rng_state=half.rng.bit_generator.state))
        back = load_checkpoint(tmp_path / "m.ckpt")
        resumed = run(config(200), data, resume={
            "model": back.model, "t": back.iteration, "rng_state": back.rng_state})
        assert resumed.rng.bit_generator.state == full.rng.bit_generator.state
        for name in ("weights", "centroids", "precision_roots"):
            assert (getattr(resumed.model, name).tobytes()
                    == getattr(full.model, name).tobytes())
        assert resumed.history == [r for r in full.history if r.t > 120]

    def test_truncation_detected(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._ckpt(rng))
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(DataError, match="checksum"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._ckpt(rng))
        raw = path.read_bytes()
        magic = f"SOMGMMCKPT {CHECKPOINT_VERSION}".encode()
        assert raw.startswith(magic)
        raw = raw.replace(magic, b"SOMGMMCKPT 9", 1)
        path.write_bytes(raw)
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_header_contradicting_model_rejected(self, tmp_path, rng):
        # A header signed again past the checksum still has its claims about
        # the model checked against the arrays.
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._ckpt(rng, tied=False))
        path.write_bytes(with_header(path.read_bytes(),
                                     lambda meta: meta.update(tied_spherical=True)))
        with pytest.raises(DataError, match="tied_spherical"):
            load_checkpoint(path)

    def test_version_1_refused(self, tmp_path, rng, capsys):
        # Version 1's checksum leaves the header unchecked.
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._ckpt(rng, tied=True))
        path.write_bytes(as_version_1(path.read_bytes()))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)
        assert cli.main(["inspect", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "version" in err and "Traceback" not in err

    def test_continuous_convention_field_still_loads(self, tmp_path, rng):
        # The header layout of checkpoints written while schedules had a
        # convention field.
        ckpt = self._ckpt(rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        raw = path.read_bytes()
        path.write_bytes(with_header(raw, with_convention("continuous")))
        assert b'"convention": "continuous"' in path.read_bytes()
        back = load_checkpoint(path)
        assert back.eps_schedule == ckpt.eps_schedule
        assert back.sigma_schedule == ckpt.sigma_schedule
        # Saved again, it is the file this version writes.
        save_checkpoint(path, back)
        assert path.read_bytes() == raw

    def test_other_convention_refused(self, tmp_path, rng, capsys):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._ckpt(rng))
        path.write_bytes(with_header(path.read_bytes(), with_convention("literal")))
        with pytest.raises(DataError, match="convention 'literal'"):
            load_checkpoint(path)
        assert cli.main(["inspect", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "literal" in err and "Traceback" not in err

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"hello world\n")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_deterministic_bytes(self, tmp_path, rng):
        ckpt = self._ckpt(rng)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, ckpt)
        save_checkpoint(p2, ckpt)
        assert p1.read_bytes() == p2.read_bytes()


class TestResumeEquivalence:
    def test_resume_matches_uninterrupted(self):
        from conftest import annealed_benchmark_config, four_cluster_data
        from somgmm.trainer import run

        data = four_cluster_data(5)
        T = 200
        cfg_full = annealed_benchmark_config(T)
        cfg_full.seed = 17
        full = run(cfg_full, data)

        cfg_half = annealed_benchmark_config(T)
        cfg_half.seed = 17
        cfg_half.total_iters = 100
        half = run(cfg_half, data)
        resume = {
            "model": half.model,
            "t": half.t,
            "rng_state": half.rng.bit_generator.state,
        }
        cfg_rest = annealed_benchmark_config(T)
        cfg_rest.seed = 17
        resumed = run(cfg_rest, data, resume=resume)
        assert np.array_equal(resumed.model.centroids, full.model.centroids)
        assert np.array_equal(resumed.model.weights, full.model.weights)
        assert np.array_equal(
            resumed.model.precision_roots, full.model.precision_roots
        )


class TestCentroidGrid:
    def test_geometry(self, tmp_path):
        m = MixtureModel(np.full(4, 0.25), np.arange(16, dtype=float).reshape(4, 4),
                         np.ones((4, 4)))
        path = tmp_path / "grid.pgm"
        emit_centroid_grid(m, GridTopology("2d", 4), (2, 2), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n5 5\n255\n")
        assert len(raw) == len(b"P5\n5 5\n255\n") + 25

    def test_all_zero_centroids_mid_gray(self, tmp_path):
        m = MixtureModel(np.full(4, 0.25), np.zeros((4, 4)), np.ones((4, 4)))
        path = tmp_path / "flat.pgm"
        emit_centroid_grid(m, GridTopology("2d", 4), (2, 2), path)
        pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        sheet = pixels.reshape(5, 5)
        for y, x in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            assert np.all(sheet[y:y + 2, x:x + 2] == 128)

    def test_tiles_match_per_component_export(self, tmp_path, rng):
        # Oracle: render each centroid individually with the same linear
        # mapping and compare tile pixels.
        m = random_model(rng, 4, 6)
        path = tmp_path / "t.pgm"
        emit_centroid_grid(m, GridTopology("2d", 4), (2, 3), path)
        pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        sheet = pixels.reshape(5, 7)
        for k in range(4):
            tile = m.centroids[k].reshape(2, 3)
            lo, hi = tile.min(), tile.max()
            expected = np.rint((tile - lo) / (hi - lo) * 255.0).astype(np.uint8)
            r, c = divmod(k, 2)
            got = sheet[r * 3:r * 3 + 2, c * 4:c * 4 + 3]
            assert np.array_equal(got, expected)

    def test_shape_mismatch(self, rng, tmp_path):
        m = random_model(rng, 4, 6)
        with pytest.raises(UsageError):
            emit_centroid_grid(m, GridTopology("2d", 4), (2, 2), tmp_path / "x.pgm")


class TestScheduleTrace:
    def _history(self, T):
        return [HistoryRow(t, -1.234 + t * 0.017, 1.2 * 0.9 ** t, 0.05, "healthy")
                for t in range(T + 1)]

    def test_row_count(self, tmp_path):
        path = tmp_path / "h.csv"
        emit_schedule_trace(self._history(10), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,loss,sigma,epsilon,diagnosis"
        assert len(lines) == 12

    def test_floats_reparse_exactly(self, tmp_path):
        history = self._history(5)
        path = tmp_path / "h.csv"
        emit_schedule_trace(history, path)
        for line, row in zip(path.read_text().splitlines()[1:], history):
            t, loss, sigma, eps, diag = line.split(",")
            assert int(t) == row.t
            assert float(loss) == row.loss
            assert float(sigma) == row.sigma
            assert float(eps) == row.epsilon
            assert diag == row.diagnosis


class TestRunConfig:
    FULL_SCALE_CFG = """
# digit-run hyperparameters
loss_regime = smoothed
components = 25
total_iters = 24000
init_dsq = 5
t0 = 0.3T
t_inf = 0.8T
sigma0 = 1.2
sigma_inf = 0.01
eps0 = 0.05
eps_inf = 0.009
seed = 1
data = digits.idx
data_format = idx
"""

    def test_full_scale_hyperparameters_expressible(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.FULL_SCALE_CFG)
        tc = to_train_config(load_config(path, CONFIG_PARSERS))
        assert tc.n_components == 25
        assert tc.total_iters == 24000
        assert tc.sigma_schedule.t0 == pytest.approx(7200)
        assert tc.sigma_schedule.t_inf == pytest.approx(19200)
        assert tc.sigma_schedule.value0 == 1.2
        assert tc.eps_schedule.value_inf == 0.009
        assert tc.init_dsq == 5.0

    def test_omitted_keys_take_dataclass_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        minimal = """
loss_regime = exact
components = 4
total_iters = 100
eps0 = 0.1
eps_inf = 0.01
t0 = 10
t_inf = 90
seed = 3
data = points.csv
"""
        T = 24000
        expected = {
            example: TrainConfig(
                "smoothed", 25, T,
                eps_schedule=AnnealingSchedule(0.05, 0.009, 0.3 * T, 0.8 * T),
                sigma_schedule=AnnealingSchedule(1.2, 0.01, 0.3 * T, 0.8 * T),
                init_dsq=5.0, tied_spherical=True, seed=1,
            ),
            minimal: TrainConfig("exact", 4, 100, AnnealingSchedule(0.1, 0.01, 10, 90),
                                 seed=3),
        }
        for text, want in expected.items():
            path = tmp_path / "run.cfg"
            path.write_text(text)
            assert to_train_config(load_config(path, CONFIG_PARSERS)) == want

    def test_hash_starts_a_comment_only_after_whitespace(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# header\ndata = runs/h#dir/d.csv\ncomponents = 4   # note\n"
                        "seed = 3\t# tab\n  # indented\n")
        assert load_config(path, CONFIG_PARSERS) == {
            "data": "runs/h#dir/d.csv", "components": 4, "seed": 3}
        path.write_text("eps0 = 0.05#x\n")
        with pytest.raises(UsageError, match=r"line 1: bad value '0.05#x' for eps0"):
            load_config(path, CONFIG_PARSERS)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("loss_regime = smoothed\nbogus_key = 3\n")
        with pytest.raises(UsageError, match="bogus_key"):
            load_config(path, CONFIG_PARSERS)

    def test_missing_seed_rejected(self, tmp_path):
        path = tmp_path / "noseed.cfg"
        path.write_text(self.FULL_SCALE_CFG.replace("seed = 1\n", ""))
        with pytest.raises(UsageError, match="seed"):
            to_train_config(load_config(path, CONFIG_PARSERS))

    def test_invalid_schedule_rejected_before_training(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(self.FULL_SCALE_CFG.replace("sigma_inf = 0.01", "sigma_inf = 5.0"))
        with pytest.raises(UsageError):
            to_train_config(load_config(path, CONFIG_PARSERS))

    def test_non_square_2d_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(self.FULL_SCALE_CFG.replace("components = 25", "components = 24"))
        with pytest.raises(UsageError):
            to_train_config(load_config(path, CONFIG_PARSERS))
