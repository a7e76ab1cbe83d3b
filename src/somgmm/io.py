"""File formats: IDX datasets, headerless CSV, versioned checkpoints, PGM
centroid sheets, schedule traces and the flat key=value run configuration.

Parallel CSV writer: ``repr`` of each float is what writing a CSV costs, and
no single-thread writer of the same bytes is faster (ROADMAP, "Closed without
a change").  ``write_csv`` therefore splits the rows into one contiguous part
per usable CPU, at most ``MAX_PARTS``, each of at least ``MIN_PART_VALUES``
values; the CPU count (``_usable_cpus``) and the cap are ``backend``'s,
which ``log_joints`` uses for its blocks too.  This process formats part 0
straight into the output with ``csv_lines`` while a helper interpreter
formats each other part; the helpers' text is then copied in part order,
so the bytes are those of ``csv_lines`` over all rows.  A helper gets its
rows as raw float64 in an anonymous temporary file on stdin and writes its
lines to another one on stdout, reading and formatting whole rows of about
``_BLOCK_VALUES`` values at a time.  A part whose helper cannot start or
exits non-zero is formatted here instead, and every helper is killed and
reaped before ``write_csv`` returns or raises.

The helper is a fresh ``python -I -S`` running standard-library code only.
It starts in under 0.1 s; one that imported ``somgmm`` would pull in scipy
and take about 0.7 s.  ``os.fork`` would be about 8% faster, but numpy's
BLAS pool gives this process a second thread, and forking a process that
has threads raises a ``DeprecationWarning`` from Python 3.12 on.
"""

import hashlib
import io as _io
import json
import math
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .backend import MAX_PARTS, _usable_cpus
from .exceptions import DataError, UsageError
from .model import DataSet, MixtureModel, _trusted_dataset
from .topology import AnnealingSchedule, GridTopology

CHECKPOINT_MAGIC = "SOMGMMCKPT"
# The SHA-256 covers the JSON header line and the payload.  Version 1's
# covered the payload alone, so an edited header went unnoticed; it is
# refused like any other version.
CHECKPOINT_VERSION = 2

IDX_UBYTE = 0x08


# ---------------------------------------------------------------------------
# IDX container (MNIST-family digit sets)

def load_idx(path) -> DataSet:
    """Read an IDX file of unsigned bytes, flatten trailing dimensions and
    scale pixels to [0, 1]."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise DataError(f"{path}: truncated IDX header")
    if raw[0] != 0 or raw[1] != 0:
        raise DataError(f"{path}: bad IDX magic bytes {raw[0]:#04x} {raw[1]:#04x}")
    type_code, ndim = raw[2], raw[3]
    if type_code != IDX_UBYTE:
        raise DataError(f"{path}: unsupported IDX type code {type_code:#04x}")
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise DataError(f"{path}: truncated IDX dimension table")
    dims = [int.from_bytes(raw[4 + 4 * i : 8 + 4 * i], "big") for i in range(ndim)]
    count = math.prod(dims)
    if len(raw) != header_len + count:
        raise DataError(
            f"{path}: payload has {len(raw) - header_len} bytes, expected {count}"
        )
    if count == 0:
        raise DataError(f"{path}: IDX dimensions {dims} hold no data")
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=header_len)
    n = dims[0] if ndim > 1 else count
    # Bytes divided by 255 are finite, and the header checks above leave at
    # least one row and one column, so the DataSet checks are skipped.
    samples = np.divide(pixels.reshape(n, -1), 255.0, dtype=np.float64)
    return _trusted_dataset(samples, {"source": str(path), "format": "idx",
                                      "idx_dims": dims, "normalization": "byte/255"})


def write_idx(data: DataSet, path):
    """Inverse of load_idx for byte-valued datasets; bitwise round trip."""
    dims = data.meta.get("idx_dims", [data.count, data.dim])
    if math.prod(dims) != data.samples.size:
        raise UsageError("idx_dims metadata does not match the sample matrix")
    header = bytes([0, 0, IDX_UBYTE, len(dims)])
    header += b"".join(int(d).to_bytes(4, "big") for d in dims)
    pixels = np.rint(data.samples * 255.0)
    if np.any(pixels < 0) or np.any(pixels > 255):
        raise DataError("samples outside [0, 1] cannot be written as IDX bytes")
    Path(path).write_bytes(header + pixels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Headerless CSV

def _text_lines(path, error):
    """Yield the lines of a text file; undecodable bytes or a NUL byte (which
    no path or number may hold) raise ``error``."""
    try:
        with open(path) as fh:
            for line in fh:
                if "\0" in line:
                    raise ValueError("NUL byte")
                yield line
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"{path}: not a text file: {exc}") from None


def load_csv(path) -> DataSet:
    rows = []
    width = None
    for lineno, line in enumerate(_text_lines(path, DataError), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(
                f"{path}: line {lineno}: expected {width} fields, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return DataSet(np.array(rows), {"source": str(path), "format": "csv"})


def csv_lines(samples: np.ndarray):
    """Yield one headerless CSV line per row, floats in round-trip repr."""
    for row in samples:
        yield ",".join(map(repr, row.tolist())) + "\n"


# Fewest values in a part of write_csv's output: 2**17 values pay for the
# helper's start of about 80 ms.
MIN_PART_VALUES = 2 ** 17

# Values a helper reads and formats at a time (whole rows, at least one).
_BLOCK_VALUES = 2 ** 16

# The helper interpreter's program: float64 rows of argv[1] values on stdin,
# argv[2] rows at a time, their csv_lines on stdout.
_FORMATTER = """\
import sys
from array import array
d, rows = int(sys.argv[1]), int(sys.argv[2])
src = open(0, "rb")
with open(1, "w", encoding="ascii", newline="", closefd=False) as out:
    while block := src.read(8 * d * rows):
        values = array("d", block).tolist()
        out.writelines(",".join(map(repr, values[i:i + d])) + "\\n"
                       for i in range(0, len(values), d))
"""


def _part_bounds(samples):
    """Row bounds of write_csv's parts: one per usable CPU, at most
    MAX_PARTS, none smaller than MIN_PART_VALUES values; a single part
    unless ``samples`` are float64 rows, the only values a helper formats."""
    n = len(samples)
    if samples.ndim != 2 or samples.dtype != np.float64 or samples.shape[1] == 0:
        return [0, n]
    min_rows = -(-MIN_PART_VALUES // samples.shape[1])
    parts = max(1, min(_usable_cpus(), MAX_PARTS, n // min_rows))
    return [n * i // parts for i in range(parts + 1)]


def _kill_and_reap(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def _start_helper(rows, stack):
    """Start a helper interpreter on ``rows``, to be killed and reaped when
    ``stack`` closes; return it and the anonymous file it writes to, or None
    when no interpreter can start."""
    if not sys.executable:
        return None
    d = rows.shape[1]
    try:
        src = stack.enter_context(tempfile.TemporaryFile())
        rows.tofile(src)
        src.seek(0)
        dst = stack.enter_context(tempfile.TemporaryFile())
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", _FORMATTER, str(d),
             str(max(1, _BLOCK_VALUES // d))],
            stdin=src, stdout=dst, stderr=subprocess.DEVNULL)
    except OSError:  # no temporary file or no interpreter
        return None
    stack.callback(_kill_and_reap, proc)
    return proc, dst


def write_csv(samples, fh):
    """Write ``csv_lines(samples)`` to the text stream ``fh``, formatting
    the parts of ``_part_bounds`` at the same time (see the module
    docstring)."""
    samples = np.asarray(samples)
    bounds = _part_bounds(samples)
    others = list(zip(bounds[1:-1], bounds[2:]))
    with ExitStack() as stack:
        helpers = [_start_helper(samples[lo:hi], stack) for lo, hi in others]
        fh.writelines(csv_lines(samples[:bounds[1]]))
        for (lo, hi), helper in zip(others, helpers):
            if helper is None or helper[0].wait() != 0:
                fh.writelines(csv_lines(samples[lo:hi]))
                continue
            dst = helper[1]
            dst.seek(0)
            while chunk := dst.read(1 << 20):
                fh.write(chunk.decode("ascii"))


def save_csv(data: DataSet, path):
    with open(path, "w") as fh:
        write_csv(data.samples, fh)


# ---------------------------------------------------------------------------
# Checkpoints

@dataclass
class Checkpoint:
    model: MixtureModel
    loss_regime: str
    topology: GridTopology
    eps_schedule: AnnealingSchedule
    sigma_schedule: AnnealingSchedule | None
    iteration: int
    seed: int
    rng_state: dict | None = None
    provenance: dict = field(default_factory=dict)


def _schedule_dict(s):
    return None if s is None else asdict(s)


def _schedule_from(d):
    """The schedule a header's dict describes.  Checkpoints written while
    schedules had a ``convention`` field hold ``"continuous"`` there, the
    decay law that remains; any other value names a law no longer read."""
    if d is None:
        return None
    convention = d.pop("convention", "continuous")
    if convention != "continuous":
        raise ValueError(f"unsupported schedule convention {convention!r}")
    return AnnealingSchedule(**d)


def save_checkpoint(path, ckpt: Checkpoint):
    ckpt.model.validate()
    meta = {
        "version": CHECKPOINT_VERSION,
        "loss_regime": ckpt.loss_regime,
        "topology": asdict(ckpt.topology),
        "eps_schedule": _schedule_dict(ckpt.eps_schedule),
        "sigma_schedule": _schedule_dict(ckpt.sigma_schedule),
        "iteration": ckpt.iteration,
        "seed": ckpt.seed,
        "rng_state": ckpt.rng_state,
        "tied_spherical": ckpt.model.tied_spherical,
        "provenance": ckpt.provenance,
    }
    buf = _io.BytesIO()
    for arr in (ckpt.model.weights, ckpt.model.centroids, ckpt.model.precision_roots):
        np.save(buf, arr, allow_pickle=False)
    payload = buf.getvalue()
    header = json.dumps(meta, sort_keys=True).encode() + b"\n"
    digest = hashlib.sha256(header + payload).hexdigest()
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n".encode())
        fh.write(header)
        fh.write(f"BINARY {len(payload)} {digest}\n".encode())
        fh.write(payload)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint and validate its model; a malformed file of any kind
    is a DataError.  Like every model's, its weights and precision roots
    are read-only arrays that own their data and its centroids writeable."""
    try:
        with open(path, "rb") as fh:
            magic = fh.readline().decode(errors="replace").split()
            if len(magic) != 2 or magic[0] != CHECKPOINT_MAGIC:
                raise DataError(f"{path}: not a checkpoint file")
            version = int(magic[1])
            if version != CHECKPOINT_VERSION:
                raise DataError(f"{path}: unsupported checkpoint version {magic[1]}")
            header = fh.readline()
            binline = fh.readline().decode().split()
            if len(binline) != 3 or binline[0] != "BINARY":
                raise DataError(f"{path}: malformed binary section header")
            nbytes, digest = int(binline[1]), binline[2]
            payload = fh.read()
        covered = header + payload
        if len(payload) != nbytes or hashlib.sha256(covered).hexdigest() != digest:
            raise DataError(f"{path}: checksum mismatch (corrupt or truncated)")
        meta = json.loads(header.decode())
        buf = _io.BytesIO(payload)
        weights = np.load(buf, allow_pickle=False)
        centroids = np.load(buf, allow_pickle=False)
        droots = np.load(buf, allow_pickle=False)
        model = MixtureModel(weights, centroids, droots, meta["tied_spherical"]).validate()
        top = GridTopology(**meta["topology"])
        if top.n_components != model.n_components:
            raise ValueError("topology and model differ in component count")
        return Checkpoint(
            model=model,
            loss_regime=meta["loss_regime"],
            topology=top,
            eps_schedule=_schedule_from(meta["eps_schedule"]),
            sigma_schedule=_schedule_from(meta["sigma_schedule"]),
            iteration=meta["iteration"],
            seed=meta["seed"],
            rng_state=meta["rng_state"],
            provenance=dict(meta.get("provenance", {})),
        )
    except DataError:
        raise
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc}") from None


# ---------------------------------------------------------------------------
# Fig-style artifacts

def check_image_shape(image_shape, dim):
    """A centroid tile shape must have positive sides and hold ``dim`` pixels."""
    h, w = image_shape
    if h < 1 or w < 1 or h * w != dim:
        raise UsageError(f"image shape {image_shape} does not match dimension {dim}")


def emit_centroid_grid(model: MixtureModel, topology: GridTopology, image_shape, path):
    """Tile the centroids on their grid as one P5 PGM image, each tile
    linearly mapped to 0..255 (flat tiles render mid-gray), 1-pixel
    separators between tiles."""
    check_image_shape(image_shape, model.dim)
    h, w = image_shape
    rows, cols = topology.shape
    H = rows * h + (rows - 1)
    W = cols * w + (cols - 1)
    sheet = np.zeros((H, W), dtype=np.uint8)
    for k in range(model.n_components):
        r, c = divmod(k, cols)
        tile = model.centroids[k].reshape(h, w)
        lo, hi = tile.min(), tile.max()
        if hi - lo < 1e-300:
            pix = np.full((h, w), 128, dtype=np.uint8)
        else:
            pix = np.rint((tile - lo) / (hi - lo) * 255.0).astype(np.uint8)
        y, x = r * (h + 1), c * (w + 1)
        sheet[y : y + h, x : x + w] = pix
    with open(path, "wb") as fh:
        fh.write(f"P5\n{W} {H}\n255\n".encode())
        fh.write(sheet.tobytes())


def emit_schedule_trace(history, path):
    """CSV of (t, loss, sigma, epsilon, diagnosis); floats written with
    round-trip precision."""
    with open(path, "w") as fh:
        fh.write("t,loss,sigma,epsilon,diagnosis\n")
        for row in history:
            fh.write(f"{row.t},{row.loss!r},{row.sigma!r},{row.epsilon!r},{row.diagnosis}\n")


# ---------------------------------------------------------------------------
# Run configuration (flat key=value text file)

def load_config(path, parsers) -> dict:
    """Parse a flat key=value config into a dict holding the keys the file
    sets, each value converted by ``parsers[key]``; a key without a parser is
    unknown, and a key set twice is refused."""
    values, first = {}, {}
    for lineno, line in enumerate(_text_lines(path, UsageError), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}: line {lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in parsers:
            raise UsageError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in first:
            raise UsageError(f"{path}: line {lineno}: key {key!r} repeats line {first[key]}")
        first[key] = lineno
        try:
            values[key] = parsers[key](raw)
        except ValueError:
            raise UsageError(
                f"{path}: line {lineno}: bad value {raw!r} for {key}"
            ) from None
    return values


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
