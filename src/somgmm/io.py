"""File formats: IDX datasets, headerless CSV, versioned checkpoints, PGM
centroid sheets, schedule traces and the flat key=value run configuration.
"""

import hashlib
import io as _io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import DataError, UsageError
from .model import DataSet, MixtureModel
from .topology import AnnealingSchedule, GridTopology

CHECKPOINT_MAGIC = "SOMGMMCKPT"
CHECKPOINT_VERSION = 1

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
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=header_len)
    n = dims[0] if ndim > 1 else count
    samples = pixels.reshape(n, -1).astype(np.float64) / 255.0
    return DataSet(samples, {"source": str(path), "format": "idx", "idx_dims": dims,
                             "normalization": "byte/255"})


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

def load_csv(path) -> DataSet:
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
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
        yield ",".join(repr(float(v)) for v in row) + "\n"


def save_csv(data: DataSet, path):
    with open(path, "w") as fh:
        fh.writelines(csv_lines(data.samples))


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
    if s is None:
        return None
    return {"value0": s.value0, "value_inf": s.value_inf, "t0": s.t0,
            "t_inf": s.t_inf, "convention": s.convention}


def _schedule_from(d):
    return None if d is None else AnnealingSchedule(**d)


def save_checkpoint(path, ckpt: Checkpoint):
    ckpt.model.validate()
    meta = {
        "version": CHECKPOINT_VERSION,
        "loss_regime": ckpt.loss_regime,
        "topology": {"kind": ckpt.topology.kind,
                     "n_components": ckpt.topology.n_components,
                     "periodic": ckpt.topology.periodic},
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
    digest = hashlib.sha256(payload).hexdigest()
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n".encode())
        fh.write(json.dumps(meta, sort_keys=True).encode() + b"\n")
        fh.write(f"BINARY {len(payload)} {digest}\n".encode())
        fh.write(payload)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.readline().decode(errors="replace").split()
        if len(magic) != 2 or magic[0] != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a checkpoint file")
        if int(magic[1]) != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {magic[1]}")
        meta = json.loads(fh.readline().decode())
        binline = fh.readline().decode().split()
        if len(binline) != 3 or binline[0] != "BINARY":
            raise DataError(f"{path}: malformed binary section header")
        nbytes, digest = int(binline[1]), binline[2]
        payload = fh.read()
    if len(payload) != nbytes or hashlib.sha256(payload).hexdigest() != digest:
        raise DataError(f"{path}: checksum mismatch (corrupt or truncated)")
    buf = _io.BytesIO(payload)
    weights = np.load(buf, allow_pickle=False)
    centroids = np.load(buf, allow_pickle=False)
    droots = np.load(buf, allow_pickle=False)
    model = MixtureModel(weights, centroids, droots, meta["tied_spherical"])
    top = GridTopology(**meta["topology"])
    return Checkpoint(
        model=model,
        loss_regime=meta["loss_regime"],
        topology=top,
        eps_schedule=_schedule_from(meta["eps_schedule"]),
        sigma_schedule=_schedule_from(meta["sigma_schedule"]),
        iteration=meta["iteration"],
        seed=meta["seed"],
        rng_state=meta["rng_state"],
        provenance=meta.get("provenance", {}),
    )


# ---------------------------------------------------------------------------
# Fig-style artifacts

def emit_centroid_grid(model: MixtureModel, topology: GridTopology, image_shape, path):
    """Tile the centroids on their grid as one P5 PGM image, each tile
    linearly mapped to 0..255 (flat tiles render mid-gray), 1-pixel
    separators between tiles."""
    h, w = image_shape
    if h * w != model.dim:
        raise UsageError(f"image shape {image_shape} does not match dimension {model.dim}")
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

def _parse_bool(raw):
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_time(raw):
    """An iteration count, or a fraction of total_iters written "0.3T"."""
    if raw.endswith(("T", "t")):
        float(raw[:-1])  # validate the fraction now
        return raw[:-1] + "T"
    return float(raw)


_CONFIG_KEYS = {
    "loss_regime": str,
    "components": int,
    "grid": str,
    "periodic": _parse_bool,
    "batch_size": int,
    "total_iters": int,
    "sigma0": float,
    "sigma_inf": float,
    "eps0": float,
    "eps_inf": float,
    "t0": _parse_time,
    "t_inf": _parse_time,
    "tau_convention": str,
    "centroid_scale": float,
    "init_dsq": float,
    "init_mode": str,
    "tied": _parse_bool,
    "train_weights": _parse_bool,
    "train_precisions": _parse_bool,
    "seed": int,
    "diag_every": int,
    "shuffle": str,
    "data": str,
    "data_format": str,
    "output_dir": str,
    "image_rows": int,
    "image_cols": int,
}

_DEFAULTS = {
    "grid": "2d",
    "periodic": True,
    "batch_size": 1,
    "tau_convention": "continuous",
    "centroid_scale": 0.01,
    "init_dsq": 5.0,
    "init_mode": "random",
    "tied": False,
    "train_weights": False,
    "train_precisions": False,
    "diag_every": 100,
    "shuffle": "replacement",
    "data_format": "csv",
    "output_dir": ".",
}


def load_config(path) -> dict:
    """Parse a flat key=value config into a dict over the defaults; times
    given as a fraction of total_iters keep the form "0.3T"."""
    values = dict(_DEFAULTS)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}: line {lineno}: expected key=value")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}: line {lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](raw)
            except ValueError:
                raise UsageError(
                    f"{path}: line {lineno}: bad value {raw!r} for {key}"
                ) from None
    return values


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
