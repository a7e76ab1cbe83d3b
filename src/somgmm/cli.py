"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric abort.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import inference, io as sio, sombridge
from .exceptions import DataError, NumericsError, UsageError
from .model import DataSet
from .topology import AnnealingSchedule, build_kernel
from .trainer import TrainConfig, run as train_run


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage problems; we reserve 2 for data
    # errors, so route everything through UsageError instead.
    def error(self, message):
        raise UsageError(message)


def _load_data(path, fmt="auto") -> DataSet:
    if fmt == "auto":
        with open(path, "rb") as fh:
            head = fh.read(2)
        fmt = "idx" if head == b"\x00\x00" else "csv"
    if fmt == "idx":
        return sio.load_idx(path)
    if fmt == "csv":
        return sio.load_csv(path)
    raise UsageError(f"unknown data format {fmt!r}")


def _parse_bool(raw):
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_time(raw):
    """An iteration count, or a fraction of total_iters written "0.3T"; either
    way a function of total_iters."""
    if raw.endswith(("T", "t")):
        fraction = float(raw[:-1])
        return lambda total_iters: fraction * total_iters
    iteration = float(raw)
    return lambda total_iters: iteration


# Every config key once: its parser and the TrainConfig field it sets. None
# marks the schedule keys, which to_train_config builds into schedules, and
# the file-level keys, which _cmd_train reads. Training keys a file omits take
# TrainConfig's defaults.
CONFIG_KEYS = {
    "loss_regime": (str, "loss_regime"),
    "components": (int, "n_components"),
    "grid": (str, "grid"),
    "periodic": (_parse_bool, "periodic"),
    "batch_size": (int, "batch_size"),
    "total_iters": (int, "total_iters"),
    "sigma0": (float, None),
    "sigma_inf": (float, None),
    "eps0": (float, None),
    "eps_inf": (float, None),
    "t0": (_parse_time, None),
    "t_inf": (_parse_time, None),
    "centroid_scale": (float, "centroid_scale"),
    "init_dsq": (float, "init_dsq"),
    "init_mode": (str, "init_mode"),
    "tied": (_parse_bool, "tied_spherical"),
    "train_weights": (_parse_bool, "train_weights"),
    "train_precisions": (_parse_bool, "train_precisions"),
    "seed": (int, "seed"),
    "diag_every": (int, "diag_every"),
    "data": (str, None),
    "data_format": (str, None),
    "output_dir": (str, None),
    "image_rows": (int, None),
    "image_cols": (int, None),
}
CONFIG_PARSERS = {key: parse for key, (parse, _) in CONFIG_KEYS.items()}


def to_train_config(cfg: dict) -> TrainConfig:
    """Map a parsed run config (``io.load_config(path, CONFIG_PARSERS)``) onto
    a validated TrainConfig."""
    for key in ("loss_regime", "components", "total_iters", "eps0", "eps_inf",
                "t0", "t_inf", "seed", "data"):
        if key not in cfg:
            raise UsageError(f"config is missing required key {key!r}")
    if ("sigma0" in cfg) != ("sigma_inf" in cfg):
        raise UsageError("config must set sigma0 and sigma_inf together")

    t0, t_inf = (cfg[key](cfg["total_iters"]) for key in ("t0", "t_inf"))
    eps_schedule = AnnealingSchedule(cfg["eps0"], cfg["eps_inf"], t0, t_inf)
    sigma_schedule = None
    if "sigma0" in cfg:
        sigma_schedule = AnnealingSchedule(cfg["sigma0"], cfg["sigma_inf"], t0, t_inf)
    fields = {name: cfg[key] for key, (_, name) in CONFIG_KEYS.items() if name and key in cfg}
    return TrainConfig(eps_schedule=eps_schedule, sigma_schedule=sigma_schedule,
                       **fields).validate()


def _cmd_train(args):
    cfg = sio.load_config(args.config, CONFIG_PARSERS)
    tc = to_train_config(cfg)
    data = _load_data(cfg["data"], cfg.get("data_format", "csv"))
    shape = (cfg.get("image_rows", 1), cfg.get("image_cols", data.dim))
    sio.check_image_shape(shape, data.dim)
    state = train_run(tc, data)

    outdir = Path(cfg.get("output_dir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    ckpt = sio.Checkpoint(
        model=state.model,
        loss_regime=tc.loss_regime,
        topology=state.topology,
        eps_schedule=tc.eps_schedule,
        sigma_schedule=tc.sigma_schedule,
        iteration=state.t,
        seed=tc.seed,
        rng_state=state.rng.bit_generator.state,
        provenance={
            "data_sha256": sio.sha256_file(cfg["data"]),
            "config_sha256": sio.sha256_file(args.config),
        },
    )
    sio.save_checkpoint(outdir / "model.ckpt", ckpt)
    sio.emit_centroid_grid(state.model, state.topology, shape, outdir / "centroids.pgm")
    sio.emit_schedule_trace(state.history, outdir / "history.csv")
    print(f"trained {tc.total_iters} iterations; artifacts in {outdir}")
    return 0


def _cmd_score(args):
    ckpt = sio.load_checkpoint(args.model)
    data = _load_data(args.data, args.format)
    reference = _load_data(args.reference, args.format) if args.reference else None
    report = inference.score_report(
        data, ckpt.model, window=args.window, reference=reference,
        percentile=args.percentile,
    )
    for i in range(report.scores.size):
        line = f"{float(report.scores[i])!r},{float(report.window_means[i])!r}"
        if report.verdicts is not None:
            line += "," + ("outlier" if report.verdicts[i] else "inlier")
        print(line)
    return 0


def _cmd_cluster(args):
    ckpt = sio.load_checkpoint(args.model)
    data = _load_data(args.data, args.format)
    labels = [inference.assign_cluster(x, ckpt.model) for x in data.samples]
    sys.stdout.write("".join(f"{k}\n" for k in labels))
    return 0


def _cmd_sample(args):
    if args.n < 1:
        raise UsageError("sample count must be >= 1")
    if args.seed < 0:
        raise UsageError("seed must be >= 0")
    ckpt = sio.load_checkpoint(args.model)
    rng = np.random.default_rng(args.seed)
    drawn = inference.sample(ckpt.model, args.n, rng)
    out = DataSet(drawn, {"source": "sampled"})
    if args.out:
        sio.save_csv(out, args.out)
    else:
        sio.write_csv(drawn, sys.stdout)
    return 0


def _cmd_verify_equivalence(args):
    ckpt = sio.load_checkpoint(args.model)
    data = _load_data(args.data, args.format)
    sigma = args.sigma
    if sigma is None:
        sigma = ckpt.sigma_schedule.value_inf if ckpt.sigma_schedule else 0.5
    kernel = build_kernel(ckpt.topology, sigma)
    view = sombridge.SomView(ckpt.model, ckpt.topology, kernel)
    report = sombridge.verify_equivalence(data, view)
    print(f"max_abs_err={report.max_abs_err!r} constant={report.constant!r}")
    return 0


def _cmd_inspect(args):
    ckpt = sio.load_checkpoint(args.model)
    m = ckpt.model
    print(f"loss_regime: {ckpt.loss_regime}")
    print(f"components: {m.n_components}  dim: {m.dim}  tied: {m.tied_spherical}")
    print(f"grid: {ckpt.topology.kind} periodic={ckpt.topology.periodic}")
    print(f"iteration: {ckpt.iteration}  seed: {ckpt.seed}")
    print(f"weights: min={m.weights.min():.6g} max={m.weights.max():.6g}")
    print(f"precision_roots: min={m.precision_roots.min():.6g} "
          f"max={m.precision_roots.max():.6g}")
    for key, val in ckpt.provenance.items():
        print(f"provenance.{key}: {val}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="somgmm")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="outlier scores for a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", default="auto", choices=["auto", "idx", "csv"])
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--reference", default=None)
    p.add_argument("--percentile", type=float, default=1.0)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("cluster", help="component assignment per sample")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", default="auto", choices=["auto", "idx", "csv"])
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("sample", help="draw samples from a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify-equivalence",
                       help="check the map-energy identity on a tied model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", default="auto", choices=["auto", "idx", "csv"])
    p.add_argument("--sigma", type=float, default=None)
    p.set_defaults(func=_cmd_verify_equivalence)

    p = sub.add_parser("inspect", help="print checkpoint metadata")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
