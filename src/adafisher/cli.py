"""Command-line entry point.

Exit codes: 0 success, 2 config error (and every other AdaFisherError: a
config the model or data cannot run, or one over a size guard), 3 data error,
4 numeric failure.
The output root can be set with the ADAFISHER_OUT_ROOT environment variable.

Each command does only its own work: the argument parser is built once per
process, on the first main call, and every later call in that process (a
benchmark or test driving main repeatedly) reuses it; a diagnose analysis
solves for no more than it writes (gershgorin: eigenvalues, no vectors).
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
import zipfile
from pathlib import Path

import numpy as np

from .config import RunConfig, build_model, resolve_dataset
from .diagnostics import fft2, fim_hist_stats, gershgorin, snr
from .errors import AdaFisherError, ConfigError, DataError, NumericError
from .fisher import approximation_mae, exact_fisher_diag, mc_fisher_diag
from .tensor import Rng
from .training import run_training


def _out_dir(arg_out: str | None, default: str) -> Path:
    root = os.environ.get("ADAFISHER_OUT_ROOT", ".")
    return Path(root) / (arg_out if arg_out else default)


def cmd_train(args) -> int:
    """`train` and `distributed` (which only adds --workers)."""
    config = RunConfig.from_json(args.config, seed=args.seed, workers=args.workers)
    # A diverging run ends in one NumericError naming the step, layer and
    # quantity; numpy's overflow warnings on the way would add stray lines.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        path = run_training(config, out_dir=_out_dir(args.out, config.out_dir))
    print(path)
    return 0


# Arrays each analysis reads from its snapshot (a bare .npy is 'matrix').
_SNAPSHOT_KEYS = {"gershgorin": ("matrix",), "fft": ("matrix",), "fim": ("matrix",),
                  "snr": ("clean", "noisy")}


def _load_snapshot(path: str, analysis: str):
    p = Path(path)
    if not p.exists():
        raise DataError(f"snapshot not found: {path}")
    try:
        snap = dict(np.load(p)) if p.suffix == ".npz" else {"matrix": np.load(p)}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot load snapshot {path}: {exc}") from exc
    missing = [key for key in _SNAPSHOT_KEYS[analysis] if key not in snap]
    if missing:
        raise DataError(f"{analysis} snapshot is missing {', '.join(map(repr, missing))}")
    for key in _SNAPSHOT_KEYS[analysis]:
        arr = snap[key]
        if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
            raise DataError(f"{analysis} snapshot {key!r} must hold finite real numbers "
                            f"(dtype {arr.dtype})")
        if arr.size == 0:
            raise DataError(f"{analysis} snapshot {key!r} is empty (shape {arr.shape})")
    return snap


def _require_finite(analysis: str, *values) -> None:
    """NumericError unless every value an analysis writes is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise NumericError(f"{analysis} result is not finite: the snapshot's values "
                           f"overflow float64")


def cmd_diagnose(args) -> int:
    snap = _load_snapshot(args.snapshot, args.analysis)
    out = _out_dir(args.out, "diagnostics")
    out.mkdir(parents=True, exist_ok=True)
    # Overflow inside an analysis shows as a non-finite result, which ends in
    # one NumericError; numpy's warnings on the way would add stray lines.
    analysis = args.analysis
    with np.errstate(over="ignore", invalid="ignore"):
        if analysis == "gershgorin":
            discs = gershgorin(snap["matrix"])
            _require_finite(analysis, discs.centers, discs.radii, discs.eigenvalues)
            discs.to_csv(out / "discs.csv")
            print(f"contained={discs.contained} -> {out / 'discs.csv'}")
        elif analysis == "fft":
            spec = fft2(snap["matrix"])
            _require_finite(analysis, spec)
            with open(out / "spectra.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["row", "col", "re", "im", "mag"])
                for i in range(spec.shape[0]):
                    for j in range(spec.shape[1]):
                        z = spec[i, j]
                        w.writerow([i, j, repr(z.real), repr(z.imag), repr(abs(z))])
            print(out / "spectra.csv")
        elif analysis == "snr":
            res = snr(snap["clean"], snap["noisy"])
            if not res.infinite:
                _require_finite(analysis, res.db)
            with open(out / "snr.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["snr_db", "infinite"])
                w.writerow([repr(res.db), int(res.infinite)])
            print(f"snr={res.db:.6f} dB -> {out / 'snr.csv'}")
        else:  # fim
            stats = fim_hist_stats(snap["matrix"].ravel())
            _require_finite(analysis, *stats.values())
            with open(out / "fim_stats.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["step", "layer"] + list(stats))
                w.writerow([0, ""] + [repr(v) for v in stats.values()])
            print(out / "fim_stats.csv")
    return 0


def cmd_oracle(args) -> int:
    config = RunConfig.from_json(args.config)
    rng = Rng(config.seed)
    model = build_model(config.model, rng)
    x, y = resolve_dataset(config.dataset, config.seed)
    if x.shape[0] < config.batch_size:
        raise ConfigError(f"batch size {config.batch_size} exceeds the dataset's "
                          f"{x.shape[0]} samples")
    # Copies, so that dropping x and y frees the rest of the dataset.
    batch = x[: config.batch_size].copy()
    labels = np.asarray(y)[: config.batch_size].copy()
    del x, y
    model.train_batch(batch, labels)
    if args.mode == "exact":
        oracle = exact_fisher_diag(model, batch)
    else:
        oracle = mc_fisher_diag(model, batch, n_samples=args.samples, seed=config.seed)
    out = _out_dir(args.out, "oracle")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "fisher_mae.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "layer", "mae"])
        for i, layer in model.param_layers():
            approx = layer.kronecker_diagonal(layer.capture["h"], layer.capture["s"])
            names = sorted(approx)  # one MAE over the layer's arrays in name order
            mae = approximation_mae(np.concatenate([oracle[i][n].ravel() for n in names]),
                                    np.concatenate([approx[n].ravel() for n in names]))
            w.writerow([0, i, repr(mae)])
    print(path)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use and shared by every later
    call, so callers must not change it (its subcommands keep the cmd_*
    functions they were built with)."""
    parser = argparse.ArgumentParser(prog="adafisher")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("train", "run a training config"),
                            ("distributed", "simulated multi-worker training")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        if name == "distributed":
            p.add_argument("--workers", type=int, required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_train, workers=None)

    p = sub.add_parser("diagnose", help="matrix diagnostics on a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--analysis", required=True,
                   choices=["gershgorin", "fft", "snr", "fim"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("oracle", help="Fisher oracle comparison")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", required=True, choices=["exact", "mc"])
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except AdaFisherError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
