"""Command-line entry point.

Exit codes: 0 success, 2 config error (and every other AdaFisherError: a
config the model or data cannot run, or one over a size guard; and an
allocation numpy refuses), 3 data error, 4 numeric failure, 130 interrupted
(Ctrl-C: one line, "interrupted", and no traceback). main is the one
place a failure becomes output: each AdaFisherError class carries its exit code
and stderr label (see errors), and main prints one line, "{label}: {message}".
It runs every command under np.errstate(all="ignore"), so numpy's overflow
warnings add no lines and each command refuses a non-finite result itself, with
a NumericError (oracle and diagnose before they write any file).
The output root can be set with the ADAFISHER_OUT_ROOT environment variable.

Each command does only its own work: the argument parser is built once per
process, on the first main call, and every later call in that process (a
benchmark or test driving main repeatedly) reuses it; a diagnose analysis
solves for no more than it writes (gershgorin: eigenvalues, no vectors).

_ANALYSES holds all that differs between diagnose analyses. Every CSV table
(the four diagnose tables, fisher_mae.csv) is written by diagnostics.write_csv.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import zipfile
from pathlib import Path

import numpy as np

from .config import RunConfig, build_model, resolve_dataset
from .diagnostics import fft2, fim_hist_stats, gershgorin, snr, write_csv
from .errors import AdaFisherError, ConfigError, DataError, NumericError
from .fisher import approximation_mae, exact_fisher_diag, mc_fisher_diag
from .training import make_out_dir, run_streams, run_training


def _out_dir(arg_out: str | None, default: str) -> Path:
    root = os.environ.get("ADAFISHER_OUT_ROOT", ".")
    return Path(root) / (arg_out if arg_out else default)


def cmd_train(args) -> int:
    """`train` and `distributed` (which only adds --workers)."""
    config = RunConfig.from_json(args.config, seed=args.seed, workers=args.workers)
    print(run_training(config, out_dir=_out_dir(args.out, config.out_dir)))
    return 0


def _discs(snap):
    discs = gershgorin(snap["matrix"])
    rows = (("", i, c, r) for i, (c, r) in enumerate(zip(discs.centers, discs.radii)))
    return (discs.centers, discs.radii, discs.eigenvalues), rows, f"contained={discs.contained} -> "


def _spectra(snap):
    spec = fft2(snap["matrix"])
    mags = np.hypot(spec.real, spec.imag)  # |F|; inf where it overflows, refused by the caller
    rows = ((*divmod(k, spec.shape[1]), z.real, z.imag, mag)
            for k, (z, mag) in enumerate(zip(spec.ravel().tolist(), mags.ravel().tolist())))
    return (spec, mags), rows, ""


def _snr(snap):
    res = snr(snap["clean"], snap["noisy"])
    finite = () if res.infinite else (res.db,)
    return finite, [(res.db, int(res.infinite))], f"snr={res.db:.6f} dB -> "


def _fim(snap):
    stats = fim_hist_stats(snap["matrix"].ravel())
    return tuple(stats.values()), [(0, "", *stats.values())], ""


# Each analysis: the snapshot arrays it reads (a bare .npy is 'matrix'), the
# table it writes and its header, and its run, which returns the values that
# must be finite, the table's rows and the stdout prefix of the table's path.
_ANALYSES = {
    "gershgorin": (("matrix",), "discs.csv", ("layer", "row", "center", "radius"), _discs),
    "fft": (("matrix",), "spectra.csv", ("row", "col", "re", "im", "mag"), _spectra),
    "snr": (("clean", "noisy"), "snr.csv", ("snr_db", "infinite"), _snr),
    "fim": (("matrix",), "fim_stats.csv",
            ("step", "layer", "mean", "std", "q01", "q25", "q50", "q75", "q99"), _fim),
}


def _load_snapshot(path: str, analysis: str, keys):
    p = Path(path)
    if not p.exists():
        raise DataError(f"snapshot not found: {path}")
    try:
        snap = dict(np.load(p)) if p.suffix == ".npz" else {"matrix": np.load(p)}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot load snapshot {path}: {exc}") from exc
    missing = [key for key in keys if key not in snap]
    if missing:
        raise DataError(f"{analysis} snapshot is missing {', '.join(map(repr, missing))}")
    for key in keys:
        arr = snap[key]
        if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
            raise DataError(f"{analysis} snapshot {key!r} must hold finite real numbers "
                            f"(dtype {arr.dtype})")
        if arr.size == 0:
            raise DataError(f"{analysis} snapshot {key!r} is empty (shape {arr.shape})")
    return snap


def cmd_diagnose(args) -> int:
    keys, name, header, run = _ANALYSES[args.analysis]
    snap = _load_snapshot(args.snapshot, args.analysis, keys)
    # Overflow shows as a non-finite result: one NumericError before any file is written.
    finite, rows, prefix = run(snap)
    if not all(np.isfinite(v).all() for v in finite):
        raise NumericError(f"{args.analysis} result is not finite: the snapshot's values "
                           f"overflow float64")
    out = make_out_dir(_out_dir(args.out, "diagnostics"))
    write_csv(out / name, header, rows)
    print(f"{prefix}{out / name}")
    return 0


def cmd_oracle(args) -> int:
    config = RunConfig.from_json(args.config)
    root, _, mc_rng = run_streams(config.seed)
    model = build_model(config.model, root)
    x, y = resolve_dataset(config.dataset, config.seed)
    if x.shape[0] < config.batch_size:
        raise ConfigError(f"batch size {config.batch_size} exceeds the dataset's "
                          f"{x.shape[0]} samples")
    # Copies, so that dropping x and y frees the rest of the dataset.
    batch = x[: config.batch_size].copy()
    labels = np.asarray(y)[: config.batch_size].copy()
    del x, y
    _, _, factors = model.train_batch(batch, labels)
    if args.mode == "exact":
        oracle = exact_fisher_diag(model, batch)
    else:
        oracle = mc_fisher_diag(model, batch, n_samples=args.samples, rng=mc_rng)
    rows = []
    for i, layer in model.param_layers():
        approx = layer.kronecker_diagonal(factors[i, "h"], factors[i, "s"])
        names = sorted(approx)  # one MAE over the layer's arrays in name order
        mae = approximation_mae(np.concatenate([oracle[i, n].ravel() for n in names]),
                                np.concatenate([approx[n].ravel() for n in names]))
        if not np.isfinite(mae):  # refused before any file is written
            raise NumericError(f"non-finite {args.mode} Fisher MAE of layer {i}: a diagonal "
                               f"overflows float64")
        rows.append((0, i, mae))
    out = make_out_dir(_out_dir(args.out, "oracle"))
    path = out / "fisher_mae.csv"
    write_csv(path, ("epoch", "layer", "mae"), rows)
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
                   choices=list(_ANALYSES))
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
        with np.errstate(all="ignore"):
            return args.func(args)
    except AdaFisherError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # an allocation numpy refused
        print(f"{AdaFisherError.label}: {exc}", file=sys.stderr)
        return AdaFisherError.exit_code
    except KeyboardInterrupt:  # a run keeps the lines of the epochs it finished
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
