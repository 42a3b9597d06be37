"""Command-line entry point.

Exit codes: 0 success, 2 config error (and every other AdaFisherError: a
config the model or data cannot run), 3 data error, 4 numeric failure.
The output root can be set with the ADAFISHER_OUT_ROOT environment variable.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, build_model, resolve_dataset
from .diagnostics import fft2, fim_hist_stats, gershgorin, snr
from .distributed import train_step
from .errors import AdaFisherError, ConfigError, DataError, NumericError
from .fisher import approximation_mae, exact_fisher_diag, mc_fisher_diag
from .kfactor import fresh_factors
from .tensor import Rng, kron_diag
from .training import run_training


def _out_dir(arg_out: str | None, default: str) -> Path:
    root = os.environ.get("ADAFISHER_OUT_ROOT", ".")
    return Path(root) / (arg_out if arg_out else default)


def cmd_train(args) -> int:
    config = RunConfig.from_json(args.config)
    path = run_training(config, out_dir=_out_dir(args.out, config.out_dir),
                        seed=args.seed)
    print(path)
    return 0


def cmd_distributed(args) -> int:
    config = RunConfig.from_json(args.config)
    config.workers = args.workers
    path = run_training(config, out_dir=_out_dir(args.out, config.out_dir),
                        seed=args.seed)
    print(path)
    return 0


def _load_snapshot(path: str):
    p = Path(path)
    if not p.exists():
        raise DataError(f"snapshot not found: {path}")
    if p.suffix == ".npz":
        return dict(np.load(p))
    return {"matrix": np.load(p)}


def cmd_diagnose(args) -> int:
    snap = _load_snapshot(args.snapshot)
    out = _out_dir(args.out, "diagnostics")
    out.mkdir(parents=True, exist_ok=True)
    if args.analysis == "gershgorin":
        discs = gershgorin(snap["matrix"])
        discs.to_csv(out / "discs.csv")
        print(f"contained={discs.contained} -> {out / 'discs.csv'}")
    elif args.analysis == "fft":
        spec = fft2(snap["matrix"])
        with open(out / "spectra.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["row", "col", "re", "im", "mag"])
            for i in range(spec.shape[0]):
                for j in range(spec.shape[1]):
                    z = spec[i, j]
                    w.writerow([i, j, repr(z.real), repr(z.imag), repr(abs(z))])
        print(out / "spectra.csv")
    elif args.analysis == "snr":
        if "clean" not in snap or "noisy" not in snap:
            raise DataError("snr snapshot must be an .npz with 'clean' and 'noisy'")
        res = snr(snap["clean"], snap["noisy"])
        with open(out / "snr.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["snr_db", "infinite"])
            w.writerow([repr(res.db), int(res.infinite)])
        print(f"snr={res.db:.6f} dB -> {out / 'snr.csv'}")
    else:  # fim
        stats = fim_hist_stats(snap["matrix"].ravel())
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
    batch = x[: config.batch_size]
    labels = np.asarray(y)[: config.batch_size]
    model.train_batch(batch, labels)
    factors = fresh_factors(model)
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
        for i in sorted(oracle.layers):
            entry = oracle.layers[i]
            if "WB" in entry and "h" in factors.get(i, {}):
                approx = kron_diag(factors[i]["h"], factors[i]["s"])
                mae = approximation_mae(oracle.layers[i]["WB"], approx)
                w.writerow([0, i, repr(mae)])
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adafisher")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("distributed", help="simulated multi-worker training")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_distributed)

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
