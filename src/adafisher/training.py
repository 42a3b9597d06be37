"""Configuration-driven training runs with deterministic metrics logging.

Metrics are one JSON object per line. Wall-clock timings go to a separate
timings file so that the metrics file is byte-identical across repeated runs
with the same config and seed.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from .config import RunConfig, _count, build_model, resolve_dataset
from .datasets import train_eval_split
from .diagnostics import TrajectoryLog
from .distributed import train_step
from .errors import ConfigError, InputError, NumericError
from .kfactor import DEFAULT_GAMMA, DEFAULT_LAMBDA, KFState
from .nn import softmax
from .optim import Schedule, build_optimizer
from .tensor import Rng

METRIC_KEYS = ("epoch", "step", "train_loss", "eval_loss", "accuracy",
               "optimizer", "seed")
# Former ablation switches and the settings that replace them.
REMOVED_ABLATIONS = {"sqrt_divisor": "optimizer.sqrt_divisor", "ema_off": "kf.gamma: 1"}


def emit_metrics(record: dict, fh) -> None:
    """Append one metrics record as a JSONL line; non-finite losses are refused."""
    for key in ("train_loss", "eval_loss"):
        val = record.get(key)
        if val is None or not math.isfinite(val):
            raise InputError(f"refusing non-finite {key}: {val}")
    line = json.dumps({k: record.get(k) for k in METRIC_KEYS}, sort_keys=True)
    fh.write(line + "\n")
    fh.flush()


def evaluate(model, x, y):
    out = model.forward(x, training=False)
    loss, _ = model.loss_and_grad(out, y)
    if model.loss == "cross_entropy":
        acc = float(np.mean(softmax(out).argmax(axis=1) == np.asarray(y)))
    else:
        acc = None
    return float(loss), acc


def run_training(config: RunConfig, out_dir=None, seed: int | None = None) -> Path:
    """Execute one training run; returns the metrics file path."""
    seed = config.seed if seed is None else _count(seed, "seed", low=0)
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rng = Rng(seed)
    model = build_model(config.model, rng)
    if config.track_first_layer:
        first = model.param_layers()[0][1].params if model.param_layers() else {}
        if "W" not in first or first["W"].size != 2:
            raise ConfigError("track_first_layer needs a 2-parameter first layer")
    x, y = resolve_dataset(config.dataset, seed)
    if config.workers > config.batch_size:
        raise ConfigError("workers cannot exceed the batch size")
    x_tr, y_tr, x_ev, y_ev = train_eval_split(x, y, seed=seed)
    if x_tr.shape[0] < config.batch_size:
        raise ConfigError("batch size exceeds the training split")

    opt_spec = dict(config.optimizer)
    name = opt_spec.pop("name")
    ablations = dict(config.ablations)
    norm_fisher_off = bool(ablations.pop("norm_fisher_off", False))
    if ablations:
        key = min(ablations)
        hint = REMOVED_ABLATIONS.get(key, "norm_fisher_off, the only ablation")
        raise ConfigError(f"unsupported ablation key {key!r}: use {hint}")
    opt = build_optimizer(name, opt_spec)
    kf_state = None
    if opt.needs_divisors:
        kf_cfg = dict(config.kf)
        gamma = kf_cfg.pop("gamma", DEFAULT_GAMMA)
        lam = kf_cfg.pop("lambda", DEFAULT_LAMBDA)
        if kf_cfg:
            raise ConfigError(f"unknown kf keys: {sorted(kf_cfg)}")
        kf_state = KFState.for_model(model, gamma=gamma, lam=lam,
                                     norm_fisher_off=norm_fisher_off)

    sched_cfg = dict(config.schedule)
    schedule = Schedule(kind=sched_cfg.pop("type", "constant"),
                        step_size=sched_cfg.pop("step_size", 10),
                        factor=sched_cfg.pop("factor", 0.1),
                        total_epochs=config.epochs)
    if sched_cfg:
        raise ConfigError(f"unknown schedule keys: {sorted(sched_cfg)}")

    trajectory = TrajectoryLog() if config.track_first_layer else None

    metrics_path = out / "metrics.jsonl"
    timings_path = out / "timings.jsonl"
    shuffle_rng = rng.spawn(1)
    step = 0
    with open(metrics_path, "w") as mfh, open(timings_path, "w") as tfh:
        for epoch in range(config.epochs):
            opt.lr_scale = schedule.scale(epoch)
            perm = shuffle_rng.permutation(x_tr.shape[0])
            losses, times = [], []
            n_batches = x_tr.shape[0] // config.batch_size
            for b in range(n_batches):
                idx = perm[b * config.batch_size:(b + 1) * config.batch_size]
                t0 = time.perf_counter()
                loss = train_step(model, x_tr[idx], y_tr[idx], opt, kf_state,
                                  workers=config.workers)
                times.append((time.perf_counter() - t0) * 1000.0)
                step += 1
                losses.append(loss)
            eval_loss, acc = evaluate(model, x_ev, y_ev)
            if not math.isfinite(eval_loss):  # the epoch's last update diverged
                raise NumericError(f"step {step}: non-finite eval loss")
            emit_metrics({"epoch": epoch, "step": step,
                          "train_loss": float(np.mean(losses)),
                          "eval_loss": eval_loss, "accuracy": acc,
                          "optimizer": name, "seed": seed}, mfh)
            tfh.write(json.dumps({"epoch": epoch,
                                  "mean_step_ms": float(np.mean(times)),
                                  "total_ms": float(np.sum(times))}) + "\n")
            if trajectory is not None:
                trajectory.record(epoch + 1, first["W"].ravel(),
                                  float(np.mean(losses)))
    if trajectory is not None:
        trajectory.to_csv(out / "trajectory.csv")
    final = out / "final_params.npz"
    np.savez(final, **{f"{i}.{nme}": arr for i, nme, arr in model.parameters()})
    return metrics_path
