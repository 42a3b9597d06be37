"""The training step and configuration-driven training runs.

train_step is the one step for 1..K workers. K must divide the batch, and
worker k's shard is the k-th block of M/K consecutive rows. With equal shards,
the worker mean of the shards' mean losses, gradients and fresh factor
diagonals is the full-batch value, so a step runs one pass over the whole
batch, Model.train_batch(x, y, workers=K). Workers shape only BatchNorm's ghost
batches (see nn), so a net without BatchNorm gives the one-worker step bit for
bit at every K. A non-finite loss raises NumericError; otherwise the step hands
the pass's gradient and factor tables to Optimizer.step, which holds all the
optimizer's state and checks them before any of it changes. An optimizer that
reads no factors (Adam, SGD) gets a pass that forms none.

run_training reads a RunConfig that RunConfig.from_dict has checked and builds
its optimizer and schedule with RunConfig's builders; it checks only what needs
the data or the model, and calls train_step through the module global. The
rules the step applies (workers dividing the batch, BatchNorm's two-row shard,
a Dense's in matching the previous out, labels within the classes) are checked
by the step alone. So a run writes nothing until its first epoch has passed:
only then does it make the out dir, with make_out_dir (the CLI's commands make
theirs with it too), and write the epoch's lines. Each epoch opens
metrics.jsonl and timings.jsonl anew ("w" at epoch 0, "a" after) and closes
them with its lines complete, so a run that fails or is interrupted later
keeps the lines of every epoch it finished. An OSError of making the out dir
or writing any file in it is a DataError naming the path (errors.os_errors).
A metrics line's step is the optimizer's step count, opt.t. It trains in
float32 (TRAIN_DTYPE), the default of the PyTorch runs behind the paper's
results: the model is initialized in float64 from the root stream and rounded,
so final_params.npz holds float32 arrays. The losses in the metrics are
float64, computed from the float32 logits (Model.loss_and_grad). Metrics are
one JSON object per line. Wall-clock timings go to a separate timings file so
that the metrics file is byte-identical across repeated runs with the same
config and seed. track_first_layer adds trajectory.csv: per epoch, the
2-parameter first layer's weights and mean loss.

A run's random streams come from one np.random.SeedSequence(seed), in
run_streams. Its root stream initializes the model; its spawned children 0 and
1 are the epoch shuffle and the Monte-Carlo oracle's labels, so neither is the
root stream of any seed. The synthetic data and the split each draw from a
fresh default_rng(seed), which has the root's bits.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from .config import RunConfig, build_model, resolve_dataset
from .datasets import train_eval_split
from .diagnostics import write_csv
from .errors import ConfigError, InputError, NumericError, check_count, os_errors
from .nn import Model, softmax
from .optim import Optimizer

TRAIN_DTYPE = np.float32  # run_training's precision; the references stay float64
METRIC_KEYS = ("epoch", "step", "train_loss", "eval_loss", "accuracy",
               "optimizer", "seed")


def train_step(model: Model, x: np.ndarray, y, opt: Optimizer, workers: int = 1) -> float:
    """One synchronized step: K-worker pass -> loss check -> Optimizer.step.
    Returns the batch's mean loss, the mean of the workers' losses."""
    loss, grads, factors = model.train_batch(x, np.asarray(y), workers,
                                             capture=opt.needs_factors)
    if not np.isfinite(loss):
        raise NumericError(f"step {opt.t + 1}: non-finite training loss")
    opt.step(model, grads, factors)
    return float(loss)


def emit_metrics(record: dict, fh) -> None:
    """Append one metrics record as a JSONL line; non-finite losses are refused."""
    for key in ("train_loss", "eval_loss"):
        val = record.get(key)
        if val is None or not math.isfinite(val):
            raise InputError(f"refusing non-finite {key}: {val}")
    line = json.dumps({k: record.get(k) for k in METRIC_KEYS}, sort_keys=True)
    fh.write(line + "\n")
    fh.flush()


def evaluate(model, x, y, batch_size: int):
    """Eval-mode loss and accuracy (None for an MSE model) over x, y.

    The forward runs on chunks of batch_size rows, the last one partial, so
    its activations never exceed one training batch's; the loss and accuracy
    reduce the concatenated logits once."""
    check_count("evaluation batch size", batch_size, error=InputError)
    if x.shape[0] == 0:
        raise InputError("cannot evaluate on zero rows")
    out = np.concatenate([model.forward(x[i:i + batch_size], training=False)
                          for i in range(0, x.shape[0], batch_size)])
    loss, _ = model.loss_and_grad(out, y)
    if model.loss == "cross_entropy":
        acc = float(np.mean(softmax(out).argmax(axis=1) == np.asarray(y)))
    else:
        acc = None
    return float(loss), acc


def run_streams(seed: int) -> list[np.random.Generator]:
    """[root, shuffle, labels]: the Generators of SeedSequence(seed) and of its
    spawned children 0 and 1. The root's bits are default_rng(seed)'s."""
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in (seq, *seq.spawn(2))]


def make_out_dir(path) -> Path:
    """path as a Path, made with its parents; an OSError is a DataError naming it."""
    with os_errors(f"make the output directory {path}"):
        Path(path).mkdir(parents=True, exist_ok=True)
    return Path(path)


def run_training(config: RunConfig, out_dir=None) -> Path:
    """Execute one training run; returns the metrics file path."""
    root, shuffle, _ = run_streams(config.seed)
    model = build_model(config.model, root).astype(TRAIN_DTYPE)
    if config.track_first_layer:
        first = model.param_layers()[0][1].params if model.param_layers() else {}
        if "W" not in first or first["W"].size != 2:
            raise ConfigError("track_first_layer needs a 2-parameter first layer")
    x, y = resolve_dataset(config.dataset, config.seed)
    # Split row numbers, not rows: the data stays as loaded, each batch
    # gathers its rows from it, and only the eval rows are copied.
    rows, rows_ev = train_eval_split(x.shape[0], seed=config.seed)
    x_ev, y_ev = x[rows_ev], y[rows_ev]
    if rows.shape[0] < config.batch_size:
        raise ConfigError("batch size exceeds the training split")

    opt, schedule = config.build_optimizer(), config.build_schedule()

    out = Path(out_dir if out_dir is not None else config.out_dir)
    metrics_path = out / "metrics.jsonl"
    timings_path = out / "timings.jsonl"
    trajectory = []  # (epoch, w1, w2, loss) rows under track_first_layer
    for epoch in range(config.epochs):
        opt.lr_scale = schedule.scale(epoch)
        perm = shuffle.permutation(rows.shape[0])
        losses, times = [], []
        n_batches = rows.shape[0] // config.batch_size
        for b in range(n_batches):
            batch = rows[perm[b * config.batch_size:(b + 1) * config.batch_size]]
            t0 = time.perf_counter()
            loss = train_step(model, x[batch], y[batch], opt, workers=config.workers)
            times.append((time.perf_counter() - t0) * 1000.0)
            losses.append(loss)
        eval_loss, acc = evaluate(model, x_ev, y_ev, config.batch_size)
        if not math.isfinite(eval_loss):  # the epoch's last update diverged
            raise NumericError(f"step {opt.t}: non-finite eval loss")
        if epoch == 0:  # the first epoch passed: the run's first write
            make_out_dir(out)
        mode = "a" if epoch else "w"
        with os_errors(f"write {metrics_path}"), open(metrics_path, mode) as fh:
            emit_metrics({"epoch": epoch, "step": opt.t,
                          "train_loss": float(np.mean(losses)),
                          "eval_loss": eval_loss, "accuracy": acc,
                          "optimizer": config.optimizer["name"], "seed": config.seed}, fh)
        with os_errors(f"write {timings_path}"), open(timings_path, mode) as fh:
            fh.write(json.dumps({"epoch": epoch, "mean_step_ms": float(np.mean(times)),
                                 "total_ms": float(np.sum(times))}) + "\n")
        if config.track_first_layer:
            trajectory.append((epoch + 1, *first["W"].ravel().tolist(), float(np.mean(losses))))
    if config.track_first_layer:
        write_csv(out / "trajectory.csv", ("epoch", "w1", "w2", "loss"), trajectory)
    final = out / "final_params.npz"
    with os_errors(f"write {final}"):
        np.savez(final, **{f"{i}.{nme}": arr for i, nme, arr in model.parameters()})
    return metrics_path
