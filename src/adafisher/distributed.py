"""In-process simulation of data-parallel training with factor aggregation.

A global batch is split into K equal shards (K must divide the batch); each
virtual worker runs its own forward/backward pass and contributes gradients
and fresh factor diagonals, both keyed (layer id, name) like the divisors.
Both are averaged coordinatewise in fixed worker order, the EMA is applied to
the aggregated factors (one state for the whole cluster), and a single
synchronized optimizer step is taken. A non-finite loss, gradient or factor
raises NumericError after aggregation, before the EMA state or the optimizer
changes. Workers run sequentially; the result is defined to be independent of
physical parallelism because aggregation happens after a full barrier in fixed
order. One worker is the plain single-trainer step, run through the same loop.
The optimizer receives the curvature as KFState.divisors: one divisor per
parameter, keyed like the aggregated gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError
from .kfactor import KFState
from .nn import Model
from .optim import Optimizer


def shard_batch(x: np.ndarray, y: np.ndarray, workers: int):
    """Split a batch into `workers` equal shards, in order."""
    m = x.shape[0]
    if workers < 1 or m % workers:
        raise ConfigError(f"workers must divide the batch size; got {workers} for M={m}")
    return list(zip(np.split(x, workers), np.split(y, workers)))


def keyed(model: Model, attr: str) -> dict[tuple[int, str], np.ndarray]:
    """{(layer id, name): array} of every parameterized layer's grads or capture."""
    return {(i, name): arr for i, layer in model.param_layers()
            for name, arr in getattr(layer, attr).items()}


def _worker_mean(parts: list[dict]) -> dict:
    """Coordinatewise mean of equally laid-out {key: array} dicts.

    Sums in fixed worker order and divides once into new arrays, so one
    worker yields an exact copy of its values.
    """
    if not parts:
        raise ConfigError("no shards to aggregate")
    first = parts[0]
    if any(p.keys() != first.keys() for p in parts):
        raise ConfigError("shard layouts disagree")
    if any(p[key].shape != arr.shape for p in parts for key, arr in first.items()):
        raise ConfigError("shard shapes disagree")
    return {key: sum((p[key] for p in parts[1:]), arr) / len(parts)
            for key, arr in first.items()}


def _check_finite(step: int, quantity: str, arrays: dict) -> None:
    """Raise NumericError naming the step, the layer and the quantity of the
    first array in {(layer, name): array} that holds a non-finite entry."""
    for (i, name), arr in arrays.items():
        if not np.isfinite(arr).all():
            raise NumericError(f"step {step}: non-finite {quantity} {name} of layer {i}")


def train_step(model: Model, x: np.ndarray, y, opt: Optimizer,
               kf_state: KFState | None = None, workers: int = 1) -> float:
    """One synchronized step: shard -> per-worker pass -> mean -> check -> EMA
    -> divisors -> update.

    Every worker count runs the same loop; with workers=1 the means are exact
    copies, so the step equals the plain single-trainer sequence.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    step = opt.t + 1
    losses, shard_grads, shard_factors = [], [], []
    for xs, ys in shard_batch(x, y, workers):
        losses.append(model.train_batch(xs, ys))
        shard_grads.append(keyed(model, "grads"))
        if opt.needs_divisors:
            shard_factors.append(keyed(model, "capture"))
    if not np.isfinite(losses).all():
        raise NumericError(f"step {step}: non-finite training loss")
    grads = _worker_mean(shard_grads)
    del shard_grads  # release the per-worker gradients before the optimizer allocates
    _check_finite(step, "gradient", grads)
    for (i, name), g in grads.items():
        model.layers[i].grads[name] = g
    divisors = None
    if opt.needs_divisors:
        if kf_state is None:
            raise ConfigError("AdaFisher training requires a KFState")
        factors = _worker_mean(shard_factors)
        _check_finite(step, "factor", factors)
        kf_state.update(factors)
        divisors = kf_state.divisors(model)
    opt.step(model, divisors)
    return float(np.mean(losses))
