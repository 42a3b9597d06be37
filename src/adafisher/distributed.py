"""In-process simulation of data-parallel training with factor aggregation.

A global batch is split into K equal shards; each virtual worker runs its own
forward/backward pass and contributes fresh factor diagonals and gradients.
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

import logging

import numpy as np

from .errors import ConfigError, NumericError
from .kfactor import KFState, fresh_factors
from .nn import Model
from .optim import Optimizer

log = logging.getLogger(__name__)


def shard_batch(x: np.ndarray, y: np.ndarray, workers: int):
    """Split a batch into equal shards, dropping the remainder."""
    m = x.shape[0]
    if workers < 1 or workers > m:
        raise ConfigError(f"workers must lie in [1, batch size]; got {workers} for M={m}")
    size = m // workers
    if size * workers != m:
        log.warning("dropping %d remainder samples (batch %d, %d workers)",
                    m - size * workers, m, workers)
    return [(x[k * size:(k + 1) * size], y[k * size:(k + 1) * size]) for k in range(workers)]


def _worker_mean(parts: list):
    """Coordinatewise mean of equally laid-out (nested) dicts of arrays.

    Sums in fixed worker order and divides once into new arrays, so one
    worker yields an exact copy of its values.
    """
    if not parts:
        raise ConfigError("no shards to aggregate")
    first = parts[0]
    if isinstance(first, dict):
        if any(set(p) != set(first) for p in parts):
            raise ConfigError("shard layouts disagree")
        return {key: _worker_mean([p[key] for p in parts]) for key in first}
    if any(p.shape != first.shape for p in parts):
        raise ConfigError("shard shapes disagree")
    return sum(parts[1:], first) / len(parts)


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
        shard_grads.append({(i, name): g for i, layer in model.param_layers()
                            for name, g in layer.grads.items()})
        if opt.needs_divisors:
            shard_factors.append(fresh_factors(model))
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
        agg = _worker_mean(shard_factors)
        _check_finite(step, "factor", {(i, name): vec for i, factors in agg.items()
                                       for name, vec in factors.items()})
        kf_state.update(agg)
        divisors = kf_state.divisors(model)
    opt.step(model, divisors)
    return float(np.mean(losses))
