"""In-process simulation of data-parallel training with factor aggregation.

A global batch is split into K equal shards of consecutive rows (K must
divide the batch); each virtual worker contributes its shard's gradients and
fresh factor diagonals, which are averaged coordinatewise in fixed worker
order. The EMA is applied to the aggregated factors (one state for the whole
cluster), and a single synchronized optimizer step is taken. A non-finite
loss, gradient or factor raises NumericError after aggregation, before the EMA
state or the optimizer changes.

The K workers run as one stacked pass, Model.train_batch(x, y, workers=K):
only what depends on which samples share a shard runs per worker, on the
(K, M/K, ...) view of the batch (see nn). Each layer writes the worker means
of its gradients and captures, so the step reads them as for one worker, and
the result equals K separate shard passes averaged in worker order bit for
bit. One worker is the plain single-trainer step, run through the same code.
The optimizer receives the curvature as KFState.divisors: one divisor per
parameter, keyed like the gradients. An optimizer that reads none (Adam, SGD:
needs_divisors is False) gets a pass that forms no factors at all.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError
from .kfactor import KFState
from .nn import Model
from .optim import Optimizer


def keyed(model: Model, attr: str) -> dict[tuple[int, str], np.ndarray]:
    """{(layer id, name): array} of every parameterized layer's grads or capture."""
    return {(i, name): arr for i, layer in model.param_layers()
            for name, arr in getattr(layer, attr).items()}


def _check_finite(step: int, quantity: str, arrays: dict) -> None:
    """Raise NumericError naming the step, the layer and the quantity of the
    first array in {(layer, name): array} that holds a non-finite entry."""
    for (i, name), arr in arrays.items():
        if not np.isfinite(arr).all():
            raise NumericError(f"step {step}: non-finite {quantity} {name} of layer {i}")


def train_step(model: Model, x: np.ndarray, y, opt: Optimizer,
               kf_state: KFState | None = None, workers: int = 1) -> float:
    """One synchronized step: stacked K-worker pass -> check -> EMA ->
    divisors -> update. Returns the mean of the workers' losses."""
    step = opt.t + 1
    loss = model.train_batch(np.asarray(x, dtype=np.float64), np.asarray(y), workers,
                             capture=opt.needs_divisors)
    if not np.isfinite(loss):
        raise NumericError(f"step {step}: non-finite training loss")
    _check_finite(step, "gradient", keyed(model, "grads"))
    divisors = None
    if opt.needs_divisors:
        if kf_state is None:
            raise ConfigError("AdaFisher training requires a KFState")
        factors = keyed(model, "capture")
        _check_finite(step, "factor", factors)
        kf_state.update(factors)
        divisors = kf_state.divisors(model)
    opt.step(model, divisors)
    return float(loss)
