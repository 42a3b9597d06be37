"""In-process simulation of data-parallel training.

A global batch is split into K equal shards of consecutive rows (K must
divide the batch). With equal shards, the worker mean of the shards' mean
losses, gradients and fresh factor diagonals is the full-batch value, so a
step runs one pass over the whole batch, Model.train_batch(x, y, workers=K).
Workers shape only BatchNorm's ghost batches: in training it normalizes each
shard by the shard's own statistics (see nn). A net without BatchNorm gives
the one-worker step bit for bit at every K. The EMA is applied to the
batch's factors (one state for the whole cluster), and a single synchronized
optimizer step is taken. A non-finite loss, gradient or factor raises
NumericError before the EMA state or the optimizer changes.

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
    """One synchronized step: K-worker pass -> check -> EMA -> divisors ->
    update. Returns the batch's mean loss, the mean of the workers' losses."""
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
