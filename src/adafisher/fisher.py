"""Ground-truth Fisher information for categorical models.

The exact oracle enumerates every class label and weights squared per-sample
gradients by the predictive probabilities; the Monte-Carlo estimator samples
labels from the predictive distribution instead. Each layer's diagonal is one
array per parameter, keyed by its name and shaped like it, the layout of
each layer's kronecker_diagonal.

Both walk the batch in chunks of consecutive rows, sized so that a chunk's
input fits CACHE_BUDGET bytes (at least one row; a batch that fits is one
chunk). Per chunk they run one eval-mode forward, then, per class c, one
reverse walk (nn.Model.reverse_walk) from the output gradient p - e_c
(BackPACK). In eval mode no layer couples samples (batch norm uses running
statistics), so row n of a layer's incoming gradient is sample n's own signal
g_n, and each parameterized layer's sample_sq (nn.Layer's one recipe) squares
sample n's gradient, formed by its family's _sample_sums from the
activation-side array a that also feeds training: g_n a_n^T and g_n summed
over positions (Dense and Conv2d, KFC), or the per-feature sums of g_n * a_n
and g_n with a the normalized input (the norms). The totals add each chunk's
sums in chunk order, so reruns are bit-identical. The walk forms no parameter
gradients or captures: afterwards a model's grads and captures are as they
were, and its layers' forward state is the last chunk's. The Monte-Carlo
estimator draws all of its uniforms for the whole batch before the first
chunk, so the labels do not depend on the chunk size.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .datasets import MAX_SYNTH_VALUES
from .errors import InputError, SizeError, UnsupportedError
from .nn import Model, softmax
from .tensor import Rng

MAX_CLASSES = 64
CACHE_BUDGET = 128 * 1024  # bytes of input rows per chunk of the oracle's walk


def _checked_batch(model: Model, batch: np.ndarray) -> np.ndarray:
    """The batch as float64, once the model is categorical and the batch non-empty."""
    if model.loss != "cross_entropy":
        raise UnsupportedError("Fisher estimation requires a categorical model")
    batch = np.asarray(batch, dtype=np.float64)
    if batch.shape[0] == 0:
        raise InputError("empty batch")
    return batch


def _class_weighted_diag(model: Model, batch: np.ndarray, class_weights) -> dict:
    """Batch mean over samples n of sum_c w[n, c] * (gradient of -log p_c(x_n))**2,
    with w = class_weights(p, rows) for the (m, C) predictive probabilities p
    of the batch's rows `rows`.

    Runs the eval-mode forward and the class walks one chunk of consecutive
    rows at a time, max(1, CACHE_BUDGET // bytes per input row) rows, so the
    layer state that every class walk reads again is one chunk's, not the
    whole batch's. The sums add up in chunk order. Afterwards the layers'
    forward state is the last chunk's; grads and captures are untouched."""
    m = batch.shape[0]
    step = max(1, CACHE_BUDGET // max(batch[0].nbytes, 1))
    total: dict[int, dict[str, np.ndarray]] = {i: {} for i, _ in model.param_layers()}
    for start in range(0, m, step):
        rows = slice(start, start + step)
        p = softmax(model.forward(batch[rows], training=False))
        w = class_weights(p, rows) / m
        for cls in np.flatnonzero(w.any(axis=0)):
            grad = p.copy()
            grad[:, cls] -= 1.0
            for i, layer, dout in model.reverse_walk(grad):
                for name, sq in layer.sample_sq(dout, w[:, cls]).items():
                    total[i][name] = total[i].get(name, 0.0) + sq
    return total


def _label_counts(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(m, C) counts of the labels drawn per row of p by inverse CDF, one
    uniform of the same row of u per draw."""
    m, c = p.shape
    cdf = np.cumsum(p, axis=1)
    return np.array([np.bincount(np.searchsorted(cdf[n], u[n], side="right").clip(0, c - 1),
                                 minlength=c) for n in range(m)])


def exact_fisher_diag(model: Model, batch: np.ndarray) -> dict:
    """Class-enumeration Fisher diagonal, averaged over the batch:
    {layer id: {parameter name: array}}."""
    def enumerate_classes(p, rows):
        if p.shape[1] > MAX_CLASSES:
            raise UnsupportedError(f"class enumeration capped at {MAX_CLASSES}, got {p.shape[1]}")
        return p
    return _class_weighted_diag(model, _checked_batch(model, batch), enumerate_classes)


def mc_fisher_diag(model: Model, batch: np.ndarray, n_samples: int, seed: int) -> dict:
    """Monte-Carlo Fisher diagonal with labels sampled from the model, laid
    out like exact_fisher_diag's: the (M, n_samples) uniforms are drawn from
    Rng(seed) in sample-major order before the first chunk."""
    if not (isinstance(n_samples, Integral) and not isinstance(n_samples, bool)
            and n_samples >= 1):
        raise InputError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    batch = _checked_batch(model, batch)
    draws = batch.shape[0] * int(n_samples)
    if draws > MAX_SYNTH_VALUES:
        raise SizeError(f"{batch.shape[0]} rows x {n_samples} samples = {draws} label draws "
                        f"exceed the guard of {MAX_SYNTH_VALUES}")
    u = Rng(seed).uniform((batch.shape[0], n_samples))
    return _class_weighted_diag(
        model, batch, lambda p, rows: _label_counts(p, u[rows]) / n_samples)


def approximation_mae(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute error over matched indices."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise InputError("MAE inputs must have equal length")
    return float(np.mean(np.abs(a - b)))
