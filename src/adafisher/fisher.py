"""Ground-truth Fisher information for categorical models.

The exact oracle sums the squared per-sample gradients over every class label,
weighted by the predictive probabilities p; the Monte-Carlo estimator samples
labels from the predictive distribution instead. Both return
{(layer id, parameter name): array}, each shaped like its parameter, the
layout of the training pass's gradients and of AdaFisher's divisors.

Both walk the batch in chunks of consecutive rows, sized so that a chunk's
input fits CACHE_BUDGET bytes (at least one row; a batch that fits is one
chunk). Per chunk they run one eval-mode forward, then one reverse walk
(nn.Model.reverse_walk) per output signal g, with row weights w, that the
estimator yields for the chunk's (m, C) probabilities. Monte-Carlo yields
p - e_c (BackPACK) for each drawn class c, weighted by its label counts. The
exact oracle uses that the label-averaged output Fisher of a row,
sum_c p_c (p - e_c)(p - e_c)^T = diag(p) - p p^T, has rank C - 1: it yields
the C - 1 columns of its Cholesky factor (the multinomial covariance's,
Tanabe & Sagae 1992) with unit weights, so a chunk costs C - 1 walks, not C.
In eval mode no layer couples samples (batch norm uses running statistics),
so row n of a layer's incoming gradient is sample n's own signal g_n, and
each parameterized layer's sample_sq (nn.Layer's one recipe) squares sample
n's gradient, formed by its family's _sample_sums from the activation-side
array a that also feeds training: g_n a_n^T and g_n summed over positions
(Dense and Conv2d, KFC), or the per-feature sums of g_n * a_n and g_n with a
the normalized input (the norms). The totals add each chunk's sums in chunk
order, so reruns are bit-identical. The walk forms no parameter gradients or
factors, and afterwards its layers' forward state is the last chunk's. Both
run in float64: a float32 model is walked as its float64 copy (Model.astype),
so its own layers keep their state. The Monte-Carlo estimator draws all of its
uniforms for the whole batch from the Generator it is given before the first
chunk, so the labels do not depend on the chunk size; the oracle
command gives it the run's label stream (training.run_streams), not the
stream that initialized the model.
"""

from __future__ import annotations

import numpy as np

from .datasets import MAX_SYNTH_VALUES
from .errors import InputError, SizeError, UnsupportedError, check_count
from .nn import Model, softmax

MAX_CLASSES = 64
CACHE_BUDGET = 128 * 1024  # bytes of input rows per chunk of the oracle's walk


def _checked(model: Model, batch: np.ndarray) -> tuple[Model, np.ndarray]:
    """The model and the batch in float64 (a float32 model's float64 copy),
    once the model is categorical and the batch non-empty."""
    if model.loss != "cross_entropy":
        raise UnsupportedError("Fisher estimation requires a categorical model")
    batch = np.asarray(batch, dtype=np.float64)
    if batch.shape[0] == 0:
        raise InputError("empty batch")
    return model.astype(np.float64), batch


def _signal_weighted_diag(model: Model, batch: np.ndarray, signals) -> dict:
    """Batch mean over samples n of sum over the pairs (g, w) of signals(p, rows)
    of w[n] * (gradient back-propagated from output signal g[n])**2, for the
    (m, C) predictive probabilities p of the batch's rows `rows`.

    Runs the eval-mode forward and the signals' walks one chunk of consecutive
    rows at a time, max(1, CACHE_BUDGET // bytes per input row) rows, so the
    layer state that every walk reads again is one chunk's, not the whole
    batch's. The sums add up in chunk order, into {(layer id, name): array}.
    Afterwards the layers' forward state is the last chunk's."""
    m = batch.shape[0]
    step = max(1, CACHE_BUDGET // max(batch[0].nbytes, 1))
    total = {(i, name): np.zeros_like(arr) for i, name, arr in model.parameters()}
    for start in range(0, m, step):
        rows = slice(start, start + step)
        p = softmax(model.forward(batch[rows], training=False))
        for grad, w in signals(p, rows):
            w = w / m
            for i, layer, dout in model.reverse_walk(grad):
                for name, sq in layer.sample_sq(dout, w).items():
                    total[i, name] += sq
    return total


def _multinomial_factor(p: np.ndarray) -> np.ndarray:
    """(C - 1, m, C) columns B of a Cholesky factor of each row's multinomial
    covariance: sum_i B[i, n] B[i, n]^T = diag(p_n) - p_n p_n^T for row p_n of
    the (m, C) probabilities p.

    With r_i = sum_{k>=i} p_k, column i holds sqrt(p_i r_{i+1} / r_i) at i,
    -p_j sqrt(p_i / (r_i r_{i+1})) at j > i and 0 at j < i. It is all zero
    where r_{i+1} = 0 (softmax underflow, so p_j = 0 for every j > i). The last
    column of the full factor, at r_C = 0, is zero and left out."""
    c = p.shape[1]
    r = np.cumsum(p[:, ::-1], axis=1)[:, ::-1].T  # (C, m): r_i per row
    head, tail = r[:-1], r[1:]
    live = tail > 0  # then head >= tail > 0
    root = np.sqrt(np.divide(p[:, :-1].T, head, out=np.zeros_like(head), where=live))
    # sqrt(p_i / r_i) / sqrt(r_{i+1}), which is at most 1 / sqrt(r_{i+1}): no overflow
    coef = np.divide(root, np.sqrt(tail), out=np.zeros_like(root), where=live)
    cols = np.arange(c - 1)
    b = np.where(np.arange(c) > cols[:, None, None], -p * coef[:, :, None], 0.0)
    b[cols, :, cols] = root * np.sqrt(tail)
    return b


def _label_counts(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(m, C) counts of the labels drawn per row of p by inverse CDF, one
    uniform of the same row of u per draw."""
    m, c = p.shape
    cdf = np.cumsum(p, axis=1)
    return np.array([np.bincount(np.searchsorted(cdf[n], u[n], side="right").clip(0, c - 1),
                                 minlength=c) for n in range(m)])


def exact_fisher_diag(model: Model, batch: np.ndarray) -> dict:
    """Exact Fisher diagonal, the expectation over every class label, averaged
    over the batch: {(layer id, parameter name): array}. Walks the C - 1
    columns of each chunk's _multinomial_factor, each with unit row weights."""
    def factor_columns(p, rows):
        if p.shape[1] > MAX_CLASSES:
            raise UnsupportedError(f"class enumeration capped at {MAX_CLASSES}, got {p.shape[1]}")
        ones = np.ones(len(p))
        for col in _multinomial_factor(p):
            yield col, ones
    return _signal_weighted_diag(*_checked(model, batch), factor_columns)


def mc_fisher_diag(model: Model, batch: np.ndarray, n_samples: int,
                   rng: np.random.Generator) -> dict:
    """Monte-Carlo Fisher diagonal with labels sampled from the model, laid
    out like exact_fisher_diag's: the (M, n_samples) uniforms are drawn from
    rng in sample-major order before the first chunk. Walks p - e_c for each
    class c drawn in a chunk, weighted by its label counts."""
    check_count("n_samples", n_samples, 1, InputError)
    model, batch = _checked(model, batch)
    draws = batch.shape[0] * int(n_samples)
    if draws > MAX_SYNTH_VALUES:
        raise SizeError(f"{batch.shape[0]} rows x {n_samples} samples = {draws} label draws "
                        f"exceed the guard of {MAX_SYNTH_VALUES}")
    u = rng.random((batch.shape[0], n_samples))

    def drawn_classes(p, rows):
        w = _label_counts(p, u[rows]) / n_samples
        for cls in np.flatnonzero(w.any(axis=0)):
            grad = p.copy()
            grad[:, cls] -= 1.0
            yield grad, w[:, cls]
    return _signal_weighted_diag(model, batch, drawn_classes)


def approximation_mae(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute error over matched indices."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise InputError("MAE inputs must have equal length")
    return float(np.mean(np.abs(a - b)))
