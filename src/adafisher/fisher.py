"""Ground-truth Fisher information for categorical models.

The exact oracle enumerates every class label and weights squared per-sample
gradients by the predictive probabilities; the Monte-Carlo estimator samples
labels from the predictive distribution instead. Diagonal entries are ordered
to match vec(g) indexing with the activation index slow and the output index
fast, so they line up with the Kronecker product of the factor diagonals.

Both run one eval-mode forward over the batch, then, per class c, one reverse
walk (nn.Model.reverse_walk) from the output gradient p - e_c (BackPACK). In
eval mode no layer couples samples (batch norm uses running statistics), so
row n of a layer's incoming gradient is sample n's own signal, and each
parameterized layer's sample_sq squares sample n's gradient from it: s_n x_n
(dense), sum_t s_t h_t (conv, KFC), or the per-sample sums of dout * xhat and
dout (norm). The walk forms no parameter gradients or captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SizeError, UnsupportedError
from .nn import Dense, Model, softmax
from .tensor import Rng

MAX_CLASSES = 64
MAX_BLOCK_DIM = 9  # dense-oracle guard (includes the bias row)


@dataclass
class FisherDiag:
    """Per-layer diagonal FIM estimates; n_samples == 0 means exact."""

    layers: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)
    n_samples: int = 0

    def flat(self) -> np.ndarray:
        chunks = []
        for i in sorted(self.layers):
            for name in sorted(self.layers[i]):
                chunks.append(self.layers[i][name].ravel())
        return np.concatenate(chunks) if chunks else np.zeros(0)


def _class_weighted_diag(model: Model, batch: np.ndarray, class_weights) -> dict:
    """Batch mean over samples n of sum_c w[n, c] * (gradient of -log p_c(x_n))**2,
    with w = class_weights(p) for the (M, C) predictive probabilities p."""
    if model.loss != "cross_entropy":
        raise UnsupportedError("Fisher estimation requires a categorical model")
    batch = np.asarray(batch, dtype=np.float64)
    m = batch.shape[0]
    if m == 0:
        raise InputError("empty batch")
    # Drop the layers' batch-sized state first, so the batch pass reuses its memory.
    model.forward(batch[:1], training=False)
    p = softmax(model.forward(batch, training=False))
    w = class_weights(p) / m
    total: dict[int, dict[str, np.ndarray]] = {i: {} for i, _ in model.param_layers()}
    for cls in np.flatnonzero(w.any(axis=0)):
        grad = p.copy()
        grad[:, cls] -= 1.0
        for i, layer, dout in model.reverse_walk(grad):
            for name, sq in layer.sample_sq(dout, w[:, cls]).items():
                total[i][name] = total[i].get(name, 0.0) + sq
    return total


def _label_counts(p: np.ndarray, n_samples: int, rng: Rng) -> np.ndarray:
    """(M, C) counts of n_samples labels drawn per row of p by inverse CDF, one
    uniform per draw in sample-major order."""
    m, c = p.shape
    cdf, u = np.cumsum(p, axis=1), rng.uniform((m, n_samples))
    return np.array([np.bincount(np.searchsorted(cdf[n], u[n], side="right").clip(0, c - 1),
                                 minlength=c) for n in range(m)])


def exact_fisher_diag(model: Model, batch: np.ndarray) -> FisherDiag:
    """Class-enumeration Fisher diagonal, averaged over the batch."""
    def enumerate_classes(p):
        if p.shape[1] > MAX_CLASSES:
            raise UnsupportedError(f"class enumeration capped at {MAX_CLASSES}, got {p.shape[1]}")
        return p
    return FisherDiag(layers=_class_weighted_diag(model, batch, enumerate_classes))


def mc_fisher_diag(model: Model, batch: np.ndarray, n_samples: int, seed: int) -> FisherDiag:
    """Monte-Carlo Fisher diagonal with labels sampled from the model."""
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    layers = _class_weighted_diag(
        model, batch, lambda p: _label_counts(p, n_samples, Rng(seed)) / n_samples)
    return FisherDiag(layers=layers, n_samples=n_samples)


def kfac_block_dense(layer: Dense) -> np.ndarray:
    """Full Kronecker product of a dense layer's empirical factors (test-scale only).

    Rebuilt from the input and backward signal of the layer's last param_stats,
    both of one pass, with the same per-sample-loss scale and homogeneous bias
    column as its capture.
    """
    x, dout = layer._stats_pair
    m = x.shape[0]
    x_hom = np.hstack([x, np.ones((m, 1))]) if layer.bias else x
    s = dout * m
    if x_hom.shape[1] > MAX_BLOCK_DIM or s.shape[1] > MAX_BLOCK_DIM:
        raise SizeError(f"dense block guard: factor dims must be <= {MAX_BLOCK_DIM}")
    return np.kron(x_hom.T @ x_hom / m, s.T @ s / m)


def approximation_mae(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute error over matched indices."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise InputError("MAE inputs must have equal length")
    return float(np.mean(np.abs(a - b)))
