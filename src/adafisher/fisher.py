"""Ground-truth Fisher information for categorical models.

The exact oracle enumerates every class label and weights squared per-sample
gradients by the predictive probabilities; the Monte-Carlo estimator samples
labels from the predictive distribution instead. Diagonal entries are ordered
to match vec(g) indexing with the activation index slow and the output index
fast, so they line up with the Kronecker product of the factor diagonals.
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


def _grad_blocks(model: Model) -> dict[int, dict[str, np.ndarray]]:
    """Current layer gradients rearranged into Fisher ordering."""
    blocks: dict[int, dict[str, np.ndarray]] = {}
    for i, layer in model.param_layers():
        if layer.kf_kind == "kron":
            g = layer.grads["W"].reshape(layer.grads["W"].shape[0], -1)
            if "b" in layer.grads:
                g = np.hstack([g, layer.grads["b"][:, None]])
            blocks[i] = {"WB": g.T.ravel()}  # h index slow, s index fast
        else:
            blocks[i] = {"scale": layer.grads["scale"].copy(),
                         "shift": layer.grads["shift"].copy()}
    return blocks


def _accumulate(total, blocks, weight):
    for i, entry in blocks.items():
        dest = total.setdefault(i, {})
        for name, vec in entry.items():
            if name in dest:
                dest[name] += weight * vec**2
            else:
                dest[name] = weight * vec**2


def _predictive(model: Model, x_one: np.ndarray) -> np.ndarray:
    out = model.forward(x_one, training=False)
    return softmax(out)[0]


def exact_fisher_diag(model: Model, batch: np.ndarray) -> FisherDiag:
    """Class-enumeration Fisher diagonal, averaged over the batch."""
    if model.loss != "cross_entropy":
        raise UnsupportedError("exact Fisher requires a categorical model")
    batch = np.asarray(batch, dtype=np.float64)
    m = batch.shape[0]
    total: dict[int, dict[str, np.ndarray]] = {}
    for n in range(m):
        x_one = batch[n : n + 1]
        p = _predictive(model, x_one)
        c = p.size
        if c > MAX_CLASSES:
            raise UnsupportedError(f"class enumeration capped at {MAX_CLASSES}, got {c}")
        for cls in range(c):
            grad_out = p.copy()[None, :]
            grad_out[0, cls] -= 1.0
            model.backward(grad_out)
            _accumulate(total, _grad_blocks(model), p[cls])
    for entry in total.values():
        for name in entry:
            entry[name] /= m
    return FisherDiag(layers=total, n_samples=0)


def mc_fisher_diag(model: Model, batch: np.ndarray, n_samples: int, seed: int) -> FisherDiag:
    """Monte-Carlo Fisher diagonal with labels sampled from the model."""
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    if model.loss != "cross_entropy":
        raise UnsupportedError("Fisher estimation requires a categorical model")
    batch = np.asarray(batch, dtype=np.float64)
    rng = Rng(seed)
    m = batch.shape[0]
    total: dict[int, dict[str, np.ndarray]] = {}
    for n in range(m):
        x_one = batch[n : n + 1]
        p = _predictive(model, x_one)
        for _ in range(n_samples):
            y = rng.choice_weighted(p)
            grad_out = p.copy()[None, :]
            grad_out[0, y] -= 1.0
            model.backward(grad_out)
            _accumulate(total, _grad_blocks(model), 1.0 / n_samples)
    for entry in total.values():
        for name in entry:
            entry[name] /= m
    return FisherDiag(layers=total, n_samples=n_samples)


def kfac_block_dense(layer: Dense) -> np.ndarray:
    """Full Kronecker product of a dense layer's empirical factors (test-scale only).

    Rebuilt from the layer's last forward input and backward signal, with the
    same per-sample-loss scale and homogeneous bias column as its capture.
    """
    x, dout = layer._x, layer._dout
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
