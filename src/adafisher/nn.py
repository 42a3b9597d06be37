"""Layered feed-forward networks with reverse-mode differentiation.

Layer inputs are batch-first. A paired forward+backward additionally fills,
for every parameterized layer, a LayerCapture holding the diagonals of its two
Kronecker factors: the mean squares of the homogeneous input activations (h,
exactly 1.0 in the bias slot) and of the per-sample pre-activation gradients
(s), taken over the sample and, for convolutions and 4-D batch norm, spatial
axes (the KFC convention). Gradients returned by backward are mini-batch
means; s is at per-sample-loss scale (the batch-mean factor undone).

Conv2d multiplies its weights with im2col patches as a broadcast batched
matmul, so the products of its forward pass and of both gradients run on BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, StateError, UnsupportedError
from .tensor import Rng, col2im_batch, conv_out_size, im2col_batch


@dataclass
class LayerCapture:
    h: np.ndarray  # activation factor diagonal (of the normalized input for norm layers)
    s: np.ndarray  # backprop-signal factor diagonal, per-sample-loss scale


def _feature_sum(*arrays: np.ndarray) -> np.ndarray:
    """Sum per axis-1 feature, over all other axes, of the arrays' elementwise product."""
    cols = [a.reshape(a.shape[0], a.shape[1], -1) for a in arrays]
    return np.einsum(",".join(["mft"] * len(cols)) + "->f", *cols)


def _mean_sq(a: np.ndarray) -> np.ndarray:
    """Mean of squares per axis-1 feature over all other axes."""
    return _feature_sum(a, a) / (a.size // a.shape[1])


class Layer:
    """Base layer: stateless unless it carries parameters."""

    kf_kind: str | None = None  # 'kron' | 'norm' | None (no params)

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.capture: LayerCapture | None = None

    def init(self, rng: Rng):
        pass

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    kf_kind = "kron"

    def __init__(self, in_dim: int, out_dim: int, bias: bool = True):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.bias = bias
        self.params["W"] = np.zeros((out_dim, in_dim))
        if bias:
            self.params["b"] = np.zeros(out_dim)

    def init(self, rng: Rng):
        scale = np.sqrt(2.0 / (self.in_dim + self.out_dim))
        self.params["W"] = rng.normal((self.out_dim, self.in_dim)) * scale
        if self.bias:
            self.params["b"] = np.zeros(self.out_dim)

    def forward(self, x, training=True):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(f"Dense expects (M, {self.in_dim}), got {x.shape}")
        self._x = x
        a = x @ self.params["W"].T
        if self.bias:
            a = a + self.params["b"]
        return a

    def backward(self, dout):
        x = self._x
        m = x.shape[0]
        self.grads["W"] = dout.T @ x
        h = _mean_sq(x)
        if self.bias:
            self.grads["b"] = dout.sum(axis=0)
            h = np.append(h, 1.0)
        self._dout = dout  # kept for the full-factor reference in fisher
        self.capture = LayerCapture(h=h, s=_mean_sq(dout * m))
        return dout @ self.params["W"]


class Conv2d(Layer):
    kf_kind = "kron"

    def __init__(self, in_ch, out_ch, kernel, stride=(1, 1), pad=(0, 0), bias=True):
        super().__init__()
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel = tuple(kernel)
        self.stride = tuple(stride)
        self.pad = tuple(pad)
        self.bias = bias
        kh, kw = self.kernel
        self.params["W"] = np.zeros((out_ch, in_ch, kh, kw))
        if bias:
            self.params["b"] = np.zeros(out_ch)

    def init(self, rng: Rng):
        kh, kw = self.kernel
        fan_in = self.in_ch * kh * kw
        self.params["W"] = rng.normal((self.out_ch, self.in_ch, kh, kw)) * np.sqrt(1.0 / fan_in)
        if self.bias:
            self.params["b"] = np.zeros(self.out_ch)

    def forward(self, x, training=True):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise DimensionError(f"Conv2d expects (M, {self.in_ch}, H, W), got {x.shape}")
        m, _, h, w = x.shape
        self._x_shape = x.shape
        self._oh = conv_out_size(h, self.kernel[0], self.stride[0], self.pad[0])
        self._ow = conv_out_size(w, self.kernel[1], self.stride[1], self.pad[1])
        self._patches = im2col_batch(x, self.kernel, self.stride, self.pad)  # (M, CKK, T)
        a = self.params["W"].reshape(self.out_ch, -1) @ self._patches  # (M, O, T)
        if self.bias:
            a += self.params["b"][:, None]
        return a.reshape(m, self.out_ch, self._oh, self._ow)

    def backward(self, dout):
        m = self._x_shape[0]
        g = dout.reshape(m, self.out_ch, self._oh * self._ow)  # dJ/da per position
        w_mat = self.params["W"].reshape(self.out_ch, -1)
        self.grads["W"] = (g @ self._patches.transpose(0, 2, 1)).sum(axis=0).reshape(
            self.params["W"].shape)
        h = _mean_sq(self._patches)
        if self.bias:
            self.grads["b"] = g.sum(axis=(0, 2))
            h = np.append(h, 1.0)
        self.capture = LayerCapture(h=h, s=_mean_sq(g) * (m * m))
        return col2im_batch(w_mat.T @ g, self._x_shape, self.kernel, self.stride, self.pad)


class BatchNorm(Layer):
    """Per-channel batch normalization for (M, C) or (M, C, H, W) inputs."""

    kf_kind = "norm"

    def __init__(self, dim: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        if eps < 0:
            raise InputError("eps must be non-negative")
        self.dim = dim
        self.eps = eps
        self.momentum = momentum
        self.params["scale"] = np.ones(dim)
        self.params["shift"] = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def _shape(self, x):
        """Broadcast shape of a per-channel vector against x."""
        if x.ndim not in (2, 4):
            raise DimensionError("BatchNorm expects 2-D or 4-D input")
        return (1, self.dim) + (1,) * (x.ndim - 2)

    def forward(self, x, training=True):
        if x.shape[1] != self.dim:
            raise DimensionError(f"BatchNorm expects {self.dim} channels, got {x.shape}")
        shape = self._shape(x)
        if training:
            if x.shape[0] < 2:
                raise InputError("BatchNorm needs batch size >= 2 in training mode")
            mu = _feature_sum(x) / (x.size // self.dim)
            xhat = x - mu.reshape(shape)
            var = _mean_sq(xhat)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mu
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            xhat = x - self.running_mean.reshape(shape)
            var = self.running_var
        self._std = np.sqrt(var + self.eps)
        xhat /= self._std.reshape(shape)
        self._xhat = xhat
        self._training = training
        out = xhat * self.params["scale"].reshape(shape)
        out += self.params["shift"].reshape(shape)
        return out

    def backward(self, dout):
        shape = self._shape(dout)
        xhat = self._xhat
        m = dout.shape[0]
        self.grads["shift"] = _feature_sum(dout)
        self.grads["scale"] = _feature_sum(dout, xhat)
        gain = (self.params["scale"] / self._std).reshape(shape)
        if self._training:
            n = dout.size // self.dim
            dx = xhat * (self.grads["scale"] / -n).reshape(shape)
            dx += dout
            dx -= (self.grads["shift"] / n).reshape(shape)
            dx *= gain
        else:
            dx = dout * gain
        self.capture = LayerCapture(h=_mean_sq(xhat), s=_mean_sq(dout) * (m * m))
        return dx


class LayerNorm(Layer):
    """Per-sample normalization over the feature axis of (M, C) inputs."""

    kf_kind = "norm"

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.params["scale"] = np.ones(dim)
        self.params["shift"] = np.zeros(dim)

    def forward(self, x, training=True):
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DimensionError(f"LayerNorm expects (M, {self.dim}), got {x.shape}")
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        self._std = np.sqrt(var + self.eps)
        self._xhat = (x - mu) / self._std
        return self.params["scale"] * self._xhat + self.params["shift"]

    def backward(self, dout):
        xhat = self._xhat
        m = dout.shape[0]
        self.grads["scale"] = (dout * xhat).sum(axis=0)
        self.grads["shift"] = dout.sum(axis=0)
        dxhat = dout * self.params["scale"]
        dx = (dxhat - dxhat.mean(axis=1, keepdims=True)
              - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)) / self._std
        self.capture = LayerCapture(h=_mean_sq(xhat), s=_mean_sq(dout * m))
        return dx


class Activation(Layer):
    SUPPORTED = ("relu", "tanh", "identity")

    def __init__(self, name: str):
        super().__init__()
        if name not in self.SUPPORTED:
            raise UnsupportedError(f"unsupported activation {name!r}")
        self.name = name

    def forward(self, x, training=True):
        self._x = x
        if self.name == "relu":
            return np.maximum(x, 0.0)
        if self.name == "tanh":
            self._out = np.tanh(x)
            return self._out
        return x

    def backward(self, dout):
        if self.name == "relu":
            return dout * (self._x > 0)  # subgradient 0 at the kink
        if self.name == "tanh":
            return dout * (1.0 - self._out**2)
        return dout


class Flatten(Layer):
    def forward(self, x, training=True):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._shape)


class MaxPool2d(Layer):
    def __init__(self, kernel, stride=None):
        super().__init__()
        self.kernel = tuple(kernel)
        self.stride = tuple(stride) if stride is not None else self.kernel

    def forward(self, x, training=True):
        m, c, h, w = x.shape
        kh, kw = self.kernel
        self._x_shape = x.shape
        oh = conv_out_size(h, kh, self.stride[0], 0)
        ow = conv_out_size(w, kw, self.stride[1], 0)
        cols = im2col_batch(x.reshape(m * c, 1, h, w), self.kernel, self.stride, (0, 0))
        cols = cols.reshape(m, c, kh * kw, oh * ow)
        out = cols.max(axis=2)
        # Index of each window's first maximum, as argmax picks it for finite
        # inputs. argmax along the short, strided window axis is slow; these
        # kh*kw whole-array comparisons (descending, so the first maximum wins
        # ties) took under half its time at the benchmark's pool shapes.
        self._argmax = np.full(out.shape, kh * kw - 1)
        for k in range(kh * kw - 2, -1, -1):
            self._argmax = np.where(cols[:, :, k] == out, k, self._argmax)
        self._oh, self._ow = oh, ow
        return out.reshape(m, c, oh, ow)

    def backward(self, dout):
        m, c, h, w = self._x_shape
        kh, kw = self.kernel
        t = self._oh * self._ow
        dcols = np.zeros((m * c, kh * kw, t))
        np.put_along_axis(dcols, self._argmax.reshape(m * c, 1, t),
                          dout.reshape(m * c, 1, t), axis=1)
        return col2im_batch(dcols, (m * c, 1, h, w), self.kernel, self.stride, (0, 0)).reshape(
            m, c, h, w
        )


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-softmax of the true class.

    Returns (loss, grad) with grad = (softmax - onehot) / M, the gradient of
    the batch-mean loss w.r.t. the logits.
    """
    labels = np.asarray(labels)
    m, c = logits.shape
    if labels.shape != (m,):
        raise DimensionError(f"labels must have shape ({m},)")
    if labels.min() < 0 or labels.max() >= c:
        raise InputError(f"labels must lie in [0, {c})")
    p = softmax(logits)
    idx = np.arange(m)
    loss = -np.mean(np.log(np.clip(p[idx, labels], 1e-300, None)))
    grad = p.copy()
    grad[idx, labels] -= 1.0
    return loss, grad / m


def mse(pred: np.ndarray, target: np.ndarray):
    """Half squared error, batch mean: loss = sum((p-t)^2) / (2M)."""
    if pred.shape != target.shape:
        raise DimensionError("prediction/target shape mismatch")
    m = pred.shape[0]
    diff = pred - target
    return 0.5 * np.sum(diff**2) / m, diff / m


@dataclass
class Model:
    layers: list[Layer]
    loss: str = "cross_entropy"  # or "mse"

    def init(self, rng: Rng):
        for layer in self.layers:
            layer.init(rng)
        return self

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, training)
        self._ran_forward = True
        return out

    def loss_and_grad(self, output: np.ndarray, targets):
        if self.loss == "cross_entropy":
            return cross_entropy(output, targets)
        if self.loss == "mse":
            return mse(output, np.asarray(targets, dtype=np.float64))
        raise UnsupportedError(f"unknown loss {self.loss!r}")

    def backward(self, loss_grad: np.ndarray) -> None:
        if not getattr(self, "_ran_forward", False):
            raise StateError("backward called before forward")
        grad = loss_grad
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def loss_on(self, x, y, training: bool = True) -> float:
        out = self.forward(x, training)
        loss, _ = self.loss_and_grad(out, y)
        return loss

    def train_batch(self, x, y) -> float:
        """Forward + backward on one batch; fills grads and captures."""
        if np.shape(x)[0] == 0:
            raise InputError("empty batch")
        out = self.forward(x, training=True)
        loss, dout = self.loss_and_grad(out, y)
        self.backward(dout)
        return loss

    def param_layers(self):
        return [(i, l) for i, l in enumerate(self.layers) if l.params]

    def parameters(self):
        for i, layer in self.param_layers():
            for name, arr in layer.params.items():
                yield i, name, arr

    def num_params(self) -> int:
        return sum(arr.size for _, _, arr in self.parameters())

    def copy(self) -> "Model":
        import copy as _copy

        return _copy.deepcopy(self)


def finite_diff_grad(model: Model, x, y, epsilon: float = 1e-5):
    """Central-difference gradient of the batch loss per parameter tensor."""
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    grads: dict[tuple[int, str], np.ndarray] = {}
    for i, name, arr in model.parameters():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + epsilon
            lp = model.loss_on(x, y, training=True)
            flat[k] = orig - epsilon
            lm = model.loss_on(x, y, training=True)
            flat[k] = orig
            gflat[k] = (lp - lm) / (2 * epsilon)
        grads[(i, name)] = g
    return grads
