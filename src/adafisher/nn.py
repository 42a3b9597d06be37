"""Layered feed-forward networks with reverse-mode differentiation.

Layer inputs are batch-first. Backpropagation is one reverse walk
(Model.reverse_walk) that hands each parameterized layer the gradient dout at
its output, then forms the layer's input gradient with input_grad (never at
or below the first parameterized layer). From dout, param_stats fills the
mini-batch-mean grads and a LayerCapture holding the diagonals of the two
Kronecker factors: the mean squares of the homogeneous input activations (h,
exactly 1.0 in the bias slot) and of the per-sample pre-activation gradients
(s, at per-sample-loss scale), over the sample and, for convolutions and 4-D
batch norm, spatial axes (KFC).
For the Fisher oracle's eval-mode walk, where row n of dout is sample n's own
signal, sample_sq(dout, w) returns sum_n w[n] * (sample n's parameter
gradient)**2 in Fisher ordering instead.

Conv2d multiplies its weights with im2col patches as a broadcast batched
matmul, so the products of its forward pass and of both gradients run on BLAS.
MaxPool2d works on the kh*kw strided views of its input, one per window
offset, and so copies no windows and scatters no indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, StateError, UnsupportedError
from .tensor import Rng, col2im_batch, conv_out_size, im2col_batch, window_slices


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

    def input_grad(self, dout: np.ndarray) -> np.ndarray:
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

    def param_stats(self, dout):
        x = self._x
        m = x.shape[0]
        self.grads["W"] = dout.T @ x
        h = _mean_sq(x)
        if self.bias:
            self.grads["b"] = dout.sum(axis=0)
            h = np.append(h, 1.0)
        self._stats_pair = (x, dout)  # one pass's input and signal, for fisher.kfac_block_dense
        self.capture = LayerCapture(h=h, s=_mean_sq(dout * m))

    def sample_sq(self, dout, w):
        x_sq = self._x**2
        if self.bias:
            x_sq = np.hstack([x_sq, np.ones((dout.shape[0], 1))])
        return {"WB": (x_sq.T @ (w[:, None] * dout**2)).ravel()}

    def input_grad(self, dout):
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

    def param_stats(self, dout):
        m = self._x_shape[0]
        g = dout.reshape(m, self.out_ch, self._oh * self._ow)  # dJ/da per position
        self.grads["W"] = (g @ self._patches.transpose(0, 2, 1)).sum(axis=0).reshape(
            self.params["W"].shape)
        h = _mean_sq(self._patches)
        if self.bias:
            self.grads["b"] = g.sum(axis=(0, 2))
            h = np.append(h, 1.0)
        self.capture = LayerCapture(h=h, s=_mean_sq(g) * (m * m))

    def sample_sq(self, dout, w):
        m = dout.shape[0]
        g = dout.reshape(m, self.out_ch, -1)
        grad = g @ self._patches.transpose(0, 2, 1)  # (M, O, CKK) per-sample [W]
        if self.bias:
            grad = np.concatenate([grad, g.sum(axis=2, keepdims=True)], axis=2)
        return {"WB": (w @ (grad**2).reshape(m, -1)).reshape(grad.shape[1:]).T.ravel()}

    def input_grad(self, dout):
        g = dout.reshape(self._x_shape[0], self.out_ch, self._oh * self._ow)
        w_mat = self.params["W"].reshape(self.out_ch, -1)
        return col2im_batch(w_mat.T @ g, self._x_shape, self.kernel, self.stride, self.pad)


class _Norm(Layer):
    """Normalization with a per-feature scale and shift of the normalized input."""

    kf_kind = "norm"

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.params["scale"] = np.ones(dim)
        self.params["shift"] = np.zeros(dim)

    def sample_sq(self, dout, w):
        m = dout.shape[0]
        d = dout.reshape(m, self.dim, -1)
        xhat = self._xhat.reshape(d.shape)
        return {"scale": w @ (d * xhat).sum(axis=2) ** 2, "shift": w @ d.sum(axis=2) ** 2}


class BatchNorm(_Norm):
    """Per-channel batch normalization for (M, C) or (M, C, H, W) inputs."""

    def __init__(self, dim: int, eps: float = 1e-5, momentum: float = 0.1):
        if eps < 0:
            raise InputError("eps must be non-negative")
        super().__init__(dim, eps)
        self.momentum = momentum
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

    def param_stats(self, dout):
        m = dout.shape[0]
        self.grads["shift"] = _feature_sum(dout)
        self.grads["scale"] = _feature_sum(dout, self._xhat)
        self.capture = LayerCapture(h=_mean_sq(self._xhat), s=_mean_sq(dout) * (m * m))

    def input_grad(self, dout):
        shape = self._shape(dout)
        gain = (self.params["scale"] / self._std).reshape(shape)
        if not self._training:
            return dout * gain
        # The batch statistics couple the samples. The reverse walk runs
        # param_stats on this dout first, so grads holds its per-channel sums.
        n = dout.size // self.dim
        dx = self._xhat * (self.grads["scale"] / -n).reshape(shape)
        dx += dout
        dx -= (self.grads["shift"] / n).reshape(shape)
        dx *= gain
        return dx


class LayerNorm(_Norm):
    """Per-sample normalization over the feature axis of (M, C) inputs."""

    def forward(self, x, training=True):
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DimensionError(f"LayerNorm expects (M, {self.dim}), got {x.shape}")
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        self._std = np.sqrt(var + self.eps)
        self._xhat = (x - mu) / self._std
        return self.params["scale"] * self._xhat + self.params["shift"]

    def param_stats(self, dout):
        m = dout.shape[0]
        self.grads["scale"] = (dout * self._xhat).sum(axis=0)
        self.grads["shift"] = dout.sum(axis=0)
        self.capture = LayerCapture(h=_mean_sq(self._xhat), s=_mean_sq(dout * m))

    def input_grad(self, dout):
        xhat = self._xhat
        dxhat = dout * self.params["scale"]
        return (dxhat - dxhat.mean(axis=1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)) / self._std


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

    def input_grad(self, dout):
        if self.name == "relu":
            return dout * (self._x > 0)  # subgradient 0 at the kink
        if self.name == "tanh":
            return dout * (1.0 - self._out**2)
        return dout


class Flatten(Layer):
    def forward(self, x, training=True):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def input_grad(self, dout):
        return dout.reshape(self._shape)


class MaxPool2d(Layer):
    """Max over kh*kw windows, taken on the input's strided view per window offset."""

    def __init__(self, kernel, stride=None):
        super().__init__()
        self.kernel = tuple(kernel)
        self.stride = tuple(stride) if stride is not None else self.kernel

    def _views(self, x):
        """x's strided (M, C, oh, ow) view per window offset, row-major."""
        _, offsets = window_slices(x.shape[2:], self.kernel, self.stride, (0, 0))
        return [x[src] for _, _, _, src in offsets]

    def forward(self, x, training=True):
        if x.ndim != 4:
            raise DimensionError(f"MaxPool2d expects (M, C, H, W), got {x.shape}")
        self._x_shape = x.shape
        views = self._views(x)
        out = views[0].copy()
        for view in views[1:]:
            np.maximum(out, view, out=out)
        # One mask per offset marks the windows whose first maximum sits there;
        # a window with no match (its maximum is NaN) goes to its last element.
        self._masks = masks = np.empty((len(views),) + out.shape, dtype=bool)
        free = masks[-1]
        free[...] = True
        for view, mask in zip(views[:-1], masks):
            np.equal(view, out, out=mask)
            mask &= free
            free ^= mask
        return out

    def input_grad(self, dout):
        dx = np.zeros(self._x_shape)
        for view, mask in zip(self._views(dx), self._masks):
            view += dout * mask
        return dx


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

    def reverse_walk(self, loss_grad: np.ndarray):
        """Yield (i, layer, dout) for each parameterized layer, last first, with
        dout the gradient at layer i's output. A layer's input gradient is formed
        after the consumer has handled its yield, and only above the first
        parameterized layer: nothing below it reads one."""
        first = next((i for i, _ in self.param_layers()), len(self.layers))
        grad = loss_grad
        for i in range(len(self.layers) - 1, first - 1, -1):
            layer = self.layers[i]
            if layer.params:
                yield i, layer, grad
            if i > first:
                grad = layer.input_grad(grad)

    def backward(self, loss_grad: np.ndarray) -> None:
        """Fill every parameterized layer's grads and capture."""
        if not getattr(self, "_ran_forward", False):
            raise StateError("backward called before forward")
        for _, layer, dout in self.reverse_walk(loss_grad):
            layer.param_stats(dout)

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
