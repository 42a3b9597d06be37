"""Layered feed-forward networks with reverse-mode differentiation.

Layer inputs are batch-first. Backpropagation is one reverse walk
(Model.reverse_walk) that hands each parameterized layer the gradient dout at
its output, then forms the layer's input gradient with input_grad (never at or
below the first parameterized layer). Layer holds the one per-layer recipe,
over an activation-side array a (self._a), (M, F, T), and the signal g, dout
as (M, O, T), both with features on axis 1. Each parameterized layer belongs
to one of two families, which supply a, _sample_sums (sample n's gradients
summed over n, or their weighted squares), factor_sizes and _layout (the
factor-to-parameter map): Kronecker (Dense, Conv2d), where a is the input as
(M, F, 1) or the im2col patches and sample n's gradients are g_n a_n^T (W)
and g_n summed over T (b); and Norm (BatchNorm, LayerNorm), where a is the
normalized input as (M, C, T) (T = 1 for 2-D input) and they are the
per-feature sums of g_n * a_n (scale) and g_n (shift).

A pass returns what it computes and stores none of it on the layers.
param_stats(dout) returns (grads, factors), each {name: array}: the
mini-batch-mean gradients and the diagonals of the two Kronecker factors
(KFC), "h", the mean squares of a (exactly 1.0 in the bias slot), and "s",
those of g times M * M (per-sample-loss scale for a batch of M rows), each one
einsum over all axes but the feature axis. Model.backward and train_batch key
them by layer, {(i, name): gradient} and {(i, "h" | "s"): factor}, the layout
of every per-parameter table in the package. The factors are formed only when
read: train_batch(x, y, capture=False), which the training step passes for the
optimizers that read no curvature (Adam, SGD), returns an empty factor table.
For the Fisher oracle's eval-mode walk, where row n of dout is sample n's own
signal, sample_sq(dout, w) returns sum_n w[n] * (sample n's gradient)**2 from
the same a and g instead. kronecker_diagonal(h, s) lays the diagonal of
H (x) S out like the layer's parameters, in new arrays or (_diagonal_into) a
caller's: h[j] * s[k] at weight (k, j), h[-1] * s[k] at bias k; h * s and s
at a norm's scale and shift.

A training pass can simulate K workers (Model.train_batch(x, y, workers=K)):
worker k's shard is the k-th block of M/K consecutive rows. With equal shards,
the worker mean of the shards' mean losses, gradients and factors is the
full-batch value, so every layer, param_stats and the loss run once on the
whole batch at the 1/M per-sample-loss scale. Only BatchNorm reads workers: in
training it normalizes each shard by the shard's own statistics (ghost batch
normalization), updates its running statistics once per shard in worker order,
and couples its input gradient within each shard, through the shard's
channel sums of its own dout. The shard layout is BatchNorm's alone: only its
forward and input_grad view the pass as (K, M/K, C, T), and input_grad reads K
from its (K, C) statistics. So is the rule that a training shard holds at
least 2 rows: the one check of it is BatchNorm.forward's, a ConfigError whose
text a run config that breaks it reads. A net without BatchNorm gives the
one-worker step bit for bit at every K.

Conv2d multiplies its weights with im2col patches as a broadcast batched
matmul, so the products of its forward pass and of both gradients run on BLAS.
MaxPool2d works on the kh*kw strided views of its input, one per window
offset, and so copies no windows and scatters no indices. Its input gradient,
like Conv2d's (tensor.col2im_batch), assigns at each offset that touches an
input entry first and adds only where windows overlap. When the windows tile
the input (stride == kernel, and the kernel divides H and W), every entry is
assigned exactly once, so the gradient starts from an uninitialized image
rather than a zeroed one. Conv2d's input gradient hands col2im_batch the
temporary w_mat.T @ g, which col2im_batch may overwrite.

Every kernel computes in the dtype of its input and parameters. A model's
dtype is its parameters' (Model.dtype), forward casts its input to it, and
Model.astype(dtype) gives the model in another dtype, a copy with its
parameters and BatchNorm's running statistics cast. Training runs float32
models (training.TRAIN_DTYPE). The loss alone is computed in float64 from the
(M, C) output, and its gradient goes back in the model's dtype.
finite_diff_grad and the Fisher oracles compute in float64, on the float64
copy of a float32 model.

Layers keep their parameters, BatchNorm its running statistics, and of a
pass only what their backward reads (Activation its derivative, not its
input), and only one pass of it: each forward first drops the arrays its
last pass kept, before it allocates new ones, so two generations of them are
never live at once. A backward call reads that pass and its own dout, never
what another backward call formed. Their constructors refuse (SizeError) a
layer of more parameter values than datasets.MAX_SYNTH_VALUES before
allocating anything. Model.forward prefixes a layer's DimensionError with the
layer's index, its place in a config's model.layers ("layer 2: Dense expects
(M, 9), got (16, 8)").
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .datasets import MAX_SYNTH_VALUES
from .errors import (ConfigError, DimensionError, InputError, SizeError, StateError,
                     UnsupportedError, check_count, check_flag, check_number, check_pair)
from .tensor import col2im_batch, conv_out_size, im2col_batch, window_slices


_size = partial(check_count, error=InputError)
_pair = partial(check_pair, error=InputError)


def _check_size(kind: str, values: int) -> None:
    """Refuse, before any array is allocated, a layer of more parameter values
    than the desk-scale guard."""
    if values > MAX_SYNTH_VALUES:
        raise SizeError(f"{kind} has {values} parameter values, over the guard "
                        f"of {MAX_SYNTH_VALUES}")


def _feature_sum(*arrays: np.ndarray) -> np.ndarray:
    """Per feature, the sum over M and T of the (..., M, F, T) arrays'
    elementwise product: (..., F)."""
    return np.einsum(",".join(["...mft"] * len(arrays)) + "->...f", *arrays)


def check_workers(workers, m: int) -> int:
    """workers, once it is an integer >= 1 dividing the batch size m; else ConfigError."""
    check_count("workers", workers)
    if m % workers:
        raise ConfigError(f"workers must divide the batch size; got {workers} for M={m}")
    return workers


class Layer:
    """Base layer: stateless unless it carries parameters, and then the one
    recipe over its family's _a, _sample_sums, factor_sizes and _layout."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}

    def init(self, rng: np.random.Generator):
        pass

    def forward(self, x: np.ndarray, training: bool = True, workers: int = 1) -> np.ndarray:
        raise NotImplementedError

    def input_grad(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def param_stats(self, dout: np.ndarray, capture: bool = True) -> tuple[dict, dict]:
        """(grads, factors): the batch gradients from dout, the gradient at the
        layer's output, and, if capture, the factor diagonals h of _a and s of
        dout (else {}), each {name: array}."""
        g = dout.reshape(dout.shape[0], dout.shape[1], -1)
        grads = self._sample_sums(g)
        if not capture:
            return grads, {}
        a, m = self._a, len(g)  # per-sample-loss scale: the loss is a mean over m rows
        h = np.ones(self.factor_sizes[0], a.dtype)  # a bias slot, if any, stays 1
        np.divide(np.einsum("mft,mft->f", a, a), a.size // a.shape[1], out=h[:a.shape[1]])
        s = np.einsum("mft,mft->f", g, g) / (g.size // g.shape[1]) * (m * m)
        return grads, {"h": h, "s": s}

    def sample_sq(self, dout: np.ndarray, w: np.ndarray) -> dict:
        """sum_n w[n] * (sample n's gradient)**2, row n of dout being sample
        n's own signal."""
        return self._sample_sums(dout.reshape(dout.shape[0], dout.shape[1], -1), w)

    def kronecker_diagonal(self, h: np.ndarray, s: np.ndarray) -> dict[str, np.ndarray]:
        """{parameter name: diagonal of H (x) S at its entries}, new arrays shaped like params."""
        return self._diagonal_into(h, s, {name: np.empty(arr.shape, np.result_type(h, s))
                                          for name, arr in self.params.items()})

    def _diagonal_into(self, h: np.ndarray, s: np.ndarray, out: dict) -> dict:
        """out, {parameter name: C-contiguous array shaped like it}, holding that diagonal."""
        if (h.size, s.size) != self.factor_sizes:
            raise DimensionError(f"factors h {h.size}, s {s.size} do not fit the parameters "
                                 f"{({n: v.shape for n, v in self.params.items()})}")
        self._layout(h, s, out)
        return out

    def astype(self, dtype) -> "Layer":
        """A copy of the layer with its parameters cast to dtype."""
        layer = copy.copy(self)
        layer.params = {name: arr.astype(dtype) for name, arr in self.params.items()}
        return layer


class Kronecker(Layer):
    """W a + b at each output position, with forward's (M, F, T) self._a."""

    def __init__(self, w_shape: tuple, scale: float, bias: bool):
        super().__init__()
        self.bias = bias = check_flag("bias", bias, InputError)
        _check_size(type(self).__name__, math.prod(w_shape) + bias * w_shape[0])
        self._scale = scale  # standard deviation of the initial weights
        self.params["W"] = np.zeros(w_shape)
        if bias:
            self.params["b"] = np.zeros(w_shape[0])
        # lengths of h (the flattened input, then the bias slot) and of s
        self.factor_sizes = (math.prod(w_shape[1:]) + bias, w_shape[0])

    def init(self, rng: np.random.Generator):
        """Draw W in float64, then round it to the parameters' dtype; zero b."""
        w = self.params["W"]
        self.params["W"] = (rng.standard_normal(w.shape) * self._scale).astype(w.dtype, copy=False)
        if self.bias:
            self.params["b"] = np.zeros_like(self.params["b"])

    def _sample_sums(self, g: np.ndarray, w: np.ndarray | None = None) -> dict:
        """Sums over the samples n of their W and b gradients or, with sample
        weights w, of w[n] times their squares."""
        a = self._a
        if a.shape[2] == 1:  # one GEMM: w[n] g_n**2 (a_n**2)^T is w[n] (g_n a_n^T)**2
            g, a = g[:, :, 0], a[:, :, 0]
            if w is not None:
                g, a = w[:, None] * g**2, a**2
            out = {"W": g.T @ a, "b": g.sum(axis=0)}
        else:  # the per-sample gradients as one batched matmul, (M, O, F)
            per_sample = g @ a.transpose(0, 2, 1)
            if w is None:
                out = {"W": per_sample.sum(axis=0), "b": g.sum(axis=(0, 2))}
            else:
                out = {"W": w @ (per_sample**2).reshape(len(w), -1), "b": w @ g.sum(axis=2) ** 2}
        return {name: out[name].reshape(arr.shape) for name, arr in self.params.items()}

    def _layout(self, h, s, out):
        """h[j] * s[k] at the weight of output k and flattened input j, and
        h[-1] * s[k] (h's unit bias slot) at the bias of output k."""
        np.multiply.outer(s, h[:self.params["W"][0].size], out=out["W"].reshape(len(s), -1))
        if self.bias:
            np.multiply(s, h[-1], out=out["b"])


class Dense(Kronecker):
    def __init__(self, in_dim: int, out_dim: int, bias: bool = True):
        in_dim, out_dim = _size("in_dim", in_dim), _size("out_dim", out_dim)
        super().__init__((out_dim, in_dim), np.sqrt(2.0 / (in_dim + out_dim)), bias)
        self.in_dim, self.out_dim = in_dim, out_dim

    def forward(self, x, training=True, workers=1):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(f"Dense expects (M, {self.in_dim}), got {x.shape}")
        self._a = x[:, :, None]
        a = x @ self.params["W"].T
        if self.bias:
            a = a + self.params["b"]
        return a

    def input_grad(self, dout):
        return dout @ self.params["W"]


class Conv2d(Kronecker):
    def __init__(self, in_ch, out_ch, kernel, stride=(1, 1), pad=(0, 0), bias=True):
        in_ch, out_ch = _size("in_ch", in_ch), _size("out_ch", out_ch)
        self.kernel, self.stride = _pair("kernel", kernel), _pair("stride", stride)
        self.pad = _pair("pad", pad, least=0)
        super().__init__((out_ch, in_ch, *self.kernel),
                         np.sqrt(1 / (in_ch * math.prod(self.kernel))), bias)
        self.in_ch, self.out_ch = in_ch, out_ch

    def forward(self, x, training=True, workers=1):
        self._a = None
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise DimensionError(f"Conv2d expects (M, {self.in_ch}, H, W), got {x.shape}")
        m, _, h, w = x.shape
        self._x_shape = x.shape
        oh = conv_out_size(h, self.kernel[0], self.stride[0], self.pad[0])
        ow = conv_out_size(w, self.kernel[1], self.stride[1], self.pad[1])
        self._a = im2col_batch(x, self.kernel, self.stride, self.pad)  # (M, CKK, T)
        a = self.params["W"].reshape(self.out_ch, -1) @ self._a  # (M, O, T)
        if self.bias:
            a += self.params["b"][:, None]
        return a.reshape(m, self.out_ch, oh, ow)

    def input_grad(self, dout):
        g = dout.reshape(dout.shape[0], self.out_ch, -1)
        w_mat = self.params["W"].reshape(self.out_ch, -1)
        return col2im_batch(w_mat.T @ g, self._x_shape, self.kernel, self.stride, self.pad)


# The norms' value rules, written once: the constructors check their arguments
# with them (an InputError), config's layer table a config's fields (a
# ConfigError), so both messages read "eps must be a finite number >= 0, ...".
check_eps = partial(check_number, ok=lambda v: v >= 0, what="a finite number >= 0")
check_momentum = partial(check_number, ok=lambda v: 0 <= v <= 1,
                         what="a finite number in [0, 1]")


class Norm(Layer):
    """Normalization with a per-feature scale and shift of the normalized
    input, which forward keeps as self._a, (M, C, T)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim = _size("dim", dim)
        self.eps = check_eps("eps", eps, error=InputError)
        _check_size(type(self).__name__, 2 * dim)
        self.params["scale"] = np.ones(dim)
        self.params["shift"] = np.zeros(dim)
        self.factor_sizes = (dim, dim)

    def _sample_sums(self, g: np.ndarray, w: np.ndarray | None = None) -> dict:
        """Sums over the samples n of their scale and shift gradients, the
        per-feature sums of g_n * a_n and of g_n, or, with sample weights w,
        of w[n] times their squares."""
        if w is None:
            return {"scale": _feature_sum(g, self._a), "shift": _feature_sum(g)}
        return {"scale": w @ np.einsum("mft,mft->mf", g, self._a) ** 2,
                "shift": w @ g.sum(axis=2) ** 2}

    def _layout(self, h, s, out):
        """h * s at the scale and s at the shift (Hadamard structure; the
        shift's activation factor is the constant 1)."""
        np.multiply(h, s, out=out["scale"])
        out["shift"][...] = s


class BatchNorm(Norm):
    """Per-channel batch normalization for (M, C) or (M, C, H, W) inputs."""

    def __init__(self, dim: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__(dim, eps)
        self.momentum = check_momentum("momentum", momentum, error=InputError)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def astype(self, dtype) -> "BatchNorm":
        layer = super().astype(dtype)
        layer.running_mean = self.running_mean.astype(dtype)
        layer.running_var = self.running_var.astype(dtype)
        return layer

    def forward(self, x, training=True, workers=1):
        self._a = self._std = None
        if x.ndim not in (2, 4):
            raise DimensionError("BatchNorm expects 2-D or 4-D input")
        if x.shape[1] != self.dim:
            raise DimensionError(f"BatchNorm expects {self.dim} channels, got {x.shape}")
        # Training normalizes each worker's shard by its own statistics; eval
        # uses the running ones, as one worker. Per-worker (K, C) statistics
        # broadcast as [:, None, :, None] against the (K, M/K, C, T) view.
        k = check_workers(workers, len(x)) if training else 1
        v = x.reshape(k, len(x) // k, self.dim, math.prod(x.shape[2:]))
        if training:
            if v.shape[1] < 2:  # the shard rule's one owner: a config that breaks it fails here
                raise ConfigError(f"batchnorm needs >= 2 samples per worker, got batch_size "
                                  f"{len(x)} over {k} workers")
            mu = _feature_sum(v) / (v[0].size // self.dim)
            xhat = v - mu[:, None, :, None]
            var = _feature_sum(xhat, xhat) / (v[0].size // self.dim)
            for mu_k, var_k in zip(mu, var):  # the shards' updates, in worker order
                self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mu_k
                self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var_k
        else:
            xhat = v - self.running_mean[:, None]
            var = self.running_var[None]
        self._std = np.sqrt(var + self.eps)
        xhat /= self._std[:, None, :, None]
        self._a = xhat.reshape(len(x), self.dim, -1)
        self._training = training
        out = xhat * self.params["scale"][:, None]
        out += self.params["shift"][:, None]
        return out.reshape(x.shape)

    def input_grad(self, dout):
        xhat = self._a.reshape(len(self._std), -1, *self._a.shape[1:])  # (K, M/K, C, T)
        d = dout.reshape(xhat.shape)
        gain = (self.params["scale"] / self._std)[:, None, :, None]
        if not self._training:
            return (d * gain).reshape(dout.shape)
        # Each shard's channel sums of d and d * xhat couple its samples.
        n = d[0].size // self.dim
        dx = xhat * (_feature_sum(d, xhat) / -n)[:, None, :, None]
        dx += d
        dx -= (_feature_sum(d) / n)[:, None, :, None]
        dx *= gain
        return dx.reshape(dout.shape)


class LayerNorm(Norm):
    """Per-sample normalization over the feature axis of (M, C) inputs."""

    def forward(self, x, training=True, workers=1):
        self._a = self._std = None
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DimensionError(f"LayerNorm expects (M, {self.dim}), got {x.shape}")
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        self._std = np.sqrt(var + self.eps)
        xhat = (x - mu) / self._std
        self._a = xhat[:, :, None]
        return self.params["scale"] * xhat + self.params["shift"]

    def input_grad(self, dout):
        xhat = self._a.reshape(dout.shape)
        dxhat = dout * self.params["scale"]
        return (dxhat - dxhat.mean(axis=1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)) / self._std


class Activation(Layer):
    """Elementwise nonlinearity; forward keeps only its derivative (a bool mask
    for relu, 1 - tanh**2 for tanh, nothing for identity), not its input."""

    SUPPORTED = ("relu", "tanh", "identity")

    def __init__(self, name: str):
        super().__init__()
        if name not in self.SUPPORTED:
            raise UnsupportedError(f"unsupported activation {name!r}")
        self.name = name

    def forward(self, x, training=True, workers=1):
        self._deriv = None
        if self.name == "relu":
            self._deriv = x > 0  # subgradient 0 at the kink
            return np.maximum(x, 0.0)
        if self.name == "tanh":
            out = np.tanh(x)
            self._deriv = 1.0 - out**2
            return out
        return x

    def input_grad(self, dout):
        return dout if self._deriv is None else dout * self._deriv


class Flatten(Layer):
    def forward(self, x, training=True, workers=1):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def input_grad(self, dout):
        return dout.reshape(self._shape)


class MaxPool2d(Layer):
    """Max over kh*kw windows, taken on the input's strided view per window offset."""

    def __init__(self, kernel, stride=None):
        super().__init__()
        self.kernel = _pair("kernel", kernel)
        self.stride = self.kernel if stride is None else _pair("stride", stride)

    def forward(self, x, training=True, workers=1):
        self._masks = None
        if x.ndim != 4:
            raise DimensionError(f"MaxPool2d expects (M, C, H, W), got {x.shape}")
        self._x_shape = x.shape
        _, self._offsets = window_slices(x.shape[2:], self.kernel, self.stride, (0, 0))
        views = [x[src] for _, _, _, src, _ in self._offsets]  # strided (M, C, oh, ow) each
        out = np.maximum(views[0], views[1]) if len(views) > 1 else views[0].copy()
        for view in views[2:]:
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
        # Assign where an offset touches dx first (every offset unless windows
        # overlap), add elsewhere; entries in no window stay zero. Windows
        # that tile the input assign every entry once, so nothing is zeroed.
        tiled = self.stride == self.kernel and not any(np.mod(self._x_shape[2:], self.kernel))
        dx = (np.empty if tiled else np.zeros)(self._x_shape, dtype=dout.dtype)
        for (_, _, _, src, first), mask in zip(self._offsets, self._masks):
            if first:
                np.multiply(dout, mask, out=dx[src])
            else:
                dx[src] += dout * mask
        return dx


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-softmax of the true class over the M rows.

    Returns (loss, grad) with grad = (softmax - onehot) / M, the gradient of
    the mean loss w.r.t. the logits. Labels must be integers in [0, C). Both
    are float64 whatever the logits' dtype, so the clip of p at 1e-300 does
    not underflow. The clip and the mean are np.maximum(p, 1e-300) and
    np.add.reduce(-log_p) / M: the ufunc calls inside np.clip(p, 1e-300,
    None) and np.mean, with their bits and without their Python wrappers.
    """
    if np.ndim(logits) != 2:
        raise DimensionError(f"logits must be 2-D (M, C), got shape {np.shape(logits)}")
    logits, labels = np.asarray(logits, dtype=np.float64), np.asarray(labels)
    m, c = logits.shape
    if m == 0:
        raise InputError("cross-entropy of an empty batch")
    if labels.shape != (m,):
        raise DimensionError(f"labels must have shape ({m},)")
    if not np.issubdtype(labels.dtype, np.integer):
        raise InputError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= c:
        raise InputError(f"labels must lie in [0, {c})")
    p = softmax(logits)
    idx = np.arange(m)
    log_p = np.log(np.maximum(p[idx, labels], 1e-300))
    grad = p.copy()
    grad[idx, labels] -= 1.0
    # the sum of -log_p, not minus that of log_p: that reads -0.0 at a zero loss
    return np.add.reduce(-log_p) / m, grad / m


def mse(pred: np.ndarray, target: np.ndarray):
    """Half squared error over the M rows, sum((p-t)^2) / (2M); the gradient
    is (p-t) / M. Both are float64 whatever the inputs' dtype."""
    pred, target = np.asarray(pred, dtype=np.float64), np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError("prediction/target shape mismatch")
    if pred.size == 0:
        raise InputError("squared error of an empty batch")
    diff = pred - target
    m = pred.shape[0]
    return 0.5 * np.sum(diff**2) / m, diff / m


@dataclass
class Model:
    layers: list[Layer]
    loss: str = "cross_entropy"  # or "mse"

    def init(self, rng: np.random.Generator):
        for layer in self.layers:
            layer.init(rng)
        return self

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, in which every pass computes; float64 for a
        model without parameters."""
        return next((arr.dtype for _, _, arr in self.parameters()), np.dtype(np.float64))

    def astype(self, dtype) -> "Model":
        """The model in dtype: itself if it already computes in dtype, else a
        copy whose parameters and running statistics are cast to dtype and
        which has run no pass."""
        if self.dtype == dtype:
            return self
        return Model([layer.astype(dtype) for layer in self.layers], self.loss)

    def forward(self, x: np.ndarray, training: bool = True, workers: int = 1) -> np.ndarray:
        self._ran_forward = False  # until the last layer returns: a raised forward leaves no pass
        out = np.asarray(x, dtype=self.dtype)
        for i, layer in enumerate(self.layers):
            try:
                out = layer.forward(out, training, workers)
            except DimensionError as exc:  # i is the layer's place in the config's model.layers
                raise DimensionError(f"layer {i}: {exc}") from None
        self._ran_forward = True
        return out

    def loss_and_grad(self, output: np.ndarray, targets):
        """(mean loss, its gradient at output). The loss functions compute in
        float64; the gradient goes back in the model's dtype, output's own."""
        if self.loss == "cross_entropy":
            loss, grad = cross_entropy(output, targets)
        elif self.loss == "mse":
            loss, grad = mse(output, targets)
        else:
            raise UnsupportedError(f"unknown loss {self.loss!r}")
        return loss, grad.astype(self.dtype, copy=False)

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

    def backward(self, loss_grad: np.ndarray, capture: bool = True) -> tuple[dict, dict]:
        """(grads, factors): {(i, name): gradient} and, if capture (else {}),
        {(i, "h" | "s"): factor diagonal} of every parameterized layer i, in
        layer order."""
        if not getattr(self, "_ran_forward", False):
            raise StateError("backward called before forward")
        stats = [(i, layer.param_stats(dout, capture))
                 for i, layer, dout in self.reverse_walk(loss_grad)]
        grads, factors = {}, {}
        for i, (g, f) in reversed(stats):
            grads.update(((i, name), arr) for name, arr in g.items())
            factors.update(((i, name), arr) for name, arr in f.items())
        return grads, factors

    def train_batch(self, x, y, workers: int = 1, capture: bool = True):
        """Forward + backward on one batch: (mean loss, grads, factors), the
        tables of backward. BatchNorm normalizes each of `workers` equal shards
        of consecutive rows by its own statistics."""
        m = np.shape(x)[0]
        if m == 0:
            raise InputError("empty batch")
        check_workers(workers, m)
        out = self.forward(x, training=True, workers=workers)
        loss, dout = self.loss_and_grad(out, y)
        return (loss, *self.backward(dout, capture))

    def param_layers(self):
        return [(i, l) for i, l in enumerate(self.layers) if l.params]

    def parameters(self):
        for i, layer in self.param_layers():
            for name, arr in layer.params.items():
                yield i, name, arr

    def copy(self) -> "Model":
        return copy.deepcopy(self)


def finite_diff_grad(model: Model, x, y, epsilon: float = 1e-5):
    """Central-difference gradient of the batch loss per parameter tensor, in
    float64: a float32 model is differenced on its float64 copy."""
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    model = model.astype(np.float64)
    grads: dict[tuple[int, str], np.ndarray] = {}
    for i, name, arr in model.parameters():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + epsilon
            lp, _ = model.loss_and_grad(model.forward(x), y)
            flat[k] = orig - epsilon
            lm, _ = model.loss_and_grad(model.forward(x), y)
            flat[k] = orig
            gflat[k] = (lp - lm) / (2 * epsilon)
        grads[(i, name)] = g
    return grads
