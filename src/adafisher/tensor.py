"""Dense tensor kernels: shape checks, deterministic RNG, diagonal Kronecker
product and batched im2col patch expansion with its adjoint.

All arrays are float64, row-major (C order). Operations are pure and
single-threaded; determinism is run-to-run on a given platform.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def check_shape(shape) -> tuple[int, ...]:
    shape = tuple(int(d) for d in shape)
    if len(shape) == 0:
        raise DimensionError("shape must have at least one dimension")
    if any(d <= 0 for d in shape):
        raise DimensionError(f"shape entries must be positive, got {shape}")
    return shape


class Rng:
    """Deterministic random stream.

    Wraps numpy's PCG64 counter-based generator: the same 64-bit seed yields
    a bit-identical stream on every platform (for a fixed numpy version).
    Normal variates use the generator's ziggurat method.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape) -> np.ndarray:
        shape = check_shape(shape)
        return self._gen.standard_normal(shape)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        shape = check_shape(shape)
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def spawn(self, offset: int) -> "Rng":
        """Independent stream derived from (seed, offset)."""
        return Rng((self.seed * 1_000_003 + offset) % (2**63))


def kron_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Diagonal of Diag(a) (x) Diag(b): out[j*q + k] = a[j] * b[k]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise DimensionError("kron_diag expects non-empty vectors")
    return np.outer(a, b).ravel()


def conv_out_size(size: int, k: int, s: int, p: int) -> int:
    return (size + 2 * p - k) // s + 1


def im2col_batch(x: np.ndarray, kernel, stride=(1, 1), pad=(0, 0)) -> np.ndarray:
    """Batched im2col: (M, C, H, W) -> (M, C*kh*kw, out_h*out_w)."""
    x = np.asarray(x, dtype=np.float64)
    m, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise DimensionError("kernel larger than padded input")
    oh = conv_out_size(h, kh, sh, ph)
    ow = conv_out_size(w, kw, sw, pw)
    if oh <= 0 or ow <= 0:
        raise DimensionError("non-positive output spatial size")
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((m, c, kh, kw, oh, ow), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
    return cols.reshape(m, c * kh * kw, oh * ow)


def col2im_batch(cols: np.ndarray, x_shape, kernel, stride=(1, 1), pad=(0, 0)) -> np.ndarray:
    """Adjoint of im2col_batch: scatter-add columns back to (M, C, H, W)."""
    m, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    oh = conv_out_size(h, kh, sh, ph)
    ow = conv_out_size(w, kw, sw, pw)
    cols = cols.reshape(m, c, kh, kw, oh, ow)
    xp = np.zeros((m, c, h + 2 * ph, w + 2 * pw), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += cols[:, :, i, j]
    if ph or pw:
        xp = xp[:, :, ph : ph + h, pw : pw + w]
    return xp
