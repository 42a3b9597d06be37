"""Dense tensor kernels: batched im2col patch expansion with its adjoint. Both
sweep the kernel offsets with window_slices, which clips each offset's window
grid to the unpadded input, so neither forms a zero-padded copy, and flags the
offsets that touch their input entries first, where the adjoint assigns
instead of adding. The sweep's geometry depends only on (size, kernel, stride,
pad), so window_slices works it out once per distinct geometry and hands every
later call (im2col, col2im and MaxPool2d on each pass) the same tuples.

Each kernel returns arrays in the dtype of its input (float32 in training,
float64 in the oracles), row-major (C order). Operations are pure and
single-threaded; determinism is run-to-run on a given platform.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError


def conv_out_size(size: int, k: int, s: int, p: int) -> int:
    return (size + 2 * p - k) // s + 1


def window_slices(size, kernel, stride, pad) -> tuple[tuple[int, int], tuple]:
    """Output size (out_h, out_w) and (i, j, out, src, first) per kernel offset
    (i, j), row-major, of a window sweep over inputs of spatial size (H, W)
    with zero padding pad.

    src indexes the unpadded input entries that offset reads, out the
    output-grid positions that read them (both over the last two axes).
    Windows that put this offset in the padding are left out of both, so no
    padded copy is ever formed. first is True when no earlier offset reads
    any of src's entries, so a reverse sweep into a zeroed image may assign
    there instead of adding; with stride >= kernel that is every offset.

    The four pairs may be any sequences (configs give lists); the result is
    cached per process for the last 64 distinct geometries and shared by every
    caller, so it is made of tuples and slices only.
    """
    return _window_slices(tuple(size), tuple(kernel), tuple(stride), tuple(pad))


@functools.lru_cache(maxsize=64)
def _window_slices(size, kernel, stride, pad):
    (h, w), (kh, kw), (sh, sw), (ph, pw) = size, kernel, stride, pad
    oh, ow = conv_out_size(h, kh, sh, ph), conv_out_size(w, kw, sw, pw)
    if oh <= 0 or ow <= 0:
        raise DimensionError("kernel larger than padded input")
    rows, cols = _axis_sweep(h, oh, kh, ph, sh), _axis_sweep(w, ow, kw, pw, sw)
    offsets = []
    for i, (rows_out, rows_in, rows_read, rows_seen) in enumerate(rows):
        for j, (cols_out, cols_in, cols_read, cols_seen) in enumerate(cols):
            # An earlier offset shares an entry through an earlier row offset
            # (with any column offset) or through an earlier column offset.
            first = not (rows_seen and cols_read or cols_seen and rows_read)
            offsets.append((i, j, (..., rows_out, cols_out), (..., rows_in, cols_in), first))
    return (oh, ow), tuple(offsets)


def _axis_sweep(n: int, n_out: int, k: int, pad: int, step: int) -> list:
    """Per kernel offset along one axis: its output and input slices, whether
    it reads any input index, and whether an earlier offset reads one of them."""
    sweep, seen = [], set()
    for i in range(k):
        out, src = _axis_slices(n, n_out, i - pad, step)
        read = range(n)[src]
        sweep.append((out, src, bool(read), not seen.isdisjoint(read)))
        seen.update(read)
    return sweep


def _axis_slices(n: int, n_out: int, start: int, step: int) -> tuple[slice, slice]:
    """Output positions o < n_out whose input index start + o * step lies in
    [0, n), and those input indices, as two slices of equal length."""
    lo = max(0, -(start // step))  # ceil(-start / step), clipped at 0
    hi = max(lo, min(n_out, (n - 1 - start) // step + 1))
    first = start + lo * step
    return slice(lo, hi), slice(first, first + (hi - lo) * step, step)


def im2col_batch(x: np.ndarray, kernel, stride=(1, 1), pad=(0, 0)) -> np.ndarray:
    """Batched im2col: (M, C, H, W) -> (M, C*kh*kw, out_h*out_w)."""
    x = np.asarray(x)
    m, c, h, w = x.shape
    kh, kw = kernel
    (oh, ow), offsets = window_slices((h, w), kernel, stride, pad)
    cols = np.zeros((m, c, kh, kw, oh, ow), dtype=x.dtype)
    for i, j, out, src, _ in offsets:
        cols[:, :, i, j][out] = x[src]
    return cols.reshape(m, c * kh * kw, oh * ow)


def col2im_batch(cols: np.ndarray, x_shape, kernel, stride=(1, 1), pad=(0, 0)) -> np.ndarray:
    """Adjoint of im2col_batch: scatter-add columns back to a contiguous (M, C, H, W).

    Each offset's columns are assigned where it touches the image first and
    added elsewhere, so no zeros are read back."""
    m, c, h, w = x_shape
    kh, kw = kernel
    (oh, ow), offsets = window_slices((h, w), kernel, stride, pad)
    cols = cols.reshape(m, c, kh, kw, oh, ow)
    dx = np.zeros((m, c, h, w), dtype=cols.dtype)
    for i, j, out, src, first in offsets:
        if first:
            dx[src] = cols[:, :, i, j][out]
        else:
            dx[src] += cols[:, :, i, j][out]
    return dx
