"""Dense tensor kernels: batched im2col patch expansion with its adjoint. Both
sweep the kernel offsets with window_slices, which clips each offset's window
grid to the unpadded input, so neither forms a zero-padded copy, and flags the
offsets that touch their input entries first, where the adjoint assigns
instead of adding. The sweep's geometry depends only on (size, kernel, stride,
pad), so window_slices works it out once per distinct geometry and hands every
later call (im2col, col2im and MaxPool2d on each pass) the same tuples.

The two kernels read that sweep through _patch_sweep, cached alike. A
stride-1 geometry whose output width equals its input width (a "same"
convolution such as 3x3 pad 1) takes the flat form there: at offset (i, j)
output entry p reads input entry p + (i - ph) * W + (j - pw) of the flattened
H * W axis, so each offset moves one contiguous run per (sample, channel)
rather than one short strip per row. Only the <= pw columns per row that wrap
round into a neighbouring row must read as padding: im2col writes +0.0 there,
and col2im first sets them to -0.0 in its cols, which adds nothing. Every
other geometry keeps the 2-D form.

Each kernel returns arrays in the dtype of its input (float32 in training,
float64 in the oracles), row-major (C order). Operations are single-threaded
and pure, except that col2im_batch overwrites padding entries of its cols
with +-0.0; determinism is run-to-run on a given platform.
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


@functools.lru_cache(maxsize=64)
def _patch_sweep(size, kernel, stride, pad):
    """The sweep of im2col_batch and col2im_batch: the shapes they view the
    image's and each offset's spatial axes in, and per kernel offset
    (out, src, first, wrap, ends). out indexes its run in the columns, viewed
    (M, C, kh, kw, *block); src the input entries it reads, viewed
    (M, C, *image); wrap and ends the entries of the offset's column block
    that read padding, inside and outside the run.

    A stride-(1, 1) geometry whose output width is W, with at most one offset
    that both reads an entry and is flagged first, takes the flat form: at
    offset (i, j) output entry p of the flattened out_h * W axis reads input
    entry p + (i - ph) * W + (j - pw), so each offset's run is one slice, and
    wrap holds one strided slice per column that wraps round into a
    neighbouring row. An offset that reads nothing gets an empty run. Every
    other geometry keeps window_slices' 2-D form, where wrap is empty.
    """
    (h, w), ((oh, ow), offsets) = size, _window_slices(size, kernel, stride, pad)
    reads = [all(s.start < s.stop for s in out[1:]) for _, _, out, _, _ in offsets]
    flat = stride == (1, 1) and ow == w and sum(r and o[4] for r, o in zip(reads, offsets)) < 2
    block = np.empty((oh * ow,) if flat else (oh, ow))  # probes which indices are empty
    sweep = []
    for (i, j, (_, rows, cols), (_, rows_in, cols_in), first), read in zip(offsets, reads):
        if not flat:
            out, src, wrap = (rows, cols), (rows_in, cols_in), []
            ends = [(slice(rows.start), slice(None)), (slice(rows.stop, None), slice(None)),
                    (rows, slice(cols.start)), (rows, slice(cols.stop, None))]
        else:
            lo = rows.start * w + cols.start
            hi = (rows.stop - 1) * w + cols.stop if read else lo
            start = rows_in.start * w + cols_in.start
            out, src = (slice(lo, hi),), (slice(start, start + hi - lo),)
            wrap = [(slice(lo + (c - lo) % w, hi, w),) for c in range(cols.stop - w, cols.start)]
            ends = [(slice(lo),), (slice(hi, None),)]
        at = (slice(None), slice(None), i, j)
        wrap, ends = (tuple(at + z for z in zs if block[z].size) for zs in (wrap, ends))
        sweep.append((at + out, (...,) + src, first, wrap, ends))
    return ((h * w,) if flat else (h, w)), block.shape, tuple(sweep)


def im2col_batch(x: np.ndarray, kernel, stride=(1, 1), pad=(0, 0)) -> np.ndarray:
    """Batched im2col: (M, C, H, W) -> (M, C*kh*kw, out_h*out_w).

    Each offset copies its run and writes +0.0 where its column block reads
    padding, so no entry of the uninitialized result is left unwritten."""
    x = np.asarray(x)
    m, c, h, w = x.shape
    kh, kw = kernel
    image, block, sweep = _patch_sweep((h, w), (kh, kw), tuple(stride), tuple(pad))
    cols = np.empty((m, c, kh, kw, *block), dtype=x.dtype)
    x = x.reshape(m, c, *image)
    for out, src, _, wrap, ends in sweep:
        cols[out] = x[src]
        for z in wrap + ends:
            cols[z] = 0.0
    return cols.reshape(m, c * kh * kw, -1)


def col2im_batch(cols: np.ndarray, x_shape, kernel, stride=(1, 1), pad=(0, 0)) -> np.ndarray:
    """Adjoint of im2col_batch: scatter-add columns back to a contiguous (M, C, H, W).

    Each offset's columns are assigned where it touches the image first and
    added elsewhere, so no zeros are read back. cols is scratch: before an
    offset's flat run is added, its wrapped columns are set to -0.0, which
    leaves every sum as it was (x + -0.0 is x, for x = +-0.0 too), or to +0.0
    for the one offset that assigns. Its only caller, Conv2d.input_grad,
    passes a temporary."""
    m, c, h, w = x_shape
    kh, kw = kernel
    image, block, sweep = _patch_sweep((h, w), (kh, kw), tuple(stride), tuple(pad))
    cols = cols.reshape(m, c, kh, kw, *block)
    dx = np.zeros((m, c, *image), dtype=cols.dtype)
    for out, src, first, wrap, _ in sweep:
        for z in wrap:
            cols[z] = 0.0 if first else -0.0
        if first:
            dx[src] = cols[out]
        else:
            dx[src] += cols[out]
    return dx.reshape(m, c, h, w)
