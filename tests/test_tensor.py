import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.random import default_rng

from adafisher.errors import DimensionError
from adafisher.tensor import col2im_batch, conv_out_size, im2col_batch, window_slices


def direct_conv(x, w, stride, pad):
    """Sliding-window convolution oracle, one image."""
    c, h, wd = x.shape
    co, ci, kh, kw = w.shape
    ph, pw = pad
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // stride[0] + 1
    ow = (wd + 2 * pw - kw) // stride[1] + 1
    out = np.zeros((co, oh, ow))
    for o in range(co):
        for i in range(oh):
            for j in range(ow):
                patch = xp[:, i * stride[0]: i * stride[0] + kh,
                           j * stride[1]: j * stride[1] + kw]
                out[o, i, j] = np.sum(patch * w[o])
    return out


def im2col(x, kernel, stride=(1, 1), pad=(0, 0)):
    """Patches of one C x H x W image and their count, through the batched kernel."""
    patches = im2col_batch(x[None], kernel, stride, pad)
    return patches[0], patches.shape[2]


class TestIm2col:
    def test_1x1_kernel(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        patches, count = im2col(x, (1, 1))
        assert count == 4
        assert np.array_equal(patches, [[1.0, 2.0, 3.0, 4.0]])

    def test_full_cover_kernel(self):
        x = np.arange(9.0).reshape(1, 3, 3)
        patches, count = im2col(x, (3, 3))
        assert count == 1
        assert np.array_equal(patches.ravel(), np.arange(9.0))

    def test_conv_via_matmul_matches_direct(self):
        rng = default_rng(21)
        x = rng.standard_normal((2, 4, 4))
        w = rng.standard_normal((3, 2, 2, 2))
        patches, count = im2col(x, (2, 2))
        out = (w.reshape(3, -1) @ patches).reshape(3, 3, 3)
        assert np.max(np.abs(out - direct_conv(x, w, (1, 1), (0, 0)))) < 1e-12

    @pytest.mark.parametrize("kernel", [(1, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 1)])
    @pytest.mark.parametrize("pad", [(0, 0), (1, 1)])
    def test_all_small_combos(self, kernel, stride, pad):
        rng = default_rng(sum(kernel) * 100 + sum(stride) * 10 + sum(pad))
        for h in range(kernel[0], 6):
            for w_ in range(kernel[1], 6):
                x = rng.standard_normal((2, h, w_))
                w = rng.standard_normal((2, 2) + kernel)
                patches, _ = im2col(x, kernel, stride, pad)
                oh = (h + 2 * pad[0] - kernel[0]) // stride[0] + 1
                ow = (w_ + 2 * pad[1] - kernel[1]) // stride[1] + 1
                out = (w.reshape(2, -1) @ patches).reshape(2, oh, ow)
                assert np.max(np.abs(out - direct_conv(x, w, stride, pad))) < 1e-12

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            im2col(np.zeros((1, 2, 2)), (3, 3))


def padded_im2col(x, kernel, stride, pad):
    """im2col through an explicitly zero-padded copy of x: the reference layout."""
    m, c, h, w = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
    oh, ow = conv_out_size(h, kh, sh, ph), conv_out_size(w, kw, sw, pw)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((m, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
    return cols.reshape(m, c * kh * kw, oh * ow)


def padded_col2im(cols, x_shape, kernel, stride, pad):
    """col2im through a zero-padded scratch image, cropped at the end."""
    m, c, h, w = x_shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
    oh, ow = conv_out_size(h, kh, sh, ph), conv_out_size(w, kw, sw, pw)
    cols = cols.reshape(m, c, kh, kw, oh, ow)
    xp = np.zeros((m, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += cols[:, :, i, j]
    return xp[:, :, ph : ph + h, pw : pw + w]


# Strides up to 4 exceed kernels up to 3, and pads up to 4 put whole windows in
# the padding; sizes 1..8 rarely divide evenly.
window_cases = st.tuples(
    st.integers(1, 2), st.integers(1, 3),  # M, C
    st.tuples(st.integers(1, 8), st.integers(1, 8)),  # H, W
    st.tuples(st.integers(1, 3), st.integers(1, 3)),  # kernel
    st.tuples(st.integers(1, 4), st.integers(1, 4)),  # stride
    st.tuples(st.integers(0, 4), st.integers(0, 4)),  # pad
    st.integers(0, 2**16))  # seed


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(case=window_cases)
@example(case=(2, 2, (5, 4), (2, 2), (3, 4), (3, 2), 1))  # stride > kernel, pad > kernel
@example(case=(1, 3, (7, 6), (3, 2), (2, 1), (1, 2), 2))  # overlapping, non-dividing
def test_im2col_col2im_adjoint_and_match_padded_reference(dtype, case):
    m, c, (h, w), kernel, stride, pad, seed = case
    assume(all(k <= n + 2 * p for k, n, p in zip(kernel, (h, w), pad)))
    rng = default_rng(seed)
    x = rng.normal(size=(m, c, h, w)).astype(dtype, copy=False)
    cols = im2col_batch(x, kernel, stride, pad)
    g = rng.normal(size=cols.shape).astype(dtype, copy=False)
    dx = col2im_batch(g, x.shape, kernel, stride, pad)
    assert cols.dtype == dx.dtype == dtype
    assert dx.shape == x.shape and dx.flags.c_contiguous
    assert np.array_equal(cols, padded_im2col(x, kernel, stride, pad))
    assert np.array_equal(dx, padded_col2im(g, x.shape, kernel, stride, pad))
    # <im2col(x), g> == <x, col2im(g)>, relative to the sum of |terms|, both
    # taken in float64. A float32 col2im rounds each entry once per window
    # added to it, at most kh * kw times with relative error 2**-24 each.
    tol = 1e-12 + (kernel[0] * kernel[1] * 2.0**-24 if dtype == np.float32 else 0.0)
    cols, g, x, dx = (np.asarray(a, np.float64) for a in (cols, g, x, dx))
    lhs, rhs = np.vdot(cols, g), np.vdot(x, dx)
    assert abs(lhs - rhs) <= tol * np.vdot(np.abs(cols), np.abs(g))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(size=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       stride=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       pad=st.tuples(st.integers(0, 3), st.integers(0, 3)))
@example(size=(6, 6), kernel=(3, 3), stride=(1, 1), pad=(1, 1))  # overlapping, padded
@example(size=(6, 7), kernel=(2, 2), stride=(2, 2), pad=(0, 1))  # tiling
@example(size=(7, 8), kernel=(2, 2), stride=(3, 4), pad=(1, 0))  # gapped
@example(size=(3, 5), kernel=(3, 2), stride=(1, 1), pad=(0, 0))  # one output row
def test_window_slices_flag_offsets_that_touch_their_entries_first(size, kernel, stride, pad):
    assume(all(k <= n + 2 * p for k, n, p in zip(kernel, size, pad)))
    _, offsets = window_slices(size, kernel, stride, pad)
    index = np.arange(size[0] * size[1]).reshape(size)
    seen = set()
    for i, j, _, src, first in offsets:
        read = set(index[src].ravel())
        assert first == seen.isdisjoint(read), (i, j)
        if i < stride[0] and j < stride[1]:
            assert first
        seen |= read


@pytest.mark.parametrize("size, kernel, stride, pad", [
    ((6, 6), (3, 3), (1, 1), (1, 1)), ((7, 8), (2, 2), (3, 4), (1, 0))])
def test_window_slices_takes_lists_and_shares_one_immutable_result(size, kernel, stride, pad):
    # configs give lists; the cached geometry is handed to every caller
    as_tuples = window_slices(size, kernel, stride, pad)
    as_lists = window_slices(*map(list, (size, kernel, stride, pad)))
    assert as_lists == as_tuples
    assert window_slices(np.array(size), kernel, stride, pad) is as_tuples
    (oh, ow), offsets = as_tuples
    assert (oh, ow) == tuple(conv_out_size(*a) for a in zip(size, kernel, stride, pad))
    assert type(offsets) is tuple and all(type(o) is tuple for o in offsets)
