import numpy as np
import pytest

from adafisher.errors import DimensionError
from adafisher.tensor import Rng, im2col_batch, kron_diag


class TestKronDiag:
    def test_ones(self):
        assert np.array_equal(kron_diag(np.ones(2), np.ones(3)), np.ones(6))

    def test_forced_arithmetic(self):
        assert np.array_equal(kron_diag(np.array([2.0, 3.0]), np.array([5.0, 7.0])),
                              [10.0, 14.0, 15.0, 21.0])

    def test_matches_dense_kron(self):
        rng = Rng(3)
        a, b = rng.normal((3,)), rng.normal((4,))
        dense = np.diag(np.kron(np.diag(a), np.diag(b)))
        assert np.max(np.abs(kron_diag(a, b) - dense)) < 1e-15

    def test_exhaustive_small_dims(self):
        rng = Rng(5)
        for p in range(1, 9):
            for q in range(1, 9):
                a, b = rng.normal((p,)), rng.normal((q,))
                dense = np.diag(np.kron(np.diag(a), np.diag(b)))
                assert np.array_equal(kron_diag(a, b), dense)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            kron_diag(np.zeros(0), np.ones(2))


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
        rng = Rng(21)
        x = rng.normal((2, 4, 4))
        w = rng.normal((3, 2, 2, 2))
        patches, count = im2col(x, (2, 2))
        out = (w.reshape(3, -1) @ patches).reshape(3, 3, 3)
        assert np.max(np.abs(out - direct_conv(x, w, (1, 1), (0, 0)))) < 1e-12

    @pytest.mark.parametrize("kernel", [(1, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 1)])
    @pytest.mark.parametrize("pad", [(0, 0), (1, 1)])
    def test_all_small_combos(self, kernel, stride, pad):
        rng = Rng(sum(kernel) * 100 + sum(stride) * 10 + sum(pad))
        for h in range(kernel[0], 6):
            for w_ in range(kernel[1], 6):
                x = rng.normal((2, h, w_))
                w = rng.normal((2, 2) + kernel)
                patches, _ = im2col(x, kernel, stride, pad)
                oh = (h + 2 * pad[0] - kernel[0]) // stride[0] + 1
                ow = (w_ + 2 * pad[1] - kernel[1]) // stride[1] + 1
                out = (w.reshape(2, -1) @ patches).reshape(2, oh, ow)
                assert np.max(np.abs(out - direct_conv(x, w, stride, pad))) < 1e-12

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            im2col(np.zeros((1, 2, 2)), (3, 3))


class TestRng:
    def test_same_seed_identical(self):
        assert np.array_equal(Rng(42).normal((4, 5)), Rng(42).normal((4, 5)))

    def test_moments(self):
        samples = Rng(0).normal((100_000,))
        assert abs(samples.mean()) < 0.02
        assert abs(samples.std() - 1.0) < 0.02

    def test_degenerate_shape_rejected(self):
        with pytest.raises(DimensionError):
            Rng(1).normal(())
        with pytest.raises(DimensionError):
            Rng(1).normal((0, 3))

    def test_spawn_independent(self):
        base = Rng(7)
        assert not np.array_equal(base.spawn(1).normal((10,)), base.spawn(2).normal((10,)))
