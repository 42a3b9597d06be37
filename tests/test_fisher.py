import numpy as np
import pytest

from adafisher.errors import InputError, SizeError, UnsupportedError
from adafisher.fisher import (FisherDiag, _label_counts, approximation_mae,
                              exact_fisher_diag, kfac_block_dense, mc_fisher_diag)
from adafisher.kfactor import fresh_factors
from adafisher.nn import (Activation, BatchNorm, Conv2d, Dense, Flatten, LayerNorm,
                          MaxPool2d, Model, softmax)
from adafisher.tensor import Rng, kron_diag


def softmax_regression(in_dim, n_classes, seed=0, bias=False):
    model = Model([Dense(in_dim, n_classes, bias=bias)]).init(Rng(seed))
    return model


def analytic_softmax_fisher(model, x):
    """Closed-form Fisher diagonal of a bias-free softmax-linear model.

    For W[c, j] the per-sample gradient is (p_c - 1{y=c}) * x_j, so the
    label-averaged squared gradient is x_j^2 * p_c * (1 - p_c).
    """
    w = model.layers[0].params["W"]
    n_classes, in_dim = w.shape
    total = np.zeros(in_dim * n_classes)
    for x_one in x:
        p = softmax((w @ x_one)[None, :])[0]
        contrib = np.empty(in_dim * n_classes)
        for j in range(in_dim):
            for c in range(n_classes):
                contrib[j * n_classes + c] = x_one[j] ** 2 * p[c] * (1 - p[c])
        total += contrib
    return total / x.shape[0]


class TestExactFisher:
    def test_matches_closed_form_single_sample(self):
        model = softmax_regression(3, 4, seed=1)
        x = Rng(10).normal((1, 3))
        diag = exact_fisher_diag(model, x)
        expected = analytic_softmax_fisher(model, x)
        # bias-free layer: the homogeneous coordinate is absent
        assert np.max(np.abs(diag.layers[0]["WB"] - expected)) < 1e-12

    def test_matches_closed_form_batched(self):
        model = softmax_regression(4, 3, seed=2)
        x = Rng(11).normal((6, 4))
        diag = exact_fisher_diag(model, x)
        expected = analytic_softmax_fisher(model, x)
        assert np.max(np.abs(diag.layers[0]["WB"] - expected)) < 1e-12

    def test_batch_average_of_per_sample_fishers(self):
        model = Model([Dense(3, 5), Activation("tanh"), Dense(5, 3)]).init(Rng(3))
        x = Rng(12).normal((4, 3))
        whole = exact_fisher_diag(model, x).flat()
        parts = np.mean([exact_fisher_diag(model, x[n : n + 1]).flat()
                         for n in range(4)], axis=0)
        assert np.max(np.abs(whole - parts)) < 1e-13

    def test_nonnegative_and_covers_norm_layers(self):
        model = Model([Dense(3, 4), LayerNorm(4), Activation("relu"),
                       Dense(4, 3)]).init(Rng(4))
        diag = exact_fisher_diag(model, Rng(13).normal((3, 3)))
        assert set(diag.layers[1]) == {"scale", "shift"}
        assert np.all(diag.flat() >= 0.0)

    def test_regression_model_rejected(self):
        model = Model([Dense(2, 1)], loss="mse")
        with pytest.raises(UnsupportedError):
            exact_fisher_diag(model, np.zeros((1, 2)))

    def test_class_cap(self):
        model = softmax_regression(2, 65, seed=5)
        with pytest.raises(UnsupportedError):
            exact_fisher_diag(model, np.zeros((1, 2)))


class TestMcFisher:
    def test_converges_to_exact(self):
        model = softmax_regression(3, 3, seed=6)
        x = Rng(14).normal((2, 3))
        exact = exact_fisher_diag(model, x).flat()
        est = mc_fisher_diag(model, x, n_samples=4000, seed=0).flat()
        rel = np.abs(est - exact) / np.maximum(np.abs(exact), 1e-12)
        assert np.median(rel) < 0.05

    def test_deterministic_by_seed(self):
        model = softmax_regression(2, 3, seed=7)
        x = Rng(15).normal((2, 2))
        a = mc_fisher_diag(model, x, n_samples=50, seed=9).flat()
        b = mc_fisher_diag(model, x, n_samples=50, seed=9).flat()
        assert np.array_equal(a, b)

    def test_error_shrinks_with_samples(self):
        model = softmax_regression(3, 4, seed=8)
        x = Rng(16).normal((2, 3))
        exact = exact_fisher_diag(model, x).flat()
        errs = []
        for n in (20, 2000):
            maes = [approximation_mae(
                        mc_fisher_diag(model, x, n_samples=n, seed=s).flat(), exact)
                    for s in range(8)]
            errs.append(np.mean(maes))
        assert errs[1] < errs[0] / 3

    def test_bad_sample_count(self):
        model = softmax_regression(2, 2)
        with pytest.raises(InputError):
            mc_fisher_diag(model, np.zeros((1, 2)), n_samples=0, seed=0)


def scalar_labels(p, n_samples, gen):
    """Inverse-CDF label draws, one scalar uniform each."""
    return [int(np.searchsorted(np.cumsum(p), gen.uniform(), side="right").clip(0, p.size - 1))
            for _ in range(n_samples)]


def reference_fisher(model, x, n_samples=None, seed=0):
    """Per-sample, per-label loop: a batch-1 eval forward, Model.backward for each
    class (exact) or each drawn label (MC), and the squared [W | b] or
    scale/shift gradient blocks, averaged over the batch."""
    gen = np.random.Generator(np.random.PCG64(seed))
    total = {}
    for x_one in x:
        p = softmax(model.forward(x_one[None], training=False))[0]
        if n_samples is None:
            labels, weights = range(p.size), p
        else:
            labels = scalar_labels(p, n_samples, gen)
            weights = np.full(n_samples, 1.0 / n_samples)
        for y, weight in zip(labels, weights):
            grad_out = p.copy()[None, :]
            grad_out[0, y] -= 1.0
            model.backward(grad_out)
            for i, layer in model.param_layers():
                if layer.kf_kind == "kron":
                    g = layer.grads["W"].reshape(layer.grads["W"].shape[0], -1)
                    if "b" in layer.grads:
                        g = np.hstack([g, layer.grads["b"][:, None]])
                    blocks = {"WB": g.T.ravel()}
                else:
                    blocks = {name: layer.grads[name] for name in ("scale", "shift")}
                dest = total.setdefault(i, {})
                for name, vec in blocks.items():
                    dest[name] = dest.get(name, 0.0) + weight * vec**2 / len(x)
    return FisherDiag(layers=total)


def trained_net(layers, x, seed):
    """A model with random norm parameters and running statistics moved off
    their initial values by a few training passes."""
    model = Model(layers).init(Rng(seed))
    rng = Rng(seed + 1)
    for _, layer in model.param_layers():
        if layer.kf_kind == "norm":
            layer.params["scale"] = 1.0 + 0.5 * rng.normal((layer.dim,))
            layer.params["shift"] = 0.5 * rng.normal((layer.dim,))
    n_classes = model.forward(x[:2], training=False).shape[1]
    for _ in range(3):
        model.train_batch(x, rng.integers(0, n_classes, size=len(x)))
    return model


EQUIVALENCE_NETS = {
    "dense_tanh": (lambda: [Dense(3, 5), Activation("tanh"), Dense(5, 4, bias=False)], (5, 3)),
    "dense_layernorm": (lambda: [Dense(3, 5), LayerNorm(5), Activation("relu"), Dense(5, 3)],
                        (5, 3)),
    "dense_batchnorm": (lambda: [Dense(3, 5), BatchNorm(5), Activation("relu"), Dense(5, 3)],
                        (5, 3)),
    "conv_batchnorm_pool": (lambda: [
        Conv2d(2, 3, (3, 3), stride=(2, 2), pad=(1, 1), bias=False), Activation("relu"),
        BatchNorm(3), MaxPool2d((2, 2), stride=(1, 1)), Flatten(), Dense(12, 4)], (4, 2, 6, 6)),
    "conv_bias": (lambda: [
        Conv2d(2, 3, (2, 2), stride=(1, 2)), Activation("tanh"), Flatten(), Dense(27, 3)],
        (4, 2, 4, 6)),
}


def assert_same_diag(got, ref):
    assert sorted(got.layers) == sorted(ref.layers)
    for i in ref.layers:
        assert sorted(got.layers[i]) == sorted(ref.layers[i])
    scale = np.max(np.abs(ref.flat()))
    assert scale > 0
    assert np.max(np.abs(got.flat() - ref.flat())) <= 1e-12 * scale


class TestBatchedOracleEquivalence:
    """The class-batched oracles against the per-sample loop, per layer kind."""

    @pytest.mark.parametrize("net", sorted(EQUIVALENCE_NETS))
    def test_exact_matches_per_sample_loop(self, net):
        layers, shape = EQUIVALENCE_NETS[net]
        x = Rng(30).normal(shape)
        model = trained_net(layers(), x, seed=31)
        assert_same_diag(exact_fisher_diag(model, x), reference_fisher(model, x))

    @pytest.mark.parametrize("net", sorted(EQUIVALENCE_NETS))
    def test_mc_matches_per_sample_loop(self, net):
        layers, shape = EQUIVALENCE_NETS[net]
        x = Rng(32).normal(shape)
        model = trained_net(layers(), x, seed=33)
        got = mc_fisher_diag(model, x, n_samples=30, seed=5)
        assert got.n_samples == 30
        assert_same_diag(got, reference_fisher(model, x, n_samples=30, seed=5))

    def test_label_counts_match_scalar_draws(self):
        p = softmax(Rng(34).normal((6, 5)) * 2.0)
        counts = _label_counts(p, 200, Rng(7))
        gen = np.random.Generator(np.random.PCG64(7))
        expected = [np.bincount(scalar_labels(row, 200, gen), minlength=5) for row in p]
        assert np.array_equal(counts, expected)
        assert np.all(counts.sum(axis=1) == 200)

    def test_empty_batch_rejected(self):
        model = Model([Dense(3, 4), Activation("relu"), Dense(4, 3)]).init(Rng(35))
        with pytest.raises(InputError):
            exact_fisher_diag(model, np.zeros((0, 3)))
        with pytest.raises(InputError):
            mc_fisher_diag(model, np.zeros((0, 3)), n_samples=5, seed=0)


class TestDenseKroneckerBlock:
    def test_single_sample_rank_one_exact(self):
        # with one sample the factored block is exactly the gradient outer product
        model = Model([Dense(3, 2), Activation("tanh"), Dense(2, 3)]).init(Rng(20))
        x = Rng(21).normal((1, 3))
        y = np.array([1])
        model.train_batch(x, y)
        layer = model.layers[0]
        block = kfac_block_dense(layer)
        g = np.hstack([layer.grads["W"], layer.grads["b"][:, None]])
        v = g.T.ravel()  # input index slow, output index fast
        assert np.max(np.abs(block - np.outer(v, v))) < 1e-12

    def test_diag_matches_factor_diag_product(self):
        model = Model([Dense(2, 3)]).init(Rng(22))
        x = Rng(23).normal((5, 2))
        model.train_batch(x, Rng(24).integers(0, 3, size=5))
        block = kfac_block_dense(model.layers[0])
        fresh = fresh_factors(model)[0]
        assert np.max(np.abs(np.diag(block) - kron_diag(fresh["h"], fresh["s"]))) < 1e-10

    def test_block_unchanged_by_oracle_call(self):
        # The oracle's eval-mode forward replaces the head's input; the block
        # must stay the one of the last training pass.
        model = Model([Dense(3, 4), BatchNorm(4), Dense(4, 3)]).init(Rng(27))
        rng = Rng(28)
        x = rng.normal((6, 3))
        model.train_batch(x, rng.integers(0, 3, size=6))
        before = kfac_block_dense(model.layers[2])
        exact_fisher_diag(model, x)
        assert np.array_equal(kfac_block_dense(model.layers[2]), before)

    def test_size_guard(self):
        model = Model([Dense(16, 4)]).init(Rng(25))
        model.train_batch(Rng(26).normal((2, 16)), np.array([0, 1]))
        with pytest.raises(SizeError):
            kfac_block_dense(model.layers[0])


class TestHelpers:
    def test_mae_forced_arithmetic(self):
        assert approximation_mae([1.0, 2.0], [2.0, 4.0]) == 1.5

    def test_mae_shape_mismatch(self):
        with pytest.raises(InputError):
            approximation_mae(np.zeros(2), np.zeros(3))

    def test_flat_ordering_stable(self):
        diag = FisherDiag(layers={1: {"scale": np.array([3.0]), "shift": np.array([4.0])},
                                  0: {"WB": np.array([1.0, 2.0])}})
        assert np.array_equal(diag.flat(), [1.0, 2.0, 3.0, 4.0])
