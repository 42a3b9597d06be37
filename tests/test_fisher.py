import numpy as np
import pytest
from numpy.random import default_rng

from adafisher import fisher
from adafisher.errors import InputError, SizeError, UnsupportedError
from adafisher.fisher import (_label_counts, _multinomial_factor, approximation_mae,
                              exact_fisher_diag, mc_fisher_diag)
from adafisher.nn import (Activation, BatchNorm, Conv2d, Dense, Flatten, Layer, LayerNorm,
                          MaxPool2d, Model, softmax)


def flat(diag):
    """Every entry of {(layer, name): array}, by layer id, then parameter name."""
    return np.concatenate([diag[key].ravel() for key in sorted(diag)])


def softmax_regression(in_dim, n_classes, seed=0, bias=False):
    model = Model([Dense(in_dim, n_classes, bias=bias)]).init(default_rng(seed))
    return model


def analytic_softmax_fisher(model, x):
    """Closed-form Fisher diagonal of a bias-free softmax-linear model.

    For W[c, j] the per-sample gradient is (p_c - 1{y=c}) * x_j, so the
    label-averaged squared gradient is x_j^2 * p_c * (1 - p_c), laid out
    (class, input) like W.
    """
    w = model.layers[0].params["W"]
    n_classes, in_dim = w.shape
    total = np.zeros((n_classes, in_dim))
    for x_one in x:
        p = softmax((w @ x_one)[None, :])[0]
        contrib = np.empty((n_classes, in_dim))
        for c in range(n_classes):
            for j in range(in_dim):
                contrib[c, j] = x_one[j] ** 2 * p[c] * (1 - p[c])
        total += contrib
    return total / x.shape[0]


class TestMultinomialFactor:
    """B B^T = diag(p) - p p^T per row, for the C - 1 columns B of the factor."""

    @staticmethod
    def rows():
        logits = default_rng(50).standard_normal((40, 7)) * 3.0
        logits[:5, 2:] = -800.0  # softmax underflows to exact zeros after class 1
        logits[5:10, ::2] = -800.0  # zeros between nonzero entries
        zeros = np.array([[0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.75],
                          [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5e-324]])  # r_6 subnormal
        return np.vstack([softmax(logits), zeros, np.eye(7)])  # one-hot rows last

    def test_product_is_the_multinomial_covariance(self):
        p = self.rows()
        m, c = p.shape
        assert np.count_nonzero(p == 0.0) > 60
        b = _multinomial_factor(p)
        assert b.shape == (c - 1, m, c)
        got = np.einsum("imj,imk->mjk", b, b)
        want = np.einsum("mj,jk->mjk", p, np.eye(c)) - p[:, :, None] * p[:, None, :]
        # Each entry of B is a few roundings of r, a C-term cumsum of p, so it
        # errs relatively by under (2C + 4) eps; by Cauchy-Schwarz a C-term sum
        # of their products errs by under 2 (2C + 4) eps sqrt(p_j p_k) + C eps.
        # The factor is exact for rows summing to r_0 instead of 1, which
        # softmax meets within C eps: C eps more. All p <= 1.
        eps = np.finfo(np.float64).eps
        assert np.max(np.abs(got - want)) <= (6 * c + 8) * eps

    def test_structure(self):
        p = self.rows()
        b = _multinomial_factor(p)
        c = p.shape[1]
        below = np.arange(c) < np.arange(c - 1)[:, None]  # j < i
        assert np.all(b[np.broadcast_to(below[:, None, :], b.shape)] == 0.0)
        assert np.all(b[:, -c:] == 0.0)  # one-hot rows have zero covariance
        # column i is zero where every class after i has probability 0
        tail = np.cumsum(p[:, ::-1], axis=1)[:, ::-1][:, 1:].T
        assert np.all(b[tail == 0.0] == 0.0)


class TestExactFisher:
    def test_matches_closed_form_single_sample(self):
        model = softmax_regression(3, 4, seed=1)
        x = default_rng(10).standard_normal((1, 3))
        diag = exact_fisher_diag(model, x)
        expected = analytic_softmax_fisher(model, x)
        # bias-free layer: no homogeneous coordinate, so no "b" entry
        assert set(diag) == {(0, "W")}
        assert np.max(np.abs(diag[0, "W"] - expected)) < 1e-12

    def test_matches_closed_form_batched(self):
        model = softmax_regression(4, 3, seed=2)
        x = default_rng(11).standard_normal((6, 4))
        diag = exact_fisher_diag(model, x)
        expected = analytic_softmax_fisher(model, x)
        assert np.max(np.abs(diag[0, "W"] - expected)) < 1e-12

    def test_batch_average_of_per_sample_fishers(self):
        model = Model([Dense(3, 5), Activation("tanh"), Dense(5, 3)]).init(default_rng(3))
        x = default_rng(12).standard_normal((4, 3))
        whole = flat(exact_fisher_diag(model, x))
        parts = np.mean([flat(exact_fisher_diag(model, x[n : n + 1]))
                         for n in range(4)], axis=0)
        assert np.max(np.abs(whole - parts)) < 1e-13

    def test_nonnegative_and_covers_norm_layers(self):
        model = Model([Dense(3, 4), LayerNorm(4), Activation("relu"),
                       Dense(4, 3)]).init(default_rng(4))
        diag = exact_fisher_diag(model, default_rng(13).standard_normal((3, 3)))
        assert {name for i, name in diag if i == 1} == {"scale", "shift"}
        assert np.all(flat(diag) >= 0.0)

    def test_one_class_has_zero_fisher(self):
        # diag(p) - pp^T is 0 for p = [1]: no factor column to walk, and every
        # array is zero and shaped like its parameter
        model = Model([Dense(3, 4), Activation("relu"), Dense(4, 1)]).init(default_rng(6))
        for diag in (exact_fisher_diag(model, default_rng(14).standard_normal((5, 3))),
                     mc_fisher_diag(model, default_rng(14).standard_normal((5, 3)), n_samples=3,
                                    rng=default_rng(0))):
            assert {key: a.shape for key, a in diag.items()} == {
                (i, n): a.shape for i, n, a in model.parameters()}
            assert not flat(diag).any()

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
        x = default_rng(14).standard_normal((2, 3))
        exact = flat(exact_fisher_diag(model, x))
        est = flat(mc_fisher_diag(model, x, n_samples=4000, rng=default_rng(0)))
        rel = np.abs(est - exact) / np.maximum(np.abs(exact), 1e-12)
        assert np.median(rel) < 0.05

    def test_deterministic_by_seed(self):
        model = softmax_regression(2, 3, seed=7)
        x = default_rng(15).standard_normal((2, 2))
        a = flat(mc_fisher_diag(model, x, n_samples=50, rng=default_rng(9)))
        b = flat(mc_fisher_diag(model, x, n_samples=50, rng=default_rng(9)))
        assert np.array_equal(a, b)

    def test_error_shrinks_with_samples(self):
        model = softmax_regression(3, 4, seed=8)
        x = default_rng(16).standard_normal((2, 3))
        exact = flat(exact_fisher_diag(model, x))
        errs = []
        for n in (20, 2000):
            maes = [approximation_mae(
                        flat(mc_fisher_diag(model, x, n_samples=n, rng=default_rng(s))), exact)
                    for s in range(8)]
            errs.append(np.mean(maes))
        assert errs[1] < errs[0] / 3

    def test_bad_sample_count(self):
        model = softmax_regression(2, 2)
        with pytest.raises(InputError):
            mc_fisher_diag(model, np.zeros((1, 2)), n_samples=0, rng=default_rng(0))


def scalar_labels(p, n_samples, gen):
    """Inverse-CDF label draws, one scalar uniform each."""
    return [int(np.searchsorted(np.cumsum(p), gen.uniform(), side="right").clip(0, p.size - 1))
            for _ in range(n_samples)]


def reference_fisher(model, x, n_samples=None, rng=None):
    """Per-sample, per-label loop: a batch-1 eval forward, Model.backward for each
    class (exact) or each label drawn from the Generator rng (MC), and every
    parameter's squared gradient, averaged over the batch."""
    total = {}
    for x_one in x:
        p = softmax(model.forward(x_one[None], training=False))[0]
        if n_samples is None:
            labels, weights = range(p.size), p
        else:
            labels = scalar_labels(p, n_samples, rng)
            weights = np.full(n_samples, 1.0 / n_samples)
        for y, weight in zip(labels, weights):
            grad_out = p.copy()[None, :]
            grad_out[0, y] -= 1.0
            grads, _ = model.backward(grad_out)
            for key, g in grads.items():
                total[key] = total.get(key, 0.0) + weight * g**2 / len(x)
    return total


def trained_net(layers, x, seed):
    """A model with random norm parameters and running statistics moved off
    their initial values by a few training passes."""
    model = Model(layers).init(default_rng(seed))
    rng = default_rng(seed + 1)
    for _, layer in model.param_layers():
        if "W" not in layer.params:
            layer.params["scale"] = 1.0 + 0.5 * rng.standard_normal((layer.dim,))
            layer.params["shift"] = 0.5 * rng.standard_normal((layer.dim,))
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


def assert_same_diag(got, ref, rtol=1e-12):
    assert sorted(got) == sorted(ref)
    scale = np.max(np.abs(flat(ref)))
    assert scale > 0
    assert np.max(np.abs(flat(got) - flat(ref))) <= rtol * scale


class TestBatchedOracleEquivalence:
    """The class-batched oracles against the per-sample loop, per layer kind."""

    @pytest.mark.parametrize("net", sorted(EQUIVALENCE_NETS))
    def test_exact_matches_per_sample_loop(self, net):
        layers, shape = EQUIVALENCE_NETS[net]
        x = default_rng(30).standard_normal(shape)
        model = trained_net(layers(), x, seed=31)
        assert_same_diag(exact_fisher_diag(model, x), reference_fisher(model, x))

    @pytest.mark.parametrize("net", sorted(EQUIVALENCE_NETS))
    def test_mc_matches_per_sample_loop(self, net):
        layers, shape = EQUIVALENCE_NETS[net]
        x = default_rng(32).standard_normal(shape)
        model = trained_net(layers(), x, seed=33)
        got = mc_fisher_diag(model, x, n_samples=30, rng=default_rng(5))
        assert_same_diag(got, reference_fisher(model, x, n_samples=30, rng=default_rng(5)))

    @pytest.mark.parametrize("net", sorted(EQUIVALENCE_NETS))
    def test_one_row_chunks_match_per_sample_loop(self, net, monkeypatch):
        # Every row its own chunk: the sums cross every chunk boundary, and the
        # MC labels must continue one uniform stream rather than restart it.
        layers, shape = EQUIVALENCE_NETS[net]
        x = default_rng(36).standard_normal(shape)
        model = trained_net(layers(), x, seed=37)
        monkeypatch.setattr(fisher, "CACHE_BUDGET", 1)
        n_classes, n_samples = model.forward(x, training=False).shape[1], 30
        eps = np.finfo(np.float64).eps
        # Each entry sums len(x) * n_classes (the exact reference; the oracle
        # sums len(x) * (n_classes - 1) factor-column terms) or
        # len(x) * n_samples (MC) non-negative terms, each within a few eps.
        assert_same_diag(exact_fisher_diag(model, x), reference_fisher(model, x),
                         rtol=len(x) * n_classes * eps)

        counts = []

        def spy(p, u):
            counts.append(_label_counts(p, u))
            return counts[-1]

        monkeypatch.setattr(fisher, "_label_counts", spy)
        got = mc_fisher_diag(model, x, n_samples=n_samples, rng=default_rng(5))
        assert len(counts) == len(x)
        gen = default_rng(5)
        expected = [np.bincount(scalar_labels(softmax(model.forward(row[None], training=False))[0],
                                              n_samples, gen), minlength=n_classes)
                    for row in x]
        assert np.array_equal(np.concatenate(counts), expected)
        assert_same_diag(got, reference_fisher(model, x, n_samples=n_samples, rng=default_rng(5)),
                         rtol=len(x) * n_samples * eps)

    @pytest.mark.parametrize("shape, chunks", [((64, 1, 28, 28), [20, 20, 20, 4]),
                                               ((128, 50), [128])])
    def test_chunk_rows_follow_row_bytes(self, shape, chunks, monkeypatch):
        # 28 * 28 float64 inputs are 6272 bytes a row, so 20 rows fit the
        # budget; a batch that fits is one chunk.
        head = [Conv2d(1, 2, (3, 3)), Flatten()] if len(shape) == 4 else []
        width = 2 * 26 * 26 if head else shape[1]
        model = Model(head + [Dense(width, 3)]).init(default_rng(38))
        rows, forward = [], Model.forward

        def spy(self, x, *args, **kwargs):
            rows.append(len(x))
            return forward(self, x, *args, **kwargs)

        monkeypatch.setattr(Model, "forward", spy)
        exact_fisher_diag(model, default_rng(39).standard_normal(shape))
        assert rows == chunks

    def test_exact_walks_c_minus_one_columns_per_chunk(self, monkeypatch):
        # 64 rows of 28 x 28 run as 4 chunks (20, 20, 20, 4); each walks the
        # 9 columns of the 10-class factor. Monte-Carlo walks the classes
        # drawn in each chunk.
        model = Model([Conv2d(1, 2, (3, 3)), Flatten(),
                       Dense(2 * 26 * 26, 10)]).init(default_rng(40))
        x = default_rng(41).standard_normal((64, 1, 28, 28))
        walks, reverse_walk = [], Model.reverse_walk

        def spy(self, grad):
            walks.append(grad.shape)
            return reverse_walk(self, grad)

        monkeypatch.setattr(Model, "reverse_walk", spy)
        exact_fisher_diag(model, x)
        assert walks == [(20, 10)] * 27 + [(4, 10)] * 9

        counts = []

        def count_spy(p, u):
            counts.append(_label_counts(p, u))
            return counts[-1]

        monkeypatch.setattr(fisher, "_label_counts", count_spy)
        walks.clear()
        mc_fisher_diag(model, x, n_samples=3, rng=default_rng(2))
        assert [len(c) for c in counts] == [20, 20, 20, 4]
        assert len(walks) == sum(np.count_nonzero(c.any(axis=0)) for c in counts)

    def test_label_counts_match_scalar_draws(self):
        p = softmax(default_rng(34).standard_normal((6, 5)) * 2.0)
        counts = _label_counts(p, default_rng(7).random((6, 200)))
        gen = default_rng(7)
        expected = [np.bincount(scalar_labels(row, 200, gen), minlength=5) for row in p]
        assert np.array_equal(counts, expected)
        assert np.all(counts.sum(axis=1) == 200)

    def test_empty_batch_rejected(self):
        model = Model([Dense(3, 4), Activation("relu"), Dense(4, 3)]).init(default_rng(35))
        with pytest.raises(InputError):
            exact_fisher_diag(model, np.zeros((0, 3)))
        with pytest.raises(InputError):
            mc_fisher_diag(model, np.zeros((0, 3)), n_samples=5, rng=default_rng(0))

    @pytest.mark.parametrize("n_samples", [2**62, 10**9, fisher.MAX_SYNTH_VALUES // 2 + 1])
    def test_oversized_draw_rejected_before_drawing(self, n_samples, monkeypatch):
        class NoDraws:  # a draw would try to allocate every uniform
            def random(self, size):
                raise AssertionError("drew before the size check")

        model = Model([Dense(3, 4), Activation("relu"), Dense(4, 3)]).init(default_rng(35))
        with pytest.raises(SizeError):
            mc_fisher_diag(model, np.zeros((2, 3)), n_samples=n_samples, rng=NoDraws())


def dense_block(monkeypatch, model, x, y, index):
    """(block, grads, factors): the full Kronecker product of dense layer
    `index`'s empirical factors, built from the activation-side input _a and
    the signal dout that its Layer.param_stats reads on one training pass,
    (M, F, 1) each, with the homogeneous bias column; and the pass's tables."""
    kept = {}
    param_stats = Layer.param_stats

    def spy(layer, dout, *rest):
        kept[layer] = layer._a, dout[:, :, None]
        return param_stats(layer, dout, *rest)

    monkeypatch.setattr(Layer, "param_stats", spy)
    _, grads, factors = model.train_batch(x, y)
    layer = model.layers[index]
    a, g = (v[:, :, 0] for v in kept[layer])
    m = a.shape[0]
    h = np.hstack([a, np.ones((m, 1))]) if layer.bias else a
    s = g * m  # per-sample-loss scale
    return np.kron(h.T @ h / m, s.T @ s / m), grads, factors


class TestDenseKroneckerBlock:
    def test_single_sample_rank_one_exact(self, monkeypatch):
        # with one sample the factored block is exactly the gradient outer product
        model = Model([Dense(3, 2), Activation("tanh"), Dense(2, 3)]).init(default_rng(20))
        x = default_rng(21).standard_normal((1, 3))
        block, grads, _ = dense_block(monkeypatch, model, x, np.array([1]), 0)
        g = np.hstack([grads[0, "W"], grads[0, "b"][:, None]])
        v = g.T.ravel()  # input index slow, output index fast
        assert np.max(np.abs(block - np.outer(v, v))) < 1e-12

    def test_diag_matches_factor_diag_product(self, monkeypatch):
        model = Model([Dense(2, 3)]).init(default_rng(22))
        x = default_rng(23).standard_normal((5, 2))
        block, _, fresh = dense_block(monkeypatch, model, x,
                                      default_rng(24).integers(0, 3, size=5), 0)
        assert np.max(np.abs(np.diag(block) - np.kron(fresh[0, "h"], fresh[0, "s"]))) < 1e-10


class TestHelpers:
    def test_mae_forced_arithmetic(self):
        assert approximation_mae([1.0, 2.0], [2.0, 4.0]) == 1.5

    def test_mae_shape_mismatch(self):
        with pytest.raises(InputError):
            approximation_mae(np.zeros(2), np.zeros(3))
