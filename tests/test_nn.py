import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.random import default_rng

from adafisher import nn, tensor
from adafisher.errors import ConfigError, DimensionError, InputError, StateError
from adafisher.fisher import exact_fisher_diag
from adafisher.nn import (Activation, BatchNorm, Conv2d, Dense, Flatten,
                          LayerNorm, MaxPool2d, Model, cross_entropy,
                          finite_diff_grad, mse)
from adafisher.tensor import col2im_batch


def mixed_net(seed=0):
    """Small net exercising every supported layer kind."""
    model = Model([
        Conv2d(2, 3, (2, 2), (1, 1), (1, 1)),
        Activation("relu"),
        MaxPool2d((2, 2)),
        BatchNorm(3),
        Flatten(),
        Dense(12, 6),
        LayerNorm(6),
        Activation("tanh"),
        Dense(6, 4),
    ])
    return model.init(default_rng(seed))


def max_rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-12)


class TestForward:
    def test_identity_network(self):
        layer = Dense(3, 3)
        layer.params["W"] = np.eye(3)
        layer.params["b"] = np.zeros(3)
        model = Model([layer, Activation("identity")])
        x = np.array([[1.0, -2.0, 0.5]])
        assert np.array_equal(model.forward(x), x)

    def test_forced_arithmetic(self):
        layer = Dense(1, 1)
        layer.params["W"] = np.array([[2.0]])
        layer.params["b"] = np.array([3.0])
        out = Model([layer]).forward(np.array([[1.0]]))
        assert np.array_equal(out, [[5.0]])

    def test_layernorm_definition(self):
        ln = LayerNorm(3, eps=0.0)
        out = ln.forward(np.array([[1.0, 2.0, 3.0]]))
        assert abs(out.mean()) < 1e-12
        assert abs(out.var() - 1.0) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Dense(3, 2).forward(np.zeros((1, 4)))

    @pytest.mark.parametrize("make", [lambda: LayerNorm(3, eps=-1.0),
                                      lambda: LayerNorm(3, eps=float("nan")),
                                      lambda: BatchNorm(3, eps=float("nan"))],
                             ids=["layernorm-negative", "layernorm-nan", "batchnorm-nan"])
    def test_norm_eps_must_be_nonnegative(self, make):
        # a negative or NaN eps makes every normalized output NaN
        with pytest.raises(InputError, match="eps must be a finite number >= 0"):
            make()

    @pytest.mark.parametrize("make, name", [
        (lambda: Dense(-1, 2), "in_dim"), (lambda: Dense(2, 0), "out_dim"),
        (lambda: Dense(2.5, 2), "in_dim"), (lambda: Dense(True, 2), "in_dim"),
        (lambda: LayerNorm(-1), "dim"), (lambda: BatchNorm(2.5), "dim"),
        (lambda: BatchNorm("3"), "dim"), (lambda: Conv2d(0, 2, (3, 3)), "in_ch"),
        (lambda: Conv2d(1, 2.0, (3, 3)), "out_ch"), (lambda: Conv2d(1, 2, (0, 3)), "kernel"),
        (lambda: Conv2d(1, 2, 3), "kernel"), (lambda: Conv2d(1, 2, (3, 3, 3)), "kernel"),
        (lambda: Conv2d(1, 2, (3, 3), stride=(1, 0)), "stride"),
        (lambda: Conv2d(1, 2, (3, 3), pad=(-1, 0)), "pad"),
        (lambda: Conv2d(1, 2, (3, 3), pad=(0.5, 0)), "pad"),
        (lambda: MaxPool2d((2, -2)), "kernel"), (lambda: MaxPool2d((2, 2), stride=(0, 1)), "stride"),
    ], ids=["dense-in-negative", "dense-out-zero", "dense-in-float", "dense-in-bool",
            "layernorm-negative", "batchnorm-float", "batchnorm-str", "conv-in-zero",
            "conv-out-float", "conv-kernel-zero", "conv-kernel-int", "conv-kernel-triple",
            "conv-stride-zero", "conv-pad-negative", "conv-pad-float", "pool-kernel-negative",
            "pool-stride-zero"])
    def test_sizes_must_be_positive_integers(self, make, name):
        # sizes, kernels and strides are integers >= 1 and pads integers >= 0;
        # otherwise numpy raised bare ValueError, TypeError or ZeroDivisionError
        with pytest.raises(InputError, match=name):
            make()

    @pytest.mark.parametrize("make", [lambda: Dense(2, 2, bias="yes"),
                                      lambda: Dense(2, 2, bias=2),
                                      lambda: Dense(2, 2, bias=np.True_),
                                      lambda: Conv2d(1, 2, (3, 3), bias=None),
                                      lambda: Conv2d(1, 2, (3, 3), bias=0)],
                             ids=["dense-str", "dense-int", "dense-numpy-bool", "conv-none",
                                  "conv-zero"])
    def test_bias_must_be_a_bool(self, make):
        # bias=2 counted as 2 bias slots in factor_sizes, so the first
        # AdaFisher step raised a DimensionError about the h factor's shape
        with pytest.raises(InputError, match="bias must be True or False"):
            make()

    def test_zero_pad_and_integer_sizes_accepted(self):
        conv = Conv2d(np.int64(1), 2, [3, 3], stride=(1, np.int64(2)), pad=(0, 0))
        assert (conv.kernel, conv.stride, conv.pad) == ((3, 3), (1, 2), (0, 0))
        assert conv.forward(np.zeros((1, 1, 4, 5))).shape == (1, 2, 2, 2)

    def test_batchnorm_single_sample_rejected(self):
        # the shard rule's one text, which a config that breaks it reads too
        with pytest.raises(ConfigError, match="^batchnorm needs >= 2 samples per worker, "
                                              "got batch_size 1 over 1 workers$"):
            BatchNorm(2).forward(np.zeros((1, 2)), training=True)

    @pytest.mark.parametrize("shape", [(4,), (), (2, 3, 4)], ids=["1d", "0d", "3d"])
    def test_batchnorm_rank_checked_first(self, shape):
        # a 1-D or 0-D input has no channel axis to read
        with pytest.raises(DimensionError, match="BatchNorm expects 2-D or 4-D input"):
            Model([BatchNorm(3)]).forward(np.ones(shape))

    def test_batchnorm_eval_uses_running_stats(self):
        bn = BatchNorm(2)
        x = default_rng(0).standard_normal((16, 2)) * 3 + 1
        bn.forward(x, training=True)
        out = bn.forward(np.zeros((1, 2)), training=False)  # batch 1 legal in eval
        assert out.shape == (1, 2)


class TestBackward:
    def test_scalar_square(self):
        # f(theta) = theta^2 realized as loss 0.5*(theta*sqrt(2))^2; grad = 2*theta
        layer = Dense(1, 1, bias=False)
        layer.params["W"] = np.array([[3.0]])
        model = Model([layer], loss="mse")
        x = np.array([[np.sqrt(2.0)]])
        out = model.forward(x)
        loss, dout = model.loss_and_grad(out, np.zeros((1, 1)))
        assert abs(loss - 9.0) < 1e-12
        grads, _ = model.backward(dout)
        assert abs(grads[0, "W"][0, 0] - 6.0) < 1e-12

    def test_every_layer_kind_vs_finite_difference(self):
        model = mixed_net()
        rng = default_rng(1)
        x = rng.standard_normal((5, 2, 3, 3))
        y = rng.integers(0, 4, size=5)
        fd = finite_diff_grad(model, x, y, 1e-5)
        _, grads, _ = model.train_batch(x, y)
        assert grads.keys() == fd.keys()
        for key, g in grads.items():
            assert max_rel_err(g, fd[key]) <= 1e-6, key

    def test_zero_loss_grad_gives_zero_grads(self):
        model = mixed_net()
        rng = default_rng(2)
        x = rng.standard_normal((4, 2, 3, 3))
        out = model.forward(x)
        grads, _ = model.backward(np.zeros_like(out))
        assert list(grads) == [(i, name) for i, name, _ in model.parameters()]
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_a_pass_keeps_none_of_its_results_on_the_layers(self):
        # The pass returns its gradients and factors: no layer attribute (nor
        # an entry of a dict or tuple attribute) is one of the returned arrays.
        model = mixed_net()
        rng = default_rng(8)
        _, grads, factors = model.train_batch(rng.standard_normal((4, 2, 3, 3)),
                                              rng.integers(0, 4, size=4))
        returned = [*grads.values(), *factors.values()]
        assert len(factors) == 2 * len(model.param_layers())

        def held(layer):
            for value in vars(layer).values():
                yield from (value.values() if isinstance(value, dict)
                            else value if isinstance(value, tuple) else (value,))
        assert not any(a is b for layer in model.layers for a in held(layer) for b in returned)
        assert not any(hasattr(layer, "grads") or hasattr(layer, "capture")
                       for layer in model.layers)

    def test_backward_before_forward_rejected(self):
        with pytest.raises(StateError):
            Model([Dense(2, 2)]).backward(np.zeros((1, 2)))

    def test_backward_after_a_raised_forward_rejected(self):
        # A forward that raised leaves no pass to differentiate, even when an
        # earlier one succeeded: the one-row training forward fails in
        # BatchNorm, after Dense has kept the new row.
        model = Model([Dense(3, 4), BatchNorm(4), Activation("relu"),
                       Dense(4, 2)]).init(default_rng(6))
        rng = default_rng(7)
        model.train_batch(rng.standard_normal((8, 3)), rng.integers(0, 2, size=8))
        with pytest.raises(ConfigError, match="^batchnorm needs >= 2 samples per worker, "
                                              "got batch_size 1 over 1 workers$"):
            model.forward(rng.standard_normal((1, 3)))
        with pytest.raises(StateError):
            model.backward(np.zeros((1, 2)))

    def test_capture_consistency(self):
        # Gradient entries are (1/M) sums over M*T columns of the captured
        # signals, so Cauchy-Schwarz bounds them by the factor diagonals:
        # G_ij^2 <= T^2 * s_i * h_j, with equality for one sample and T = 1.
        def check(model, x, y, exact):
            _, grads, factors = model.train_batch(x, y)
            for i, layer in model.param_layers():
                if not isinstance(layer, (Dense, Conv2d)):
                    continue
                h, s = factors[i, "h"], factors[i, "s"]
                t = layer._a.shape[2]  # output positions per sample
                combined = grads[i, "W"].reshape(s.size, -1)
                if (i, "b") in grads:
                    combined = np.hstack([combined, grads[i, "b"][:, None]])
                bound = t * t * np.outer(s, h)
                if exact:
                    assert max_rel_err(combined**2, bound) <= 1e-12
                else:
                    assert np.all(combined**2 <= bound * (1 + 1e-12))

        rng = default_rng(3)
        check(mixed_net(), rng.standard_normal((6, 2, 3, 3)), rng.integers(0, 4, size=6), False)
        single = Model([Dense(3, 4), Activation("tanh"), Dense(4, 2)]).init(default_rng(5))
        check(single, rng.standard_normal((1, 3)), rng.integers(0, 2, size=1), True)

    def test_determinism(self):
        rng = default_rng(4)
        x = rng.standard_normal((4, 2, 3, 3))
        y = rng.integers(0, 4, size=4)
        (_, g1, f1), (_, g2, f2) = (mixed_net(seed=9).train_batch(x, y) for _ in range(2))
        assert g1.keys() == g2.keys() and f1.keys() == f2.keys()
        for key in g1:
            assert np.array_equal(g1[key], g2[key])
        for key in f1:
            assert np.array_equal(f1[key], f2[key])


def _explicit_capture(layer, x, dout):
    """Row mean-squares of the explicit features x (M*T) capture matrices."""
    m = x.shape[0]
    if isinstance(layer, Dense):
        h_cols, s_cols = x.T, dout.T
    elif isinstance(layer, Conv2d):
        (kh, kw), (sh, sw), (ph, pw) = layer.kernel, layer.stride, layer.pad
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        cols = [(n, i, j) for n in range(m) for i in range(dout.shape[2])
                for j in range(dout.shape[3])]
        h_cols = np.array([xp[n, :, i * sh:i * sh + kh, j * sw:j * sw + kw].ravel()
                           for n, i, j in cols]).T
        s_cols = np.array([dout[n, :, i, j] for n, i, j in cols]).T
    else:  # normalization layers capture the normalized input
        axes = (1,) if isinstance(layer, LayerNorm) else (0,) + tuple(range(2, x.ndim))
        mu = x.mean(axis=axes, keepdims=True)
        xhat = (x - mu) / np.sqrt(((x - mu) ** 2).mean(axis=axes, keepdims=True) + layer.eps)
        h_cols = np.moveaxis(xhat, 1, 0).reshape(x.shape[1], -1)
        s_cols = np.moveaxis(dout, 1, 0).reshape(dout.shape[1], -1)
    if getattr(layer, "bias", False):
        h_cols = np.vstack([h_cols, np.ones((1, h_cols.shape[1]))])
    s_cols = s_cols * m  # per-sample-loss scale
    return (np.sum(h_cols**2, axis=1) / h_cols.shape[1],
            np.sum(s_cols**2, axis=1) / s_cols.shape[1])


_CAPTURE_CASES = {
    "dense": (lambda: Dense(4, 3), (6, 4)),
    "dense-nobias": (lambda: Dense(4, 3, bias=False), (6, 4)),
    "conv-pad-stride": (lambda: Conv2d(2, 3, (3, 2), stride=(2, 1), pad=(1, 2)), (5, 2, 6, 5)),
    "batchnorm-2d": (lambda: BatchNorm(3), (6, 3)),
    "batchnorm-4d": (lambda: BatchNorm(3), (6, 3, 4, 5)),
    "layernorm": (lambda: LayerNorm(4), (6, 4)),
}


# Each case at K=1, then at K=2 on M=6 rows. Only BatchNorm reads workers: it
# normalizes each shard of m=3 rows by the shard's own statistics. With the
# loss a mean over all M rows, dout * K is a shard's dout at its own 1/m
# scale, so every kind's capture is the mean of the shards' captures.
@pytest.mark.parametrize("make_layer, in_shape, workers", [
    *((make, shape, 1) for make, shape in _CAPTURE_CASES.values()),
    *((make, (6,) + shape[1:], 2) for make, shape in _CAPTURE_CASES.values()),
], ids=[*_CAPTURE_CASES, *(f"{name}-workers2" for name in _CAPTURE_CASES)])
def test_capture_is_factor_diagonals(make_layer, in_shape, workers):
    layer = make_layer()
    layer.init(default_rng(12))
    rng = default_rng(13)
    x = rng.standard_normal(in_shape) * 2.0 + 0.5
    out = layer.forward(x, workers=workers)
    dout = rng.standard_normal(out.shape)
    _, factors = layer.param_stats(dout)
    m = x.shape[0] // workers
    shards = [_explicit_capture(layer, x[k * m:(k + 1) * m], dout[k * m:(k + 1) * m] * workers)
              for k in range(workers)]
    h_ref, s_ref = (sum(refs[1:], refs[0]) / workers for refs in zip(*shards))
    assert factors.keys() == {"h", "s"}
    assert max_rel_err(factors["h"], h_ref) <= 1e-12
    assert max_rel_err(factors["s"], s_ref) <= 1e-12
    if getattr(layer, "bias", False):
        assert factors["h"][-1] == 1.0


@pytest.mark.parametrize("shape", [(8, 3), (8, 3, 2, 2)], ids=["2d", "4d"])
def test_batchnorm_ghost_batches(shape):
    # In training, workers=2 normalizes each half of the batch by the half's
    # own statistics, as two separate forwards do, and the running statistics
    # take the halves' updates in order.
    x = default_rng(27).standard_normal(shape)
    x[4:] += 3.0  # the halves' means differ
    bn, ref = BatchNorm(3), BatchNorm(3)
    for layer in (bn, ref):
        layer.params["scale"] = np.array([0.5, -1.5, 2.0])
        layer.params["shift"] = np.array([0.1, 0.0, -0.3])
    out = bn.forward(x, workers=2)
    assert np.array_equal(out, np.concatenate([ref.forward(half) for half in np.split(x, 2)]))
    assert np.array_equal(bn.running_mean, ref.running_mean)
    assert np.array_equal(bn.running_var, ref.running_var)
    one = BatchNorm(3)
    one.params = ref.params
    assert not np.allclose(out, one.forward(x))


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "after-a-pass"])
@pytest.mark.parametrize("shape, workers", [((6, 3), 1), ((6, 3, 2, 2), 2)],
                         ids=["2d-k1", "4d-k2"])
def test_batchnorm_input_grad_without_param_stats(shape, workers, earlier):
    # After a training forward with no param_stats, input_grad forms each
    # worker's sums from its own dout, never from an earlier pass: bit for
    # bit the input gradient of the reverse walk, which runs param_stats first.
    rng = default_rng(28)
    x, dout = rng.standard_normal(shape), rng.standard_normal(shape)
    bn, walk = BatchNorm(3), BatchNorm(3)
    bn.params["scale"] = walk.params["scale"] = np.array([0.5, -1.5, 2.0])
    if earlier:
        bn.forward(rng.standard_normal(shape) + 1.0, workers=workers)
        bn.param_stats(rng.standard_normal(shape))
    bn.forward(x, workers=workers)
    walk.forward(x, workers=workers)
    walk.param_stats(dout)
    assert np.array_equal(bn.input_grad(dout), walk.input_grad(dout))


@pytest.mark.parametrize("make, shape, workers", [
    (lambda: Dense(3, 4), (6, 3), 1),
    (lambda: Conv2d(2, 3, (2, 2), pad=(1, 1)), (6, 2, 3, 3), 1),
    (lambda: BatchNorm(3), (6, 3), 1),
    (lambda: BatchNorm(3), (6, 3), 2),
    (lambda: BatchNorm(3), (6, 3, 2, 2), 1),
    (lambda: BatchNorm(3), (6, 3, 2, 2), 2),
    (lambda: LayerNorm(3), (6, 3), 1),
    (lambda: MaxPool2d((2, 2)), (6, 3, 4, 4), 1),
    (lambda: Activation("relu"), (6, 3), 1),
    (lambda: Flatten(), (6, 3, 2, 2), 1),
], ids=["dense", "conv2d", "batchnorm-2d-k1", "batchnorm-2d-k2", "batchnorm-4d-k1",
        "batchnorm-4d-k2", "layernorm", "maxpool", "activation", "flatten"])
def test_input_grad_reads_only_its_dout(make, shape, workers):
    # input_grad(d2) is a function of the pass and d2 alone: a param_stats
    # call on another signal d1 in between changes none of its bits.
    rng = default_rng(29)
    layer, twin = make(), make()
    for name, arr in layer.params.items():
        layer.params[name] = twin.params[name] = rng.standard_normal(arr.shape)
    x = rng.standard_normal(shape)
    out = layer.forward(x, workers=workers)
    twin.forward(x, workers=workers)
    d1, d2 = rng.standard_normal((2, *out.shape))
    if layer.params:
        layer.param_stats(d1)
    assert np.array_equal(layer.input_grad(d2), twin.input_grad(d2))


def _central_diff(f, arr, eps=1e-6):
    """Central-difference gradient of the scalar f() w.r.t. every entry of arr."""
    grad = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        fp = f()
        flat[k] = orig - eps
        fm = f()
        flat[k] = orig
        gflat[k] = (fp - fm) / (2 * eps)
    return grad


def _backward(layer, dout):
    """(grads, input gradient): a layer's part of Model.backward, plus the
    input gradient it skips for layer 0."""
    grads = layer.param_stats(dout)[0] if layer.params else {}
    return grads, layer.input_grad(dout)


def _eval_mode_batchnorm(shape=(8, 3, 3, 3)):
    bn = BatchNorm(3)
    bn.forward(default_rng(17).standard_normal(shape) * 2.0 + 0.5)  # running stats away from 0/1
    bn.params["scale"] = np.array([0.5, -1.5, 2.0])
    bn.params["shift"] = np.array([0.1, 0.0, -0.3])
    return bn


@pytest.mark.parametrize("make_layer, in_shape, training", [
    (lambda: Conv2d(2, 3, (3, 2), stride=(2, 1), pad=(1, 2), bias=False), (3, 2, 6, 5), True),
    (lambda: Conv2d(2, 3, (2, 2), pad=(1, 1)), (1, 2, 4, 4), True),
    (lambda: MaxPool2d((3, 3), stride=(2, 2)), (2, 2, 7, 7), True),
    (_eval_mode_batchnorm, (4, 3, 3, 3), False),
], ids=["conv-stride-pad-nobias", "conv-batch1", "maxpool-overlapping", "batchnorm-eval"])
def test_layer_backward_vs_finite_difference(make_layer, in_shape, training):
    # Probe loss L = sum(out * r): backward(r) must give dL/dx and dL/dparams.
    layer = make_layer()
    if isinstance(layer, Conv2d):
        layer.init(default_rng(15))
    rng = default_rng(16)
    x = rng.standard_normal(in_shape)
    r = rng.standard_normal(layer.forward(x, training).shape)
    grads, dx = _backward(layer, r)

    def loss():
        return float(np.sum(layer.forward(x, training) * r))

    assert max_rel_err(dx, _central_diff(loss, x)) <= 1e-6
    assert grads.keys() == layer.params.keys()
    for name, arr in layer.params.items():
        assert max_rel_err(grads[name], _central_diff(loss, arr)) <= 1e-6, name


_SAMPLE_CASES = {
    "dense": (lambda: Dense(4, 3), (5, 4)),
    "dense-nobias": (lambda: Dense(4, 3, bias=False), (5, 4)),
    "conv": (lambda: Conv2d(2, 3, (3, 2), stride=(2, 1), pad=(1, 2)), (5, 2, 6, 5)),
    "conv-nobias": (lambda: Conv2d(2, 3, (3, 2), stride=(2, 1), pad=(1, 2), bias=False),
                    (5, 2, 6, 5)),
    "conv-one-position": (lambda: Conv2d(2, 3, (3, 3)), (5, 2, 3, 3)),
    "layernorm": (lambda: LayerNorm(4), (5, 4)),
    "batchnorm-2d": (lambda: _eval_mode_batchnorm((8, 3)), (5, 3)),
    "batchnorm-4d": (_eval_mode_batchnorm, (5, 3, 3, 3)),
}


@pytest.mark.parametrize("make_layer, in_shape", _SAMPLE_CASES.values(), ids=_SAMPLE_CASES)
def test_sample_sq_squares_each_rows_param_stats(make_layer, in_shape):
    # In eval mode no layer couples samples, so the oracle's weighted
    # per-sample squares are those of the gradients param_stats forms from
    # each row alone: one recipe, on both sides of the T == 1 branch.
    layer = make_layer()
    layer.init(default_rng(40))
    rng = default_rng(41)
    x = rng.standard_normal(in_shape)
    dout = rng.standard_normal(layer.forward(x, training=False).shape)
    w = rng.random((in_shape[0],))
    got = layer.sample_sq(dout, w)
    want = {name: np.zeros_like(arr) for name, arr in layer.params.items()}
    for n in range(in_shape[0]):
        layer.forward(x[n:n + 1], training=False)
        grads, factors = layer.param_stats(dout[n:n + 1], capture=False)
        assert factors == {}
        for name, grad in grads.items():
            want[name] += w[n] * grad**2
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].shape == want[name].shape
        assert max_rel_err(got[name], want[name]) <= 1e-12, name


def _conv_loop(x, w, b, stride, pad, dout):
    """Conv2d forward, input gradient and weight gradient by explicit loops."""
    (sh, sw), (ph, pw) = stride, pad
    m, _, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh, ow = (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((m, o, oh, ow))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for n in range(m):
        for f in range(o):
            for i in range(oh):
                for j in range(ow):
                    win = (n, slice(None), slice(i * sh, i * sh + kh), slice(j * sw, j * sw + kw))
                    out[n, f, i, j] = np.sum(xp[win] * w[f]) + b[f]
                    dxp[win] += dout[n, f, i, j] * w[f]
                    dw[f] += dout[n, f, i, j] * xp[win]
    return out, dxp[:, :, ph:ph + h, pw:pw + wd], dw


def test_conv_and_maxpool_match_direct_loops():
    conv = Conv2d(3, 4, (3, 2), stride=(2, 1), pad=(1, 1))
    conv.init(default_rng(18))
    conv.params["b"] = default_rng(19).standard_normal((4,))
    rng = default_rng(20)
    x = rng.standard_normal((3, 3, 7, 6))
    out = conv.forward(x)
    dout = rng.standard_normal(out.shape)
    grads, dx = _backward(conv, dout)
    ref_out, ref_dx, ref_dw = _conv_loop(x, conv.params["W"], conv.params["b"], conv.stride,
                                         conv.pad, dout)
    assert max_rel_err(out, ref_out) <= 1e-12
    assert max_rel_err(dx, ref_dx) <= 1e-12
    assert max_rel_err(grads["W"], ref_dw) <= 1e-12

    # Tied windows route the gradient to their first element in row-major order.
    pool = MaxPool2d((2, 2))
    x = np.array([[[[3.0, 3.0, 1.0, 2.0],
                    [3.0, 3.0, 2.0, 0.0]]]])
    assert np.array_equal(pool.forward(x), [[[[3.0, 2.0]]]])
    dx = pool.input_grad(np.array([[[[5.0, 7.0]]]]))
    assert np.array_equal(dx, [[[[5.0, 0.0, 0.0, 7.0],
                                  [0.0, 0.0, 0.0, 0.0]]]])


def test_first_layer_input_gradient_never_formed(monkeypatch):
    # conv1's input gradient would be its col2im scatter; nothing reads it.
    calls = []

    def counting_col2im(*args, **kwargs):
        calls.append(1)
        return col2im_batch(*args, **kwargs)

    monkeypatch.setattr(nn, "col2im_batch", counting_col2im)
    model = Model([Conv2d(1, 2, (2, 2)), Activation("relu"), Flatten(),
                   Dense(18, 3)]).init(default_rng(21))
    rng = default_rng(22)
    x, y = rng.standard_normal((4, 1, 4, 4)), rng.integers(0, 3, size=4)
    model.train_batch(x, y)
    exact_fisher_diag(model, x)
    assert calls == []


@pytest.mark.parametrize("make_layers, counted", [
    (lambda: [Flatten(), Dense(12, 3)], set()),
    (lambda: [Activation("tanh"), Dense(12, 5), Activation("relu"), Dense(5, 3)], {2, 3}),
], ids=["flatten-dense", "activation-dense-relu-dense"])
def test_no_input_gradient_at_or_below_first_parameter_layer(monkeypatch, make_layers,
                                                             counted):
    model = Model(make_layers()).init(default_rng(23))
    calls = []
    for i, layer in enumerate(model.layers):
        def counting(dout, i=i, inner=layer.input_grad):
            calls.append(i)
            return inner(dout)
        monkeypatch.setattr(layer, "input_grad", counting)
    rng = default_rng(24)
    x, y = rng.standard_normal((4, 12)), rng.integers(0, 3, size=4)
    model.train_batch(x, y)
    assert set(calls) == counted and len(calls) == len(counted)
    calls.clear()
    exact_fisher_diag(model, x)  # one walk per class, each forming the same gradients
    assert set(calls) == counted


def _pool_loop(x, kernel, stride, dout):
    """MaxPool2d forward and input gradient by explicit loops; ties and NaN
    windows go to the first maximum and the last element, in row-major order."""
    (kh, kw), (sh, sw) = kernel, stride
    m, c, h, w = x.shape
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    out = np.zeros((m, c, oh, ow))
    dx = np.zeros_like(x)
    for n in range(m):
        for f in range(c):
            for i in range(oh):
                for j in range(ow):
                    win = x[n, f, i * sh:i * sh + kh, j * sw:j * sw + kw].ravel()
                    k = kh * kw - 1 if np.isnan(win).any() else np.argmax(win)
                    out[n, f, i, j] = win.max()
                    dx[n, f, i * sh + k // kw, j * sw + k % kw] += dout[n, f, i, j]
    return out, dx


@pytest.mark.parametrize("kernel, stride, in_hw", [
    ((3, 2), (2, 1), (8, 7)),  # stride < kernel: overlapping windows
    ((2, 3), (2, 3), (7, 8)),  # stride = kernel, sizes that do not divide
    ((2, 2), (3, 4), (8, 11)),  # stride > kernel: some entries in no window
], ids=["overlapping", "tiling", "gapped"])
def test_maxpool_matches_direct_loop(kernel, stride, in_hw):
    rng = default_rng(25)
    x = np.round(rng.standard_normal((2, 3) + in_hw), 1)  # rounding makes ties
    pool = MaxPool2d(kernel, stride)
    out = pool.forward(x)
    dout = rng.standard_normal(out.shape)
    dx = pool.input_grad(dout)
    ref_out, ref_dx = _pool_loop(x, kernel, stride, dout)
    assert np.array_equal(out, ref_out)
    assert max_rel_err(dx, ref_dx) <= 1e-12
    covered_h = (out.shape[2] - 1) * stride[0] + kernel[0]
    covered_w = (out.shape[3] - 1) * stride[1] + kernel[1]
    assert covered_h < in_hw[0] or covered_w < in_hw[1]
    assert not dx[:, :, covered_h:].any() and not dx[:, :, :, covered_w:].any()


@pytest.mark.parametrize("name", Activation.SUPPORTED)
def test_activation_keeps_no_reference_to_its_input(name):
    act = Activation(name)
    x = default_rng(27).standard_normal((3, 4))
    out = act.forward(x)
    assert not any(v is x for v in vars(act).values())
    dout = default_rng(28).standard_normal(out.shape)
    ref = {"relu": dout * (x > 0), "tanh": dout * (1.0 - np.tanh(x) ** 2), "identity": dout}
    assert np.array_equal(act.input_grad(dout), ref[name])
    if name != "identity":  # forward's result is x itself for identity
        x_ref = weakref.ref(x)
        del x
        assert x_ref() is None


_ONE_GENERATION_CASES = {
    "conv2d": (lambda: Conv2d(1, 2, (3, 3), pad=(1, 1)), (8, 1, 28, 28)),
    "batchnorm-2d": (lambda: BatchNorm(64), (512, 64)),
    "batchnorm-4d": (lambda: BatchNorm(8), (16, 8, 14, 14)),
    "layernorm": (lambda: LayerNorm(64), (512, 64)),
    "maxpool": (lambda: MaxPool2d((2, 2)), (16, 8, 28, 28)),
    "activation-relu": (lambda: Activation("relu"), (512, 64)),
    "activation-tanh": (lambda: Activation("tanh"), (512, 64)),
    "dense": (lambda: Dense(64, 32), (512, 64)),
}


@pytest.mark.parametrize("make_layer, in_shape", _ONE_GENERATION_CASES.values(),
                         ids=list(_ONE_GENERATION_CASES))
def test_second_forward_holds_one_generation(make_layer, in_shape):
    # A layer drops what its last forward kept before it forms anything new,
    # so a second forward on the same input peaks no higher than the first.
    layer = make_layer()
    layer.init(default_rng(40))
    x = default_rng(41).standard_normal(in_shape)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            out = layer.forward(x)
            peaks.append(tracemalloc.get_traced_memory()[1])
            del out
    finally:
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1024


def test_maxpool_nan_window_routes_to_last_element():
    x = np.array([[[[1.0, np.nan, 4.0, 0.0],
                    [2.0, 0.0, np.nan, 3.0]]]])
    pool = MaxPool2d((2, 2))
    out = pool.forward(x)
    assert np.isnan(out).all()
    dx = pool.input_grad(np.array([[[[5.0, 7.0]]]]))
    assert np.array_equal(dx, [[[[0.0, 0.0, 0.0, 0.0],
                                  [0.0, 5.0, 0.0, 7.0]]]])


def test_maxpool_rejects_non_image_input():
    with pytest.raises(DimensionError):
        MaxPool2d((2, 2)).forward(np.zeros((2, 16)))


def test_maxpool_uses_no_im2col_or_col2im(monkeypatch):
    calls = []
    for module in (nn, tensor):
        for name in ("im2col_batch", "col2im_batch"):
            def counting(*args, name=name, inner=getattr(module, name), **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
    pool = MaxPool2d((3, 3), stride=(2, 2))
    out = pool.forward(default_rng(26).standard_normal((2, 2, 7, 7)))
    pool.input_grad(np.ones(out.shape))
    assert calls == []


@pytest.mark.parametrize("loss, y", [("cross_entropy", np.zeros(0, dtype=int)),
                                     ("mse", np.zeros((0, 2)))])
def test_empty_batch_rejected(loss, y):
    model = Model([Dense(3, 2)], loss=loss).init(default_rng(14))
    with pytest.raises(InputError):
        model.train_batch(np.zeros((0, 3)), y)


@pytest.mark.parametrize("loss, args", [
    (cross_entropy, (np.zeros((0, 3)), np.zeros(0, dtype=int))),
    (mse, (np.zeros((0, 2)), np.zeros((0, 2))))], ids=["cross_entropy", "mse"])
def test_loss_of_empty_input_rejected(loss, args):
    with pytest.raises(InputError, match="empty batch"):
        loss(*args)


class TestCrossEntropy:
    def test_uniform_predictive(self):
        loss, _ = cross_entropy(np.zeros((3, 2)), np.array([0, 1, 0]))
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_saturated(self):
        logits = np.array([[50.0, 0.0]])
        loss, _ = cross_entropy(logits, np.array([0]))
        assert loss < 1e-12

    def test_zero_loss_is_positive_zero(self):
        # Every true-class probability is exactly 1: the loss is +0.0, which
        # metrics.jsonl prints as 0.0, never -0.0.
        loss, _ = cross_entropy(np.array([[0.0, -1000.0]]), np.array([0]))
        assert loss == 0.0 and np.copysign(1.0, loss) == 1.0

    def test_grad_matches_finite_difference(self):
        rng = default_rng(5)
        logits = rng.standard_normal((4, 5))
        labels = rng.integers(0, 5, size=4)
        _, grad = cross_entropy(logits, labels)
        eps = 1e-6
        for i in range(4):
            for j in range(5):
                lp = logits.copy()
                lp[i, j] += eps
                lm = logits.copy()
                lm[i, j] -= eps
                fd = (cross_entropy(lp, labels)[0] - cross_entropy(lm, labels)[0]) / (2 * eps)
                assert abs(grad[i, j] - fd) < 1e-8

    def test_out_of_range_label(self):
        with pytest.raises(InputError):
            cross_entropy(np.zeros((1, 3)), np.array([3]))

    # Float labels cannot index, strings cannot be range-checked, and bool
    # labels would select rows as a mask: [True, False] would read log 2.
    @pytest.mark.parametrize("labels", [[0.0, 1.0], ["0", "1"], [True, False]],
                             ids=["float", "str", "bool"])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(InputError, match="labels must be integers"):
            cross_entropy(np.zeros((2, 2)), np.array(labels))


class TestFiniteDiff:
    def test_scalar_square(self):
        layer = Dense(1, 1, bias=False)
        layer.params["W"] = np.array([[3.0]])
        model = Model([layer], loss="mse")
        fd = finite_diff_grad(model, np.array([[np.sqrt(2.0)]]), np.zeros((1, 1)), 1e-5)
        assert abs(fd[(0, "W")][0, 0] - 6.0) < 1e-9

    def test_linear_model_exact(self):
        # quadratic loss in theta: central differences are exact up to rounding
        layer = Dense(2, 1, bias=False)
        layer.params["W"] = np.array([[1.0, -2.0]])
        model = Model([layer], loss="mse")
        x = np.array([[1.0, 2.0]])
        y = np.array([[0.5]])
        for eps in (1e-3, 1e-5):
            fd = finite_diff_grad(model, x, y, eps)
            _, grads, _ = model.train_batch(x, y)
            assert np.max(np.abs(fd[(0, "W")] - grads[0, "W"])) < 1e-9

    def test_agrees_with_backward_on_three_layer_net(self):
        model = Model([Dense(4, 8), Activation("tanh"), Dense(8, 6),
                       Activation("relu"), Dense(6, 3)]).init(default_rng(6))
        rng = default_rng(7)
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, size=5)
        fd = finite_diff_grad(model, x, y, 1e-5)
        _, grads, _ = model.train_batch(x, y)
        assert grads.keys() == fd.keys()
        for key, g in grads.items():
            assert max_rel_err(g, fd[key]) <= 1e-6

    def test_bad_epsilon(self):
        with pytest.raises(InputError):
            finite_diff_grad(Model([Dense(1, 1)]), np.zeros((1, 1)), np.zeros(1), 0.0)


class TestMse:
    def test_value_and_grad(self):
        loss, grad = mse(np.array([[2.0]]), np.array([[0.0]]))
        assert loss == 2.0
        assert grad[0, 0] == 2.0
