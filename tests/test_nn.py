import numpy as np
import pytest

from adafisher import nn, tensor
from adafisher.errors import DimensionError, InputError, StateError
from adafisher.fisher import exact_fisher_diag
from adafisher.nn import (Activation, BatchNorm, Conv2d, Dense, Flatten,
                          LayerNorm, MaxPool2d, Model, cross_entropy,
                          finite_diff_grad, mse)
from adafisher.tensor import Rng, col2im_batch


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
    return model.init(Rng(seed))


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

    def test_batchnorm_single_sample_rejected(self):
        with pytest.raises(InputError):
            BatchNorm(2).forward(np.zeros((1, 2)), training=True)

    def test_batchnorm_eval_uses_running_stats(self):
        bn = BatchNorm(2)
        x = Rng(0).normal((16, 2)) * 3 + 1
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
        model.backward(dout)
        assert abs(layer.grads["W"][0, 0] - 6.0) < 1e-12

    def test_every_layer_kind_vs_finite_difference(self):
        model = mixed_net()
        rng = Rng(1)
        x = rng.normal((5, 2, 3, 3))
        y = rng.integers(0, 4, size=5)
        fd = finite_diff_grad(model, x, y, 1e-5)
        model.train_batch(x, y)
        for i, layer in model.param_layers():
            for name, g in layer.grads.items():
                assert max_rel_err(g, fd[(i, name)]) <= 1e-6, (i, name)

    def test_zero_loss_grad_gives_zero_grads(self):
        model = mixed_net()
        rng = Rng(2)
        x = rng.normal((4, 2, 3, 3))
        out = model.forward(x)
        model.backward(np.zeros_like(out))
        for _, layer in model.param_layers():
            for g in layer.grads.values():
                assert np.all(g == 0.0)

    def test_backward_before_forward_rejected(self):
        with pytest.raises(StateError):
            Model([Dense(2, 2)]).backward(np.zeros((1, 2)))

    def test_capture_consistency(self):
        # Gradient entries are (1/M) sums over M*T columns of the captured
        # signals, so Cauchy-Schwarz bounds them by the factor diagonals:
        # G_ij^2 <= T^2 * s_i * h_j, with equality for one sample and T = 1.
        def check(model, x, y, exact):
            model.train_batch(x, y)
            for _, layer in model.param_layers():
                if not isinstance(layer, (Dense, Conv2d)):
                    continue
                cap = layer.capture
                t = layer._oh * layer._ow if isinstance(layer, Conv2d) else 1
                combined = layer.grads["W"].reshape(cap.s.size, -1)
                if "b" in layer.grads:
                    combined = np.hstack([combined, layer.grads["b"][:, None]])
                bound = t * t * np.outer(cap.s, cap.h)
                if exact:
                    assert max_rel_err(combined**2, bound) <= 1e-12
                else:
                    assert np.all(combined**2 <= bound * (1 + 1e-12))

        rng = Rng(3)
        check(mixed_net(), rng.normal((6, 2, 3, 3)), rng.integers(0, 4, size=6), False)
        single = Model([Dense(3, 4), Activation("tanh"), Dense(4, 2)]).init(Rng(5))
        check(single, rng.normal((1, 3)), rng.integers(0, 2, size=1), True)

    def test_determinism(self):
        rng = Rng(4)
        x = rng.normal((4, 2, 3, 3))
        y = rng.integers(0, 4, size=4)
        g1 = {}
        g2 = {}
        for store in (g1, g2):
            model = mixed_net(seed=9)
            model.train_batch(x, y)
            for i, layer in model.param_layers():
                for name, g in layer.grads.items():
                    store[(i, name)] = g.copy()
        for key in g1:
            assert np.array_equal(g1[key], g2[key])


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


@pytest.mark.parametrize("make_layer, in_shape", [
    (lambda: Dense(4, 3), (6, 4)),
    (lambda: Dense(4, 3, bias=False), (6, 4)),
    (lambda: Conv2d(2, 3, (3, 2), stride=(2, 1), pad=(1, 2)), (5, 2, 6, 5)),
    (lambda: BatchNorm(3), (6, 3)),
    (lambda: BatchNorm(3), (6, 3, 4, 5)),
    (lambda: LayerNorm(4), (6, 4)),
], ids=["dense", "dense-nobias", "conv-pad-stride", "batchnorm-2d", "batchnorm-4d",
        "layernorm"])
def test_capture_is_factor_diagonals(make_layer, in_shape):
    layer = make_layer()
    layer.init(Rng(12))
    rng = Rng(13)
    x = rng.normal(in_shape) * 2.0 + 0.5
    out = layer.forward(x)
    dout = rng.normal(out.shape)
    layer.param_stats(dout)
    h_ref, s_ref = _explicit_capture(layer, x, dout)
    assert max_rel_err(layer.capture.h, h_ref) <= 1e-12
    assert max_rel_err(layer.capture.s, s_ref) <= 1e-12
    if getattr(layer, "bias", False):
        assert layer.capture.h[-1] == 1.0


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
    """A layer's part of Model.backward, plus the input gradient it skips for layer 0."""
    if layer.params:
        layer.param_stats(dout)
    return layer.input_grad(dout)


def _eval_mode_batchnorm():
    bn = BatchNorm(3)
    bn.forward(Rng(17).normal((8, 3, 3, 3)) * 2.0 + 0.5)  # running stats away from 0/1
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
        layer.init(Rng(15))
    rng = Rng(16)
    x = rng.normal(in_shape)
    r = rng.normal(layer.forward(x, training).shape)
    dx = _backward(layer, r)

    def loss():
        return float(np.sum(layer.forward(x, training) * r))

    assert max_rel_err(dx, _central_diff(loss, x)) <= 1e-6
    for name, arr in layer.params.items():
        assert max_rel_err(layer.grads[name], _central_diff(loss, arr)) <= 1e-6, name


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
    conv.init(Rng(18))
    conv.params["b"] = Rng(19).normal((4,))
    rng = Rng(20)
    x = rng.normal((3, 3, 7, 6))
    out = conv.forward(x)
    dout = rng.normal(out.shape)
    dx = _backward(conv, dout)
    ref_out, ref_dx, ref_dw = _conv_loop(x, conv.params["W"], conv.params["b"], conv.stride,
                                         conv.pad, dout)
    assert max_rel_err(out, ref_out) <= 1e-12
    assert max_rel_err(dx, ref_dx) <= 1e-12
    assert max_rel_err(conv.grads["W"], ref_dw) <= 1e-12

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
                   Dense(18, 3)]).init(Rng(21))
    rng = Rng(22)
    x, y = rng.normal((4, 1, 4, 4)), rng.integers(0, 3, size=4)
    model.train_batch(x, y)
    exact_fisher_diag(model, x)
    assert calls == []


@pytest.mark.parametrize("make_layers, counted", [
    (lambda: [Flatten(), Dense(12, 3)], set()),
    (lambda: [Activation("tanh"), Dense(12, 5), Activation("relu"), Dense(5, 3)], {2, 3}),
], ids=["flatten-dense", "activation-dense-relu-dense"])
def test_no_input_gradient_at_or_below_first_parameter_layer(monkeypatch, make_layers,
                                                             counted):
    model = Model(make_layers()).init(Rng(23))
    calls = []
    for i, layer in enumerate(model.layers):
        def counting(dout, i=i, inner=layer.input_grad):
            calls.append(i)
            return inner(dout)
        monkeypatch.setattr(layer, "input_grad", counting)
    rng = Rng(24)
    x, y = rng.normal((4, 12)), rng.integers(0, 3, size=4)
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
    rng = Rng(25)
    x = np.round(rng.normal((2, 3) + in_hw), 1)  # rounding makes ties
    pool = MaxPool2d(kernel, stride)
    out = pool.forward(x)
    dout = rng.normal(out.shape)
    dx = pool.input_grad(dout)
    ref_out, ref_dx = _pool_loop(x, kernel, stride, dout)
    assert np.array_equal(out, ref_out)
    assert max_rel_err(dx, ref_dx) <= 1e-12
    covered_h = (out.shape[2] - 1) * stride[0] + kernel[0]
    covered_w = (out.shape[3] - 1) * stride[1] + kernel[1]
    assert covered_h < in_hw[0] or covered_w < in_hw[1]
    assert not dx[:, :, covered_h:].any() and not dx[:, :, :, covered_w:].any()


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
    out = pool.forward(Rng(26).normal((2, 2, 7, 7)))
    pool.input_grad(np.ones(out.shape))
    assert calls == []


@pytest.mark.parametrize("loss, y", [("cross_entropy", np.zeros(0, dtype=int)),
                                     ("mse", np.zeros((0, 2)))])
def test_empty_batch_rejected(loss, y):
    model = Model([Dense(3, 2)], loss=loss).init(Rng(14))
    with pytest.raises(InputError):
        model.train_batch(np.zeros((0, 3)), y)


class TestCrossEntropy:
    def test_uniform_predictive(self):
        loss, _ = cross_entropy(np.zeros((3, 2)), np.array([0, 1, 0]))
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_saturated(self):
        logits = np.array([[50.0, 0.0]])
        loss, _ = cross_entropy(logits, np.array([0]))
        assert loss < 1e-12

    def test_grad_matches_finite_difference(self):
        rng = Rng(5)
        logits = rng.normal((4, 5))
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
            model.train_batch(x, y)
            assert np.max(np.abs(fd[(0, "W")] - layer.grads["W"])) < 1e-9

    def test_agrees_with_backward_on_three_layer_net(self):
        model = Model([Dense(4, 8), Activation("tanh"), Dense(8, 6),
                       Activation("relu"), Dense(6, 3)]).init(Rng(6))
        rng = Rng(7)
        x = rng.normal((5, 4))
        y = rng.integers(0, 3, size=5)
        fd = finite_diff_grad(model, x, y, 1e-5)
        model.train_batch(x, y)
        for i, layer in model.param_layers():
            for name, g in layer.grads.items():
                assert max_rel_err(g, fd[(i, name)]) <= 1e-6

    def test_bad_epsilon(self):
        with pytest.raises(InputError):
            finite_diff_grad(Model([Dense(1, 1)]), np.zeros((1, 1)), np.zeros(1), 0.0)


class TestMse:
    def test_value_and_grad(self):
        loss, grad = mse(np.array([[2.0]]), np.array([[0.0]]))
        assert loss == 2.0
        assert grad[0, 0] == 2.0
