"""Training runs in float32, the references in float64.

A float32 model's every pass stays float32 (no kernel, constant or running
statistic upcasts it), its results agree with the float64 model's within a
bound fixed by float32's unit roundoff, the optimizers keep its parameters and
moments in float32, and the oracles and finite differences return float64
results computed on its float64 copy.
"""

import numpy as np
import pytest
from numpy.random import default_rng

from adafisher import training
from adafisher.config import RunConfig, build_model
from adafisher.fisher import exact_fisher_diag, mc_fisher_diag
from adafisher.nn import (Activation, BatchNorm, Conv2d, Dense, Flatten, LayerNorm,
                          MaxPool2d, Model, cross_entropy, finite_diff_grad, mse)
from adafisher.optim import SGD, Adam, AdaFisher, Schedule
from adafisher.training import TRAIN_DTYPE, run_streams, run_training, train_step

F32 = np.dtype(np.float32)
UNIT_ROUNDOFF = 2.0**-24  # float32's


def conv_net(seed=0):
    """conv - relu - batchnorm - maxpool - flatten - dense on 1x6x6 images."""
    return Model([Conv2d(1, 2, (3, 3), pad=(1, 1)), Activation("relu"), BatchNorm(2),
                  MaxPool2d((2, 2)), Flatten(), Dense(18, 3)]).init(default_rng(seed))


def dense_net(seed=0):
    """Dense - LayerNorm - tanh - Dense on 4 features."""
    return Model([Dense(4, 6), LayerNorm(6), Activation("tanh"),
                  Dense(6, 3)]).init(default_rng(seed))


def conv_batch(seed, m=16):
    rng = default_rng(seed)
    return rng.standard_normal((m, 1, 6, 6)), rng.integers(0, 3, size=m)


def dense_batch(seed, m=16):
    rng = default_rng(seed)
    return rng.standard_normal((m, 4)), rng.integers(0, 3, size=m)


NETS = pytest.mark.parametrize("make_model, make_batch", [
    (conv_net, conv_batch), (dense_net, dense_batch)], ids=["conv", "dense"])


def float_arrays(value):
    """The floating-point arrays in a layer attribute, a dict's values or a tuple."""
    items = (value.values() if isinstance(value, dict)
             else value if isinstance(value, tuple) else (value,))
    return [a for a in items if isinstance(a, np.ndarray) and a.dtype.kind == "f"]


def held_dtypes(model):
    """{(layer, attribute): dtype} of every floating array the layers hold."""
    return {(i, name): a.dtype for i, layer in enumerate(model.layers)
            for name, value in vars(layer).items() for a in float_arrays(value)}


class TestFloat32Throughout:
    @NETS
    def test_every_output_gradient_and_saved_array(self, make_model, make_batch):
        # Layer by layer, so each forward output and input gradient is seen.
        model = make_model().astype(np.float32)
        x, y = make_batch(1)
        out = np.asarray(x, np.float32)
        for layer in model.layers:
            out = layer.forward(out)
            assert out.dtype == F32, type(layer).__name__
        _, dout = model.loss_and_grad(out, y)
        assert dout.dtype == F32
        for layer in reversed(model.layers):
            if layer.params:
                grads, factors = layer.param_stats(dout)
                assert all(a.dtype == F32 for a in (*grads.values(), *factors.values()))
            dout = layer.input_grad(dout)
            assert dout.dtype == F32, type(layer).__name__
        held = held_dtypes(model)
        assert held and all(dtype == F32 for dtype in held.values()), held

    @NETS
    @pytest.mark.parametrize("workers", [1, 2])
    def test_train_batch_tables_and_eval_forward(self, make_model, make_batch, workers):
        # A float64 batch is cast by the model; the tables, every array the
        # layers keep (BatchNorm's running statistics too) and an eval-mode
        # forward are float32.
        model = make_model().astype(np.float32)
        x, y = make_batch(2)
        _, grads, factors = model.train_batch(x, y, workers)
        assert all(a.dtype == F32 for a in (*grads.values(), *factors.values()))
        assert all(dtype == F32 for dtype in held_dtypes(model).values())
        assert model.forward(x, training=False).dtype == F32
        assert all(dtype == F32 for dtype in held_dtypes(model).values())

    @pytest.mark.parametrize("make_opt", [AdaFisher, Adam, lambda: SGD(momentum=0.9)],
                             ids=["adafisher", "adam", "sgd"])
    def test_steps_keep_parameters_and_moments_float32(self, make_opt):
        # AdaFisher's curvature keeps its EMAs in float64; the divisors it lays
        # out are in the parameters' dtype, so the update runs in float32 alone.
        model = conv_net().astype(np.float32)
        opt = make_opt()
        for seed in range(3):
            train_step(model, *conv_batch(seed), opt, workers=2)
        assert all(p.dtype == F32 for _, _, p in model.parameters())
        assert all(m.dtype == F32 for moments in opt.moments.values() for m in moments)
        if opt.needs_factors:
            curvature = opt.curvature
            assert curvature and all(v.dtype == np.float64 for v in curvature.values())
            assert all(d.dtype == F32 for d in opt.divisors(model, curvature).values())

    @pytest.mark.parametrize("loss, out, target, expected", [
        (cross_entropy, [[0.0, 200.0]], np.array([0]), 200.0),
        (mse, [[3e20]], np.zeros((1, 1), np.float32), 0.5 * float(np.float32(3e20)) ** 2),
    ], ids=["cross-entropy", "mse"])
    def test_loss_functions_compute_in_float64(self, loss, out, target, expected):
        # float32 logits clipped p at 1e-300, which is 0 in float32, so the
        # loss read inf; a float32 squared error of 3e20 overflows
        with np.errstate(all="raise"):
            value, grad = loss(np.array(out, np.float32), target)
        assert value == pytest.approx(expected, rel=1e-15)
        assert grad.dtype == np.float64 and np.isfinite(grad).all()

    def test_scheduled_update_rounds_in_float32(self):
        # A cosine-scheduled rate scales a float32 gradient in float32, as a
        # Python float does, not through a float64 temporary.
        model = dense_net().astype(np.float32)
        _, grads, _ = model.train_batch(*dense_batch(11))
        before = {(i, name): p.copy() for i, name, p in model.parameters()}
        opt = SGD(alpha=0.3)
        opt.lr_scale = Schedule("cosine", total_epochs=3).scale(1)
        opt.step(model, grads)
        for i, name, p in model.parameters():
            want = before[i, name] - np.float32(opt.lr) * grads[i, name]
            assert want.dtype == F32 and np.array_equal(p, want), (i, name)

    def test_astype_copies_parameters_and_running_statistics(self):
        model = conv_net()
        model.train_batch(*conv_batch(3))
        cast = model.astype(np.float32)
        assert model.astype(np.float64) is model and cast.astype(np.float32) is cast
        assert cast.dtype == F32 and model.dtype == np.float64
        for (_, _, p), (_, _, q) in zip(model.parameters(), cast.parameters()):
            assert q.dtype == F32 and np.array_equal(q, p.astype(np.float32))
        bn, cast_bn = model.layers[2], cast.layers[2]
        assert cast_bn.running_mean.dtype == cast_bn.running_var.dtype == F32
        assert np.array_equal(cast_bn.running_var, bn.running_var.astype(np.float32))
        assert all(a is not b for a, b in zip(model.layers, cast.layers))
        # init draws in float64 and rounds to the parameters' dtype
        cast.init(default_rng(0))
        for (_, _, p), (_, _, q) in zip(conv_net(seed=0).parameters(), cast.parameters()):
            assert q.dtype == F32 and np.array_equal(q, p.astype(np.float32))


class TestFloat32AgainstFloat64:
    @NETS
    @pytest.mark.parametrize("workers", [1, 2])
    def test_gradients_and_fresh_factors_agree(self, make_model, make_batch, workers):
        """One pass of the same model on the same batch, in float32 and in
        float64 (its parameters and inputs are float32 values in both).

        The bound, fixed before the run. Each float32 operation rounds with
        relative error at most u = 2**-24, and a sum of n terms computed in
        float32 is within (n - 1) u of the exact sum, relative to the sum of
        its terms' magnitudes (to first order). Every entry of a pass is made
        by at most one such sum per layer: forward, input gradient and the
        parameter statistics. So with L layers and n the longest sum of the
        pass, an entry differs by at most 2 L n u times its table's scale
        (2: the forward and the backward walk). n is 16 rows x 36 positions
        = 576 on the conv net (its conv weight gradient, BatchNorm's and the
        factors' means over rows and positions), and 16 rows on the dense
        net. The scale is the model's largest gradient for the gradients (a
        bias feeding BatchNorm has the exact gradient 0, where both read
        rounding noise), each factor's largest entry for the factors, and the
        loss for the loss, a mean of non-negative terms."""
        n = 576 if make_model is conv_net else 16
        bound = 2 * len(make_model().layers) * n * UNIT_ROUNDOFF
        model32 = make_model(seed=4).astype(np.float32)
        model64 = model32.astype(np.float64)
        x, y = make_batch(5)
        x = x.astype(np.float32).astype(np.float64)
        loss32, grads32, factors32 = model32.train_batch(x, y, workers)
        loss64, grads64, factors64 = model64.train_batch(x, y, workers)
        assert abs(loss32 - loss64) <= bound * loss64
        g_max = max(float(np.abs(g).max()) for g in grads64.values())
        assert grads32.keys() == grads64.keys() and factors32.keys() == factors64.keys()
        for key, g in grads64.items():
            assert np.abs(grads32[key] - g).max() <= bound * g_max, key
        for key, f in factors64.items():
            assert np.abs(factors32[key] - f).max() <= bound * np.abs(f).max(), key


class TestReferencesStayFloat64:
    def test_oracles_work_on_the_float64_copy(self):
        model32 = conv_net(seed=6).astype(np.float32)
        params = [p.copy() for _, _, p in model32.parameters()]
        x, _ = conv_batch(7, m=6)
        model64 = model32.astype(np.float64)
        for oracle in (lambda m: exact_fisher_diag(m, x),
                       lambda m: mc_fisher_diag(m, x, 20, default_rng(8))):
            got, want = oracle(model32), oracle(model64)
            assert got.keys() == want.keys()
            for key, arr in want.items():
                assert got[key].dtype == np.float64 and np.array_equal(got[key], arr), key
        for p, (_, _, q) in zip(params, model32.parameters()):
            assert q.dtype == F32 and np.array_equal(p, q)

    def test_finite_differences_work_on_the_float64_copy(self):
        model32 = dense_net(seed=9).astype(np.float32)
        x, y = dense_batch(10, m=4)
        got = finite_diff_grad(model32, x, y)
        want = finite_diff_grad(model32.astype(np.float64), x, y)
        assert got.keys() == want.keys()
        for key, arr in want.items():
            assert got[key].dtype == np.float64 and np.array_equal(got[key], arr), key
        assert all(p.dtype == F32 for _, _, p in model32.parameters())


class TestRunTraining:
    CONFIG = {"model": {"layers": [{"kind": "dense", "in": 4, "out": 8},
                                   {"kind": "batchnorm", "dim": 8}, {"kind": "relu"},
                                   {"kind": "dense", "in": 8, "out": 3}]},
              "dataset": {"source": "blobs", "n": 120, "classes": 3, "dim": 4},
              "optimizer": {"name": "adafisher"}, "epochs": 2, "batch_size": 16, "seed": 5}

    def test_final_params_are_float32(self, tmp_path):
        assert TRAIN_DTYPE is np.float32
        run_training(RunConfig.from_dict(self.CONFIG), out_dir=tmp_path)
        saved = np.load(tmp_path / "final_params.npz")
        assert len(saved.files) == 6 and all(saved[k].dtype == F32 for k in saved.files)

    def test_init_draws_from_the_root_stream_then_rounds(self, tmp_path, monkeypatch):
        # With no step taken, the saved parameters are the float64 init's,
        # rounded to float32.
        monkeypatch.setattr(training, "train_step", lambda *args, **kwargs: 0.0)
        run_training(RunConfig.from_dict(self.CONFIG), out_dir=tmp_path)
        saved = np.load(tmp_path / "final_params.npz")
        init = build_model(self.CONFIG["model"], run_streams(5)[0])
        for i, name, p in init.parameters():
            assert p.dtype == np.float64
            assert np.array_equal(saved[f"{i}.{name}"], p.astype(np.float32))
