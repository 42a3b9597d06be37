import numpy as np
import pytest
from numpy.random import default_rng

from adafisher.errors import ConfigError, NumericError, StateError
from adafisher.nn import (Activation, BatchNorm, Conv2d, Dense, Flatten, LayerNorm,
                          MaxPool2d, Model)
from adafisher.optim import MINMAX_EPS, Adam, AdaFisher, SGD
from adafisher.training import train_step


def recorded_passes(model, monkeypatch):
    """The list that collects (loss, grads, factors) of every training pass
    run on model from now on, in order."""
    passes = []
    train_batch = model.train_batch

    def record(*args, **kwargs):
        passes.append(train_batch(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(model, "train_batch", record)
    return passes


def assert_same_tables(got, expected):
    assert got.keys() == expected.keys()
    assert all(np.array_equal(got[key], arr) for key, arr in expected.items())


def mlp(seed=0):
    return Model([Dense(6, 10), Activation("relu"), Dense(10, 4)]).init(default_rng(seed))


def make_batch(seed, m=16):
    rng = default_rng(seed)
    return rng.standard_normal((m, 6)), rng.integers(0, 4, size=m)


class TestShardBatch:
    def test_even_split(self):
        # worker k's shard is the k-th block of consecutive rows: BatchNorm
        # normalizes each block of 2 rows by that block's own mean and variance
        x, _ = make_batch(0, m=8)
        out = BatchNorm(6).forward(x, workers=4)
        for got, xs in zip(np.split(out, 4), np.split(x, 4)):
            want = (xs - xs.mean(axis=0)) / np.sqrt(xs.var(axis=0) + 1e-5)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_uneven_shards_rejected(self):
        x, y = make_batch(1, m=10)
        with pytest.raises(ConfigError, match="workers must divide the batch size; got 3"):
            train_step(mlp(), x, y, SGD(), workers=3)

    def test_bad_worker_count(self):
        # a count that is no integer >= 1 is refused on nets with and without
        # BatchNorm, before it shards anything
        x, y = make_batch(2, m=4)
        bn_net = Model([Dense(6, 4), BatchNorm(4), Dense(4, 4)]).init(default_rng(0))
        for model in (mlp(), bn_net):
            for workers in (0, 5, 2.0, "2", True, None):
                with pytest.raises(ConfigError):
                    train_step(model, x, y, SGD(), workers=workers)


class TestTrainStep:
    def test_sharded_grad_mean_equals_full_batch_mean(self, monkeypatch):
        # per-shard mean gradients averaged over equal shards == full-batch mean
        x, y = make_batch(3, m=12)
        _, expected, _ = mlp(seed=7).train_batch(x, y)

        model = mlp(seed=7)
        passes = recorded_passes(model, monkeypatch)
        train_step(model, x, y, SGD(alpha=0.0001), workers=4)
        (_, got, _), = passes
        assert got.keys() == expected.keys()
        for key, g in expected.items():
            assert np.max(np.abs(got[key] - g)) < 1e-13

    def test_worker_count_invariance(self):
        # identical parameters after many steps regardless of K
        results = {}
        for workers in (1, 2, 4):
            model = mlp(seed=5)
            opt = AdaFisher(alpha=0.001)
            rng = default_rng(99)
            for _ in range(20):
                x = rng.standard_normal((8, 6))
                y = rng.integers(0, 4, size=8)
                train_step(model, x, y, opt, workers=workers)
            results[workers] = np.concatenate(
                [p.ravel() for _, _, p in model.parameters()])
        for workers in (2, 4):
            assert np.max(np.abs(results[workers] - results[1])) <= 1e-10

    def test_single_worker_matches_plain_path(self):
        x, y = make_batch(6, m=8)
        m1 = mlp(seed=2)
        m2 = mlp(seed=2)
        o1, o2 = AdaFisher(), AdaFisher()
        l1, g1, f1 = m1.train_batch(x, y)
        o1.step(m1, g1, f1)
        l2 = train_step(m2, x, y, o2, workers=1)
        assert l1 == l2
        for key, vec in o1.curvature.items():
            assert np.array_equal(vec, o2.curvature[key])
        for (_, _, pa), (_, _, pb) in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(pa, pb)

    def test_one_pass_per_cluster_step(self, monkeypatch):
        model, calls = mlp(seed=3), []
        train_batch = model.train_batch

        def counted(*args, **kwargs):
            calls.append(args[2:])
            return train_batch(*args, **kwargs)

        monkeypatch.setattr(model, "train_batch", counted)
        train_step(model, *make_batch(7, m=8), SGD(), workers=4)
        assert calls == [(4,)]

    def test_one_ema_update_per_cluster_step(self, monkeypatch):
        # one EMA of the pass's factors from the starting ones, not one per worker
        x, y = make_batch(7, m=8)
        model = mlp(seed=3)
        passes = recorded_passes(model, monkeypatch)
        opt = AdaFisher(gamma=0.8)
        train_step(model, x, y, opt, workers=4)
        (_, _, fresh), = passes
        assert opt.t == 1
        assert_same_tables(opt.curvature,
                           {key: 0.8 * vec + (1.0 - 0.8) * np.ones_like(vec)
                            for key, vec in fresh.items()})

    def test_uncaptured_pass_rejected(self, monkeypatch):
        # an AdaFisher step on a pass that formed no factors
        x, y = make_batch(8, m=4)
        model, opt = mlp(), AdaFisher()
        train_batch = model.train_batch
        monkeypatch.setattr(model, "train_batch",
                            lambda *args, capture: train_batch(*args, capture=False))
        with pytest.raises(StateError, match="fresh factor h of layer 0 is missing"):
            train_step(model, x, y, opt)
        assert opt.t == 0 and opt.curvature == {}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gamma_one_state_is_batch_factors(self, workers):
        # kf.gamma = 1 turns the EMA off: after each step the state is that
        # batch's fresh factors, whatever came before; in a net without
        # BatchNorm, K workers capture exactly what one worker does
        model = mlp(seed=4)
        opt = AdaFisher(gamma=1.0)
        for seed in (9, 11):
            x, y = make_batch(seed, m=8)
            probe = model.copy()
            _, _, expected = probe.train_batch(x, y)
            train_step(model, x, y, opt, workers=workers)
            for key, vec in expected.items():
                assert np.array_equal(opt.curvature[key], vec)

    def test_loss_is_shard_mean(self):
        x, y = make_batch(10, m=8)
        model = mlp(seed=6)
        per_shard = []
        probe = model.copy()
        for xs, ys in zip(np.split(x, 2), np.split(y, 2)):
            per_shard.append(probe.train_batch(xs, ys)[0])
        loss = train_step(model, x, y, SGD(alpha=1e-9), workers=2)
        assert loss == pytest.approx(np.mean(per_shard), abs=1e-12)


class TestFiniteGuard:
    def started(self, workers):
        """A model and optimizer after one good step, plus copies of their state."""
        model = mlp(seed=8)
        opt = AdaFisher()
        train_step(model, *make_batch(12, m=8), opt, workers=workers)
        snapshot = ({k: v.copy() for k, v in opt.curvature.items()},
                    {k: np.copy(v) for k, v in opt.moments.items()},
                    [p.copy() for _, _, p in model.parameters()])
        return model, opt, snapshot

    def assert_unchanged(self, model, opt, snapshot):
        factors, moments, params = snapshot
        assert opt.t == 1
        assert opt.curvature.keys() == factors.keys()
        assert all(np.array_equal(opt.curvature[k], v) for k, v in factors.items())
        assert opt.moments.keys() == moments.keys()
        assert all(np.array_equal(opt.moments[k], v) for k, v in moments.items())
        assert all(np.array_equal(p, q) for (_, _, p), q in zip(model.parameters(), params))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_batch_leaves_state_unchanged(self, workers):
        model, opt, snapshot = self.started(workers)
        x, y = make_batch(13, m=8)
        x[5, 2] = np.nan
        with pytest.raises(NumericError, match="step 2: non-finite training loss"):
            train_step(model, x, y, opt, workers=workers)
        self.assert_unchanged(model, opt, snapshot)

    @pytest.mark.parametrize("quantity, corrupt", [
        ("gradient b of layer 2", lambda grads, factors: grads[2, "b"].__setitem__(1, np.inf)),
        ("factor h of layer 2", lambda grads, factors: factors[2, "h"].__setitem__(0, np.nan)),
    ], ids=["gradient", "factor"])
    def test_named_layer_and_quantity(self, quantity, corrupt, monkeypatch):
        model, opt, snapshot = self.started(workers=2)
        train_batch = model.train_batch

        def corrupted(*args, **kwargs):
            loss, grads, factors = train_batch(*args, **kwargs)
            corrupt(grads, factors)
            return loss, grads, factors

        monkeypatch.setattr(model, "train_batch", corrupted)
        with pytest.raises(NumericError, match=f"step 2: non-finite {quantity}$"):
            train_step(model, *make_batch(14, m=8), opt, workers=2)
        self.assert_unchanged(model, opt, snapshot)

    def test_divergence_stops_before_the_state_takes_it(self):
        model = Model([Dense(4, 16), Activation("relu"), Dense(16, 3)]).init(default_rng(0))
        opt = AdaFisher(alpha=1e6)
        rng = default_rng(15)
        with pytest.raises(NumericError), np.errstate(all="ignore"):
            for _ in range(200):
                train_step(model, rng.standard_normal((16, 4)) * 3.0, rng.integers(0, 3, size=16),
                           opt)
        assert opt.t > 0 and opt.curvature
        assert all(np.isfinite(vec).all() for vec in opt.curvature.values())
        assert all(np.isfinite(m).all() for m in opt.moments.values())


def every_kind(seed=0):
    """Conv, relu, 4-D batch norm, pool, flatten, dense, 2-D batch norm, layer norm, tanh."""
    return Model([
        Conv2d(1, 2, (3, 3), pad=(1, 1)), Activation("relu"), BatchNorm(2),
        MaxPool2d((2, 2)), Flatten(), Dense(18, 5), BatchNorm(5), LayerNorm(5),
        Activation("tanh"), Dense(5, 3),
    ]).init(default_rng(seed))


def no_batchnorm(seed=0):
    """every_kind without its two BatchNorms."""
    return Model([
        Conv2d(1, 2, (3, 3), pad=(1, 1)), Activation("relu"), MaxPool2d((2, 2)), Flatten(),
        Dense(18, 5), LayerNorm(5), Activation("tanh"), Dense(5, 3),
    ]).init(default_rng(seed))


def regression(seed=0):
    return Model([Dense(4, 6), Activation("tanh"), Dense(6, 2)],
                 loss="mse").init(default_rng(seed))


def dense_only(seed=0):
    return Model([Dense(6, 5), Dense(5, 4)]).init(default_rng(seed))


def one_feature(seed=0):
    """A one-channel BatchNorm between one-wide gradients and factors."""
    return Model([Dense(4, 1), BatchNorm(1), Dense(1, 2)]).init(default_rng(seed))


def every_kind_batch(seed):
    rng = default_rng(seed)
    return rng.standard_normal((16, 1, 6, 6)), rng.integers(0, 3, size=16)


def regression_batch(seed):
    rng = default_rng(seed)
    return rng.standard_normal((16, 4)), rng.standard_normal((16, 2))


def one_feature_batch(seed):
    rng = default_rng(seed)
    return rng.standard_normal((16, 4)) * 100.0, rng.integers(0, 2, size=16)


UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def largest(arrays) -> float:
    return max(float(np.abs(a).max()) for a in arrays)


class TestExactWorkers:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    @pytest.mark.parametrize("make_model, make_data", [
        (every_kind, every_kind_batch), (regression, regression_batch),
        (one_feature, one_feature_batch),
    ], ids=["every-kind", "mse", "one-feature"])
    def test_step_equals_ordered_mean_of_shard_passes(self, make_model, make_data, workers,
                                                      monkeypatch):
        """The K-worker step against each np.split shard run through its own
        pass and averaged in worker order.

        The bound. Both sides form the same M-term sums (a gradient or factor
        entry sums M per-sample terms, the loss M losses) in two orders: the
        K-worker step over the whole batch, the reference per shard and then
        over the shards. Each order is within (M - 1) u sum|terms| of the exact
        sum (to first order, u the unit roundoff), so the sides differ by at
        most eps = 2 (M - 1) u times the sum's scale. The scale is the model's
        largest gradient G for every gradient (not each array's own largest
        entry: a bias that feeds a BatchNorm has the exact gradient 0, where
        both sides read noise of order eps G), the largest entry V_h or V_s of
        that factor kind for the factors, and the loss itself for the loss,
        whose terms are non-negative. A first AdaFisher step moves a parameter
        entry by alpha g / D with D = n_h n_s + lambda, for min-max normalized
        factors n in [0, 1]. So, to first order, an entry differs by at most
        alpha (eps G / D + |g| |dD| / D**2), with g and D the reference's,
        |dD| <= |dn_h| + |dn_s| and |dn| <= 4 eps V / (max - min) for the
        layer's factor with range [min, max] (0 below MINMAX_EPS, where both
        sides normalize to 0). BatchNorm's running statistics are updated
        from the same per-shard statistics in the same order on both sides,
        so they match exactly.
        """
        x, y = make_data(20 + workers)
        model = make_model(seed=workers)
        ref = model.copy()
        alpha = 0.01
        opt, ref_opt = AdaFisher(alpha=alpha, gamma=1.0), AdaFisher(alpha=alpha, gamma=1.0)

        losses, grads, captures = [], [], []
        for xs, ys in zip(np.split(x, workers), np.split(y, workers)):
            shard_loss, shard_grads, shard_factors = ref.train_batch(xs, ys)
            losses.append(shard_loss)
            grads.append(shard_grads)
            captures.append(shard_factors)

        def ordered_mean(parts):
            return {key: sum((p[key] for p in parts[1:]), arr) / len(parts)
                    for key, arr in parts[0].items()}

        mean_grads = ordered_mean(grads)
        ref_opt.step(ref, mean_grads, ordered_mean(captures))

        passes = recorded_passes(model, monkeypatch)
        loss = train_step(model, x, y, opt, workers=workers)
        eps = 2 * (len(x) - 1) * UNIT_ROUNDOFF
        ref_loss = float(np.mean(losses))
        assert abs(loss - ref_loss) <= eps * ref_loss
        (_, got, _), = passes
        assert got.keys() == mean_grads.keys()
        g_max = largest(mean_grads.values())
        assert all(np.abs(got[key] - g).max() <= eps * g_max for key, g in mean_grads.items())
        factors = ref_opt.curvature
        assert opt.curvature.keys() == factors.keys()
        v_max = {kind: largest(v for (_, k), v in factors.items() if k == kind) for kind in "hs"}
        assert all(np.abs(opt.curvature[key] - vec).max() <= eps * v_max[key[1]]
                   for key, vec in factors.items())
        divisors = ref_opt.divisors(ref, ref_opt.curvature)
        for (i, name, p), (_, _, q) in zip(model.parameters(), ref.parameters()):
            d, g = divisors[i, name], mean_grads[i, name]
            dd = sum(4 * eps * v_max[kind] / np.ptp(factors[i, kind])
                     for kind in "hs" if np.ptp(factors[i, kind]) >= MINMAX_EPS)
            assert np.all(np.abs(p - q) <= alpha * (eps * g_max / d + np.abs(g) * dd / d**2))
        for layer, ref_layer in zip(model.layers, ref.layers):
            if isinstance(layer, BatchNorm):
                assert np.array_equal(layer.running_mean, ref_layer.running_mean)
                assert np.array_equal(layer.running_var, ref_layer.running_var)

    @pytest.mark.parametrize("workers", [2, 4, 8])
    @pytest.mark.parametrize("make_model, make_data", [
        (regression, regression_batch), (dense_only, make_batch),
        (no_batchnorm, every_kind_batch),
    ], ids=["mse", "dense", "no-batchnorm"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_batchnorm_free_step_equals_one_worker(self, make_model, make_data, workers, dtype,
                                                   monkeypatch):
        # Only BatchNorm reads workers, so without it the K-worker step is the
        # one-worker step bit for bit, in either dtype: loss, gradients,
        # factors and parameters.
        x, y = make_data(40 + workers)
        model = make_model(seed=workers).astype(dtype)
        ref = model.copy()
        passes, ref_passes = recorded_passes(model, monkeypatch), recorded_passes(ref, monkeypatch)
        opt, ref_opt = AdaFisher(alpha=0.01, gamma=1.0), AdaFisher(alpha=0.01, gamma=1.0)
        loss = train_step(model, x, y, opt, workers=workers)
        assert loss == train_step(ref, x, y, ref_opt)
        (_, *tables), = passes
        (_, *ref_tables), = ref_passes
        for got, expected in zip(tables, ref_tables):
            assert_same_tables(got, expected)
        assert_same_tables(opt.curvature, ref_opt.curvature)
        for (_, _, p), (_, _, q) in zip(model.parameters(), ref.parameters()):
            assert np.array_equal(p, q)


class TestCaptureOnlyWhenRead:
    """A step forms the factors only for an optimizer that reads them."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("make_opt", [Adam, lambda: SGD(momentum=0.9)], ids=["adam", "sgd"])
    def test_baseline_step_leaves_every_capture_empty(self, make_opt, workers, monkeypatch):
        x, y = every_kind_batch(30)
        model = every_kind(seed=30)
        ref = model.copy()
        passes = recorded_passes(model, monkeypatch)
        train_step(model, x, y, make_opt(), workers=workers)
        (_, grads, factors), = passes
        assert factors == {}
        _, expected, _ = ref.train_batch(x, y, workers)  # a capturing pass's, bit for bit
        assert_same_tables(grads, expected)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_capturing_pass_after_a_capture_off_pass_is_unchanged(self, workers):
        x, y = every_kind_batch(31)
        model = every_kind(seed=31)
        ref = model.copy()
        model.train_batch(x, y, workers, capture=False)
        _, _, got = model.train_batch(x, y, workers)
        _, _, expected = ref.train_batch(x, y, workers)
        assert len(got) == 2 * len(model.param_layers())
        assert_same_tables(got, expected)

    def test_adafisher_step_reads_a_capturing_pass(self, monkeypatch):
        x, y = every_kind_batch(32)
        model = every_kind(seed=32)
        ref = model.copy()
        passes = recorded_passes(model, monkeypatch)
        train_step(model, x, y, AdaFisher(), workers=4)
        (_, _, got), = passes
        _, _, expected = ref.train_batch(x, y, 4)
        assert_same_tables(got, expected)
