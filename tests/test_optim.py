import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import default_rng

from adafisher.config import RunConfig
from adafisher.errors import ConfigError, DimensionError, NumericError, StateError
from adafisher.nn import Activation, BatchNorm, Conv2d, Dense, LayerNorm, Model
from adafisher.optim import Adam, AdaFisher, SGD, Schedule, build_optimizer, minmax_normalize

# Derandomized and bounded, so the suite stays deterministic and fast.
DETERMINISTIC = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def scalar_model(w0=1.0):
    layer = Dense(1, 1, bias=False)
    layer.params["W"] = np.array([[w0]])
    return Model([layer]), layer


def scalar_grad(g=0.0):
    """The gradient table of scalar_model: g at its one weight."""
    return {(0, "W"): np.full((1, 1), g)}


def factor_table(model, fill=np.zeros):
    """{(layer id, "h" | "s"): fill(size)} for every factor of model."""
    return {(i, name): fill(n) for i, layer in model.param_layers()
            for name, n in zip(("h", "s"), layer.factor_sizes)}


def damped(lam=1.0, **hyper):
    """An AdaFisher whose every divisor is lam alone when it is stepped with
    factor_table(model): with gamma = 1 its EMA is the fresh factors, and
    zeros min-max to zeros."""
    return AdaFisher(lam=lam, gamma=1.0, **hyper)


class TestAdaFisher:
    def test_single_step_worked_example(self):
        model, layer = scalar_model(w0=0.0)
        opt = damped(alpha=0.001, beta=0.9)
        opt.step(model, scalar_grad(1.0), factor_table(model))
        # m = 0.1, corrected by (1 - 0.9) -> 1.0, unit divisor
        assert layer.params["W"][0, 0] == pytest.approx(-0.001, abs=1e-15)

    def test_scalar_recurrence_oracle(self):
        model, layer = scalar_model(w0=0.5)
        opt = damped(lam=0.25, alpha=0.01, beta=0.9)
        rng = default_rng(0)
        grads = rng.standard_normal((30,))
        theta, m = 0.5, 0.0
        for t, g in enumerate(grads, start=1):
            opt.step(model, scalar_grad(g), factor_table(model))
            m = 0.9 * m + 0.1 * g
            theta -= 0.01 * (m / (1 - 0.9**t)) / 0.25
            assert abs(layer.params["W"][0, 0] - theta) < 1e-14

    def test_bias_correction_constant_gradient(self):
        # with a constant gradient the corrected moment equals the gradient
        model, layer = scalar_model(w0=0.0)
        opt = damped(alpha=0.001, beta=0.9)
        for t in range(1, 6):
            opt.step(model, scalar_grad(2.0), factor_table(model))
            assert layer.params["W"][0, 0] == pytest.approx(-0.001 * 2.0 * t, abs=1e-14)

    def test_sqrt_divisor(self):
        for use_sqrt, expected in ((False, -0.001 / 4.0), (True, -0.001 / 2.0)):
            model, layer = scalar_model(w0=0.0)
            opt = damped(lam=4.0, alpha=0.001, beta=0.9, sqrt_divisor=use_sqrt)
            opt.step(model, scalar_grad(1.0), factor_table(model))
            assert layer.params["W"][0, 0] == pytest.approx(expected, abs=1e-15)

    def test_requires_curvature(self):
        model, _ = scalar_model()
        with pytest.raises(StateError, match="fresh factor h of layer 0 is missing"):
            AdaFisher().step(model, scalar_grad(), None)

    def test_norm_layer_blocks(self):
        ln = LayerNorm(2)
        ln.params["scale"] = np.array([1.0, 2.0])
        ln.params["shift"] = np.array([0.0, 0.0])
        grads = {(0, "scale"): np.array([1.0, 1.0]), (0, "shift"): np.array([2.0, 0.0])}
        model = Model([ln])
        opt = damped(alpha=0.001, beta=0.9)
        opt.step(model, grads, {(0, "h"): np.zeros(2), (0, "s"): np.array([0.0, 1.0])})
        # scale divisors h*s + lam = [1, 1]; shift divisors s + lam = [1, 2]
        assert np.allclose(ln.params["scale"], [1.0 - 0.001, 2.0 - 0.001])
        assert np.allclose(ln.params["shift"], [-0.002, 0.0])

    def test_factor_shape_mismatch_rejected(self):
        model, _ = scalar_model()  # a bias-free 1x1 Dense cannot take a 1x2 divisor grid
        with pytest.raises(DimensionError):
            AdaFisher().step(model, scalar_grad(), {(0, "h"): np.zeros(2), (0, "s"): np.zeros(1)})
        with pytest.raises(DimensionError):
            AdaFisher().step(model, scalar_grad(), {(0, "h"): np.zeros(1), (0, "s"): np.zeros(2)})
        ln = Model([LayerNorm(2)])
        grads = {(0, "scale"): np.zeros(2), (0, "shift"): np.zeros(2)}
        with pytest.raises(DimensionError):
            AdaFisher().step(ln, grads, {(0, "h"): np.zeros(3), (0, "s"): np.zeros(3)})

    def test_bad_hyperparameters(self):
        for hyper in ({"alpha": 0.0}, {"alpha": float("nan")}, {"beta": 1.0},
                      {"kappa": -0.1}, {"kappa": float("nan")}):
            with pytest.raises(ConfigError):
                AdaFisher(**hyper)


class TestAdaFisherW:
    def test_zero_gradient_pure_decay(self):
        model, layer = scalar_model(w0=3.0)
        opt = damped(alpha=0.01, kappa=0.1)
        opt.step(model, scalar_grad(0.0), factor_table(model))
        assert layer.params["W"][0, 0] == 3.0 * (1.0 - 0.01 * 0.1)

    def test_decay_is_decoupled_from_divisor(self):
        # decay term must not be divided by the curvature
        model, layer = scalar_model(w0=1.0)
        opt = damped(lam=100.0, alpha=0.01, kappa=0.1)
        opt.step(model, scalar_grad(0.0), factor_table(model))
        assert layer.params["W"][0, 0] == pytest.approx(1.0 - 0.001, abs=1e-15)

    def test_matches_adafisher_when_kappa_zero(self):
        ma, la = scalar_model(w0=0.7)
        mw, lw = scalar_model(w0=0.7)
        oa = damped(alpha=0.005)
        ow = build_optimizer("adafisherw", {"alpha": 0.005, "kappa": 0.0, "lam": 1.0,
                                            "gamma": 1.0})
        rng = default_rng(1)
        for g in rng.standard_normal((10,)):
            oa.step(ma, scalar_grad(g), factor_table(ma))
            ow.step(mw, scalar_grad(g), factor_table(mw))
            assert la.params["W"][0, 0] == lw.params["W"][0, 0]


class TestAdam:
    def test_scalar_recurrence_oracle(self):
        model, layer = scalar_model(w0=0.3)
        opt = Adam(alpha=0.01)
        rng = default_rng(2)
        grads = rng.standard_normal((25,))
        theta, m, v = 0.3, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            opt.step(model, scalar_grad(g))
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert abs(layer.params["W"][0, 0] - theta) < 1e-14

    def test_first_step_is_signed_learning_rate(self):
        # m_hat = g, v_hat = g^2: update ~ sign(g) for |g| >> eps
        model, layer = scalar_model(w0=0.0)
        Adam(alpha=0.01).step(model, scalar_grad(7.0))
        assert layer.params["W"][0, 0] == pytest.approx(-0.01, rel=1e-6)

    def test_adamw_zero_gradient_pure_decay(self):
        model, layer = scalar_model(w0=2.0)
        opt = Adam(alpha=0.01, weight_decay=0.1, decoupled=True)
        opt.step(model, scalar_grad(0.0))
        assert layer.params["W"][0, 0] == 2.0 * (1.0 - 0.01 * 0.1)

    @pytest.mark.parametrize("hyper", [{"eps": 0.0}, {"eps": -1e-8}, {"eps": float("nan")},
                                       {"weight_decay": -1.0}, {"alpha": float("nan")}])
    @pytest.mark.parametrize("name", ["adam", "adamw"])
    def test_bad_hyperparameters(self, name, hyper):
        # eps = 0 would turn every zero-gradient entry into 0 / 0 = NaN; a NaN
        # learning rate passes a bare `alpha <= 0` test
        with pytest.raises(ConfigError):
            build_optimizer(name, hyper)

    def test_coupled_vs_decoupled_differ(self):
        mc, lc = scalar_model(w0=1.0)
        md, ld = scalar_model(w0=1.0)
        Adam(alpha=0.01, weight_decay=0.1).step(mc, scalar_grad(0.5))
        Adam(alpha=0.01, weight_decay=0.1, decoupled=True).step(md, scalar_grad(0.5))
        assert lc.params["W"][0, 0] != ld.params["W"][0, 0]


class TestSGD:
    def test_plain_step(self):
        model, layer = scalar_model(w0=1.0)
        SGD(alpha=0.1).step(model, scalar_grad(0.5))
        assert layer.params["W"][0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_momentum_recurrence_oracle(self):
        model, layer = scalar_model(w0=0.0)
        opt = SGD(alpha=0.1, momentum=0.9)
        rng = default_rng(3)
        grads = rng.standard_normal((15,))
        theta, buf = 0.0, 0.0
        for g in grads:
            opt.step(model, scalar_grad(g))
            buf = 0.9 * buf + g
            theta -= 0.1 * buf
            assert abs(layer.params["W"][0, 0] - theta) < 1e-14

    def test_bad_momentum(self):
        with pytest.raises(ConfigError):
            SGD(momentum=1.0)


def _allocating_step(name, hyper, t, p, g, state):
    """One parameter's baseline update written with new arrays, as the
    formulas read; state holds its moments between steps."""
    lr = hyper["alpha"]
    if name == "sgd":
        mu = hyper.get("momentum", 0.0)
        if mu:
            state["buf"] = mu * state.get("buf", np.zeros_like(p)) + g
            g = state["buf"]
        return p - lr * g
    b1, b2, eps, wd = 0.9, 0.999, 1e-8, hyper.get("weight_decay", 0.0)
    decoupled = name == "adamw"
    if wd and not decoupled:
        g = g + wd * p
    state["m"] = b1 * state.get("m", np.zeros_like(p)) + (1.0 - b1) * g
    state["v"] = b2 * state.get("v", np.zeros_like(p)) + (1.0 - b2) * g * g
    update = (state["m"] / (1.0 - b1**t)) / (np.sqrt(state["v"] / (1.0 - b2**t)) + eps)
    if wd and decoupled:
        update = update + wd * p
    return p - lr * update


@pytest.mark.parametrize("name, hyper", [
    ("adam", {"alpha": 0.01}),
    ("adam", {"alpha": 0.01, "weight_decay": 0.1}),
    ("adamw", {"alpha": 0.01, "weight_decay": 0.1}),
    ("sgd", {"alpha": 0.05}),
    ("sgd", {"alpha": 0.05, "momentum": 0.9}),
], ids=["adam", "adam-coupled-decay", "adamw", "sgd", "sgd-momentum"])
def test_in_place_baseline_matches_allocating_formulas(name, hyper):
    model = Model([Dense(5, 4), LayerNorm(4), Dense(4, 3, bias=False)]).init(default_rng(21))
    opt = build_optimizer(name, hyper)
    ref = {(i, n): p.copy() for i, n, p in model.parameters()}
    states = {key: {} for key in ref}
    rng = default_rng(22)
    for t in range(1, 21):
        scale = 10.0 ** float(rng.integers(-9, 3))  # from far below eps to large
        grads = {(i, n): rng.standard_normal(p.shape) * scale for i, n, p in model.parameters()}
        before = {key: g.copy() for key, g in grads.items()}
        opt.step(model, grads)
        for key, g in grads.items():
            ref[key] = _allocating_step(name, hyper, t, ref[key], before[key], states[key])
            assert np.array_equal(g, before[key])  # the gradient is read, never written
        for i, n, p in model.parameters():
            assert np.array_equal(p, ref[i, n]), (t, i, n)
        kept = [buf for moments in opt.moments.values() for buf in moments]
        per_param = 2 if name != "sgd" else int(bool(hyper.get("momentum")))
        assert len(kept) == per_param * len(grads)
        assert not any(np.shares_memory(buf, g) for buf in kept for g in grads.values())


class _AdaFisherWalk:
    """AdaFisher walked tensor by tensor with allocating formulas: each
    factor's EMA, min-max and divisor on its own, then each parameter's update."""

    def __init__(self, opt):
        self.opt, self.t, self.m, self.curvature = opt, 0, {}, {}

    def step(self, model, params, grads, factors):
        """Update params, {(layer id, name): array} of model's shapes, in place."""
        o = self.opt
        self.t += 1
        for i, layer in model.param_layers():
            for f in ("h", "s"):
                old = self.curvature.get((i, f), np.ones(len(factors[i, f])))
                self.curvature[i, f] = o.gamma * factors[i, f] + (1.0 - o.gamma) * old
            h, s = (minmax_normalize(self.curvature[i, f]).astype(model.dtype) for f in "hs")
            for name, diag in layer.kronecker_diagonal(h, s).items():
                key, p = (i, name), params[i, name]
                div = np.sqrt(diag + o.lam) if o.sqrt_divisor else diag + o.lam
                m = o.beta * self.m.get(key, np.zeros_like(p)) + (1.0 - o.beta) * grads[key]
                self.m[key] = m.astype(p.dtype)  # a float64 gradient rounds into the moment
                delta = self.m[key] / (1.0 - o.beta**self.t) / div
                if o.kappa:
                    delta = delta + o.kappa * p
                params[key] = p - o.lr * delta


def _walk_net(seed):
    """Dense(bias)-LayerNorm-BatchNorm-Dense(no bias) in float32: both layout
    families and a Kronecker layer without a bias slot."""
    return Model([Dense(5, 4), LayerNorm(4), BatchNorm(4),
                  Dense(4, 3, bias=False)]).init(default_rng(seed)).astype(np.float32)


@pytest.mark.parametrize("name, hyper, gdtype", [
    ("adafisher", {"alpha": 0.01}, np.float32),
    ("adafisherw", {"alpha": 0.01, "kappa": 0.1}, np.float32),
    ("adafisher", {"alpha": 0.01, "sqrt_divisor": True}, np.float32),
    ("adafisher", {"alpha": 0.01}, np.float64),
], ids=["adafisher", "adafisherw-kappa", "sqrt-divisor", "float64-gradients"])
def test_flat_adafisher_update_matches_per_tensor_walk(name, hyper, gdtype):
    # The flat store updates every parameter with the float operations, in
    # the order, of one walk per tensor, so every value is bit-identical.
    model = _walk_net(23)
    opt = build_optimizer(name, hyper)
    walk = _AdaFisherWalk(build_optimizer(name, hyper))
    ref = {(i, n): p.copy() for i, n, p in model.parameters()}
    rng = default_rng(24)
    for t in range(1, 21):
        scale = 10.0 ** float(rng.integers(-6, 3))
        grads = {(i, n): (rng.standard_normal(p.shape) * scale).astype(gdtype)
                 for i, n, p in model.parameters()}
        factors = factor_table(model, lambda n: rng.random(n) * 10.0 ** float(rng.integers(-3, 3)))
        before = {key: g.copy() for key, g in grads.items()}
        opt.step(model, grads, factors)
        walk.step(model, ref, before, factors)
        assert all(np.array_equal(g, before[key]) for key, g in grads.items())  # read only
        for i, n, p in model.parameters():
            assert p.dtype == np.float32 and np.array_equal(p, ref[i, n]), (t, i, n)
        kept = [m for moments in opt.moments.values() for m in moments]
        assert len(kept) == len(grads) and all(m.dtype == np.float32 for m in kept)
        assert all(np.array_equal(opt.moments[key][0], walk.m[key]) for key in grads)
        assert not any(np.shares_memory(m, g) for m in kept for g in grads.values())


def _init_first_layer(model):
    model.layers[0].init(default_rng(7))
    return model


def _assign_last_weights(model):
    model.layers[3].params["W"] = np.full((3, 4), 0.5, np.float32)
    return model


@pytest.mark.parametrize("name", ["adafisher", "adam"])
@pytest.mark.parametrize("disrupt", [
    lambda model: model.copy(), lambda model: model.astype(np.float64).astype(np.float32),
    _init_first_layer, _assign_last_weights,
], ids=["copy", "astype-and-back", "layer-init", "assign"])
def test_step_adopts_parameter_arrays_that_are_not_its_views(name, disrupt):
    # After the first step the layers hold views of the optimizer's one
    # parameter vector. Whatever replaces a layer's array (a copied or cast
    # model, Layer.init, an assignment), the next step reads the new values,
    # as a walk over the tensors does, and writes no array another model holds.
    model, hyper = _walk_net(25), {"alpha": 0.01}
    opt = build_optimizer(name, hyper)
    walk = _AdaFisherWalk(build_optimizer(name, hyper)) if name == "adafisher" else None
    states = {(i, n): {} for i, n, _ in model.parameters()}
    rng = default_rng(26)

    def step_both(model):
        grads = {(i, n): rng.standard_normal(p.shape).astype(np.float32)
                 for i, n, p in model.parameters()}
        factors = factor_table(model, rng.random)
        ref = {(i, n): p.copy() for i, n, p in model.parameters()}
        opt.step(model, {key: g.copy() for key, g in grads.items()}, factors)
        if walk:
            walk.step(model, ref, grads, factors)
        else:
            ref = {key: _allocating_step(name, hyper, opt.t, p, grads[key], states[key])
                   for key, p in ref.items()}
        assert all(np.array_equal(p, ref[i, n]) for i, n, p in model.parameters())

    step_both(model)
    views = [p for _, _, p in model.parameters()]
    assert all(p.base is views[0].base is not None for p in views)  # one vector
    held = [p.copy() for p in views]
    new = disrupt(model)
    step_both(new)
    step_both(new)
    if new is not model:  # the other model's arrays are no longer the optimizer's
        assert all(np.array_equal(p, q) for (_, _, p), q in zip(model.parameters(), held))


@pytest.mark.parametrize("name", ["adafisher", "adam", "sgd"])
def test_failing_first_step_rebinds_no_parameter(name):
    model = _walk_net(27)
    arrays = [(layer, n, p) for _, layer in model.param_layers() for n, p in layer.params.items()]
    grads = {(i, n): np.ones_like(p) for i, n, p in model.parameters()}
    grads[3, "W"][1, 2] = np.nan
    with pytest.raises(NumericError, match="non-finite gradient W of layer 3"):
        build_optimizer(name, {}).step(model, grads, factor_table(model, np.ones))
    assert all(layer.params[n] is p for layer, n, p in arrays)


def _drop_grads(grads, factors):
    del grads[2, "W"], grads[2, "b"]


def _other_model_factors(grads, factors):
    # Dense(3, 5)-relu-Dense(5, 2): the same keys, layer 0's s one entry longer
    factors.clear()
    factors.update(factor_table(Model([Dense(3, 5), Activation("relu"), Dense(5, 2)]),
                                np.ones))


def curvature(opt):
    """AdaFisher's curvature factors; none for a baseline."""
    return opt.curvature if opt.needs_factors else {}


@pytest.mark.parametrize("warm", [True, False], ids=["second-step", "first-step"])
@pytest.mark.parametrize("name, hyper, spoil, error, match", [
    ("adafisher", {}, _drop_grads, StateError, "layer 2 parameter W has no gradient"),
    ("adam", {}, _drop_grads, StateError, "layer 2 parameter W has no gradient"),
    ("sgd", {"momentum": 0.9}, _drop_grads, StateError, "layer 2 parameter W has no gradient"),
    ("adafisher", {}, lambda grads, factors: factors.pop((2, "s")), StateError,
     "fresh factor s of layer 2 is missing"),
    ("adafisher", {}, lambda grads, factors: factors.clear(), StateError,
     "fresh factor h of layer 0 is missing"),
    ("adafisher", {}, lambda grads, factors: factors.__setitem__((1, "h"), np.ones(4)),
     StateError, "fresh factor h of layer 1 is unknown"),
    ("adafisher", {}, lambda grads, factors: factors.__setitem__((2, "s"), np.ones(3)),
     DimensionError, r"fresh factor s of layer 2 has shape \(3,\), the state's \(2,\)"),
    ("adafisher", {}, _other_model_factors, DimensionError,
     r"fresh factor s of layer 0 has shape \(5,\), the state's \(4,\)"),
    ("adafisher", {}, lambda grads, factors: factors[2, "h"].__setitem__(0, np.nan),
     NumericError, "non-finite factor h of layer 2"),
    ("adam", {}, lambda grads, factors: grads[2, "W"].__setitem__((0, 0), np.nan),
     NumericError, "non-finite gradient W of layer 2"),
    ("adafisher", {}, lambda grads, factors: grads[2, "b"].__setitem__(1, np.inf),
     NumericError, "non-finite gradient b of layer 2"),
    ("sgd", {}, lambda grads, factors: grads[0, "W"].__setitem__((3, 2), np.nan),
     NumericError, "non-finite gradient W of layer 0"),
    ("adam", {}, lambda grads, factors: grads.__setitem__((2, "b"), np.ones(3)),
     DimensionError, r"layer 2 parameter b: gradient \(3,\) vs parameter \(2,\)"),
    ("adafisher", {}, lambda grads, factors: grads.__setitem__((99, "W"), np.ones(1)),
     StateError, r"gradient \(99, 'W'\) is unknown: the model has no such parameter"),
    ("adam", {}, lambda grads, factors: grads.__setitem__((99, "W"), np.ones(1)),
     StateError, r"gradient \(99, 'W'\) is unknown: the model has no such parameter"),
], ids=["adafisher-no-gradient", "adam-no-gradient", "sgd-momentum-no-gradient",
        "adafisher-no-factor", "adafisher-no-factors", "adafisher-unknown-factor",
        "adafisher-misshaped-factor", "adafisher-other-model-factors", "adafisher-nan-factor",
        "adam-nan-gradient", "adafisher-inf-gradient", "sgd-nan-gradient",
        "adam-misshaped-gradient", "adafisher-unknown-gradient", "adam-unknown-gradient"])
def test_failing_step_changes_nothing(name, hyper, spoil, error, match, warm):
    # Every parameter and every factor is checked before anything is updated:
    # a step that raises on the last layer leaves every parameter, every
    # moment, the curvature factors and t as they were, on the optimizer's
    # first step too (when its curvature starts from the model).
    model = Model([Dense(3, 4), Activation("relu"), Dense(4, 2)]).init(default_rng(30))
    opt = build_optimizer(name, {"alpha": 0.01, **hyper})
    rng = default_rng(31)

    def gradients_and_factors():
        grads = {(i, n): rng.standard_normal(p.shape) for i, n, p in model.parameters()}
        return grads, factor_table(model, rng.random)

    if warm:
        opt.step(model, *gradients_and_factors())
    params = [p.copy() for _, _, p in model.parameters()]
    moments = {key: np.copy(arrays) for key, arrays in opt.moments.items()}
    factors = {key: vec.copy() for key, vec in curvature(opt).items()}
    grads, fresh = gradients_and_factors()
    spoil(grads, fresh)
    with pytest.raises(error, match=match):
        opt.step(model, grads, fresh)
    assert opt.t == int(warm)
    assert all(np.array_equal(p, q) for (_, _, p), q in zip(model.parameters(), params))
    assert opt.moments.keys() == moments.keys()
    assert all(np.array_equal(opt.moments[key], arrays) for key, arrays in moments.items())
    assert curvature(opt).keys() == factors.keys()
    assert all(np.array_equal(curvature(opt)[key], vec) for key, vec in factors.items())


@pytest.mark.parametrize("name, hyper", [("adam", {}), ("sgd", {"momentum": 0.9}),
                                         ("adafisher", {})], ids=["adam", "sgd", "adafisher"])
@pytest.mark.parametrize("layers, match", [
    (lambda: [Dense(3, 5), Activation("relu"), Dense(5, 2)],
     r"layer 0 parameter W: moment \(4, 3\) vs parameter \(5, 3\)"),
    (lambda: [Dense(3, 4), Activation("relu"), Dense(4, 3)],
     r"layer 2 parameter W: moment \(2, 4\) vs parameter \(3, 4\)"),
    # layer 0's factors are sized (4, 4) as Dense(3, 4)'s are, so only the
    # parameter keys tell the models apart
    (lambda: [BatchNorm(4), Activation("relu"), Dense(4, 2)],
     "layer 0 parameter scale has no moments; the optimizer was stepped on another model"),
    (lambda: [Dense(3, 4)],
     "the optimizer holds moments of layer 2 parameter W, which the model lacks"),
], ids=["first-layer", "last-layer", "other-keys", "fewer-keys"])
def test_step_on_another_model_changes_nothing(name, hyper, layers, match):
    # The moments held for Dense(3, 4)-relu-Dense(4, 2) do not fit the second
    # model, by shape or by key: a StateError before t, any parameter, any
    # moment or the curvature changes (a bare broadcast ValueError, after t
    # and the first layer had, for the last-layer mismatch; no error at all,
    # and moments for both models, for other keys).
    def stepped_model(layers, seed):
        model = Model(layers).init(default_rng(seed))
        grads = {(i, n): np.ones_like(p) for i, n, p in model.parameters()}
        return model, grads, factor_table(model, np.ones)

    opt = build_optimizer(name, {"alpha": 0.01, **hyper})
    opt.step(*stepped_model([Dense(3, 4), Activation("relu"), Dense(4, 2)], 40))
    moments = {key: np.copy(arrays) for key, arrays in opt.moments.items()}
    factors = {key: vec.copy() for key, vec in curvature(opt).items()}
    model, grads, fresh = stepped_model(layers(), 41)
    params = [p.copy() for _, _, p in model.parameters()]
    with pytest.raises(StateError, match=match):
        opt.step(model, grads, fresh)
    assert opt.t == 1
    assert all(np.array_equal(p, q) for (_, _, p), q in zip(model.parameters(), params))
    assert opt.moments.keys() == moments.keys()
    assert all(np.array_equal(opt.moments[key], arrays) for key, arrays in moments.items())
    assert curvature(opt).keys() == factors.keys()
    assert all(np.array_equal(curvature(opt)[key], vec) for key, vec in factors.items())


class TestSchedule:
    def test_constant(self):
        s = Schedule("constant")
        assert all(s.scale(e) == 1.0 for e in range(5))

    def test_step_decay(self):
        s = Schedule("step", step_size=2, factor=0.1)
        assert s.scale(0) == 1.0
        assert s.scale(1) == 1.0
        assert s.scale(2) == pytest.approx(0.1)
        assert s.scale(4) == pytest.approx(0.01)

    def test_cosine_endpoints(self):
        s = Schedule("cosine", total_epochs=10)
        assert s.scale(0) == 1.0
        assert s.scale(5) == pytest.approx(0.5)
        assert s.scale(10) == pytest.approx(0.0, abs=1e-15)

    def test_applies_to_lr(self):
        opt = SGD(alpha=0.1)
        opt.lr_scale = 0.5
        assert opt.lr == pytest.approx(0.05)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            Schedule("linear")

    def test_bad_arguments(self):
        # step_size 0 divides by zero in scale; a negative or NaN factor gives
        # a negative or NaN learning-rate scale
        for args in ({"step_size": 0}, {"step_size": -2}, {"step_size": 2.5},
                     {"step_size": True}, {"factor": -1.0}, {"factor": 0.0},
                     {"factor": float("nan")}, {"factor": float("inf")},
                     {"total_epochs": 0}, {"total_epochs": float("nan")}):
            with pytest.raises(ConfigError):
                Schedule("step", **args)


class TestBuildAndToggles:
    def test_dispatch(self):
        assert isinstance(build_optimizer("adafisher", {}), AdaFisher)
        assert build_optimizer("adafisherw", {"kappa": 0.1}).kappa == 0.1
        assert isinstance(build_optimizer("adam", {}), Adam)
        assert build_optimizer("adamw", {"weight_decay": 0.1}).decoupled
        assert isinstance(build_optimizer("SGD", {}), SGD)

    @pytest.mark.parametrize("make, match", [
        (lambda: build_optimizer("adamw", {"decoupled": False}), "'decoupled'"),
        (lambda: build_optimizer("adamw", {"decoupled": True}), "'decoupled'"),
        (lambda: AdaFisher(sqrt_divisor="no"), "sqrt_divisor must be True or False"),
        (lambda: Adam(decoupled=1), "decoupled must be True or False"),
        (lambda: AdaFisher(beta="0.9"), "beta must be a finite number"),
        (lambda: AdaFisher(kappa=None), "kappa must be a finite number"),
        (lambda: Adam(eps=[1e-8]), "eps must be a finite number"),
        (lambda: SGD(alpha=True), "alpha must be a finite number"),
        (lambda: SGD(alpha=float("inf")), "alpha must be a finite number"),
        (lambda: Schedule("step", factor="0.1"), "factor must be a finite number"),
        (lambda: Schedule("cosine", total_epochs="10"), "total_epochs must be a finite number"),
    ], ids=["adamw-decoupled-false", "adamw-decoupled-true", "sqrt-divisor-string",
            "decoupled-int", "beta-string", "kappa-none", "eps-list", "alpha-bool",
            "alpha-inf", "factor-string", "total-epochs-string"])
    def test_library_arguments_checked_for_type(self, make, match):
        # a truthy non-bool flag would switch the option on; a string
        # hyperparameter would fail later in a bare TypeError
        with pytest.raises(ConfigError, match=match):
            make()

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            build_optimizer("rmsprop")

    def test_bad_hyper(self):
        raw = {"model": {"layers": [{"kind": "dense", "in": 2, "out": 2}]},
               "dataset": {"source": "moons", "n": 40},
               "optimizer": {"name": "sgd", "beta": 0.9}}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)


layer_specs = st.one_of(
    st.tuples(st.just("dense"), st.integers(1, 5), st.integers(1, 5), st.booleans()),
    st.tuples(st.just("conv"), st.integers(1, 3), st.integers(1, 3), st.booleans(),
              st.integers(1, 3), st.integers(1, 3)),
    st.tuples(st.just("layernorm"), st.integers(1, 5)),
    st.tuples(st.just("batchnorm"), st.integers(1, 5)),
)


def _make_layer(spec):
    kind, *args = spec
    if kind == "dense":
        return Dense(args[0], args[1], bias=args[2])
    if kind == "conv":
        return Conv2d(args[0], args[1], (args[3], args[4]), bias=args[2])
    return LayerNorm(args[0]) if kind == "layernorm" else BatchNorm(args[0])


def _random_factors(model, rng):
    factors = {}
    for i, layer in model.param_layers():
        if "W" in layer.params:
            w = layer.params["W"]
            factors[i, "h"] = rng.uniform(size=w[0].size + ("b" in layer.params))
            factors[i, "s"] = rng.uniform(size=w.shape[0])
        else:
            c = layer.params["scale"].size
            factors.update({(i, name): rng.uniform(size=c) for name in ("h", "s")})
    return factors


def _combined_reference_step(model, grads, factors, lam, opt, moments):
    """The update on hstacked (out, in[+1]) [W | b] blocks, split back afterwards,
    with divisors formed here from the min-max-normalized factors."""
    correction = 1.0 - opt.beta**opt.t
    for i, layer in model.param_layers():
        h, s = (minmax_normalize(factors[i, k]) for k in ("h", "s"))
        p, g = layer.params, {name: grads[i, name] for name in layer.params}
        if "W" in p:
            names = [n for n in ("W", "b") if n in p]
            out = p["W"].shape[0]
            blocks = {"WB": (np.hstack([g[n].reshape(out, -1) for n in names]),
                             np.hstack([p[n].reshape(out, -1) for n in names]))}
            div = {"WB": np.outer(s, h) + lam}
        else:
            blocks = {n: (g[n], p[n]) for n in ("scale", "shift")}
            div = {"scale": h * s + lam, "shift": s + lam}
        if opt.sqrt_divisor:
            div = {name: np.sqrt(d) for name, d in div.items()}
        for name, (grad, theta) in blocks.items():
            m = moments.get((i, name), np.zeros_like(grad))
            m = opt.beta * m + (1.0 - opt.beta) * grad
            moments[(i, name)] = m
            delta = m / correction / div[name]
            if opt.kappa:
                delta = delta + opt.kappa * theta
            theta = theta - opt.lr * delta
            if name == "WB":
                p["W"][...] = theta[:, :p["W"][0].size].reshape(p["W"].shape)
                if "b" in p:
                    p["b"][...] = theta[:, -1]
            else:
                p[name][...] = theta


@DETERMINISTIC
@given(specs=st.lists(layer_specs, min_size=1, max_size=3),
       variant=st.sampled_from(["adafisher", "adafisherw"]),
       kappa=st.sampled_from([0.0, 0.05]), sqrt=st.booleans(),
       steps=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_per_parameter_update_matches_combined_blocks(specs, variant, kappa, sqrt,
                                                      steps, seed):
    rng = default_rng(seed)
    model = Model([_make_layer(spec) for spec in specs]).init(default_rng(seed))
    for _, layer in model.param_layers():
        for name, p in layer.params.items():
            p[...] = rng.normal(size=p.shape)
    ref = model.copy()
    # gamma = 1: the curvature holds each step's fresh factors
    hyper = {"alpha": 0.01, "kappa": kappa, "sqrt_divisor": sqrt, "gamma": 1.0}
    opt, ref_opt = build_optimizer(variant, hyper), build_optimizer(variant, hyper)
    moments = {}
    for _ in range(steps):
        opt.lam = lam = float(rng.uniform(1e-3, 1.0))
        factors = _random_factors(model, rng)
        grads = {(i, n): rng.normal(size=p.shape) for i, n, p in model.parameters()}
        ref_grads = {key: g.copy() for key, g in grads.items()}
        opt.step(model, grads, factors)
        ref_opt.t += 1
        _combined_reference_step(ref, ref_grads, factors, lam, ref_opt, moments)
    for (_, name, p), (_, _, q) in zip(model.parameters(), ref.parameters()):
        assert np.array_equal(p, q), name


@pytest.mark.parametrize("beta", [0.0, 0.9])
@pytest.mark.parametrize("make_layer", [
    lambda: Dense(4, 3),
    lambda: Dense(4, 3, bias=False),
    lambda: Conv2d(2, 3, (2, 2)),
], ids=["dense", "dense-nobias", "conv"])
def test_first_step_matches_dense_inverse(make_layer, beta):
    # The first update is lr * solve(diag(np.kron(h', s') + lam), vec(g)) for the
    # [W | b] gradient g (input index slow) and the min-max-normalized h', s'.
    layer = make_layer()
    model = Model([layer])
    rng = default_rng(40)
    grads = {(0, n): rng.standard_normal(p.shape) for n, p in layer.params.items()}
    out = layer.params["W"].shape[0]
    h, s = rng.random((layer.params["W"][0].size + layer.bias,)), rng.random((out,))
    lam, lr = 0.001, 0.01
    g = np.hstack([grads[0, n].reshape(out, -1) for n in ("W", "b") if n in layer.params])
    dense = np.diag(np.kron(minmax_normalize(h), minmax_normalize(s)) + lam)
    expected = lr * np.linalg.solve(dense, g.T.ravel()).reshape(-1, out).T
    # from zero parameters; with gamma = 1 the curvature is the fresh h, s
    AdaFisher(alpha=lr, beta=beta, lam=lam, gamma=1.0).step(model, grads,
                                                            {(0, "h"): h, (0, "s"): s})
    step = -np.hstack([layer.params[n].reshape(out, -1) for n in ("W", "b") if n in layer.params])
    assert np.max(np.abs(step - expected)) <= 1e-12 * np.max(np.abs(expected))
