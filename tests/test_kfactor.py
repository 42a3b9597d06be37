from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import default_rng

from adafisher.errors import ConfigError, DimensionError, InputError, NumericError, StateError
from adafisher.nn import (Activation, BatchNorm, Conv2d, Dense, Flatten,
                          LayerNorm, Model, Norm)
from adafisher.optim import MINMAX_EPS, AdaFisher, minmax_normalize


def weight_only(h, s):
    """A bias-free Dense whose W divisor is the whole (len(s), len(h)) outer grid."""
    return Model([Dense(len(h), len(s), bias=False)])


def identity(model):
    """The curvature an AdaFisher starts from on model: ones of every layer's
    factor_sizes."""
    return {(i, name): np.ones(n) for i, layer in model.param_layers()
            for name, n in zip(("h", "s"), layer.factor_sizes)}


def zero_grads(model):
    """A gradient table of zeros: an AdaFisher step with it moves no parameter
    and changes only t, the moments and the curvature."""
    return {(i, name): np.zeros_like(p) for i, name, p in model.parameters()}


def holding(curvature, **hyper):
    """An AdaFisher built with hyper whose curvature is the table curvature."""
    opt = AdaFisher(**hyper)
    opt.curvature = curvature
    return opt


def divisor_grid(opt, h, s):
    """opt's divisors of the factors h and s of a bias-free Dense layer 0
    fitting them, in vec order (input index slow, output index fast)."""
    return opt.divisors(weight_only(h, s), {(0, "h"): h, (0, "s"): s})[0, "W"].T.ravel()


class TestKfIdentity:
    """All-ones (identity) factors carry no curvature after min-max."""

    def test_definition(self):
        # gamma = 1 keeps the fresh factors, so take the starting ones at 0.5
        model = Model([Dense(3, 3)])
        half = {key: np.full(n, 0.5) for key, n in {(0, "h"): 4, (0, "s"): 3}.items()}
        opt = AdaFisher(gamma=0.5)
        opt.step(model, zero_grads(model), half)
        ident = opt.curvature
        assert set(ident) == {(0, "h"), (0, "s")}
        assert np.array_equal(ident[0, "h"], np.full(4, 0.75))
        assert np.array_equal(ident[0, "s"], np.full(3, 0.75))

    def test_minmax_of_identity_is_degenerate(self):
        ident = identity(Model([Dense(3, 3)]))
        assert np.array_equal(minmax_normalize(ident[0, "h"]), np.zeros(4))

    def test_assembled_divisor_is_pure_damping(self):
        h, s = np.ones(2), np.ones(2)
        assert np.max(np.abs(divisor_grid(AdaFisher(lam=0.001), h, s) - 0.001)) < 1e-18


def ema(old, fresh, gamma):
    """One EMA of a factor h from old with fresh: an AdaFisher step with zero
    gradients on a bias-free Dense layer whose factor s stays ones."""
    old = np.asarray(old, dtype=np.float64)
    model = weight_only(old, np.ones(1))
    opt = holding({(0, "h"): old, (0, "s"): np.ones(1)}, gamma=gamma)
    opt.step(model, zero_grads(model), {(0, "h"): fresh, (0, "s"): np.ones(1)})
    return opt.curvature[0, "h"]


class TestEmaUpdate:
    """AdaFisher's EMA: gamma * fresh + (1 - gamma) * old per factor."""

    def test_forced_arithmetic(self):
        assert ema(np.zeros(1), np.ones(1), 0.8)[0] == pytest.approx(0.8)

    def test_fixed_point(self):
        v = np.array([0.3, 0.7])
        assert np.array_equal(ema(v, v, 0.8), v)

    def test_geometric_approach_closed_form(self):
        c, gamma = 0.25, 0.8
        val = np.ones(1)
        for t in range(1, 30):
            val = ema(val, np.full(1, c), gamma)
            expected = c + (1 - gamma) ** t * (1 - c)
            assert abs(val[0] - expected) < 1e-14

    def test_affine_in_fresh_argument(self):
        rng = default_rng(4)
        old, fa, fb = (rng.standard_normal((5,)) for _ in range(3))
        a, b = 0.3, 1.2
        lhs = ema((a + b) * old, a * fa + b * fb, 0.8)
        rhs = a * ema(old, fa, 0.8) + b * ema(old, fb, 0.8)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_bad_gamma(self):
        with pytest.raises(ConfigError):
            AdaFisher(gamma=0.0)
        with pytest.raises(ConfigError):
            AdaFisher(gamma=1.5)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match="fresh factor h of layer 0"):
            ema(np.zeros(2), np.zeros(3), 0.8)


class TestMinMax:
    def test_forced_arithmetic(self):
        assert np.array_equal(minmax_normalize(np.array([1.0, 2.0, 3.0])), [0.0, 0.5, 1.0])

    def test_degenerate_constant(self):
        assert np.array_equal(minmax_normalize(np.array([5.0, 5.0])), [0.0, 0.0])

    def test_range(self):
        v = minmax_normalize(default_rng(5).standard_normal((20,)))
        assert v.min() == 0.0
        assert v.max() == 1.0

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            minmax_normalize(np.array([1.0, float("nan")]))

    @pytest.mark.parametrize("v", [[np.inf, 1.0], [1.0, -np.inf], [np.inf, np.inf]])
    def test_infinity_rejected(self, v):
        # (inf - inf) / (inf - 1) was nan, and every divisor of the layer with it
        with pytest.raises(InputError, match="non-finite"):
            minmax_normalize(np.array(v))

    def test_range_past_float64_max(self):
        # hi - lo overflows to inf, and (v - lo) / inf read [0, nan, 0]
        out = minmax_normalize(np.array([-1e308, 0.0, 1e308]))
        assert np.array_equal(out, [0.0, 0.5, 1.0])
        big = np.array([-1.7e308, 3.0, 1.2e308, -5e307])
        out = minmax_normalize(big)
        assert np.all(np.isfinite(out)) and out.min() == 0.0 and out.max() == 1.0
        assert np.allclose(out, (big / 2 - big.min() / 2) / (big.max() / 2 - big.min() / 2))

    @pytest.mark.parametrize("v", [[1.0, 2.0, 3.0], [-1e300, 0.5, 1e300], [1e-3, 2.5e-3, 7e5],
                                   [-8.9e307, 8.9e307]])
    def test_range_that_fits_keeps_its_bits(self, v):
        v = np.array(v)
        assert np.array_equal(minmax_normalize(v), (v - v.min()) / (v.max() - v.min()))


class TestEfimAssemble:
    """AdaFisher.divisors: min-max normalized factors plus damping."""

    def test_forced_arithmetic(self):
        # already-normalized factors pass through min-max unchanged
        h, s = np.array([0.0, 1.0]), np.array([0.0, 1.0])
        diag = divisor_grid(AdaFisher(lam=0.001), h, s)
        assert np.allclose(diag, [0.001, 0.001, 0.001, 1.001], atol=1e-15)

    def test_degenerate_factors_pure_damping(self):
        h, s = np.full(3, 2.0), np.full(2, 7.0)
        assert np.max(np.abs(divisor_grid(AdaFisher(lam=0.5), h, s) - 0.5)) == 0.0

    def test_matches_dense_kron_oracle(self):
        rng = default_rng(6)
        for trial in range(10):
            h = np.abs(rng.standard_normal((5,)))
            s = np.abs(rng.standard_normal((4,)))
            dense = np.diag(np.kron(np.diag(minmax_normalize(h)),
                                    np.diag(minmax_normalize(s)))) + 0.001
            assert np.max(np.abs(divisor_grid(AdaFisher(lam=0.001), h, s) - dense)) < 1e-15

    def test_range_invariant(self):
        rng = default_rng(7)
        h, s = np.abs(rng.standard_normal((6,))), np.abs(rng.standard_normal((3,)))
        diag = divisor_grid(AdaFisher(lam=0.001), h, s)
        assert np.all(diag >= 0.001 - 1e-15)
        assert np.all(diag <= 1.001 + 1e-15)

    def test_bad_lambda(self):
        with pytest.raises(ConfigError, match="lambda must be a finite number > 0"):
            AdaFisher(lam=0.0)

    @pytest.mark.parametrize("flag", ["no", 0, 1, None])
    def test_norm_fisher_off_must_be_a_bool(self, flag):
        # divisors reads the flag by truth value: "no" would turn it on
        with pytest.raises(ConfigError, match="norm_fisher_off must be True or False"):
            AdaFisher(norm_fisher_off=flag)


def vec(diag):
    """A weight layer's [W | b] diagonal with the input index slow and the
    output index fast, the order of np.kron(h, s)."""
    w = diag["W"].reshape(len(diag["W"]), -1)
    return np.hstack([w, diag["b"][:, None]] if "b" in diag else [w]).T.ravel()


class TestKroneckerDiagonal:
    """The diagonal of H (x) S laid out like a layer's parameters."""

    def test_ones(self):
        diag = Dense(2, 2).kronecker_diagonal(np.ones(3), np.ones(2))
        assert set(diag) == {"W", "b"}
        assert np.array_equal(diag["W"], np.ones((2, 2)))
        assert np.array_equal(diag["b"], np.ones(2))

    def test_forced_arithmetic(self):
        h, s = np.array([2.0, 3.0]), np.array([5.0, 7.0])
        assert np.array_equal(Dense(2, 2, bias=False).kronecker_diagonal(h, s)["W"],
                              [[10.0, 15.0], [14.0, 21.0]])
        with_bias = Dense(1, 2).kronecker_diagonal(h, s)  # h[-1] is the bias slot
        assert np.array_equal(with_bias["W"], [[10.0], [14.0]])
        assert np.array_equal(with_bias["b"], [15.0, 21.0])
        norm = LayerNorm(2).kronecker_diagonal(h, s)
        assert np.array_equal(norm["scale"], [10.0, 21.0])
        assert np.array_equal(norm["shift"], [5.0, 7.0])

    def test_matches_dense_kron(self):
        rng = default_rng(3)
        for layer in (Dense(2, 4), Dense(3, 4, bias=False), Conv2d(2, 3, (2, 2)),
                      Conv2d(2, 3, (1, 2), bias=False)):
            w = layer.params["W"]
            h = rng.standard_normal((w[0].size + layer.bias,))
            s = rng.standard_normal((w.shape[0],))
            diag = layer.kronecker_diagonal(h, s)
            assert {n: d.shape for n, d in diag.items()} == {
                n: p.shape for n, p in layer.params.items()}
            dense = np.diag(np.kron(np.diag(h), np.diag(s)))
            assert np.max(np.abs(vec(diag) - dense)) < 1e-15

    def test_exhaustive_small_dims(self):
        rng = default_rng(5)
        for p in range(1, 9):
            for q in range(1, 9):
                a, b = rng.standard_normal((p,)), rng.standard_normal((q,))
                dense = np.diag(np.kron(np.diag(a), np.diag(b)))
                no_bias = Dense(p, q, bias=False).kronecker_diagonal(a, b)
                assert np.array_equal(vec(no_bias), dense)
                if p > 1:  # a's last entry is the bias slot
                    with_bias = Dense(p - 1, q).kronecker_diagonal(a, b)
                    assert np.array_equal(vec(with_bias), dense)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            Dense(1, 2, bias=False).kronecker_diagonal(np.zeros(0), np.ones(2))
        with pytest.raises(DimensionError):
            Dense(2, 2).kronecker_diagonal(np.ones(2), np.ones(2))  # no bias slot
        with pytest.raises(DimensionError):
            LayerNorm(2).kronecker_diagonal(np.ones(3), np.ones(2))


def precondition(g, h, s, lam):
    """A (len(s), len(h)) gradient divided by its divisors from AdaFisher.divisors."""
    return g / AdaFisher(lam=lam).divisors(weight_only(h, s), {(0, "h"): h, (0, "s"): s})[0, "W"]


class TestPrecondition:
    """A gradient divided elementwise by its parameter's divisor."""

    def test_forced_arithmetic(self):
        # raw factors [1, 0] min-max normalize to themselves: divisor[0, 0] = 1*1 + 1
        out = precondition(np.full((2, 2), 4.0), np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                           lam=1.0)
        assert out[0, 0] == 2.0

    def test_pure_damping(self):
        g = np.arange(6.0).reshape(2, 3)
        out = precondition(g, np.zeros(3), np.zeros(2), lam=0.001)
        assert np.max(np.abs(out - g / 0.001)) < 1e-9

    def test_matches_dense_inverse_times_vec(self):
        rng = default_rng(8)
        for trial in range(20):
            p_out, p_in = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            h = minmax_normalize(np.abs(rng.standard_normal(p_in))) if p_in > 1 else np.zeros(1)
            s = minmax_normalize(np.abs(rng.standard_normal(p_out))) if p_out > 1 else np.zeros(1)
            lam = 0.001
            g = rng.standard_normal((p_out, p_in))
            dense = np.diag(np.kron(h, s) + lam)  # vec order: h slow, s fast
            oracle = np.linalg.solve(dense, g.T.ravel()).reshape(p_in, p_out).T
            assert np.max(np.abs(precondition(g, h, s, lam) - oracle)) < 1e-12

    def test_dimension_mismatch(self):
        table = {(0, "h"): np.zeros(2), (0, "s"): np.zeros(2)}
        with pytest.raises(DimensionError):
            AdaFisher(lam=1.0).divisors(Model([Dense(3, 3, bias=False)]), table)

    def test_norm_layer_divisors(self):
        # raw factors holding both 0 and 1 min-max normalize to themselves
        opt = AdaFisher(lam=0.001)
        table = {(0, "h"): np.array([0.0, 1.0, 0.0]), (0, "s"): np.array([0.5, 1.0, 0.0])}
        div = opt.divisors(Model([LayerNorm(3)]), table)
        assert np.allclose(div[0, "scale"], [0.001, 1.001, 0.001])
        assert np.allclose(div[0, "shift"], [0.501, 1.001, 0.001])
        # lambda is added in place, to arrays of this call only: the factors
        # and a second call's divisors are unchanged
        assert np.array_equal(table[0, "s"], [0.5, 1.0, 0.0])
        again = opt.divisors(Model([LayerNorm(3)]), table)
        assert all(np.array_equal(again[key], div[key]) for key in div)


class TestStateLifecycle:
    def make_model(self):
        return Model([
            Conv2d(1, 2, (2, 2)),
            Activation("relu"),
            BatchNorm(2),
            Flatten(),
            Dense(8, 4),
            LayerNorm(4),
        ]).init(default_rng(9))

    def test_start_shapes(self):
        # an empty curvature starts from ones of each layer's factor_sizes
        model = self.make_model()
        zeros = {key: np.zeros_like(vec) for key, vec in identity(model).items()}
        opt = AdaFisher(gamma=0.5)
        assert opt.curvature == {}
        opt.step(model, zero_grads(model), zeros)
        assert np.array_equal(opt.curvature[0, "h"], np.full(5, 0.5))  # 1*2*2 + bias
        assert np.array_equal(opt.curvature[0, "s"], np.full(2, 0.5))
        assert np.array_equal(opt.curvature[4, "h"], np.full(9, 0.5))
        assert {name for i, name in opt.curvature if i == 2} == {"h", "s"}

    def test_fresh_factors_and_update(self):
        model = self.make_model()
        rng = default_rng(10)
        x = rng.standard_normal((4, 1, 3, 3))
        _, _, fresh = model.train_batch(x, rng.integers(0, 4, size=4))
        opt = AdaFisher(gamma=0.8)
        opt.step(model, zero_grads(model), fresh)
        assert opt.curvature.keys() == fresh.keys()
        expected = 0.8 * fresh[0, "h"] + 0.2 * np.ones(5)
        assert np.max(np.abs(opt.curvature[0, "h"] - expected)) < 1e-15
        # factors are Gram diagonals: nonnegative throughout
        for vec in fresh.values():
            assert np.all(vec >= 0.0)

    @pytest.mark.parametrize("started", [False, True], ids=["empty", "started"])
    def test_update_rejects_missing_or_unknown_factors(self, started):
        model = self.make_model()
        opt = holding(identity(model) if started else {})
        rng = default_rng(10)
        x, y = rng.standard_normal((4, 1, 3, 3)), rng.integers(0, 4, size=4)
        _, _, uncaptured = model.train_batch(x, y, capture=False)
        assert uncaptured == {}
        grads = zero_grads(model)
        with pytest.raises(StateError, match=r"h of layer 0 is missing; run a capturing pass, "
                                             r"Model\.train_batch\(\.\.\., capture=True\)"):
            opt.step(model, grads, uncaptured)
        _, _, fresh = model.train_batch(x, y)
        with pytest.raises(StateError, match="s of layer 5 is missing"):
            opt.step(model, grads, {key: vec for key, vec in fresh.items() if key != (5, "s")})
        with pytest.raises(StateError, match="h of layer 1 is unknown"):
            opt.step(model, grads, {**fresh, (1, "h"): np.ones(2)})
        assert opt.curvature.keys() == (identity(model).keys() if started else set())
        assert all(np.all(vec == 1.0) for vec in opt.curvature.values())

    def test_update_checks_every_factor_before_changing_any(self):
        model = self.make_model()
        rng = default_rng(10)
        _, _, fresh = model.train_batch(rng.standard_normal((4, 1, 3, 3)),
                                        rng.integers(0, 4, size=4))
        opt = holding(identity(model))
        before = {key: vec.copy() for key, vec in opt.curvature.items()}
        fresh = {**fresh, (5, "s"): np.ones(3)}  # the last factor misshaped
        with pytest.raises(DimensionError, match="fresh factor s of layer 5"):
            opt.step(model, zero_grads(model), fresh)
        assert opt.curvature.keys() == before.keys()
        assert all(np.array_equal(opt.curvature[key], vec) for key, vec in before.items())
        empty = AdaFisher()  # one that would start from the model: it stays empty
        with pytest.raises(DimensionError, match="fresh factor s of layer 5"):
            empty.step(model, zero_grads(model), fresh)
        assert empty.curvature == {}

    def test_model_without_parameters(self):
        # no factors: the step counts itself, and the curvature stays empty
        model = Model([Activation("relu")])
        opt = AdaFisher()
        opt.step(model, {}, {})
        assert opt.t == 1 and opt.curvature == {} and opt.divisors(model, {}) == {}

    def test_divisors_of_a_layer_without_factors_rejected(self):
        model = self.make_model()
        table = identity(model)
        del table[4, "h"]
        with pytest.raises(StateError, match="no factors of layer 4"):
            AdaFisher().divisors(model, table)

    def test_norm_fisher_off_uses_identity(self):
        model = self.make_model()
        rng = default_rng(11)
        x = rng.standard_normal((4, 1, 3, 3))
        _, _, fresh = model.train_batch(x, rng.integers(0, 4, size=4))
        opt = AdaFisher(norm_fisher_off=True)
        opt.step(model, zero_grads(model), fresh)
        div = opt.divisors(model, opt.curvature)
        for layer_id in (2, 5):  # BatchNorm / LayerNorm layers
            assert np.allclose(div[layer_id, "scale"], opt.lam)
            assert np.allclose(div[layer_id, "shift"], opt.lam)

    @pytest.mark.parametrize("layer", [
        Dense(3, 2), Dense(3, 2, bias=False), Conv2d(2, 3, (2, 2)),
        Conv2d(2, 3, (2, 2), bias=False), BatchNorm(4), LayerNorm(4),
    ], ids=["dense", "dense-nobias", "conv", "conv-nobias", "batchnorm", "layernorm"])
    def test_divisors_fit_every_parameter(self, layer):
        model = Model([layer])
        opt, table = AdaFisher(), identity(model)
        rng = default_rng(12)
        for key, vec in table.items():
            table[key] = rng.random(vec.shape)
        div = opt.divisors(model, table)
        assert set(div) == {(0, name) for name in layer.params}
        for name, p in layer.params.items():
            assert div[0, name].shape == p.shape
            assert np.all(div[0, name] >= opt.lam)
        for name in ("h", "s"):  # one entry too many in either factor
            bad = identity(model)
            bad[0, name] = np.ones(bad[0, name].size + 1)
            with pytest.raises(DimensionError, match="layer 0"):
                opt.divisors(model, bad)


# Invariants of the factor engine, as derandomized property tests.
props = settings(derandomize=True, max_examples=200, deadline=None, database=None)
factor_vecs = st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8).map(np.array)


@props
@given(unit=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20),
       scale=st.sampled_from([0.0, 1e-15, 1e-12, 2e-12, 1e-9, 1.0, 1e6]),
       shift=st.floats(-1e3, 1e3))
def test_minmax_in_unit_range_hitting_both_ends_or_all_zero(unit, scale, shift):
    # Scales around MINMAX_EPS put the range on both sides of the cut.
    v = shift + scale * np.array(unit)
    out = minmax_normalize(v)
    if v.max() - v.min() >= MINMAX_EPS:
        assert out.min() == 0.0 and out.max() == 1.0
        assert out[np.argmin(v)] == 0.0 and out[np.argmax(v)] == 1.0
    else:
        assert np.array_equal(out, np.zeros_like(v))


@props
@given(h=factor_vecs, s=factor_vecs, h_scale=factor_vecs, lam=st.floats(1e-8, 10.0),
       sqrt=st.booleans())
def test_divisors_never_below_damping(h, s, h_scale, lam, sqrt):
    # Layer shapes only; the two layers need not chain for AdaFisher.divisors.
    model = Model([Dense(len(h), len(s), bias=False), LayerNorm(len(h_scale))])
    table = {(0, "h"): h, (0, "s"): s, (1, "h"): h_scale, (1, "s"): h_scale[::-1]}
    floor = np.sqrt(lam) if sqrt else lam
    for div in AdaFisher(lam=lam).divisors(model, table).values():
        assert np.all((np.sqrt(div) if sqrt else div) >= floor)


@props
@given(old=st.tuples(factor_vecs, factor_vecs), fresh=st.tuples(factor_vecs, factor_vecs),
       steps=st.integers(0, 3))
def test_gamma_one_update_keeps_exactly_the_fresh_factors(old, fresh, steps):
    n_h, n_s = min(len(old[0]), len(fresh[0])), min(len(old[1]), len(fresh[1]))
    opt = holding({(0, "h"): old[0][:n_h], (0, "s"): old[1][:n_s]}, gamma=1.0)
    new = {(0, "h"): fresh[0][:n_h], (0, "s"): fresh[1][:n_s]}
    model = weight_only(*new.values())
    for _ in range(steps + 1):
        opt.step(model, zero_grads(model), new)
    for name in ("h", "s"):
        assert np.array_equal(opt.curvature[0, name], new[0, name])


def reference_divisors(model, table, lam, norm_fisher_off):
    """AdaFisher.divisors written per layer: the layout of each factor's own
    minmax_normalize, cast to the model's dtype, plus lam."""
    out = {}
    for i, layer in model.param_layers():
        h, s = (minmax_normalize(table[i, name]).astype(model.dtype) for name in ("h", "s"))
        if norm_fisher_off and isinstance(layer, Norm):
            h, s = np.zeros_like(h), np.zeros_like(s)
        out.update(((i, name), diag + lam) for name, diag in layer.kronecker_diagonal(h, s).items())
    return out


def assert_divisors_match_reference(model, table, lam, norm_fisher_off):
    div = AdaFisher(lam=lam, norm_fisher_off=norm_fisher_off).divisors(model, table)
    ref = reference_divisors(model, table, lam, norm_fisher_off)
    assert div.keys() == ref.keys()
    for key, diag in ref.items():
        assert (div[key].dtype, div[key].shape) == (diag.dtype, diag.shape)
        assert div[key].tobytes() == diag.tobytes(), key


# Layers for the divisor properties; they need not chain, as AdaFisher.divisors
# reads only their shapes. Dense(3, 1)'s s and LayerNorm(1)'s factors hold one
# entry.
DIVISOR_LAYERS = [lambda: Dense(3, 4), lambda: Dense(3, 1), lambda: Dense(2, 3, bias=False),
                  lambda: Conv2d(2, 3, (2, 2)), lambda: Conv2d(1, 2, (1, 2), bias=False),
                  lambda: BatchNorm(3), lambda: LayerNorm(1), lambda: LayerNorm(4),
                  lambda: Activation("relu")]
F64_MAX = float(np.finfo(np.float64).max)


def factor_entries(n):
    """A factor of n entries: ordinary, constant, spread around MINMAX_EPS, over
    float64's whole range, or with a range past float64's largest value."""
    entries = partial(st.lists, min_size=n, max_size=n)
    return st.one_of(
        entries(st.floats(0.0, 1e6)),
        st.floats(-1e300, 1e300).map(lambda c: [c] * n),
        st.tuples(st.floats(-1e3, 1e3), entries(st.floats(-1e-12, 1e-12))).map(
            lambda cv: [cv[0] + v for v in cv[1]]),
        entries(st.floats(-F64_MAX, F64_MAX)),
        entries(st.floats(-1e6, 1e6)).map(lambda v: [-F64_MAX, *v[2:], 1.2e308] if n > 1 else v),
    ).map(np.array)


@props
@given(data=st.data(), picks=st.lists(st.integers(0, len(DIVISOR_LAYERS) - 1), min_size=1,
                                      max_size=5),
       lam=st.floats(1e-8, 10.0), norm_fisher_off=st.booleans(),
       dtype=st.sampled_from([np.float64, np.float32]))
def test_divisors_match_the_per_factor_reference(data, picks, lam, norm_fisher_off, dtype):
    # every factor min-maxed at once, in one vector, gives the bits of each
    # factor min-maxed on its own
    model = Model([DIVISOR_LAYERS[k]() for k in picks]).astype(dtype)
    table = {(i, name): data.draw(factor_entries(n)) for i, layer in model.param_layers()
             for name, n in zip(("h", "s"), layer.factor_sizes)}
    assert_divisors_match_reference(model, table, lam, norm_fisher_off)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("norm_fisher_off", [False, True])
def test_divisors_of_a_range_past_float64_max_next_to_ordinary_factors(dtype, norm_fisher_off):
    model = Model([Dense(3, 1), BatchNorm(2), Conv2d(1, 2, (1, 2)), LayerNorm(3)]).astype(dtype)
    table = {(0, "h"): np.array([-1.7e308, 3.0, 1.2e308, -5e307]), (0, "s"): np.array([4.0]),
             (1, "h"): np.array([0.5, 0.25]), (1, "s"): np.array([7.0, 7.0]),
             (2, "h"): np.array([1e-3, 2.5e-3, 7e5]), (2, "s"): np.array([-F64_MAX, F64_MAX]),
             (3, "h"): np.array([2.0, 1.0, 3.0]), (3, "s"): np.array([1e300, -1e300, 0.0])}
    assert_divisors_match_reference(model, table, 0.001, norm_fisher_off)


def conv_norm_net():
    return Model([Conv2d(1, 2, (2, 2)), Activation("relu"), BatchNorm(2), Flatten(),
                  Dense(8, 4), LayerNorm(4)]).init(default_rng(9))


def fresh_factors(model, seed):
    rng = default_rng(seed)
    _, _, factors = model.train_batch(rng.standard_normal((4, 1, 3, 3)),
                                      rng.integers(0, 4, size=4))
    return factors


class TestNoAliasing:
    """A step writes into no array a caller holds, and one that raises keeps
    the curvature's arrays and their bytes."""

    def test_step_writes_into_no_held_array(self):
        model = conv_norm_net()
        opt = AdaFisher()
        opt.step(model, zero_grads(model), fresh_factors(model, 1))
        factors = fresh_factors(model, 2)
        held = [*opt.curvature.values(), *opt.divisors(model, opt.curvature).values(),
                *factors.values()]
        before = [arr.tobytes() for arr in held]
        opt.step(model, zero_grads(model), factors)
        assert [arr.tobytes() for arr in held] == before
        assert not any(np.shares_memory(vec, arr) for vec in opt.curvature.values()
                       for arr in held)
        # a table the caller assigns is read, never written
        rng = default_rng(3)
        table = {key: rng.random(vec.shape) for key, vec in identity(model).items()}
        before = {key: vec.tobytes() for key, vec in table.items()}
        opt.curvature = table
        opt.step(model, zero_grads(model), fresh_factors(model, 4))
        assert {key: vec.tobytes() for key, vec in table.items()} == before
        assert not any(np.shares_memory(vec, arr) for vec in opt.curvature.values()
                       for arr in table.values())

    def test_curvature_entries_are_views_of_one_vector(self):
        model = conv_norm_net()
        opt = AdaFisher()
        opt.step(model, zero_grads(model), fresh_factors(model, 1))
        base = opt.curvature[0, "h"].base
        assert base is not None and base.size == sum(vec.size for vec in opt.curvature.values())
        assert all(vec.base is base for vec in opt.curvature.values())

    @pytest.mark.parametrize("spoil, error", [
        (lambda vec: np.where(np.arange(vec.size) == 1, np.nan, vec), NumericError),
        (lambda vec: np.ones(vec.size + 1), DimensionError),
    ], ids=["nan-factor", "misshaped-factor"])
    def test_failing_step_keeps_the_curvature(self, spoil, error):
        model = conv_norm_net()
        opt = AdaFisher()
        opt.step(model, zero_grads(model), fresh_factors(model, 1))
        held = dict(opt.curvature)
        before = {key: vec.tobytes() for key, vec in held.items()}
        factors = fresh_factors(model, 2)
        factors[5, "s"] = spoil(factors[5, "s"])  # the last factor
        with pytest.raises(error, match="factor s of layer 5"):
            opt.step(model, zero_grads(model), factors)
        assert opt.curvature.keys() == held.keys()
        assert all(opt.curvature[key] is vec for key, vec in held.items())
        assert {key: vec.tobytes() for key, vec in opt.curvature.items()} == before
