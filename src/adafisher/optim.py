"""Parameter-update rules: AdaFisher / AdaFisherW plus SGD, Adam and AdamW
baselines, learning-rate schedules, and build_optimizer, which maps an
optimizer name (any case) to its constructor; adamw is Adam with
decoupled=True, which its caller cannot override. The constructors check their
arguments for library callers (each hyperparameter a real number, not a bool,
in its range; each flag a bool) and raise ConfigError otherwise. They own
these rules for run configs too: RunConfig.from_dict builds them once.

Each optimizer keeps one flat store, so Optimizer.step(model, grads,
factors=None), which reads a training pass's tables keyed (layer id, name), is
a fixed number of numpy calls for any model. The first step lays the
parameters end to end and keeps the moments (AdaFisher's m, Adam's m and v,
SGD's momentum buffer, if any) as one (n_moments, N) array in the model's
dtype; opt.moments maps each key to its views. A step checks the gradients'
keys and shapes against the model's and the model's against the store's (a
StateError: it was stepped on another model), joins the gradients in their own
dtype and checks them with one isfinite (a NumericError naming the step, layer
and gradient), and AdaFisher checks its factors: a step that raises changes no
parameter, moment, curvature entry or t. Only then do the parameters become
views of one vector the optimizer holds, again whenever a layer's array is not
its view (after Model.copy or astype, Layer.init, an assignment), so an array
taken before that is no longer the layer's. _update runs once on the flat
vectors with the textbook formulas' float operations in their order (m *= b1;
m += (1 - b1) * g rounds as b1 * m + (1 - b1) * g): bit for bit a tensor walk.

AdaFisher's opt.curvature holds the float64 EMAs of the Kronecker-factor
diagonals, {(layer id, "h" | "s"): vector}, views of one vector (each layer's h
then its s), {} until the first step starts them from ones; a table a caller
assigns is read too, and an entry that is no vector is a DimensionError. A
step joins the fresh factors into a new vector, EMAs it in place (rounding as
gamma * fresh + (1 - gamma) * old), min-maxes every entry at once in float64
(MINMAX_EPS is a float64 threshold) and casts them once to the model's dtype;
each layer writes kronecker_diagonal's map of them (of zeros for a norm under
norm_fisher_off) into its views of one divisor vector, and lambda is added.
Only then are the EMAs kept: opt.curvature becomes views of the new vector, so
an entry taken before the step keeps its bytes.

The layout of all this is AdaFisher's curvature plan (_Plan), kept beside the
flat store: the factor keys in layer order, their bounds and min-max
_segments, the EMA vector whose views opt.curvature holds, and the divisor
vector, in the model's dtype, with each layer's views of it. A step uses the
plan while the fresh factors have its shapes, the model its dtype, and
opt.curvature holds the plan's own views and no other entry (checked by
identity, since a caller may assign the table or one entry).
Otherwise (the first step, a caller's table or entry, another model's factors
or dtype) the step adopts a new plan through every check the first step makes,
and keeps it only if the step passes. A step that raises, for a non-finite
factor too, keeps the plan and the curvature as they were. The update divides
the bias-corrected first moment by the divisor (its square root under
sqrt_divisor); AdaFisherW adds decoupled weight decay kappa. Adam and SGD read
no curvature (needs_factors is False), so their training pass forms no factors.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate
from operator import is_

import numpy as np

from .errors import (ConfigError, DimensionError, InputError, NumericError, StateError,
                     check_count, check_flag, check_number)
from .nn import Model, Norm

DEFAULT_GAMMA = 0.8
DEFAULT_LAMBDA = 0.001
MINMAX_EPS = 1e-12

_positive = partial(check_number, ok=lambda v: v > 0, what="a finite number > 0")
_nonnegative = partial(check_number, ok=lambda v: v >= 0, what="a finite number >= 0")
_below_one = partial(check_number, ok=lambda v: 0.0 <= v < 1.0, what="a finite number in [0, 1)")


def minmax_normalize(v: np.ndarray) -> np.ndarray:
    """(v - min) / (max - min); all zeros when the range is degenerate. A range
    past float64's largest value is taken from the halves of v."""
    flat = np.ravel(np.asarray(v, np.float64))
    return _minmax(flat, _segments([0, flat.size])).reshape(np.shape(v))


def _segments(bounds: list[int]) -> tuple:
    """(bounds, starts, sizes, index) of the segments flat[bounds[j]:bounds[j + 1]]:
    their first entries and lengths and, for each entry, its segment's number."""
    sizes = np.diff(bounds)
    return bounds, np.array(bounds[:-1], np.intp), sizes, np.repeat(np.arange(sizes.size), sizes)


def _minmax(flat: np.ndarray, segments: tuple, keys: list | None = None) -> np.ndarray:
    """minmax_normalize of each of the _segments of flat, in one new vector; an
    empty or non-finite one raises, prefixed with its key if keys."""
    bounds, starts, sizes, index = segments
    if not (sizes.all() and np.isfinite(flat).all()):
        j = next(j for j, (a, b) in enumerate(zip(bounds, bounds[1:]))
                 if a == b or not np.isfinite(flat[a:b]).all())
        where = f"layer {keys[j][0]}: factor {keys[j][1]}: " if keys else ""
        raise (InputError(f"{where}non-finite value in min-max input") if sizes[j]
               else DimensionError(f"{where}cannot normalize an empty vector"))
    lo, hi = np.minimum.reduceat(flat, starts), np.maximum.reduceat(flat, starts)
    with np.errstate(over="ignore"):
        span = hi - lo
    wide = span == np.inf
    if wide.any():  # halve the segments whose hi - lo overflowed
        flat = flat * np.where(wide, 0.5, 1.0)[index]
        lo, span = np.where(wide, lo / 2, lo), np.where(wide, hi / 2 - lo / 2, span)
    span[span < MINMAX_EPS] = np.inf  # (v - lo) / inf is +0.0 on a degenerate segment
    return (flat - lo[index]) / span[index]


def _misfit(want: dict, got: dict) -> tuple:
    """(key, got.get(key)) of the first key, want's then got's, that the two hold otherwise."""
    key = next(key for key in [*want, *got] if got.get(key) != want.get(key))
    return key, got.get(key)


def _split(vec: np.ndarray, shapes: dict) -> dict:
    """{key: view of vec}: the arrays of shapes, {key: shape}, laid end to end."""
    ends = [0, *accumulate(map(math.prod, shapes.values()))]
    return {key: vec[ends[j]:ends[j + 1]].reshape(shape)
            for j, (key, shape) in enumerate(shapes.items())}


def _entries(model: Model, table: dict) -> tuple[list, list]:
    """(keys, entries) of the factor table, each layer's h then its s: vectors."""
    keys = [(i, name) for i, _ in model.param_layers() for name in ("h", "s")]
    for i, name in keys:
        if (i, name) not in table:
            raise StateError(f"the curvature holds no factors of layer {i}")
        if np.ndim(table[i, name]) != 1:
            raise DimensionError(f"layer {i}: factor {name}: a curvature entry must be a "
                                 f"vector, got shape {np.shape(table[i, name])}")
    return keys, [table[key] for key in keys]


class _Plan:
    """AdaFisher's curvature layout for one model (see the module docstring),
    built from the factor vectors held, one per key of keys, in the
    parameters' layout, {key: shape}: the EMA vector ema joins held, and
    divisors holds each parameter's view of the divisor vector div."""

    def __init__(self, model: Model, keys: list, held: list, layout: dict):
        bounds = [0, *accumulate(map(len, held))]
        self.keys, self.segments = keys, _segments(bounds)
        self.shapes = {key: (b - a,) for key, a, b in zip(keys, bounds, bounds[1:])}
        self.ema = np.concatenate(held or [np.empty(0)], dtype=np.float64)
        self.views: list = []  # the entries of the opt.curvature it left
        self.div = np.empty(sum(map(math.prod, layout.values())), model.dtype)
        self.divisors = _split(self.div, layout)
        # (layer id, is a norm, start of h, start of s, end, {name: view of div})
        self.layers = [(i, isinstance(layer, Norm), a, b, c,
                        {name: self.divisors[i, name] for name in layer.params})
                       for (i, layer), a, b, c in zip(model.param_layers(),
                                                      *(bounds[k::2] for k in (0, 1, 2)))]

    def holds(self, table: dict, factors: dict | None, dtype) -> bool:
        """Whether a step with the fresh factors, on a model of dtype, may use
        the plan: table holds the plan's own views and nothing else, and the
        factors have its shapes."""
        return (len(table) == len(self.keys)
                and all(map(is_, map(table.get, self.keys), self.views))
                and self.div.dtype == dtype
                and {key: np.shape(vec) for key, vec in (factors or {}).items()} == self.shapes)

    def keep(self, flat: np.ndarray) -> dict:
        """The curvature table of the EMA vector flat, which the plan now holds."""
        self.ema, bounds = flat, self.segments[0]
        table = {key: flat[a:b] for key, a, b in zip(self.keys, bounds, bounds[1:])}
        self.views = list(table.values())
        return table


class Schedule:
    """Learning-rate multiplier as a function of the epoch index."""

    def __init__(self, kind: str = "constant", step_size: int = 10, factor: float = 0.1,
                 total_epochs: int = 1):
        if kind not in ("constant", "step", "cosine"):
            raise ConfigError(f"unknown schedule {kind!r}")
        check_count("step_size", step_size)
        self.kind = kind
        self.step_size = step_size
        self.factor = _positive("factor", factor)
        self.total_epochs = check_number("total_epochs", total_epochs, lambda v: v >= 1,
                                         "a finite number >= 1")

    def scale(self, epoch: int) -> float:
        if self.kind == "constant":
            return 1.0
        if self.kind == "step":
            return self.factor ** (epoch // self.step_size)
        # a Python float: a numpy float64 would upcast a float32 update
        return float(0.5 * (1.0 + np.cos(np.pi * epoch / self.total_epochs)))


class Optimizer:
    """The flat store (see the module docstring); subclasses give _update."""

    needs_factors = False
    n_moments = 0

    def __init__(self, alpha: float = 0.001):
        self.alpha = _positive("learning rate alpha", alpha)
        self.lr_scale = 1.0
        self.t = 0
        self.moments: dict[tuple[int, str], tuple[np.ndarray, ...]] = {}
        self._shapes: dict = {}  # {(layer id, name): shape}: the store's layout
        self._views: dict | None = None  # {(layer id, name): the layer's view of _theta}

    def step(self, model: Model, grads: dict, factors: dict | None = None) -> None:
        params = {(i, name): p for i, name, p in model.parameters()}
        shapes = {key: p.shape for key, p in params.items()}
        got = {key: np.shape(g) for key, g in grads.items()}
        if got != shapes:
            key, shape = _misfit(shapes, got)
            if key not in shapes:
                raise StateError(f"gradient {key} is unknown: the model has no such parameter")
            where = "layer {} parameter {}".format(*key)
            if shape is None:
                raise StateError(f"{where} has no gradient; run a backward pass first")
            raise DimensionError(f"{where}: gradient {shape} vs parameter {shapes[key]}")
        if self._shapes and self._shapes != shapes:
            key, shape = _misfit(shapes, self._shapes)
            where = "layer {} parameter {}".format(*key)
            if key not in shapes:
                raise StateError(f"the optimizer holds moments of {where}, which the model "
                                 "lacks; it was stepped on another model")
            what = (" has no moments" if shape is None
                    else f": moment {shape} vs parameter {shapes[key]}")
            raise StateError(f"{where}{what}; the optimizer was stepped on another model")
        layout = self._shapes or shapes
        g = np.concatenate([grads[key] for key in layout] or [np.empty(0, model.dtype)], axis=None)
        if not np.isfinite(g).all():
            i, name = next(key for key in layout if not np.isfinite(grads[key]).all())
            raise NumericError(f"step {self.t + 1}: non-finite gradient {name} of layer {i}")
        div = self.needs_factors and self._divisors(model, factors, layout)
        if not self._shapes:  # every check has passed: the store may change
            self._shapes, self._m = shapes, np.zeros((self.n_moments, g.size), model.dtype)
            rows = [_split(m, shapes) for m in self._m]
            self.moments = {key: tuple(row[key] for row in rows) for key in shapes}
        if self._views is None or any(params[key] is not v for key, v in self._views.items()):
            self._theta = np.concatenate([params[key] for key in layout]
                                         or [np.empty(0, model.dtype)], axis=None)
            self._views = _split(self._theta, layout)
            for (i, name), view in self._views.items():
                model.layers[i].params[name] = view
        self.t += 1
        self._update(self._theta, g, *self._m, div=div)

    @property
    def lr(self) -> float:
        return self.alpha * self.lr_scale


class AdaFisher(Optimizer):
    """First-moment descent divided by the curvature divisors; kappa > 0 adds
    decoupled weight decay, undivided (the AdaFisherW variant)."""

    needs_factors = True
    n_moments = 1

    def __init__(self, alpha: float = 0.001, beta: float = 0.9, kappa: float = 0.0,
                 sqrt_divisor: bool = False, gamma: float = DEFAULT_GAMMA,
                 lam: float = DEFAULT_LAMBDA, norm_fisher_off: bool = False):
        super().__init__(alpha)
        self.beta = _below_one("beta", beta)
        self.kappa = _nonnegative("weight decay kappa", kappa)
        self.sqrt_divisor = check_flag("sqrt_divisor", sqrt_divisor)
        self.gamma = check_number("gamma", gamma, lambda v: 0.0 < v <= 1.0,
                                  "a finite number in (0, 1]")
        self.lam = _positive("lambda", lam)
        self.norm_fisher_off = check_flag("norm_fisher_off", norm_fisher_off)
        self.curvature: dict[tuple[int, str], np.ndarray] = {}
        self._plan: _Plan | None = None

    def _divisors(self, model: Model, factors: dict | None, layout: dict) -> np.ndarray:
        """The divisor vector, laid out (_split) as layout, of the EMA of the
        curvature with the checked fresh factors."""
        plan = self._plan
        if plan is None or not plan.holds(self.curvature, factors, model.dtype):
            plan = self._adopt(model, factors, layout)
        flat = np.concatenate([factors[key] for key in plan.keys] or [np.empty(0)],
                              dtype=np.float64)
        flat *= self.gamma  # the EMA, rounded as gamma * fresh + (1 - gamma) * old
        flat += (1.0 - self.gamma) * plan.ema
        try:
            div = self._lay_out(model, flat, plan)
        except InputError:  # the EMA is not finite: a non-finite fresh factor is a NumericError
            for i, name in (key for key in plan.keys if not np.isfinite(factors[key]).all()):
                raise NumericError(f"step {self.t + 1}: non-finite factor {name} of layer "
                                   f"{i}") from None
            raise
        self._plan, self.curvature = plan, plan.keep(flat)
        return div

    def _adopt(self, model: Model, factors: dict | None, layout: dict) -> _Plan:
        """A new plan of the curvature held (ones of each factor size when
        empty), once the fresh factors fit it."""
        old = self.curvature or {(i, name): np.ones(n) for i, layer in model.param_layers()
                                 for name, n in zip(("h", "s"), layer.factor_sizes)}
        keys, held = _entries(model, old)
        want = {key: np.shape(vec) for key, vec in old.items()}
        got = {key: np.shape(vec) for key, vec in (factors or {}).items()}
        if got != want:
            key, shape = _misfit(want, got)
            where = "fresh factor {1} of layer {0}".format(*key)
            if key in want and shape is not None:
                raise DimensionError(f"{where} has shape {shape}, the state's {want[key]}")
            raise StateError(f"{where} is unknown" if key not in want else f"{where} is missing; "
                             "run a capturing pass, Model.train_batch(..., capture=True), first")
        return _Plan(model, keys, held, layout)

    def divisors(self, model: Model, curvature: dict) -> dict[tuple[int, str], np.ndarray]:
        """{(layer id, parameter name): divisor} of the factor table curvature,
        each shaped like its parameter and in the model's dtype: views of one
        new vector."""
        plan = _Plan(model, *_entries(model, curvature),
                     {(i, name): p.shape for i, name, p in model.parameters()})
        self._lay_out(model, plan.ema, plan)
        return plan.divisors

    def _lay_out(self, model: Model, flat: np.ndarray, plan: _Plan) -> np.ndarray:
        """plan.div holding the divisors of the curvature vector flat, laid out
        as plan's."""
        normed = _minmax(flat, plan.segments, plan.keys).astype(plan.div.dtype, copy=False)
        for i, norm, a, b, c, out in plan.layers:
            if norm and self.norm_fisher_off:
                normed[a:c] = 0.0  # identity factors, min-maxed
            try:
                model.layers[i]._diagonal_into(normed[a:b], normed[b:c], out)
            except DimensionError as exc:
                raise DimensionError(f"layer {i}: {exc}") from None
        plan.div += self.lam
        return plan.div

    def _update(self, p, g, m, div) -> None:
        # g is the step's own vector: scratch, where its dtype rounds as m's does
        own = g if g.dtype == m.dtype else None
        if self.sqrt_divisor:
            div = np.sqrt(div, out=div)
        m *= self.beta
        m += np.multiply(1.0 - self.beta, g, out=own)
        delta = np.divide(m, 1.0 - self.beta**self.t, out=own)  # bias correction on read
        delta /= div
        if self.kappa:
            delta += self.kappa * p
        delta *= self.lr
        p -= delta


class Adam(Optimizer):
    n_moments = 2

    def __init__(self, alpha: float = 0.001, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0, decoupled: bool = False):
        super().__init__(alpha)
        self.beta1, self.beta2 = _below_one("beta1", beta1), _below_one("beta2", beta2)
        self.eps = _positive("eps", eps)
        self.weight_decay = _nonnegative("weight_decay", weight_decay)
        self.decoupled = check_flag("decoupled", decoupled)

    def _update(self, p, g, m, v, div) -> None:
        if self.weight_decay and not self.decoupled:
            g = g + self.weight_decay * p
        tmp = (1.0 - self.beta1) * g
        m *= self.beta1
        m += tmp  # m = b1 * m + (1 - b1) * g
        np.multiply(1.0 - self.beta2, g, out=tmp)
        tmp *= g
        v *= self.beta2
        v += tmp  # v = b2 * v + (1 - b2) * g * g
        np.divide(v, 1.0 - self.beta2**self.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        update = m / (1.0 - self.beta1**self.t)
        update /= tmp  # (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
        if self.weight_decay and self.decoupled:
            np.multiply(self.weight_decay, p, out=tmp)
            update += tmp
        update *= self.lr
        p -= update


class SGD(Optimizer):
    """Heavy-ball momentum: buf <- mu*buf + g; theta <- theta - alpha*buf."""

    def __init__(self, alpha: float = 0.001, momentum: float = 0.0):
        super().__init__(alpha)
        self.momentum = _below_one("momentum", momentum)
        self.n_moments = int(bool(momentum))  # no buffer without momentum

    def _update(self, p, g, *buf, div) -> None:
        if buf:
            buf, = buf
            buf *= self.momentum
            buf += g  # buf = mu * buf + g
            g = buf
        p -= self.lr * g


# adamw passes decoupled itself, so a caller's decoupled is a TypeError (a
# keyword given twice), not an override.
_FACTORIES = {"adafisher": AdaFisher, "adafisherw": AdaFisher, "adam": Adam,
              "adamw": lambda **hyper: Adam(**hyper, decoupled=True), "sgd": SGD}


def build_optimizer(name: str, hyper: dict | None = None) -> Optimizer:
    """The optimizer called name, in any case, built with the keywords hyper."""
    factory = _FACTORIES.get(name.lower()) if isinstance(name, str) else None
    if factory is None:
        raise ConfigError(f"unknown optimizer {name!r}")
    try:
        return factory(**(hyper or {}))
    except (TypeError, ConfigError) as exc:  # TypeError: an unknown keyword
        raise ConfigError(f"optimizer {name!r}: {exc}") from None
