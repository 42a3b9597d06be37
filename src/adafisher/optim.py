"""Parameter-update rules: AdaFisher / AdaFisherW plus SGD, Adam and AdamW
baselines, learning-rate schedules, and build_optimizer, which maps an
optimizer name (any case) to its constructor; adamw is Adam with
decoupled=True, which its caller cannot override. The constructors check their
arguments for library callers (each hyperparameter a real number, not a bool,
in its range; each flag a bool) and raise ConfigError otherwise. They own
these rules for run configs too: RunConfig.from_dict builds them once.

One walk, Optimizer.step(model, grads, factors=None), serves every optimizer.
It reads the gradient and factor tables a training pass returns, keyed (layer
id, name) (Model.train_batch); Adam and SGD ignore the factors. Before it
changes anything it checks that every gradient is there, shaped like its
parameter and finite (a NumericError naming the step, the layer and the
gradient otherwise), that grads holds no key the model has no parameter for,
and that the moments it holds, if any, are keyed and shaped like the model's
parameters (a StateError otherwise: the optimizer was stepped on another
model). AdaFisher then checks its factors (AdaFisher._divisors). So a step
that raises leaves every parameter, moment, curvature entry and t as it was.
Then the step counts itself and calls the subclass's _update on each
parameter, its gradient, its moments and its divisor.
One table, opt.moments, maps (layer id, parameter name) to the n_moments
arrays made as zeros like the parameter when first met: AdaFisher's m, Adam's
m and v, SGD's momentum buffer (none without momentum). With the divisors,
which AdaFisher.divisors lays out in the parameters' dtype, an update runs in
the model's dtype alone: float32 in training.

AdaFisher holds all its state: t, the moments and opt.curvature, the EMAs of
the Kronecker-factor diagonals, {(layer id, "h" | "s"): float64 vector} sized
by each layer's factor_sizes, {} until the first step starts them from ones.
They are views of one vector, each layer's h then its s in layer order (a
table a caller assigns is read too, and an entry that is no vector is a
DimensionError naming its layer and factor). A step checks the fresh factors,
concatenates them into a new vector, EMAs it in place (rounding as gamma *
fresh + (1 - gamma) * old), lays out its divisors and only then keeps it: a
fixed number of numpy calls for the whole model, writing into no array a
caller holds. A divisor is lambda plus layer.kronecker_diagonal(h, s) of the
min-max normalized factors (zero for a norm layer under norm_fisher_off), all
min-maxed at once in float64 (MINMAX_EPS is a float64 threshold), then cast
once to the model's dtype; the Fisher oracle compares with that map. The update
is a bias-corrected first moment over its divisor, with no second moment and no
square root unless sqrt_divisor. AdaFisherW adds decoupled weight decay kappa.

The Adam and SGD baselines read no curvature (needs_factors is False), so
their training pass forms no factors. Every _update changes its
moments and parameter in place, with the float operations of the textbook
formulas in their order (m *= b1; m += (1 - b1) * g rounds as
b1 * m + (1 - b1) * g), so an Adam step allocates only its update and one
scratch array per parameter (plus the decayed gradient under coupled decay).
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate

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
    return _minmax(np.ravel(np.asarray(v, np.float64)), [0, np.size(v)]).reshape(np.shape(v))


def _minmax(flat: np.ndarray, bounds: list[int], keys: list | None = None) -> np.ndarray:
    """minmax_normalize of each segment flat[bounds[j]:bounds[j + 1]], in one new
    vector; an empty or non-finite one raises, prefixed with its key if keys."""
    sizes = np.diff(bounds)
    if not (sizes.all() and np.isfinite(flat).all()):
        j = next(j for j, (a, b) in enumerate(zip(bounds, bounds[1:]))
                 if a == b or not np.isfinite(flat[a:b]).all())
        where = f"layer {keys[j][0]}: factor {keys[j][1]}: " if keys else ""
        raise (InputError(f"{where}non-finite value in min-max input") if sizes[j]
               else DimensionError(f"{where}cannot normalize an empty vector"))
    lo, hi = np.minimum.reduceat(flat, bounds[:-1]), np.maximum.reduceat(flat, bounds[:-1])
    with np.errstate(over="ignore"):
        span = hi - lo
    wide = span == np.inf
    if wide.any():  # halve the segments whose hi - lo overflowed
        flat = flat * np.repeat(np.where(wide, 0.5, 1.0), sizes)
        lo, span = np.where(wide, lo / 2, lo), np.where(wide, hi / 2 - lo / 2, span)
    span[span < MINMAX_EPS] = np.inf  # (v - lo) / inf is +0.0 on a degenerate segment
    return (flat - np.repeat(lo, sizes)) / np.repeat(span, sizes)


def _check_vector(key: tuple[int, str], entry) -> None:
    """Refuse a curvature entry that is not a vector, naming its layer and factor."""
    if np.ndim(entry) != 1:
        raise DimensionError(f"layer {key[0]}: factor {key[1]}: a curvature entry must be a "
                             f"vector, got shape {np.shape(entry)}")


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
    """The parameter walk (see the module docstring); subclasses give _update."""

    needs_factors = False
    n_moments = 0

    def __init__(self, alpha: float = 0.001):
        self.alpha = _positive("learning rate alpha", alpha)
        self.lr_scale = 1.0
        self.t = 0
        self.moments: dict[tuple[int, str], tuple[np.ndarray, ...]] = {}

    def step(self, model: Model, grads: dict, factors: dict | None = None) -> None:
        work = []
        for i, name, p in model.parameters():
            g = grads.get((i, name))
            if g is None:
                raise StateError(f"layer {i} parameter {name} has no gradient; "
                                 "run a backward pass first")
            if g.shape != p.shape:
                raise DimensionError(f"layer {i} parameter {name}: gradient {g.shape} "
                                     f"vs parameter {p.shape}")
            if not np.isfinite(g).all():
                raise NumericError(f"step {self.t + 1}: non-finite gradient {name} of layer {i}")
            held = self.moments.get((i, name))
            if held is None and self.moments:
                raise StateError(f"layer {i} parameter {name} has no moments; the optimizer "
                                 f"was stepped on another model")
            for m in held or ():
                if m.shape != p.shape:
                    raise StateError(f"layer {i} parameter {name}: moment {m.shape} vs "
                                     f"parameter {p.shape}; the optimizer was stepped on "
                                     f"another model")
            work.append(((i, name), p, g))
        if len(grads) > len(work):
            key = next(key for key in grads if key not in [k for k, *_ in work])
            raise StateError(f"gradient {key} is unknown: the model has no such parameter")
        if len(self.moments) > len(work):
            i, name = next(key for key in self.moments if key not in [k for k, *_ in work])
            raise StateError(f"the optimizer holds moments of layer {i} parameter {name}, "
                             f"which the model lacks; it was stepped on another model")
        divisors = self._divisors(model, factors)
        self.t += 1
        for key, p, g in work:
            if key not in self.moments:
                self.moments[key] = tuple(np.zeros_like(p) for _ in range(self.n_moments))
            self._update(p, g, *self.moments[key], div=divisors.get(key))

    def _divisors(self, model: Model, factors: dict | None) -> dict:
        """{(layer id, parameter name): divisor}; none for a baseline."""
        return {}

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

    def _divisors(self, model: Model, factors: dict | None) -> dict:
        """The divisors of the EMA of the curvature with the checked fresh factors."""
        old = self.curvature or {(i, name): np.ones(n) for i, layer in model.param_layers()
                                 for name, n in zip(("h", "s"), layer.factor_sizes)}
        fresh = factors or {}
        if fresh.keys() != old.keys():
            i, name = min(fresh.keys() ^ old.keys())
            why = ("missing; run a capturing pass, Model.train_batch(..., capture=True), first"
                   if (i, name) in old else "unknown")
            raise StateError(f"fresh factor {name} of layer {i} is {why}")
        if not old:  # a model without parameters
            return {}
        for (i, name), vec in fresh.items():
            if np.shape(vec) != np.shape(old[i, name]):
                _check_vector((i, name), old[i, name])  # a held entry that is no vector
                raise DimensionError(f"fresh factor {name} of layer {i} has shape "
                                     f"{np.shape(vec)}, the state's {np.shape(old[i, name])}")
        flat = np.concatenate([fresh[key] for key in old], dtype=np.float64)
        if not np.isfinite(flat).all():
            i, name = next(key for key in old if not np.isfinite(fresh[key]).all())
            raise NumericError(f"step {self.t + 1}: non-finite factor {name} of layer {i}")
        flat *= self.gamma  # the EMA, rounded as gamma * fresh + (1 - gamma) * old
        flat += (1.0 - self.gamma) * np.concatenate(list(old.values()), dtype=np.float64)
        bounds = [0, *accumulate(map(len, old.values()))]
        curvature = {key: flat[a:b] for key, a, b in zip(old, bounds, bounds[1:])}
        divisors = self.divisors(model, curvature)
        self.curvature = curvature
        return divisors

    def divisors(self, model: Model, curvature: dict) -> dict[tuple[int, str], np.ndarray]:
        """{(layer id, parameter name): divisor} of the factor table curvature,
        each shaped like its parameter and in the model's dtype."""
        keys = [(i, name) for i, _ in model.param_layers() for name in ("h", "s")]
        try:
            entries = [curvature[key] for key in keys]
        except KeyError as exc:
            raise StateError(f"the curvature holds no factors of layer {exc.args[0][0]}") from None
        for key, entry in zip(keys, entries):
            _check_vector(key, entry)
        bounds = [0, *accumulate(map(len, entries))]  # entry j is flat[bounds[j]:bounds[j + 1]]
        flat = np.concatenate(entries or [np.empty(0)], dtype=np.float64)
        normed, out = _minmax(flat, bounds, keys).astype(model.dtype, copy=False), {}
        for (i, layer), a, b, c in zip(model.param_layers(), *(bounds[k::2] for k in (0, 1, 2))):
            if self.norm_fisher_off and isinstance(layer, Norm):
                normed[a:c] = 0.0  # identity factors, min-maxed
            try:
                diags = layer.kronecker_diagonal(normed[a:b], normed[b:c])
            except DimensionError as exc:
                raise DimensionError(f"layer {i}: {exc}") from None
            for name, diag in diags.items():  # new arrays, or views of this call's normed
                out[i, name] = np.add(diag, self.lam, out=diag)
        return out

    def _update(self, p, g, m, div) -> None:
        if self.sqrt_divisor:
            div = np.sqrt(div)
        m *= self.beta
        m += (1.0 - self.beta) * g
        delta = m / (1.0 - self.beta**self.t)  # bias correction applied on read
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
