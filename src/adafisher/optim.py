"""Parameter-update rules: AdaFisher / AdaFisherW plus SGD, Adam and AdamW
baselines, learning-rate schedules, and build_optimizer, which maps an
optimizer name (any case) to its constructor. The constructors check their
arguments for library callers; run configs are checked in adafisher.config.

AdaFisher keeps a single bias-corrected first moment per parameter and divides
it elementwise by that parameter's curvature divisor, which KFState.divisors
hands over keyed by (layer id, parameter name); there is no second moment and
(unless sqrt_divisor=True) no square root on the divisor: the factored
curvature supplies its own smoothing through the factor EMA. Every parameter
takes the same update, looped like Adam's. AdaFisherW is AdaFisher with a
decoupled weight decay kappa > 0, so both names build an AdaFisher.

The Adam and SGD baselines read no curvature (needs_divisors is False), so
their training step forms no factor capture. Every optimizer updates its
moments and parameters in place, with the float operations of the textbook
formulas in their order (m *= b1; m += (1 - b1) * g rounds as
b1 * m + (1 - b1) * g), so an Adam step allocates only its update and one
scratch array per parameter (plus the decayed gradient under coupled decay).
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from .errors import ConfigError, DimensionError
from .nn import Model


class Schedule:
    """Learning-rate multiplier as a function of the epoch index."""

    def __init__(self, kind: str = "constant", step_size: int = 10, factor: float = 0.1,
                 total_epochs: int = 1):
        if kind not in ("constant", "step", "cosine"):
            raise ConfigError(f"unknown schedule {kind!r}")
        if not (isinstance(step_size, Integral) and not isinstance(step_size, bool)
                and step_size >= 1):
            raise ConfigError(f"step_size must be an integer >= 1, got {step_size!r}")
        if not (factor > 0 and math.isfinite(factor)):
            raise ConfigError(f"factor must be a finite number > 0, got {factor!r}")
        if not total_epochs >= 1:
            raise ConfigError(f"total_epochs must be >= 1, got {total_epochs!r}")
        self.kind = kind
        self.step_size = step_size
        self.factor = factor
        self.total_epochs = total_epochs

    def scale(self, epoch: int) -> float:
        if self.kind == "constant":
            return 1.0
        if self.kind == "step":
            return self.factor ** (epoch // self.step_size)
        return 0.5 * (1.0 + np.cos(np.pi * epoch / self.total_epochs))


class Optimizer:
    needs_divisors = False

    def __init__(self, alpha: float = 0.001):
        if not alpha > 0:
            raise ConfigError("learning rate must be positive")
        self.alpha = alpha
        self.lr_scale = 1.0
        self.t = 0

    def step(self, model: Model, divisors: dict | None = None) -> None:
        raise NotImplementedError

    @property
    def lr(self) -> float:
        return self.alpha * self.lr_scale


class AdaFisher(Optimizer):
    """First-moment descent divided by the curvature divisors; kappa > 0 adds
    decoupled weight decay, undivided (the AdaFisherW variant)."""

    needs_divisors = True

    def __init__(self, alpha: float = 0.001, beta: float = 0.9, kappa: float = 0.0,
                 sqrt_divisor: bool = False):
        super().__init__(alpha)
        if not 0.0 <= beta < 1.0:
            raise ConfigError("beta must lie in [0, 1)")
        if not kappa >= 0:
            raise ConfigError("weight decay kappa must be non-negative")
        self.beta = beta
        self.kappa = kappa
        self.sqrt_divisor = sqrt_divisor
        self.m: dict[tuple[int, str], np.ndarray] = {}

    def step(self, model: Model, divisors: dict | None = None) -> None:
        if divisors is None:
            raise ConfigError("AdaFisher requires curvature divisors")
        self.t += 1
        correction = 1.0 - self.beta**self.t
        lr = self.lr
        for i, name, p in model.parameters():
            g, div = model.layers[i].grads[name], divisors[i, name]
            if g.shape != div.shape:
                raise DimensionError(f"layer {i} parameter {name}: gradient "
                                     f"{g.shape} vs divisor {div.shape}")
            if self.sqrt_divisor:
                div = np.sqrt(div)
            key = (i, name)
            if key not in self.m:
                self.m[key] = np.zeros_like(p)
            m = self.m[key]
            m *= self.beta
            m += (1.0 - self.beta) * g
            delta = m / correction  # bias correction applied on read
            delta /= div
            if self.kappa:
                delta += self.kappa * p
            delta *= lr
            p -= delta


class Adam(Optimizer):
    def __init__(self, alpha: float = 0.001, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0, decoupled: bool = False):
        super().__init__(alpha)
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigError("betas must lie in [0, 1)")
        if not eps > 0:
            raise ConfigError("eps must be positive")
        if not weight_decay >= 0:
            raise ConfigError("weight decay must be non-negative")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.decoupled = decoupled
        self.m: dict[tuple[int, str], np.ndarray] = {}
        self.v: dict[tuple[int, str], np.ndarray] = {}

    def step(self, model: Model, divisors=None) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        lr = self.lr
        for i, name, p in model.parameters():
            g = model.layers[i].grads[name]
            if self.weight_decay and not self.decoupled:
                g = g + self.weight_decay * p
            key = (i, name)
            if key not in self.m:
                self.m[key] = np.zeros_like(p)
                self.v[key] = np.zeros_like(p)
            m, v = self.m[key], self.v[key]
            tmp = (1.0 - self.beta1) * g
            m *= self.beta1
            m += tmp  # m = b1 * m + (1 - b1) * g
            np.multiply(1.0 - self.beta2, g, out=tmp)
            tmp *= g
            v *= self.beta2
            v += tmp  # v = b2 * v + (1 - b2) * g * g
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            update = m / c1
            update /= tmp  # (m / c1) / (sqrt(v / c2) + eps)
            if self.weight_decay and self.decoupled:
                np.multiply(self.weight_decay, p, out=tmp)
                update += tmp
            update *= lr
            p -= update


def adamw(alpha: float = 0.001, beta1: float = 0.9, beta2: float = 0.999,
          eps: float = 1e-8, weight_decay: float = 0.0) -> Adam:
    return Adam(alpha, beta1, beta2, eps, weight_decay, decoupled=True)


class SGD(Optimizer):
    """Heavy-ball momentum: buf <- mu*buf + g; theta <- theta - alpha*buf."""

    def __init__(self, alpha: float = 0.001, momentum: float = 0.0):
        super().__init__(alpha)
        if not 0.0 <= momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        self.momentum = momentum
        self.buf: dict[tuple[int, str], np.ndarray] = {}

    def step(self, model: Model, divisors=None) -> None:
        self.t += 1
        lr = self.lr
        for i, name, p in model.parameters():
            g = model.layers[i].grads[name]
            key = (i, name)
            if self.momentum:
                if key not in self.buf:
                    self.buf[key] = np.zeros_like(p)
                buf = self.buf[key]
                buf *= self.momentum
                buf += g  # buf = mu * buf + g
                g = buf
            p -= lr * g


_FACTORIES = {"adafisher": AdaFisher, "adafisherw": AdaFisher, "adam": Adam,
              "adamw": adamw, "sgd": SGD}


def build_optimizer(name: str, hyper: dict | None = None) -> Optimizer:
    """The optimizer called name, in any case, built with the keywords hyper."""
    factory = _FACTORIES.get(name.lower())
    if factory is None:
        raise ConfigError(f"unknown optimizer {name!r}")
    return factory(**(hyper or {}))
