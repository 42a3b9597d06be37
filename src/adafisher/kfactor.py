"""Diagonal Kronecker-factor engine.

Per parameterized layer we keep the diagonals of the activation second-moment
factor (h) and the pre-activation-gradient second-moment factor (s), which the
layer's param_stats captures directly (see nn.LayerCapture), smooth them with
an EMA in which the *fresh* factor carries weight gamma, min-max normalize each
diagonal, and assemble the damped factored curvature used to precondition
gradients:

    divisor(k, j) = h'[j] * s'[k] + lambda

Normalization layers degenerate to elementwise (Hadamard) structure and keep
two diagonals, h_scale and s: the scale-parameter divisor is
h_scale' * s' + lambda and the shift-parameter divisor is s' + lambda (its
activation factor is the constant 1, so it keeps no h diagonal).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, InputError, StateError
from .nn import Model

DEFAULT_GAMMA = 0.8
DEFAULT_LAMBDA = 0.001
MINMAX_EPS = 1e-12


def ema_update(old: np.ndarray, fresh: np.ndarray, gamma: float) -> np.ndarray:
    """EMA with the fresh factor weighted by gamma: gamma*fresh + (1-gamma)*old."""
    if not 0.0 < gamma <= 1.0:
        raise ConfigError(f"gamma must lie in (0, 1], got {gamma}")
    old = np.asarray(old, dtype=np.float64)
    fresh = np.asarray(fresh, dtype=np.float64)
    if old.shape != fresh.shape:
        raise DimensionError("EMA operand shapes disagree")
    return gamma * fresh + (1.0 - gamma) * old


def minmax_normalize(v: np.ndarray) -> np.ndarray:
    """(v - min) / (max - min); all zeros when the range is degenerate."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise DimensionError("cannot normalize an empty vector")
    if np.any(np.isnan(v)):
        raise InputError("NaN in min-max input")
    lo, hi = v.min(), v.max()
    if hi - lo < MINMAX_EPS:
        return np.zeros_like(v)
    return (v - lo) / (hi - lo)


def fresh_factors(model: Model) -> dict[int, dict[str, np.ndarray]]:
    """Per-batch factor diagonals for every parameterized layer of a model."""
    factors: dict[int, dict[str, np.ndarray]] = {}
    for i, layer in model.param_layers():
        cap = layer.capture
        if cap is None:
            raise StateError(f"layer {i} ({type(layer).__name__}) has no capture; "
                             "run a backward pass first")
        if layer.kf_kind == "kron":
            factors[i] = {"h": cap.h, "s": cap.s}
        elif layer.kf_kind == "norm":
            factors[i] = {"h_scale": cap.h, "s": cap.s}
        else:
            raise StateError(f"parameterized layer {i} has no factor formula")
    return factors


def identity_like(factors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: np.ones_like(v) for name, v in factors.items()}


@dataclass
class KFState:
    """EMA-smoothed factor diagonals for every parameterized layer."""

    gamma: float = DEFAULT_GAMMA
    lam: float = DEFAULT_LAMBDA
    step: int = 0
    factors: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)

    @classmethod
    def for_model(cls, model: Model, gamma: float = DEFAULT_GAMMA, lam: float = DEFAULT_LAMBDA):
        """All-ones initialization (identity curvature at t=0)."""
        if not 0.0 < gamma <= 1.0:
            raise ConfigError(f"gamma must lie in (0, 1], got {gamma}")
        if lam <= 0:
            raise ConfigError(f"lambda must be positive, got {lam}")
        state = cls(gamma=gamma, lam=lam)
        for i, layer in model.param_layers():
            if layer.kf_kind == "kron":
                w = layer.params["W"]
                out_dim = w.shape[0]
                in_dim = int(np.prod(w.shape[1:])) + (1 if "b" in layer.params else 0)
                state.factors[i] = {"h": np.ones(in_dim), "s": np.ones(out_dim)}
            elif layer.kf_kind == "norm":
                c = layer.params["scale"].size
                state.factors[i] = {"h_scale": np.ones(c), "s": np.ones(c)}
        return state

    def update(self, fresh: dict[int, dict[str, np.ndarray]]) -> "KFState":
        for i, layer_factors in fresh.items():
            if i not in self.factors:
                raise StateError(f"unknown layer id {i} in fresh factors")
            for name, vec in layer_factors.items():
                self.factors[i][name] = ema_update(self.factors[i][name], vec, self.gamma)
        self.step += 1
        return self


@dataclass
class FactoredEFIM:
    """Min-max-normalized factor diagonals plus damping, per layer."""

    lam: float
    layers: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)

    def divisors(self, layer_id: int, sqrt: bool = False) -> dict[str, np.ndarray]:
        """Preconditioning divisors per parameter block of one layer.

        'kron' layers get a single (out, in[+1]) matrix under key 'WB';
        'norm' layers get vectors under 'scale' and 'shift'.
        """
        entry = self.layers[layer_id]
        if "h" in entry:
            div = {"WB": np.outer(entry["s"], entry["h"]) + self.lam}
        else:
            div = {
                "scale": entry["h_scale"] * entry["s"] + self.lam,
                "shift": entry["s"] + self.lam,
            }
        if sqrt:
            div = {k: np.sqrt(v) for k, v in div.items()}
        return div


def efim_assemble(state: KFState, norm_fisher_off: bool = False) -> FactoredEFIM:
    """Min-max normalize the (EMA-smoothed) diagonals and attach damping."""
    if state.lam <= 0:
        raise ConfigError(f"lambda must be positive, got {state.lam}")
    efim = FactoredEFIM(lam=state.lam)
    for i, factors in state.factors.items():
        if norm_fisher_off and "h_scale" in factors:
            factors = identity_like(factors)
        efim.layers[i] = {name: minmax_normalize(vec) for name, vec in factors.items()}
    return efim


def precondition(grad: np.ndarray, efim: FactoredEFIM, layer_id: int, sqrt: bool = False):
    """Divide a combined (out, in[+1]) gradient by the layer's divisor matrix."""
    div = efim.divisors(layer_id, sqrt=sqrt)
    if "WB" in div:
        if grad.shape != div["WB"].shape:
            raise DimensionError(f"gradient shape {grad.shape} != divisor {div['WB'].shape}")
        return grad / div["WB"]
    raise StateError("use divisors() for normalization layers")
