"""Diagonal Kronecker-factor engine.

Per parameterized layer we keep the diagonals of the activation second-moment
factor (h) and the pre-activation-gradient second-moment factor (s), which the
layer's param_stats captures directly (layer.capture), and smooth them with an
EMA in which the *fresh* factor carries weight gamma. KFState.factors is keyed
(layer id, "h" | "s"), like the gradients and divisors.

kronecker_diagonal is the one map from factor entries to parameter entries. It
lays the diagonal of H (x) S out like a layer's parameters:

    weight of output k, flattened input j:  h[j] * s[k]
    bias of output k (h's last, unit slot):  h[-1] * s[k]

and h * s and s for a normalization layer's scale and shift (Hadamard
structure; the shift's activation factor is the constant 1). KFState.divisors
adds lambda to it on the min-max normalized factors (all zero for norm layers
under norm_fisher_off); the Fisher oracle compares with it on fresh factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, InputError, StateError
from .nn import Model

DEFAULT_GAMMA = 0.8
DEFAULT_LAMBDA = 0.001
MINMAX_EPS = 1e-12


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


def _factor_sizes(params: dict) -> tuple[int, int]:
    """Lengths of the h and s diagonals that fit a layer's parameters."""
    if "W" in params:
        return params["W"][0].size + ("b" in params), params["W"].shape[0]
    return params["scale"].size, params["scale"].size


def kronecker_diagonal(h: np.ndarray, s: np.ndarray, params: dict) -> dict[str, np.ndarray]:
    """{parameter name: diagonal of H (x) S at its entries}, shaped like params."""
    if (h.size, s.size) != _factor_sizes(params):
        raise DimensionError(f"factors h {h.size}, s {s.size} do not fit the parameters "
                             f"{({n: v.shape for n, v in params.items()})}")
    if "W" not in params:
        return {"scale": h * s, "shift": s}
    grid = np.outer(s, h)
    out = {"W": grid[:, :params["W"][0].size].reshape(params["W"].shape)}
    if "b" in params:
        out["b"] = grid[:, -1]
    return out


@dataclass
class KFState:
    """EMA-smoothed factor diagonals for every parameterized layer."""

    gamma: float = DEFAULT_GAMMA
    lam: float = DEFAULT_LAMBDA
    step: int = 0
    factors: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)
    norm_fisher_off: bool = False

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.lam <= 0:
            raise ConfigError(f"lambda must be positive, got {self.lam}")

    @classmethod
    def for_model(cls, model: Model, gamma: float = DEFAULT_GAMMA, lam: float = DEFAULT_LAMBDA,
                  norm_fisher_off: bool = False):
        """All-ones initialization (identity curvature at t=0)."""
        state = cls(gamma=gamma, lam=lam, norm_fisher_off=norm_fisher_off)
        for i, layer in model.param_layers():
            h, s = _factor_sizes(layer.params)
            state.factors[i, "h"], state.factors[i, "s"] = np.ones(h), np.ones(s)
        return state

    def update(self, fresh: dict[tuple[int, str], np.ndarray]) -> "KFState":
        """EMA every factor with its fresh diagonal, gamma*fresh + (1-gamma)*old;
        fresh must hold exactly the state's keys (a layer that ran no backward
        pass has captured none), each shaped like the state's factor."""
        if fresh.keys() != self.factors.keys():
            i, name = min(fresh.keys() ^ self.factors.keys())
            why = "missing; run a backward pass first" if (i, name) in self.factors else "unknown"
            raise StateError(f"fresh factor {name} of layer {i} is {why}")
        for (i, name), vec in fresh.items():
            old, vec = self.factors[i, name], np.asarray(vec, dtype=np.float64)
            if vec.shape != old.shape:
                raise DimensionError(f"fresh factor {name} of layer {i} has shape {vec.shape}, "
                                     f"the state's {old.shape}")
            self.factors[i, name] = self.gamma * vec + (1.0 - self.gamma) * old
        self.step += 1
        return self

    def divisors(self, model: Model) -> dict[tuple[int, str], np.ndarray]:
        """{(layer id, parameter name): divisor}, each shaped like its parameter."""
        out = {}
        for i, layer in model.param_layers():
            h, s = (minmax_normalize(self.factors[i, k]) for k in ("h", "s"))
            if self.norm_fisher_off and "W" not in layer.params:
                h, s = np.zeros_like(h), np.zeros_like(s)  # identity factors, min-maxed
            try:
                diags = kronecker_diagonal(h, s, layer.params)
            except DimensionError as exc:
                raise DimensionError(f"layer {i}: {exc}") from None
            for name, diag in diags.items():
                out[i, name] = diag + self.lam
        return out
