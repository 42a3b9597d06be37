"""Diagonal Kronecker-factor engine: the EMA, min-max and lambda.

Per parameterized layer we keep the diagonals of the activation second-moment
factor (h) and the pre-activation-gradient second-moment factor (s), the
factor table a capturing training pass returns (Model.train_batch), and
smooth them with an EMA in which the *fresh* factor carries weight gamma.
KFState.factors is keyed (layer id, "h" | "s"), like that table, the
gradients and the divisors; their lengths are the layer's factor_sizes.

KFState.divisors min-max normalizes the factors (all zero for norm layers
under norm_fisher_off), lays the diagonal of H (x) S out like the layer's
parameters with the layer's own map, layer.kronecker_diagonal(h, s), and adds
lambda. The Fisher oracle compares with that map on fresh factors.

The EMAs and the min-max stay float64 whatever the model's dtype: they are
short vectors, and MINMAX_EPS is a float64 threshold. divisors casts the
normalized factors to the parameters' dtype before the layout, so a float32
model's divisors, and the optimizer's update, are float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InputError, StateError, check_flag, check_number
from .nn import Model, Norm

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


@dataclass
class KFState:
    """EMA-smoothed factor diagonals for every parameterized layer."""

    gamma: float = DEFAULT_GAMMA
    lam: float = DEFAULT_LAMBDA
    step: int = 0
    factors: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)
    norm_fisher_off: bool = False

    def __post_init__(self):
        check_number("gamma", self.gamma, lambda v: 0.0 < v <= 1.0, "a finite number in (0, 1]")
        check_number("lambda", self.lam, lambda v: v > 0, "a finite number > 0")
        check_flag("norm_fisher_off", self.norm_fisher_off)

    @classmethod
    def for_model(cls, model: Model, gamma: float = DEFAULT_GAMMA, lam: float = DEFAULT_LAMBDA,
                  norm_fisher_off: bool = False):
        """All-ones initialization (identity curvature at t=0)."""
        state = cls(gamma=gamma, lam=lam, norm_fisher_off=norm_fisher_off)
        for i, layer in model.param_layers():
            h, s = layer.factor_sizes
            state.factors[i, "h"], state.factors[i, "s"] = np.ones(h), np.ones(s)
        return state

    def update(self, fresh: dict[tuple[int, str], np.ndarray]) -> "KFState":
        """EMA every factor with its fresh diagonal, gamma*fresh + (1-gamma)*old;
        fresh must hold exactly the state's keys (a pass with capture=False
        returns none), each shaped like the state's factor. Every fresh
        factor is checked before any changes."""
        if fresh.keys() != self.factors.keys():
            i, name = min(fresh.keys() ^ self.factors.keys())
            why = ("missing; run a capturing pass, Model.train_batch(..., capture=True), first"
                   if (i, name) in self.factors else "unknown")
            raise StateError(f"fresh factor {name} of layer {i} is {why}")
        fresh = {key: np.asarray(vec, dtype=np.float64) for key, vec in fresh.items()}
        for (i, name), vec in fresh.items():
            if vec.shape != self.factors[i, name].shape:
                raise DimensionError(f"fresh factor {name} of layer {i} has shape {vec.shape}, "
                                     f"the state's {self.factors[i, name].shape}")
        for key, vec in fresh.items():
            self.factors[key] = self.gamma * vec + (1.0 - self.gamma) * self.factors[key]
        self.step += 1
        return self

    def divisors(self, model: Model) -> dict[tuple[int, str], np.ndarray]:
        """{(layer id, parameter name): divisor}, each shaped like its parameter."""
        out, dtype = {}, model.dtype
        for i, layer in model.param_layers():
            if (i, "h") not in self.factors or (i, "s") not in self.factors:
                raise StateError(f"the state holds no factors of layer {i}; "
                                 "build it with KFState.for_model")
            h, s = (minmax_normalize(self.factors[i, k]).astype(dtype, copy=False)
                    for k in ("h", "s"))
            if self.norm_fisher_off and isinstance(layer, Norm):
                h, s = np.zeros_like(h), np.zeros_like(s)  # identity factors, min-maxed
            try:
                diags = layer.kronecker_diagonal(h, s)
            except DimensionError as exc:
                raise DimensionError(f"layer {i}: {exc}") from None
            for name, diag in diags.items():
                # new arrays, or s (a norm's shift), which minmax_normalize made
                # for this call: lambda goes in place, copying nothing
                diag += self.lam
                out[i, name] = diag
        return out
