"""Diagonal Kronecker-factor engine: the EMA, min-max and lambda.

Per parameterized layer we keep the diagonals of the activation second-moment
factor (h) and the pre-activation-gradient second-moment factor (s), the
factor table a capturing training pass returns (Model.train_batch), and
smooth them with an EMA in which the *fresh* factor carries weight gamma.
KFState.factors is keyed (layer id, "h" | "s"), like that table, the
gradients and the divisors; their lengths are the layer's factor_sizes. An
empty state starts, on its first update, from ones of those sizes (identity
curvature). AdaFisher (optim) holds one KFState as its curvature; no other
module reads it.

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
    """(v - min) / (max - min); all zeros when the range is degenerate. A range
    past float64's largest value is taken from the halves of v."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise DimensionError("cannot normalize an empty vector")
    if not np.isfinite(v).all():
        raise InputError("non-finite value in min-max input")
    lo, hi = v.min(), v.max()
    with np.errstate(over="ignore"):
        span = hi - lo
    if span < MINMAX_EPS:
        return np.zeros_like(v)
    if span == np.inf:
        v, lo, span = v / 2, lo / 2, hi / 2 - lo / 2
    return (v - lo) / span


@dataclass
class KFState:
    """EMA-smoothed factor diagonals for every parameterized layer."""

    gamma: float = DEFAULT_GAMMA
    lam: float = DEFAULT_LAMBDA
    factors: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)
    norm_fisher_off: bool = False

    def __post_init__(self):
        check_number("gamma", self.gamma, lambda v: 0.0 < v <= 1.0, "a finite number in (0, 1]")
        check_number("lambda", self.lam, lambda v: v > 0, "a finite number > 0")
        check_flag("norm_fisher_off", self.norm_fisher_off)

    def update(self, model: Model, fresh: dict[tuple[int, str], np.ndarray]) -> "KFState":
        """EMA every factor with its fresh diagonal, gamma*fresh + (1-gamma)*old;
        an empty state starts from model's ones. fresh must hold exactly the
        state's keys (a pass with capture=False returns none), each shaped like
        the state's factor. Every fresh factor is checked before any changes."""
        old = self.factors or {(i, name): np.ones(n) for i, layer in model.param_layers()
                               for name, n in zip(("h", "s"), layer.factor_sizes)}
        if fresh.keys() != old.keys():
            i, name = min(fresh.keys() ^ old.keys())
            why = ("missing; run a capturing pass, Model.train_batch(..., capture=True), first"
                   if (i, name) in old else "unknown")
            raise StateError(f"fresh factor {name} of layer {i} is {why}")
        fresh = {key: np.asarray(vec, dtype=np.float64) for key, vec in fresh.items()}
        for (i, name), vec in fresh.items():
            if vec.shape != old[i, name].shape:
                raise DimensionError(f"fresh factor {name} of layer {i} has shape {vec.shape}, "
                                     f"the state's {old[i, name].shape}")
        self.factors = {key: self.gamma * fresh[key] + (1.0 - self.gamma) * vec
                        for key, vec in old.items()}
        return self

    def divisors(self, model: Model) -> dict[tuple[int, str], np.ndarray]:
        """{(layer id, parameter name): divisor}, each shaped like its parameter."""
        out, dtype = {}, model.dtype
        for i, layer in model.param_layers():
            if (i, "h") not in self.factors or (i, "s") not in self.factors:
                raise StateError(f"the state holds no factors of layer {i}")
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
