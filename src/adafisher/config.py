"""Run configuration: one schema table per config block, checked once.

RunConfig.from_dict walks a raw config against the tables: unknown and missing
keys and every present value (reals must be finite), with messages naming the
field's dotted path. A table gives each field's type and bound, not its
default: an absent optional field is left out, so its constructor's default
applies. It then checks the model's parameter count against the desk-scale
guard MAX_SYNTH_VALUES (a SizeError), before anything is allocated.
build_model and resolve_dataset read blocks already checked."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from numbers import Integral, Real
from pathlib import Path

from .datasets import MAX_SYNTH_VALUES, Images, load_csv, load_idx, synth_dataset
from .errors import ConfigError, DataError, SizeError
from .nn import (Activation, BatchNorm, Conv2d, Dense, Flatten, LayerNorm,
                 MaxPool2d, Model)
from .tensor import Rng


def _check(ok, what: str):
    """A field check: check(value, dotted path) raises a ConfigError naming
    the path unless ok(value)."""
    def check(value, path):
        if not ok(value):
            raise ConfigError(f"{path} must be {what}, got {value!r}")
    return check


def _is_int(value, low) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= low


def _integer(low: int = 1):
    return _check(lambda v: _is_int(v, low), f"an integer >= {low}")


def _pair(low: int = 1):
    return _check(lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                  and all(_is_int(i, low) for i in v), f"a pair of integers >= {low}")


def _real(bound: str = "", within=lambda x: True):
    return _check(lambda v: isinstance(v, Real) and not isinstance(v, bool)
                  and abs(v) <= sys.float_info.max and within(v), f"a finite number{bound}")


def _choice(*options: str):
    return _check(lambda v: isinstance(v, str) and v in options, f"one of {list(options)}")


_COUNT, _FINITE = _integer(), _real()
_FLAG = _check(lambda v: isinstance(v, bool), "true or false")
_FILE = _check(lambda v: isinstance(v, str) and Path(v).is_file(), "an existing file")
_POSITIVE = _real(" > 0", lambda x: x > 0)
_NONNEGATIVE = _real(" >= 0", lambda x: x >= 0)
_BELOW_ONE = _real(" in [0, 1)", lambda x: 0 <= x < 1)

# Keys that moved elsewhere, with where to set them now.
_MOVED = {"ablations.sqrt_divisor": "use optimizer.sqrt_divisor",
          "ablations.ema_off": "use kf.gamma: 1"}


def _walk(value, required: dict, optional: dict, path: str, tag: str | None = None):
    """Check a JSON object's keys and values against a table (tag: a union's key)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config root'} must be a JSON object, got {value!r}")
    prefix = f"{path}." if path else ""
    for key in value:
        if key not in required and key not in optional and key != tag:
            expected = f"expected one of {sorted([*required, *optional])}"
            raise ConfigError(f"unknown key {prefix}{key}: {_MOVED.get(prefix + key, expected)}")
    for table in (required, optional):
        for key, check in table.items():
            if key in value:
                check(value[key], prefix + key)
            elif table is required:
                raise ConfigError(f"missing key {prefix}{key}")


def _block(required: dict, optional: dict | None = None):
    return lambda value, path: _walk(value, required, optional or {}, path)


def _union(tag: str, tables: dict, fold=lambda name: name):
    """A JSON object whose tag field picks its (required, optional) table."""
    def check(value, path):
        if not isinstance(value, dict) or tag not in value:
            raise ConfigError(f"{path} must be a JSON object with a {tag!r}, got {value!r}")
        name = value[tag]
        if not isinstance(name, str) or fold(name) not in tables:
            raise ConfigError(f"{path}.{tag} must be one of {sorted(tables)}, got {name!r}")
        _walk(value, *tables[fold(name)], path, tag)
    return check


def _nonempty_list(item):
    def check(value, path):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path} must be a non-empty list, got {value!r}")
        for i, entry in enumerate(value):
            item(entry, f"{path}[{i}]")
    return check


# kind: (layer class, required fields in argument order, optional keywords)
_LAYERS = {
    "dense": (Dense, {"in": _COUNT, "out": _COUNT}, {"bias": _FLAG}),
    "conv2d": (Conv2d, {"in": _COUNT, "out": _COUNT, "kernel": _pair()},
               {"stride": _pair(), "pad": _pair(0), "bias": _FLAG}),
    "batchnorm": (BatchNorm, {"dim": _COUNT},
                  {"eps": _NONNEGATIVE, "momentum": _real(" in [0, 1]", lambda x: 0 <= x <= 1)}),
    "layernorm": (LayerNorm, {"dim": _COUNT}, {"eps": _NONNEGATIVE}),
    **{name: (partial(Activation, name), {}, {}) for name in Activation.SUPPORTED},
    "flatten": (Flatten, {}, {}),
    "maxpool": (MaxPool2d, {"kernel": _pair()}, {"stride": _pair()}),
}
_MODEL = _block({"layers": _nonempty_list(_union(
    "kind", {kind: tables for kind, (_, *tables) in _LAYERS.items()}))},
    {"loss": _choice("cross_entropy", "mse")})

_CSV_SCHEMA = _block({}, {"has_header": _FLAG,
                          "label_col": _check(lambda v: _is_int(v, float("-inf")), "an integer")})
_SOURCE = {"limit": _COUNT}  # fields every source takes
_SYNTHETIC = {**_SOURCE, "seed": _integer(0)}
_DATASET = _union("source", {
    "idx": ({"images": _FILE, "labels": _FILE}, _SOURCE),
    "csv": ({"path": _FILE}, {**_SOURCE, "schema": _CSV_SCHEMA}),
    "blobs": ({"n": _COUNT}, {**_SYNTHETIC, "classes": _COUNT, "dim": _COUNT,
                              "sep": _FINITE, "noise": _FINITE}),
    "moons": ({"n": _COUNT}, {**_SYNTHETIC, "noise": _FINITE}),
    "quadratic": ({"n": _COUNT}, {**_SYNTHETIC, "dim": _COUNT, "out_dim": _COUNT,
                                  "scale": _FINITE}),
})

# Hyperparameters per optimizer name (optim.build_optimizer's names, any case).
_ADAFISHER = {"alpha": _POSITIVE, "beta": _BELOW_ONE, "sqrt_divisor": _FLAG}
_ADAM = {"alpha": _POSITIVE, "beta1": _BELOW_ONE, "beta2": _BELOW_ONE, "eps": _POSITIVE,
         "weight_decay": _NONNEGATIVE}
_OPTIMIZER = _union("name", {
    "adafisher": ({}, _ADAFISHER),
    "adafisherw": ({}, {**_ADAFISHER, "kappa": _NONNEGATIVE}),
    "adam": ({}, _ADAM),
    "adamw": ({}, _ADAM),
    "sgd": ({}, {"alpha": _POSITIVE, "momentum": _BELOW_ONE}),
}, fold=str.lower)

_TOP = _block({"model": _MODEL, "dataset": _DATASET, "optimizer": _OPTIMIZER}, {
    "kf": _block({}, {"gamma": _real(" in (0, 1]", lambda x: 0 < x <= 1),
                      "lambda": _POSITIVE}),
    "schedule": _block({}, {"type": _choice("constant", "step", "cosine"),
                            "step_size": _COUNT, "factor": _POSITIVE}),
    "ablations": _block({}, {"norm_fisher_off": _FLAG}),
    "epochs": _COUNT, "batch_size": _COUNT, "seed": _integer(0), "workers": _COUNT,
    "out_dir": _check(lambda v: isinstance(v, str), "a string"), "track_first_layer": _FLAG,
})


def _param_count(spec: dict) -> int:
    """Parameter values the checked layer spec builds, in Python ints (no
    overflow): a Kronecker layer's W (out x in x kernel) and bias, a norm's
    scale and shift."""
    if spec["kind"] in ("dense", "conv2d"):
        fan_in = spec["in"] * math.prod(spec.get("kernel", ()))
        return spec["out"] * (fan_in + spec.get("bias", True))
    if spec["kind"] in ("batchnorm", "layernorm"):
        return 2 * spec["dim"]
    return 0


@dataclass
class RunConfig:
    model: dict
    dataset: dict
    optimizer: dict
    kf: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    epochs: int = 1
    batch_size: int = 32
    seed: int = 0
    workers: int = 1
    ablations: dict = field(default_factory=dict)
    out_dir: str = "runs"
    track_first_layer: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _TOP(raw, "")
        cfg = cls(**raw)
        params = sum(map(_param_count, cfg.model["layers"]))
        if params > MAX_SYNTH_VALUES:
            raise SizeError(f"model has {params} parameter values, over the guard "
                            f"of {MAX_SYNTH_VALUES}")
        if cfg.batch_size % cfg.workers:
            raise ConfigError(f"workers {cfg.workers} do not divide batch_size {cfg.batch_size}")
        shard = cfg.batch_size // cfg.workers
        if shard < 2 and any(spec["kind"] == "batchnorm" for spec in cfg.model["layers"]):
            raise ConfigError(f"batchnorm needs >= 2 samples per worker, got batch_size "
                              f"{cfg.batch_size} over {cfg.workers} workers")
        return cfg

    @classmethod
    def from_json(cls, path, **overrides) -> "RunConfig":
        """Read a JSON config; overrides not None (CLI flags) replace fields before the check."""
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if isinstance(raw, dict):
            raw.update((key, value) for key, value in overrides.items() if value is not None)
        return cls.from_dict(raw)


def build_model(model_spec: dict, rng: Rng) -> Model:
    """Build and initialize the model of a checked model block."""
    layers = []
    for spec in model_spec["layers"]:
        cls, required, optional = _LAYERS[spec["kind"]]
        layers.append(cls(*(spec[key] for key in required),
                          **{key: spec[key] for key in optional if key in spec}))
    # the block's other fields (loss) are Model keywords
    return Model(layers, **{k: v for k, v in model_spec.items() if k != "layers"}).init(rng)


def resolve_dataset(dataset_spec: dict, seed: int):
    """(x, y) from a checked dataset block; seed is the run's. x is a float64
    array, or the `Images` set of an IDX source, which reads as one."""
    spec = dict(dataset_spec)
    source, limit = spec.pop("source"), spec.pop("limit", None)
    if source == "idx":
        x, y = load_idx(spec["images"], expect="images"), load_idx(spec["labels"], expect="labels")
    elif source == "csv":
        x, y = load_csv(spec["path"], spec.get("schema"))
    else:
        x, y = synth_dataset(source, spec.pop("n"), seed=spec.pop("seed", seed), **spec)
    if len(x) != len(y):
        raise DataError(f"{len(x)} inputs but {len(y)} labels")
    if limit is not None:  # copies of the first rows, so the rest is freed; an IDX
        # source's stay at one byte per pixel (Images.head)
        x, y = x.head(limit) if isinstance(x, Images) else x[:limit].copy(), y[:limit].copy()
    return x, y
