"""Run configuration: one schema table per config block, checked once.

Each rule has one owner. This module owns the keys: RunConfig.from_dict walks a
raw config against the tables (unknown and missing keys, named by dotted path),
and RunConfig's builders map them to constructor keywords. The constructors own
the values of the optimizer block (AdaFisher's gamma, lambda and
norm_fisher_off too) and the schedule block: from_dict builds each once, so a
value they reject is a ConfigError naming the block and the field. The tables
check layer and dataset values with errors' checkers, so a bad one is a
ConfigError naming its dotted path. The layers own their sizes: each refuses
its own oversize, and build_model stops at the layer whose running count passes
MAX_SYNTH_VALUES (a SizeError), before any weight is drawn. An absent optional
field is left out, so its constructor's default applies. The rules a training
step applies are the step's alone, and a config that breaks one fails in its
run's first step, before the run writes anything (see training): workers must
divide batch_size (nn.check_workers), each BatchNorm shard needs 2 rows
(BatchNorm.forward), a layer must take its input's shape, and the labels must
lie within the outputs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .datasets import MAX_SYNTH_VALUES, Images, load_csv, load_idx, synth_dataset
from .errors import (ConfigError, DataError, SizeError, check_count, check_flag, check_number,
                     check_pair)
from .nn import (Activation, BatchNorm, Conv2d, Dense, Flatten, LayerNorm,
                 MaxPool2d, Model, check_eps, check_momentum)
from .optim import Optimizer, Schedule, build_optimizer


def _check(ok, what: str):
    """A field check: check(dotted path, value) raises a ConfigError naming
    the path unless ok(value)."""
    def check(path, value):
        if not ok(value):
            raise ConfigError(f"{path} must be {what}, got {value!r}")
    return check


def _choice(*options: str):
    return _check(lambda v: isinstance(v, str) and v in options, f"one of {list(options)}")


_FILE = _check(lambda v: isinstance(v, str) and Path(v).is_file(), "an existing file")

# Blocks that moved elsewhere, with where to set their keys now.
_MOVED = {"kf": "use optimizer.gamma and optimizer.lambda of adafisher or adafisherw",
          "ablations": "use optimizer.norm_fisher_off, optimizer.sqrt_divisor or "
                       "optimizer.gamma: 1 (EMA off) of adafisher or adafisherw"}
# Config keys that are not their constructor's keyword.
_KEYWORDS = {"lambda": "lam", "type": "kind"}


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
            if key in value and check:  # None: the block's constructor checks it
                check(prefix + key, value[key])
            elif key not in value and table is required:
                raise ConfigError(f"missing key {prefix}{key}")


def _block(required: dict, optional: dict | None = None):
    return lambda path, value: _walk(value, required, optional or {}, path)


def _union(tag: str, tables: dict, fold=lambda name: name):
    """A JSON object whose tag field picks its (required, optional) table."""
    def check(path, value):
        if not isinstance(value, dict) or tag not in value:
            raise ConfigError(f"{path} must be a JSON object with a {tag!r}, got {value!r}")
        name = value[tag]
        if not isinstance(name, str) or fold(name) not in tables:
            raise ConfigError(f"{path}.{tag} must be one of {sorted(tables)}, got {name!r}")
        _walk(value, *tables[fold(name)], path, tag)
    return check


def _nonempty_list(item):
    def check(path, value):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path} must be a non-empty list, got {value!r}")
        for i, entry in enumerate(value):
            item(f"{path}[{i}]", entry)
    return check


# kind: (layer class, required fields in argument order, optional keywords)
_LAYERS = {
    "dense": (Dense, {"in": check_count, "out": check_count}, {"bias": check_flag}),
    "conv2d": (Conv2d, {"in": check_count, "out": check_count, "kernel": check_pair},
               {"stride": check_pair, "pad": partial(check_pair, least=0), "bias": check_flag}),
    "batchnorm": (BatchNorm, {"dim": check_count},
                  {"eps": check_eps, "momentum": check_momentum}),
    "layernorm": (LayerNorm, {"dim": check_count}, {"eps": check_eps}),
    **{name: (partial(Activation, name), {}, {}) for name in Activation.SUPPORTED},
    "flatten": (Flatten, {}, {}),
    "maxpool": (MaxPool2d, {"kernel": check_pair}, {"stride": check_pair}),
}
_MODEL = _block({"layers": _nonempty_list(_union(
    "kind", {kind: tables for kind, (_, *tables) in _LAYERS.items()}))},
    {"loss": _choice("cross_entropy", "mse")})

_CSV_SCHEMA = _block({}, {"has_header": check_flag,
                          "label_col": partial(check_count, least=None)})
_SOURCE = {"limit": check_count}  # fields every source takes
_SYNTHETIC = {**_SOURCE, "seed": partial(check_count, least=0)}
_DATASET = _union("source", {
    "idx": ({"images": _FILE, "labels": _FILE}, _SOURCE),
    "csv": ({"path": _FILE}, {**_SOURCE, "schema": _CSV_SCHEMA}),
    "blobs": ({"n": check_count}, {**_SYNTHETIC, "classes": check_count, "dim": check_count,
                                   "sep": check_number, "noise": check_number}),
    "moons": ({"n": check_count}, {**_SYNTHETIC, "noise": check_number}),
    "quadratic": ({"n": check_count}, {**_SYNTHETIC, "dim": check_count,
                                       "out_dim": check_count, "scale": check_number}),
})

# Hyperparameter keys per optimizer name (optim.build_optimizer's names, any case).
_ADAFISHER = dict.fromkeys(("alpha", "beta", "sqrt_divisor", "gamma", "lambda",
                            "norm_fisher_off"))
_ADAM = dict.fromkeys(("alpha", "beta1", "beta2", "eps", "weight_decay"))
_OPTIMIZER = _union("name", {
    "adafisher": ({}, _ADAFISHER),
    "adafisherw": ({}, {**_ADAFISHER, "kappa": None}),
    "adam": ({}, _ADAM),
    "adamw": ({}, _ADAM),
    "sgd": ({}, dict.fromkeys(("alpha", "momentum"))),
}, fold=str.lower)

_TOP = _block({"model": _MODEL, "dataset": _DATASET, "optimizer": _OPTIMIZER}, {
    # type is the block's tag, so the schema knows its choices
    "schedule": _block({}, {"type": _choice("constant", "step", "cosine"),
                            "step_size": None, "factor": None}),
    # epochs is also Schedule's total_epochs, a float: so it must fit one
    "epochs": lambda path, value: check_number(path, check_count(path, value)),
    "batch_size": check_count, "seed": partial(check_count, least=0),
    "workers": check_count, "out_dir": _check(lambda v: isinstance(v, str), "a string"),
    "track_first_layer": check_flag,
})


def _keywords(block: dict) -> dict:
    """A checked config block as constructor keywords."""
    return {_KEYWORDS.get(key, key): value for key, value in block.items()}


@dataclass
class RunConfig:
    model: dict
    dataset: dict
    optimizer: dict
    schedule: dict = field(default_factory=dict)
    epochs: int = 1
    batch_size: int = 32
    seed: int = 0
    workers: int = 1
    out_dir: str = "runs"
    track_first_layer: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _TOP("", raw)
        cfg = cls(**raw)
        cfg.build_optimizer()  # its ConfigError names it: "optimizer 'adam': beta1 must be ..."
        try:
            cfg.build_schedule()
        except ConfigError as exc:
            raise ConfigError(f"schedule.{exc}") from None
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

    def build_optimizer(self) -> Optimizer:
        """The optimizer block's optimizer, by name."""
        hyper = _keywords(self.optimizer)
        return build_optimizer(hyper.pop("name"), hyper)

    def build_schedule(self) -> Schedule:
        """The schedule block's Schedule over the run's epochs."""
        return Schedule(total_epochs=self.epochs, **_keywords(self.schedule))


def build_model(model_spec: dict, rng: np.random.Generator) -> Model:
    """Build the model of a checked model block, initialized from rng."""
    layers, params = [], 0
    for spec in model_spec["layers"]:
        cls, required, optional = _LAYERS[spec["kind"]]
        layers.append(cls(*(spec[key] for key in required),
                          **{key: spec[key] for key in optional if key in spec}))
        params += sum(arr.size for arr in layers[-1].params.values())
        if params > MAX_SYNTH_VALUES:  # so one layer at most is built past the guard
            raise SizeError(f"model has {params} parameter values in its first "
                            f"{len(layers)} layers, over the guard of {MAX_SYNTH_VALUES}")
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
