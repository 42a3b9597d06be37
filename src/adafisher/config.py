"""Run configuration: strict JSON schema, model building, dataset resolution."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .datasets import load_csv, load_idx, synth_dataset
from .errors import ConfigError
from .nn import (Activation, BatchNorm, Conv2d, Dense, Flatten, LayerNorm,
                 MaxPool2d, Model)
from .tensor import Rng

_TOP_KEYS = {"model", "dataset", "optimizer", "kf", "schedule", "epochs",
             "batch_size", "seed", "workers", "ablations", "out_dir",
             "track_first_layer"}
_OBJECT, _STRING, _BOOLEAN = (dict, "object"), (str, "string"), (bool, "boolean")
_TOP_TYPES = {"model": _OBJECT, "dataset": _OBJECT, "optimizer": _OBJECT, "kf": _OBJECT,
              "schedule": _OBJECT, "ablations": _OBJECT, "out_dir": _STRING,
              "track_first_layer": _BOOLEAN}  # key: (Python type, JSON type name)
_TOP_COUNTS = {"epochs": 1, "batch_size": 1, "workers": 1, "seed": 0}  # key: minimum


def _count(value, what: str, low: int | None = 1) -> int:
    """value if it is an integer (bools excluded) >= low, or any integer when
    low is None; else ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)


def _pair(value, what: str, low: int = 1) -> tuple[int, int]:
    """value as a pair of integers >= low, else ConfigError."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{what} must be a pair of integers >= {low}, got {value!r}")
    return _count(value[0], what, low), _count(value[1], what, low)


def _real(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


@dataclass
class RunConfig:
    model: dict
    dataset: dict
    optimizer: dict
    kf: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=lambda: {"type": "constant"})
    epochs: int = 1
    batch_size: int = 32
    seed: int = 0
    workers: int = 1
    ablations: dict = field(default_factory=dict)
    out_dir: str = "runs"
    track_first_layer: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for required in ("model", "dataset", "optimizer"):
            if required not in raw:
                raise ConfigError(f"missing config key {required!r}")
        for key, (kind, json_name) in _TOP_TYPES.items():
            if key in raw and not isinstance(raw[key], kind):
                raise ConfigError(f"{key} must be a JSON {json_name}, got {raw[key]!r}")
        for key, low in _TOP_COUNTS.items():
            if key in raw:
                _count(raw[key], key, low)
        cfg = cls(**raw)
        if "name" not in cfg.optimizer:
            raise ConfigError("optimizer config needs a 'name'")
        src = cfg.dataset.get("source")
        if src is None:
            raise ConfigError("dataset config needs a 'source'")
        for key in ("images", "labels", "path"):
            p = cfg.dataset.get(key)
            if p is not None and not Path(p).exists():
                raise ConfigError(f"dataset file does not exist: {p}")
        return cfg

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)


def build_model(model_spec: dict, rng: Rng) -> Model:
    spec = dict(model_spec)
    layer_specs = spec.pop("layers", None)
    loss = spec.pop("loss", "cross_entropy")
    if spec:
        raise ConfigError(f"unknown model keys: {sorted(spec)}")
    if not isinstance(layer_specs, list) or not layer_specs:
        raise ConfigError("model needs a non-empty 'layers' list")
    layers = []
    for ls in layer_specs:
        if not isinstance(ls, dict):
            raise ConfigError(f"each layer must be a JSON object, got {ls!r}")
        ls = dict(ls)
        kind = ls.pop("kind", None)
        try:
            if kind == "dense":
                layers.append(Dense(_count(ls.pop("in"), "dense in"),
                                    _count(ls.pop("out"), "dense out"),
                                    bias=_flag(ls.pop("bias", True), "dense bias")))
            elif kind == "conv2d":
                layers.append(Conv2d(_count(ls.pop("in"), "conv2d in"),
                                     _count(ls.pop("out"), "conv2d out"),
                                     _pair(ls.pop("kernel"), "conv2d kernel"),
                                     _pair(ls.pop("stride", (1, 1)), "conv2d stride"),
                                     _pair(ls.pop("pad", (0, 0)), "conv2d pad", low=0),
                                     bias=_flag(ls.pop("bias", True), "conv2d bias")))
            elif kind == "batchnorm":
                layers.append(BatchNorm(_count(ls.pop("dim"), "batchnorm dim"),
                                        eps=_real(ls.pop("eps", 1e-5), "batchnorm eps"),
                                        momentum=_real(ls.pop("momentum", 0.1),
                                                       "batchnorm momentum")))
            elif kind == "layernorm":
                layers.append(LayerNorm(_count(ls.pop("dim"), "layernorm dim"),
                                        eps=_real(ls.pop("eps", 1e-5), "layernorm eps")))
            elif kind == "activation":
                layers.append(Activation(ls.pop("name")))
            elif kind in ("relu", "tanh", "identity"):
                layers.append(Activation(kind))
            elif kind == "flatten":
                layers.append(Flatten())
            elif kind == "maxpool":
                kernel = _pair(ls.pop("kernel"), "maxpool kernel")
                layers.append(MaxPool2d(kernel, _pair(ls.pop("stride", kernel), "maxpool stride")))
            else:
                raise ConfigError(f"unknown layer kind {kind!r}")
        except KeyError as exc:
            raise ConfigError(f"layer {kind!r} missing field {exc}") from exc
        if ls:
            raise ConfigError(f"unknown fields for layer {kind!r}: {sorted(ls)}")
    return Model(layers, loss=loss).init(rng)


# Checks of the synthetic datasets' options (datasets.synth_dataset rejects
# options its kind does not take).
_SYNTH_OPTIONS = {"classes": _count, "dim": _count, "out_dim": _count,
                  "sep": _real, "noise": _real, "scale": _real}


def resolve_dataset(dataset_spec: dict, seed: int):
    """Materialize (x, y) from a dataset config block."""
    spec = dict(dataset_spec)
    source = spec.pop("source")
    limit = spec.pop("limit", None)
    if source == "idx":
        images, labels = spec.pop("images"), spec.pop("labels")
        if spec:
            raise ConfigError(f"unknown dataset keys: {sorted(spec)}")
        x = load_idx(images, expect="images")
        y = load_idx(labels, expect="labels")
    elif source == "csv":
        path, schema = spec.pop("path"), spec.pop("schema", {})
        if spec:
            raise ConfigError(f"unknown dataset keys: {sorted(spec)}")
        if not isinstance(schema, dict):
            raise ConfigError(f"dataset schema must be a JSON object, got {schema!r}")
        if "has_header" in schema:
            _flag(schema["has_header"], "csv has_header")
        if "label_col" in schema:
            _count(schema["label_col"], "csv label_col", low=None)
        x, y = load_csv(path, schema)
    elif source in ("blobs", "moons", "quadratic"):
        n = spec.pop("n", None)
        if n is None:
            raise ConfigError("synthetic dataset needs 'n'")
        seed = _count(spec.pop("seed", seed), "dataset seed", low=0)
        for key, value in spec.items():
            if key in _SYNTH_OPTIONS:
                _SYNTH_OPTIONS[key](value, f"dataset {key}")
        x, y = synth_dataset(source, _count(n, "dataset n"), seed=seed, **spec)
    else:
        raise ConfigError(f"unknown dataset source {source!r}")
    if limit is not None:
        limit = _count(limit, "dataset limit")
        x, y = x[:limit], y[:limit]
    return np.asarray(x, dtype=np.float64), y
