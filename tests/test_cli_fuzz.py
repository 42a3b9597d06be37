"""Derandomized fuzzing of `adafisher train`: one field of a small valid config
replaced by an odd value, or one of its data files corrupted. Every outcome is
a documented exit code; every failure is one stderr line, never a traceback."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
from hypothesis import given, settings, strategies as st

from adafisher.cli import main
from adafisher.datasets import write_idx

FUZZ = settings(derandomize=True, max_examples=50, deadline=None, database=None)
# Small enough that no replaced field makes a valid run allocate much.
VALUES = [None, True, "x", -1, 0, 2, 2.5, math.nan, math.inf, [], {}, [1, 2]]
CSV_CELLS = ["", "x", "nan", "inf", "1e999", "-1", "2.5", "1,2"]


def configs(root: Path) -> dict:
    """One small valid config per data source; the files live under root."""
    common = {"epochs": 1, "batch_size": 4, "seed": 0, "workers": 2,
              "schedule": {"type": "step", "step_size": 1, "factor": 0.5}}
    dense = [{"kind": "dense", "in": 2, "out": 4, "bias": True},
             {"kind": "batchnorm", "dim": 4, "eps": 1e-5, "momentum": 0.1},
             {"kind": "tanh"},
             {"kind": "layernorm", "dim": 4, "eps": 1e-5}, {"kind": "dense", "in": 4, "out": 2}]
    return {
        "idx": {**common, "dataset": {"source": "idx", "images": str(root / "images.idx"),
                                      "labels": str(root / "labels.idx"), "limit": 16},
                "model": {"layers": [
                    {"kind": "conv2d", "in": 1, "out": 2, "kernel": [3, 3], "stride": [1, 1],
                     "pad": [1, 1]}, {"kind": "relu"},
                    {"kind": "maxpool", "kernel": [2, 2], "stride": [2, 2]}, {"kind": "flatten"},
                    {"kind": "dense", "in": 8, "out": 2}], "loss": "cross_entropy"},
                "optimizer": {"name": "adam", "alpha": 0.01, "beta1": 0.9, "beta2": 0.999,
                              "eps": 1e-8, "weight_decay": 0.01}},
        "csv": {**common, "dataset": {"source": "csv", "path": str(root / "data.csv"),
                                      "schema": {"has_header": False, "label_col": -1}},
                "model": {"layers": dense},
                "optimizer": {"name": "adafisherw", "alpha": 0.01, "beta": 0.9, "kappa": 0.01,
                              "sqrt_divisor": True, "gamma": 0.5, "lambda": 0.01,
                              "norm_fisher_off": False}},
        "blobs": {**common, "dataset": {"source": "blobs", "n": 24, "classes": 2, "dim": 2,
                                        "sep": 3.0, "noise": 1.0, "seed": 1},
                  "model": {"layers": dense}, "out_dir": "runs", "track_first_layer": False,
                  "optimizer": {"name": "sgd", "alpha": 0.01, "momentum": 0.9}},
    }


def write_data(root: Path) -> None:
    rng = np.random.default_rng(0)
    write_idx(root / "images.idx", rng.integers(0, 256, (20, 4, 4)), "images")
    write_idx(root / "labels.idx", rng.integers(0, 2, 20), "labels")
    rows = [f"{a:.3f},{b:.3f},{int(a + b > 0)}" for a, b in rng.normal(size=(20, 2))]
    (root / "data.csv").write_text("\n".join(rows) + "\n")


def field_paths(node, path=()):
    """Key/index path of every field and list entry below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from field_paths(child, path + (key,))


FIELDS = [(source, path) for source, raw in configs(Path("data")).items()
          for path in field_paths(raw)]


def train(root: Path, raw: dict) -> None:
    """Run `adafisher train` in-process and check its exit code and stderr."""
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(raw))
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["train", "--config", str(cfg), "--out", str(root / "run")])
    assert code in (0, 2, 3, 4)
    assert len(err.getvalue().splitlines()) == (1 if code else 0), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_base_configs_train():
    with TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_data(root)
        for raw in configs(root).values():
            cfg = root / "cfg.json"
            cfg.write_text(json.dumps(raw))
            with redirect_stdout(io.StringIO()):
                assert main(["train", "--config", str(cfg), "--out", str(root / "run")]) == 0


@FUZZ
@given(field=st.sampled_from(FIELDS), value=st.sampled_from(VALUES))
def test_one_odd_config_field(field, value):
    source, path = field
    with TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_data(root)
        raw = configs(root)[source]
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        train(root, raw)


@FUZZ
@given(name=st.sampled_from(["images.idx", "labels.idx"]), at=st.integers(0, 400),
       truncate=st.booleans(), bit=st.integers(0, 7))
def test_corrupt_idx_file(name, at, truncate, bit):
    with TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_data(root)
        data = bytearray((root / name).read_bytes())
        at %= len(data)
        if truncate:
            del data[at:]
        else:
            data[at] ^= 1 << bit
        (root / name).write_bytes(bytes(data))
        train(root, configs(root)["idx"])


@FUZZ
@given(row=st.integers(0, 19), col=st.integers(0, 2), cell=st.sampled_from(CSV_CELLS))
def test_odd_csv_cell(row, col, cell):
    with TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_data(root)
        lines = (root / "data.csv").read_text().splitlines()
        cells = lines[row].split(",")
        cells[col] = cell
        lines[row] = ",".join(cells)
        (root / "data.csv").write_text("\n".join(lines) + "\n")
        train(root, configs(root)["csv"])
