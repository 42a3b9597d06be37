"""Data ingestion: IDX (MNIST-format) files, labeled CSV tables and
deterministic synthetic generators for desk-scale runs.

IDX images stay resident at one byte per pixel: `load_idx` returns an
`Images` set over the file's uint8 bytes (`Images.head`, a dataset limit's
first rows, is one too), and each read of it (a batch's rows, the eval rows,
`np.asarray`) scales just the rows it gathers to float64; a float32 model's
forward rounds them. No other module knows the encoding."""

from __future__ import annotations

import math
import struct
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (DataError, FormatError, InputError, SizeError, check_count, check_flag,
                     check_number)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
MAX_SYNTH_VALUES = 10**7  # desk-scale guard on a synthetic dataset's size
EVAL_FRAC = 0.2  # share of the rows train_eval_split holds out for evaluation


class Images:
    """Read-only (N, 1, H, W) IDX images kept as the file's uint8 pixels.

    Indexing (`x[rows]`, `x[a:b]`), `np.asarray(x)` and `np.array(x)` return a
    new float64 array scaled to [0, 1] by `astype(np.float64)` and then
    `/ 255.0`, so a read holds the bits that scaling the whole file at load
    time would. Since no read shares the pixels, `copy=False` is an InputError."""

    def __init__(self, pixels: np.ndarray):
        self._pixels = pixels

    @property
    def shape(self) -> tuple:
        return self._pixels.shape

    def __len__(self) -> int:
        return len(self._pixels)

    def __getitem__(self, key):
        out = self._pixels[key].astype(np.float64)
        out /= 255.0  # in place: one float64 array per read, not two
        return out

    def __array__(self, dtype=None, copy=None):  # numpy casts to a requested dtype
        if copy is False:  # numpy's protocol asks for a ValueError
            raise InputError("Images cannot be read without a copy: reads scale into new arrays")
        return self[...]

    def head(self, n: int) -> "Images":
        """The first n images, still at one byte per pixel. Under half the set
        they are a copy, so the rest can be freed; otherwise a view, which
        keeps under twice their bytes resident and makes no second copy."""
        pixels = self._pixels[:n]
        return Images(pixels.copy() if 2 * len(pixels) < len(self) else pixels)


def load_idx(path, expect: str):
    """Parse an IDX file; expect is 'images' or 'labels'.

    Images come back as an (N, 1, H, W) `Images` set that reads as float64
    scaled to [0, 1]; labels as (N,) int64.
    """
    if expect not in ("images", "labels"):
        raise InputError("expect must be 'images' or 'labels'")
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated header")
    (magic,) = struct.unpack(">I", raw[:4])
    wanted = IDX_IMAGES_MAGIC if expect == "images" else IDX_LABELS_MAGIC
    if magic != wanted:
        raise FormatError(f"{path}: magic 0x{magic:08x}, expected 0x{wanted:08x}")
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise FormatError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    count = math.prod(dims)  # a Python int: np.prod would wrap around in int64
    if len(raw) - header_len != count:
        raise FormatError(f"{path}: expected {count} data bytes, "
                          f"found {len(raw) - header_len}")
    data = np.frombuffer(raw, np.uint8, offset=header_len)  # a view of the file bytes
    if expect == "images":
        n, h, w = dims
        return Images(data.reshape(n, 1, h, w))
    return data.astype(np.int64)


def write_idx(path, array, kind: str) -> None:
    """Serialize images (N, H, W uint8) or labels (N,) to IDX bytes."""
    arr = np.asarray(array)
    if kind == "images":
        if arr.ndim != 3:
            raise InputError("images must be (N, H, W)")
        header = struct.pack(">IIII", IDX_IMAGES_MAGIC, *arr.shape)
    elif kind == "labels":
        if arr.ndim != 1:
            raise InputError("labels must be 1-D")
        header = struct.pack(">II", IDX_LABELS_MAGIC, arr.shape[0])
    else:
        raise InputError("kind must be 'images' or 'labels'")
    Path(path).write_bytes(header + arr.astype(np.uint8).tobytes())


def load_csv(path, schema: dict | None = None):
    """Numeric feature columns plus an integer label column, whose cells must
    be int64 values (2 or 2.0; 1.7, nan, inf or 1e30 is a DataError).

    Schema keys: has_header (bool, default False), label_col (int, default -1);
    a schema that is not a dict (or None), or a value of another type, is a
    DataError.
    """
    if schema is not None and not isinstance(schema, dict):
        raise DataError(f"schema must be a dict, got {schema!r}")
    schema = dict(schema or {})
    has_header = check_flag("has_header", schema.pop("has_header", False), DataError)
    label_col = check_count("label_col", schema.pop("label_col", -1), None, DataError)
    if schema:
        raise DataError(f"unknown schema keys: {sorted(schema)}")
    lines = Path(path).read_text().strip().splitlines()
    if has_header:
        lines = lines[1:]
    if not lines:
        raise DataError(f"{path}: no data rows")
    features, labels, width = [], [], lines[0].count(",") + 1
    for r, line in enumerate(lines):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != width:
            raise DataError(f"{path}: row {r} has {len(cells)} cells, row 0 has {width}")
        lc = label_col if label_col >= 0 else len(cells) + label_col
        if lc < 0 or lc >= len(cells):
            raise DataError(f"{path}: label column {label_col} out of range at row {r}")
        row = []
        for c, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}: non-numeric cell at row {r}, column {c}") from None
            if c != lc:
                row.append(value)
            elif value.is_integer() and abs(value) < 2**63:  # 2.0 is class 2; 1.7 no class
                label = int(value)
            else:
                raise DataError(f"{path}: label {cell!r} at row {r}, column {c} is not an int64")
        features.append(row)
        labels.append(label)
    return np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64)


_count = partial(check_count, error=InputError)
_finite = partial(check_number, error=InputError)


def synth_dataset(kind: str, n: int, seed: int, **kw):
    """Deterministic synthetic datasets: blobs, moons or quadratic pairs. n and
    the sizes are integers >= 1, seed an integer >= 0 and the other options
    finite numbers; otherwise InputError."""
    _count("n", n), _count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    if kind == "blobs":
        classes = int(_count("classes", kw.pop("classes", 2)))
        dim = int(_count("dim", kw.pop("dim", 2)))
        sep = float(_finite("sep", kw.pop("sep", 6.0)))
        noise = float(_finite("noise", kw.pop("noise", 1.0)))
        _check_options(kw, n * (dim + 1) + classes * dim)
        centers = rng.standard_normal((classes, dim)) * sep
        labels = rng.integers(0, classes, size=n)
        x = centers[labels] + rng.standard_normal((n, dim)) * noise
        return x, labels
    if kind == "moons":
        noise = float(_finite("noise", kw.pop("noise", 0.1)))
        _check_options(kw, n * 3)
        half = n // 2
        t1 = rng.uniform(0, np.pi, half)
        t2 = rng.uniform(0, np.pi, n - half)
        x1 = np.stack([np.cos(t1), np.sin(t1)], axis=1)
        x2 = np.stack([1.0 - np.cos(t2), 0.5 - np.sin(t2)], axis=1)
        x = np.vstack([x1, x2]) + rng.standard_normal((n, 2)) * noise
        y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(n - half, dtype=np.int64)])
        return x, y
    if kind == "quadratic":
        dim = int(_count("dim", kw.pop("dim", 20)))
        out_dim = int(_count("out_dim", kw.pop("out_dim", dim)))
        scale = float(_finite("scale", kw.pop("scale", 1.0)))
        _check_options(kw, n * (dim + out_dim) + out_dim * dim)
        a = rng.standard_normal((out_dim, dim)) * scale
        x = rng.standard_normal((n, dim))
        y = x @ a.T
        return x, y
    raise InputError(f"unknown synthetic dataset kind {kind!r}")


def _check_options(kw: dict, values: int) -> None:
    """Before anything is drawn: reject unread options, and more values in the
    dataset and its generator's centers or map than MAX_SYNTH_VALUES."""
    if kw:
        raise InputError(f"unknown dataset options: {sorted(kw)}")
    if values > MAX_SYNTH_VALUES:
        raise SizeError(f"synthetic dataset of {values} values exceeds the guard "
                        f"of {MAX_SYNTH_VALUES}")


def train_eval_split(n: int, seed: int):
    """Deterministic 80/20 split of the row numbers 0..n-1 by seeded shuffle:
    (training rows, eval rows). n and seed must be integers >= 0 (an
    InputError otherwise), and n >= 2 (a DataError: no eval split)."""
    check_count("n", n, 0, InputError)
    check_count("seed", seed, 0, InputError)
    if n < 2:
        raise DataError(f"need at least 2 samples for a training and an eval split; got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_eval = max(1, int(round(n * EVAL_FRAC)))
    return perm[n_eval:], perm[:n_eval]
