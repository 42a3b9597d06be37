"""Benchmark workloads: seeded inputs and the configs the program receives.

Every input is generated from the workload seed. The program sees only the
generated files and config dicts; it is driven through its public entry
points (``RunConfig``/``run_training`` and ``adafisher.cli.main``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from adafisher.datasets import write_idx

MLP_LAYERS = [
    {"kind": "dense", "in": 50, "out": 256}, {"kind": "relu"},
    {"kind": "dense", "in": 256, "out": 128}, {"kind": "relu"},
    {"kind": "dense", "in": 128, "out": 10},
]
MLP_DATA = {"source": "blobs", "n": 5000, "dim": 50, "classes": 10,
            "sep": 2.5, "noise": 3.0}

CNN_LAYERS = [
    {"kind": "conv2d", "in": 1, "out": 8, "kernel": [3, 3], "pad": [1, 1]},
    {"kind": "relu"},
    {"kind": "batchnorm", "dim": 8},
    {"kind": "maxpool", "kernel": [2, 2]},
    {"kind": "conv2d", "in": 8, "out": 16, "kernel": [3, 3], "pad": [1, 1]},
    {"kind": "relu"},
    {"kind": "maxpool", "kernel": [2, 2]},
    {"kind": "flatten"},
    {"kind": "dense", "in": 784, "out": 10},
]
CNN_IMAGES = 1280  # 1024 train / 256 eval: 16 steps of batch 64 per epoch
SNAPSHOT_BLOCK = 8  # the diagnose snapshot is an 8x8 (x) 8x8 = 64x64 SPD matrix
SNAPSHOT_SEED = 64


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "verify"
    setup_probes: int  # extra set-up-only calls per loop iteration
    kernels: tuple[str, str]  # calibration kernels of the op and the baseline op
    model: str = "mlp"
    workers: int = 1
    batch_size: int = 128
    epochs: int = 1
    alpha: float = 1e-3


# Why each workload exists is written down in README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("mlp", "train", 1, ("dense", "dense"), epochs=2),
        Workload("mlp_k4", "train", 1, ("dense", "dense"), workers=4, epochs=2),
        # alpha 1e-4: at the default 1e-3, AdaFisher's final loss on this CNN
        # ranged up to 201 over seeds 0-19, too erratic for a loss reference.
        Workload("cnn", "train", 4, ("conv", "conv"), model="cnn", batch_size=64,
                 alpha=1e-4),
        Workload("verify", "verify", 2, ("batch1", "jacobi"), model="cnn",
                 batch_size=64),
    )
}


def write_cnn_images(seed: int, work: Path) -> dict:
    """Seeded class-structured 28x28 uint8 images as IDX files.

    Each class is a sum of two Gaussian bumps at seeded positions; images are
    200 * template + N(0, 40^2) noise, clipped to [0, 255].
    """
    rng = np.random.default_rng([seed, 28])
    grid = np.arange(28.0)
    templates = np.zeros((10, 28, 28))
    for c in range(10):
        for _ in range(2):
            cy, cx = rng.uniform(5.0, 23.0, 2)
            sy, sx = rng.uniform(2.0, 5.0, 2)
            templates[c] += np.exp(-((grid[:, None] - cy) ** 2 / (2 * sy**2)
                                     + (grid[None, :] - cx) ** 2 / (2 * sx**2)))
    labels = rng.integers(0, 10, CNN_IMAGES)
    noise = rng.normal(0.0, 40.0, (CNN_IMAGES, 28, 28))
    images = np.clip(200.0 * templates[labels] + noise, 0, 255).astype(np.uint8)
    work.mkdir(parents=True, exist_ok=True)
    write_idx(work / "images.idx", images, "images")
    write_idx(work / "labels.idx", labels, "labels")
    return {"source": "idx", "images": str(work / "images.idx"),
            "labels": str(work / "labels.idx")}


def write_snapshot(seed: int, work: Path) -> Path:
    """Seeded Kronecker-structured SPD matrix D (P (x) Q) D, built with numpy only.

    P and Q are fixed 8x8 SPD matrices; the seed draws the signs of the
    diagonal D. The sign similarity mirrors every Jacobi rotation exactly, so
    the eigensolver does the same work for every seed. With P and Q drawn
    from the seed instead, cyclic Jacobi needed 8 or 9 sweeps depending on
    the seed, which moved diagnose time by 12% between seeds.
    """
    rng = np.random.default_rng(SNAPSHOT_SEED)
    blocks = []
    for _ in range(2):
        g = rng.normal(size=(SNAPSHOT_BLOCK, SNAPSHOT_BLOCK))
        spd = g @ g.T / SNAPSHOT_BLOCK + 0.5 * np.eye(SNAPSHOT_BLOCK)
        blocks.append((spd + spd.T) / 2.0)  # exactly symmetric
    signs = np.random.default_rng([seed, 64]).choice([-1.0, 1.0], size=SNAPSHOT_BLOCK**2)
    path = work / "snapshot.npy"
    np.save(path, np.kron(*blocks) * np.outer(signs, signs))
    return path


def train_configs(w: Workload, seed: int, work: Path) -> tuple[dict, dict]:
    """Raw config dicts of the AdaFisher run and its Adam baseline."""
    if w.model == "cnn":
        layers, data = CNN_LAYERS, write_cnn_images(seed, work / "data")
    else:
        layers, data = MLP_LAYERS, MLP_DATA
    base = {"model": {"layers": layers}, "dataset": data, "epochs": w.epochs,
            "batch_size": w.batch_size, "seed": seed, "workers": w.workers}
    return ({**base, "optimizer": {"name": "adafisher", "alpha": w.alpha}},
            {**base, "optimizer": {"name": "adam"}})


def verify_commands(w: Workload, seed: int, work: Path) -> tuple[list[str], list[str]]:
    """argv lists of the oracle and the diagnose commands."""
    data = write_cnn_images(seed, work / "data")
    config = work / "oracle.json"
    config.write_text(json.dumps({
        "model": {"layers": CNN_LAYERS}, "dataset": data,
        "optimizer": {"name": "adafisher"}, "batch_size": w.batch_size,
        "seed": seed}))
    snapshot = write_snapshot(seed, work)
    return (["oracle", "--config", str(config), "--mode", "exact",
             "--out", str(work / "oracle")],
            ["diagnose", "--snapshot", str(snapshot), "--analysis", "gershgorin",
             "--out", str(work / "diagnose")])


# Seconds each calibration kernel takes on the reference machine (the 2-vCPU
# KVM guest described in README.md, in its fast state).
KERNEL_REF_S = {"dense": 0.0040, "conv": 0.022, "batch1": 0.0028, "jacobi": 0.0027}


def calibration_kernel(kind: str):
    """A fixed numpy workload, independent of the package, whose operation
    mix resembles one kind of benchmark operation, so that its timing tracks
    how fast the shared machine runs that kind of work right now. Returns a
    callable that times it."""
    rng = np.random.default_rng(20240527)
    if kind == "dense":  # small matmuls and interpreter work, as in an MLP step
        x = rng.normal(size=(128, 50))
        w1 = rng.normal(size=(256, 50))
        w2 = rng.normal(size=(128, 256))

        def work():
            for _ in range(7):
                h = np.maximum(x @ w1.T, 0.0)
                g = np.maximum(h @ w2.T, 0.0)
                cols = {i: g[:, i].sum() for i in range(0, 128, 8)}
                (g.T @ h).sum() + sum(cols.values())
    elif kind == "conv":  # batched einsum and strided scatter-add, as in a CNN step
        w = rng.normal(size=(16, 72))
        patches = rng.normal(size=(16, 72, 196))

        def work():
            for _ in range(4):
                a = np.einsum("ok,mkt->mot", w, patches)
                b = np.einsum("ok,mot->mkt", w, a)
                img = np.zeros((16, 8, 16, 16))
                img[:, :, 1:15, 1:15] += b[:, :8, :].reshape(16, 8, 14, 14)
    elif kind == "batch1":  # many tiny calls at batch size 1, as in the oracle
        x = rng.normal(size=(1, 8, 14, 14))
        w = rng.normal(size=(16, 72))

        def work():
            for _ in range(14):
                xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
                cols = np.empty((1, 8, 3, 3, 14, 14))
                for i in range(3):
                    for j in range(3):
                        cols[:, :, i, j] = xp[:, :, i:i + 14, j:j + 14]
                a = np.einsum("ok,mkt->mot", w, cols.reshape(1, 72, 196))
                np.einsum("ok,mot->mkt", w, a)
                {k: float(a[0, k].sum()) for k in range(16)}
    else:  # "jacobi": 64x64 rotation products, as in the Jacobi eigensolver
        g = rng.normal(size=(64, 64))
        spd = g @ g.T

        def work():
            a, v = spd.copy(), np.eye(64)
            for p in range(0, 56, 6):
                for q in range(p + 1, p + 9):
                    rot = np.eye(64)
                    rot[p, p] = rot[q, q] = 0.8
                    rot[p, q], rot[q, p] = 0.6, -0.6
                    a = rot.T @ a @ rot
                    v = v @ rot

    def timed() -> float:
        # median of three short repetitions, so a millisecond-long stall of
        # the machine does not pass for a change of its speed
        times = []
        for _ in range(3):
            start = time.perf_counter()
            work()
            times.append(time.perf_counter() - start)
        return sorted(times)[1]

    return timed
