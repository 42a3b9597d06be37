"""End-to-end acceptance gate.

Each test exercises one of the ten headline guarantees and prints a single
PASS/FAIL line.
"""

import json
import math

import numpy as np
import pytest
from numpy.random import default_rng

from adafisher.diagnostics import fft2, gershgorin, perturb_offdiag, snr
from adafisher.training import train_step
from adafisher.fisher import exact_fisher_diag, mc_fisher_diag
from adafisher.nn import (Activation, BatchNorm, Conv2d, Dense, Flatten,
                          LayerNorm, MaxPool2d, Model, finite_diff_grad, softmax)
from adafisher.optim import AdaFisher
from adafisher.config import RunConfig
from adafisher.datasets import synth_dataset
from adafisher.training import run_training


def report(capsys, num, desc, ok):
    # print outside pytest's capture so the verdicts always show
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_01_gradient_correctness(capsys):
    model = Model([
        Conv2d(2, 4, (3, 3), (1, 1), (1, 1)),
        Activation("relu"),
        BatchNorm(4),
        MaxPool2d((2, 2)),
        Flatten(),
        Dense(16, 12),
        LayerNorm(12),
        Activation("relu"),
        Dense(12, 5),
    ]).init(default_rng(0))
    assert sum(p.size for *_, p in model.parameters()) <= 5000
    rng = default_rng(1)
    x = rng.standard_normal((6, 2, 4, 4))
    y = rng.integers(0, 5, size=6)
    fd = finite_diff_grad(model, x, y, 1e-5)
    _, grads, _ = model.train_batch(x, y)
    assert grads.keys() == fd.keys()
    worst = 0.0
    for key, g in grads.items():
        ref = fd[key]
        worst = max(worst, np.max(np.abs(g - ref)) / max(np.max(np.abs(ref)), 1e-12))
    report(capsys, 1, f"analytic vs central-difference gradients, worst rel err {worst:.2e}",
           worst <= 1e-6)


def test_02_factored_efim_equivalence(capsys):
    rng = default_rng(2)
    lam = 0.001
    worst = 0.0
    for trial in range(200):
        p_in = int(rng.integers(1, 9))
        p_out = int(rng.integers(1, 9))
        h_raw = np.abs(rng.standard_normal((p_in,)))
        s_raw = np.abs(rng.standard_normal((p_out,)))
        divisor = AdaFisher(lam=lam).divisors(Model([Dense(p_in, p_out, bias=False)]),
                                              {(0, "h"): h_raw, (0, "s"): s_raw})[0, "W"]
        g = rng.standard_normal((p_out, p_in))

        def norm(v):
            lo, hi = v.min(), v.max()
            if hi - lo < 1e-12:
                return np.zeros_like(v)
            return (v - lo) / (hi - lo)

        dense = np.diag(np.kron(norm(h_raw), norm(s_raw)) + lam)
        oracle = np.linalg.solve(dense, g.T.ravel()).reshape(p_in, p_out).T
        worst = max(worst, float(np.max(np.abs(g / divisor - oracle))))
    report(capsys, 2, f"200 random blocks vs dense inverse oracle, worst abs err {worst:.2e}",
           worst <= 1e-12)


def test_03_fisher_validity(capsys):
    model = Model([Dense(3, 4, bias=False)]).init(default_rng(3))
    x = default_rng(4).standard_normal((1, 3))
    exact = exact_fisher_diag(model, x)[0, "W"]

    # factored reconstruction: with one sample the activation factor is exact,
    # and the label-averaged squared backprop signal supplies the other factor
    out = model.forward(x)
    p = softmax(out)[0]
    s_sq = np.zeros(4)
    for cls in range(4):
        grad_out = p.copy()[None, :]
        grad_out[0, cls] -= 1.0
        _, factors = model.backward(grad_out)
        s_sq += p[cls] * factors[0, "s"]
    h_diag = factors[0, "h"]
    product = model.layers[0].kronecker_diagonal(h_diag, s_sq)["W"]
    err_exact = float(np.max(np.abs(product - exact)))

    mc = mc_fisher_diag(model, x, n_samples=10_000, rng=default_rng(0))[0, "W"]
    rel_mc = float(np.max(np.abs(mc - exact) / np.maximum(np.abs(exact), 1e-12)))
    report(capsys, 3, f"KF product vs enumeration {err_exact:.2e}; MC@1e4 rel err {rel_mc:.2%}",
           err_exact <= 1e-12 and rel_mc <= 0.05)


def test_04_convex_convergence(capsys):
    x, y = synth_dataset("quadratic", 256, seed=5, dim=20, out_dim=1, scale=0.5)
    model = Model([Dense(20, 1, bias=False)], loss="mse").init(default_rng(6))
    opt = AdaFisher(alpha=0.0001, beta=0.9)
    losses = []
    hit = None
    for step in range(5000):
        losses.append(train_step(model, x, y, opt))
        if losses[-1] < 1e-6:
            hit = step + 1
            break
    monotone = all(b <= a + 1e-12 for a, b in zip(losses[10:], losses[11:]))
    report(capsys, 4, f"quadratic reaches loss<1e-6 at step {hit}, monotone after 10: {monotone}",
           hit is not None and monotone)


def _comparative_config(optimizer, seed, tmp_path):
    raw = {
        "model": {"layers": [
            {"kind": "dense", "in": 50, "out": 256}, {"kind": "relu"},
            {"kind": "dense", "in": 256, "out": 128}, {"kind": "relu"},
            {"kind": "dense", "in": 128, "out": 10},
        ]},
        "dataset": {"source": "blobs", "n": 5000, "classes": 10, "dim": 50,
                    "sep": 2.5, "noise": 3.0, "seed": 777},
        "optimizer": optimizer,
        "epochs": 20,
        "batch_size": 128,
        "seed": seed,
    }
    cfg = RunConfig.from_dict(raw)
    out = tmp_path / f"{optimizer['name']}-{seed}"
    metrics = run_training(cfg, out_dir=out)
    final = json.loads(metrics.read_text().strip().splitlines()[-1])
    times = [json.loads(l)["mean_step_ms"]
             for l in (out / "timings.jsonl").read_text().splitlines()]
    # fastest epoch: the run's step cost with the least scheduler interference
    return final["accuracy"], float(np.min(times))


def test_05_comparative_run(capsys, tmp_path):
    # interleave the optimizers per seed so machine-load drift hits both alike
    accs = {"adafisher": [], "adam": []}
    ratios = []
    for seed in (0, 1, 2):
        acc_a, ms_a = _comparative_config({"name": "adafisher"}, seed, tmp_path)
        acc_b, ms_b = _comparative_config({"name": "adam"}, seed, tmp_path)
        accs["adafisher"].append(acc_a)
        accs["adam"].append(acc_b)
        ratios.append(ms_a / ms_b)
    accs = {k: float(np.median(v)) for k, v in accs.items()}
    gap = accs["adam"] - accs["adafisher"]
    ratio = float(np.median(ratios))
    report(capsys, 5, f"median acc adafisher {accs['adafisher']:.3f} vs adam "
              f"{accs['adam']:.3f} (gap {gap * 100:.2f}pp), step-time ratio {ratio:.2f}",
           gap <= 0.005 and ratio <= 1.5)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_06_distributed_equivalence(capsys, dtype):
    results = {}
    for workers in (1, 2, 4):
        model = Model([Dense(6, 16), Activation("relu"),
                       Dense(16, 4)]).init(default_rng(7)).astype(dtype)
        opt = AdaFisher(alpha=0.001)
        rng = default_rng(8)
        for _ in range(50):
            x = rng.standard_normal((16, 6))
            y = rng.integers(0, 4, size=16)
            train_step(model, x, y, opt, workers=workers)
        results[workers] = np.concatenate([p.ravel() for _, _, p in model.parameters()])
    worst = max(float(np.max(np.abs(results[k] - results[1]))) for k in (2, 4))
    report(capsys, 6, f"{np.dtype(dtype)} K=2,4 vs K=1 after 50 steps, worst param diff "
                      f"{worst:.2e}",
           worst <= 1e-10)


def test_07_diagnostics_correctness(capsys):
    contained = all(
        gershgorin((lambda a: (a + a.T) / 2)(default_rng(seed).standard_normal((8, 8)))).contained
        for seed in range(100))

    a = default_rng(200).standard_normal((16, 16))
    spec = fft2(a)
    parseval = abs(np.sum(np.abs(spec) ** 2) / a.size - np.sum(a**2)) / np.sum(a**2)

    res = snr(np.eye(2) * 2.0, np.array([[2.0, 1.0], [0.0, 2.0]]))
    snr_err = abs(res.db - 10.0 * math.log10(8.0))

    kaiser_stable = True
    for seed in range(20):
        rng = default_rng(300 + seed)
        m = rng.standard_normal((8, 8)) * 0.05
        m = (m + m.T) / 2
        np.fill_diagonal(m, rng.random((8,)) * 3.0 + 2.0)
        pr = perturb_offdiag(m, 1e-3, seed=seed)
        kaiser_stable &= pr.kaiser_before == pr.kaiser_after

    ok = contained and parseval <= 1e-9 and snr_err <= 1e-9 and kaiser_stable
    report(capsys, 7, f"gershgorin={contained}, parseval {parseval:.1e}, "
              f"snr err {snr_err:.1e}, kaiser stable={kaiser_stable}", ok)


def _ablation_model():
    model = Model([Dense(5, 8), LayerNorm(8), Activation("relu"),
                   Dense(8, 3)]).init(default_rng(9))
    rng = default_rng(10)
    x = rng.standard_normal((12, 5))
    y = rng.integers(0, 3, size=12)
    return model, x, y


def test_08_ablation_behavior(capsys):
    # EMA off (gamma = 1): the curvature is a pure function of the batch,
    # whatever it held before
    model, x, y = _ablation_model()
    ema_off, divs = AdaFisher(gamma=1.0), []
    for _ in range(2):
        _, grads, factors = model.train_batch(x, y)
        ema_off.step(model.copy(), grads, factors)
        divs.append(ema_off.divisors(model, ema_off.curvature))
    ema_ok = set(divs[0]) == set(divs[1]) and all(
        np.array_equal(divs[0][key], divs[1][key]) for key in divs[0])

    # sqrt toggle: with beta=0 and alpha=1 each step is the gradient divided
    # by the square root of the default divisor
    opt = AdaFisher(alpha=1.0, beta=0.0, sqrt_divisor=True)
    stepped = model.copy()
    opt.step(stepped, grads, factors)
    divisors = opt.divisors(model, opt.curvature)
    sqrt_err = max(
        float(np.max(np.abs((p0 - p) - grads[i, name]
                            / np.sqrt(divisors[i, name]))))
        for (i, name, p0), (_, _, p) in zip(model.parameters(), stepped.parameters()))

    # normalization-Fisher off: identity factors collapse to the damping floor
    norm_off = AdaFisher(norm_fisher_off=True)
    norm_off.step(model.copy(), grads, factors)
    div_off = norm_off.divisors(model, norm_off.curvature)
    lam = norm_off.lam
    norm_ok = (np.array_equal(div_off[1, "scale"], np.full(8, lam))
               and np.array_equal(div_off[1, "shift"], np.full(8, lam)))

    report(capsys, 8, f"ema-off identical divisors={ema_ok}, sqrt spot-check {sqrt_err:.1e}, "
              f"norm-off divisors==lambda={norm_ok}",
           ema_ok and sqrt_err <= 1e-12 and norm_ok)


def test_09_decoupled_decay(capsys):
    model, x, y = _ablation_model()
    _, grads, factors = model.train_batch(x, y)  # the pass's factors, zero gradients
    before = {(i, n): p.copy() for i, n, p in model.parameters()}
    zeros = {key: np.zeros_like(g) for key, g in grads.items()}
    opt = AdaFisher(alpha=0.01, kappa=0.1)
    opt.step(model, zeros, factors)
    worst = 0.0
    for i, name, p in model.parameters():
        expected = before[(i, name)] * (1.0 - 0.001)
        denom = np.maximum(np.abs(before[(i, name)]), 1e-300)
        worst = max(worst, float(np.max(np.abs(p - expected) / denom)))
    report(capsys, 9, f"zero-gradient step scales params by 1-0.001, worst rel err {worst:.1e}",
           worst <= 1e-15)


def test_10_determinism(capsys, tmp_path):
    raw = {
        "model": {"layers": [{"kind": "dense", "in": 4, "out": 16},
                             {"kind": "relu"},
                             {"kind": "dense", "in": 16, "out": 3}]},
        "dataset": {"source": "blobs", "n": 200, "classes": 3, "dim": 4},
        "optimizer": {"name": "adafisher"},
        "epochs": 3,
        "batch_size": 16,
        "seed": 0,
    }
    cfg = RunConfig.from_dict(raw)
    a = run_training(cfg, out_dir=tmp_path / "a").read_bytes()
    b = run_training(cfg, out_dir=tmp_path / "b").read_bytes()
    report(capsys, 10, f"repeated runs byte-identical metrics ({len(a)} bytes)", a == b)
