import io
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

import adafisher
from adafisher import cli, datasets, fisher, training
from adafisher.cli import main
from adafisher.config import RunConfig, build_model, resolve_dataset
from adafisher.datasets import write_idx
from adafisher.diagnostics import fft2, fim_hist_stats, gershgorin, snr
from adafisher.errors import (ConfigError, DataError, DimensionError, FormatError, InputError,
                              NumericError, SizeError, StateError, UnsupportedError)
from adafisher.fisher import approximation_mae, exact_fisher_diag
from adafisher.nn import (Activation, BatchNorm, Conv2d, Dense, LayerNorm, Model, cross_entropy,
                          mse, softmax)
from adafisher.optim import AdaFisher, build_optimizer, minmax_normalize
from adafisher.training import emit_metrics, evaluate, run_streams, run_training


def base_config(**overrides):
    raw = {
        "model": {"layers": [{"kind": "dense", "in": 4, "out": 8},
                             {"kind": "relu"},
                             {"kind": "dense", "in": 8, "out": 3}]},
        "dataset": {"source": "blobs", "n": 120, "classes": 3, "dim": 4},
        "optimizer": {"name": "adafisher"},
        "epochs": 2,
        "batch_size": 16,
        "seed": 0,
    }
    raw.update(overrides)
    return raw


def image_model(conv=(), pool=()):
    """conv3x3(pad 1)-relu-pool2x2-flatten-dense for 1x6x6 images, with field overrides."""
    return {"layers": [{"kind": "conv2d", "in": 1, "out": 2, "kernel": [3, 3], "pad": [1, 1],
                        **dict(conv)},
                       {"kind": "relu"},
                       {"kind": "maxpool", "kernel": [2, 2], **dict(pool)},
                       {"kind": "flatten"},
                       {"kind": "dense", "in": 18, "out": 2}]}


def with_first_layer(layer):
    """image_model() with layer in front of it."""
    return {"layers": [layer, *image_model()["layers"]]}


def write_images(tmp_path, n=24):
    rng = default_rng(0)
    write_idx(tmp_path / "images.idx", rng.integers(0, 256, (n, 6, 6)), "images")
    write_idx(tmp_path / "labels.idx", rng.integers(0, 2, n), "labels")
    return {"source": "idx", "images": str(tmp_path / "images.idx"),
            "labels": str(tmp_path / "labels.idx")}


# Every optimizer's config keys, and a value its constructor rejects for each.
OPTIMIZER_KEYS = {"adafisher": ("alpha", "beta", "sqrt_divisor", "gamma", "lambda",
                                "norm_fisher_off"),
                  "adafisherw": ("alpha", "beta", "sqrt_divisor", "gamma", "lambda",
                                 "norm_fisher_off", "kappa"),
                  "adam": ("alpha", "beta1", "beta2", "eps", "weight_decay"),
                  "adamw": ("alpha", "beta1", "beta2", "eps", "weight_decay"),
                  "sgd": ("alpha", "momentum")}
REJECTED = {"alpha": 0.0, "beta": 1.0, "sqrt_divisor": "no", "gamma": 0.0, "lambda": "x",
            "norm_fisher_off": "no", "kappa": -1.0, "beta1": 1.0, "beta2": -0.5, "eps": 0.0,
            "weight_decay": -1.0, "momentum": 1.0}


class TestRunConfig:
    def test_valid(self):
        cfg = RunConfig.from_dict(base_config())
        assert cfg.epochs == 2
        assert cfg.workers == 1

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(base_config(learning_rate=0.1))

    def test_missing_required_section(self):
        raw = base_config()
        del raw["optimizer"]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(base_config(epochs=0))
        with pytest.raises(ConfigError):
            RunConfig.from_dict(base_config(batch_size=0))
        with pytest.raises(ConfigError):
            RunConfig.from_dict(base_config(workers=0))

    def test_epochs_beyond_float_range_names_epochs(self):
        # epochs is also Schedule's total_epochs: this read "schedule.total_epochs
        # must be ...", which names no config field
        with pytest.raises(ConfigError, match="^epochs must be a finite number, got 1000"):
            RunConfig.from_dict(base_config(epochs=10**400))

    @pytest.mark.parametrize("optimizer, accepted", [
        ({"name": "AdaFisherW", "kappa": 0.1, "sqrt_divisor": True}, True),
        ({"name": "adamw", "weight_decay": 0.1}, True),
        ({"name": "SGD", "momentum": 0.5}, True),
        ({"name": "adafisher", "kappa": 0.1}, False),  # kappa is adafisherw's
        ({"name": "adafisher", "decoupled": True}, False),  # that is adafisherw
        ({"name": "adam", "decoupled": True}, False),  # that is adamw
        ({"name": "adafisher", "gamma": 0.5, "lambda": 0.01, "norm_fisher_off": True}, True),
        ({"name": "adam", "lambda": 0.01}, False),  # the curvature keys are AdaFisher's
        ({"name": "SGD", "gamma": 0.5}, False),
        ({"name": "adamw", "norm_fisher_off": True}, False),
    ])
    def test_one_config_name_per_optimizer_variant(self, optimizer, accepted):
        if accepted:
            assert RunConfig.from_dict(base_config(optimizer=optimizer)).optimizer == optimizer
        else:
            with pytest.raises(ConfigError, match="unknown key optimizer"):
                RunConfig.from_dict(base_config(optimizer=optimizer))

    @pytest.mark.parametrize("block, field, value", [
        *((f"optimizer:{name}", key, REJECTED[key]) for name, keys in OPTIMIZER_KEYS.items()
          for key in keys),
        ("schedule", "type", "linear"), ("schedule", "step_size", 0),
        ("schedule", "factor", -0.1),
    ])
    def test_constructor_rejected_value_names_block_and_field(self, tmp_path, capsys,
                                                              monkeypatch, block, field, value):
        # the constructors own these values: from_dict builds them once, so a
        # rejected value is a ConfigError naming the block and field, exit 2,
        # before any file is written
        block, _, name = block.partition(":")
        raw = base_config(**{block: {**({"name": name} if name else {}), field: value}})
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(raw)
        message = str(exc.value)
        if name:  # build_optimizer's form: "optimizer 'adam': beta1 must be ..."
            assert message.startswith(f"optimizer {name!r}: ") and f"{field} must be" in message
        else:
            assert message.startswith(f"{block}.{field} must be ")
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        assert main(["train", "--config", str(tmp_path / "cfg.json"), "--out", "run"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("layers, error", [
        ([{"kind": "dense", "in": 9999, "out": 1000}], None),
        ([{"kind": "dense", "in": 10**4, "out": 1000, "bias": False}], None),
        # one layer over the guard: refused by its constructor, before it
        # allocates anything
        ([{"kind": "dense", "in": 10**4, "out": 1000}], "Dense has 10001000 parameter values"),
        ([{"kind": "conv2d", "in": 1000, "out": 1000, "kernel": [4, 3]}],
         "Conv2d has 12001000 parameter values"),
        ([{"kind": "layernorm", "dim": 5 * 10**6 + 1}],
         "LayerNorm has 10000002 parameter values"),
        ([{"kind": "batchnorm", "dim": 2**62}], f"BatchNorm has {2**63} parameter values"),
        # layers each under the guard, over it together: refused by
        # build_model, before any weight is drawn
        ([{"kind": "dense", "in": 9999, "out": 1000}, {"kind": "layernorm", "dim": 1}],
         "model has 10000002 parameter values in its first 2 layers"),
    ], ids=["dense-at-guard", "dense-no-bias-at-guard", "dense", "conv2d", "layernorm",
            "batchnorm", "two-layers"])
    def test_parameter_count_guard(self, layers, error, monkeypatch):
        # the config check reads no layer sizes; the layers and build_model do
        raw = base_config(model={"layers": layers})
        cfg = RunConfig.from_dict(raw)
        assert cfg.model == raw["model"]
        drawn = []  # models whose weights were drawn; none, to keep the test small
        monkeypatch.setattr(Model, "init", lambda model, rng: drawn.append(model) or model)
        if error is None:
            assert build_model(cfg.model, default_rng(0)) is drawn[0]
        else:
            with pytest.raises(SizeError, match=f"^{error}, over the guard of 10000000$"):
                build_model(cfg.model, default_rng(0))
            assert not drawn

    def test_model_guard_builds_no_layer_past_the_one_that_passes_it(self):
        # BatchNorm(4999999) is under the guard alone; each one allocates four
        # 40 MB arrays and fills two of them (scale, running variance) with
        # ones. The guard fires at the second layer, so the third is never built
        layers = [{"kind": "batchnorm", "dim": 4999999}] * 3
        cfg = RunConfig.from_dict(base_config(model={"layers": layers}))
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match="^model has 19999996 parameter values in its "
                                                "first 2 layers, over the guard of 10000000$"):
                build_model(cfg.model, default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 4 * 4999999 * 8

    def test_missing_dataset_file(self):
        raw = base_config(dataset={"source": "csv", "path": "/nonexistent/x.csv"})
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()))
        assert RunConfig.from_json(path).batch_size == 16
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.from_json(bad)


class TestBuildModel:
    def test_all_layer_kinds(self):
        spec = {"layers": [
            {"kind": "conv2d", "in": 1, "out": 2, "kernel": [2, 2]},
            {"kind": "relu"},
            {"kind": "maxpool", "kernel": [2, 2]},
            {"kind": "batchnorm", "dim": 2},
            {"kind": "flatten"},
            {"kind": "dense", "in": 2, "out": 4},
            {"kind": "layernorm", "dim": 4},
            {"kind": "tanh"},
        ]}
        model = build_model(spec, default_rng(0))
        assert isinstance(model.layers[0], Conv2d)
        assert isinstance(model.layers[3], BatchNorm)
        assert isinstance(model.layers[5], Dense)

    def test_unknown_layer_kind(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(base_config(model={"layers": [{"kind": "dropout"}]}))

    def test_unknown_layer_field(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(base_config(model={"layers": [{"kind": "dense", "in": 2, "out": 2,
                                                               "rate": 0.5}]}))

    def test_missing_layer_field(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(base_config(model={"layers": [{"kind": "dense", "in": 2}]}))

    def test_empty_layers(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(base_config(model={"layers": []}))


class TestResolveDataset:
    def test_synthetic(self):
        x, y = resolve_dataset({"source": "moons", "n": 40}, seed=1)
        assert x.shape == (40, 2)

    def test_limit(self):
        x, y = resolve_dataset({"source": "blobs", "n": 50, "limit": 10}, seed=1)
        assert x.shape[0] == 10

    def test_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0\n3,4,1\n")
        x, y = resolve_dataset({"source": "csv", "path": str(path)}, seed=0)
        assert x.shape == (2, 2)

    def test_unknown_source(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(base_config(dataset={"source": "imagenet"}))

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(base_config(dataset={"source": "csv", "path": "x",
                                                     "shuffle": True}))


class TestEmitMetrics:
    def record(self, **overrides):
        rec = {"epoch": 0, "step": 5, "train_loss": 1.0, "eval_loss": 0.9,
               "accuracy": 0.5, "optimizer": "sgd", "seed": 0}
        rec.update(overrides)
        return rec

    def test_stable_key_order(self):
        buf = io.StringIO()
        emit_metrics(self.record(), buf)
        line = buf.getvalue()
        keys = list(json.loads(line))
        assert keys == sorted(keys)
        assert line.endswith("\n")

    def test_non_finite_refused(self):
        for bad in (float("nan"), float("inf"), None):
            with pytest.raises(InputError):
                emit_metrics(self.record(train_loss=bad), io.StringIO())


class TestRunStreams:
    def test_root_and_spawned_children(self):
        # the root keeps default_rng(seed)'s bits (model init); the shuffle
        # and the label streams are children 0 and 1 of SeedSequence(seed)
        for seed in (0, 3, 2**40):
            children = map(default_rng, np.random.SeedSequence(seed).spawn(2))
            for got, want in zip(run_streams(seed), [default_rng(seed), *children], strict=True):
                assert np.array_equal(got.standard_normal(8), want.standard_normal(8))

    def test_same_seed_identical(self):
        for a, b in zip(run_streams(42), run_streams(42)):
            assert np.array_equal(a.standard_normal((4, 5)), b.standard_normal((4, 5)))

    def test_streams_independent(self):
        # pairwise different, and the shuffle is no longer the root stream of
        # seed * 1_000_003 + 1, another seed's model init
        draws = [gen.standard_normal(10) for gen in run_streams(7)]
        draws.append(default_rng(7 * 1_000_003 + 1).standard_normal(10))
        for i, a in enumerate(draws):
            assert not any(np.array_equal(a, b) for b in draws[i + 1:])


class TestRunTraining:
    def test_artifacts_and_learning(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(epochs=5))
        path = run_training(cfg, out_dir=tmp_path / "run")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5
        records = [json.loads(l) for l in lines]
        assert records[-1]["eval_loss"] < records[0]["eval_loss"]
        assert (tmp_path / "run" / "timings.jsonl").exists()
        assert (tmp_path / "run" / "final_params.npz").exists()

    def test_metrics_byte_identical_across_runs(self, tmp_path):
        cfg = RunConfig.from_dict(base_config())
        a = run_training(cfg, out_dir=tmp_path / "a").read_bytes()
        b = run_training(cfg, out_dir=tmp_path / "b").read_bytes()
        assert a == b

    def test_timings_excluded_from_metrics(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(epochs=1))
        path = run_training(cfg, out_dir=tmp_path / "run")
        rec = json.loads(path.read_text().strip())
        assert set(rec) == {"epoch", "step", "train_loss", "eval_loss",
                            "accuracy", "optimizer", "seed"}
        timing = json.loads((tmp_path / "run" / "timings.jsonl")
                            .read_text().splitlines()[0])
        assert "mean_step_ms" in timing

    def test_seed_changes_trajectory(self, tmp_path):
        a, b = (run_training(RunConfig.from_dict(base_config(seed=seed)),
                             out_dir=tmp_path / str(seed)).read_text() for seed in (1, 2))
        assert a != b

    @pytest.mark.parametrize("limit", [None, 18], ids=["whole", "limit-18"])
    def test_idx_run_matches_float64_images(self, tmp_path, monkeypatch, limit):
        # Batches and eval rows read from the loaded images hold the bits of
        # the whole file scaled to float64 up front, so a run writes the bytes
        # of that run.
        data = write_images(tmp_path)
        if limit is not None:
            data["limit"] = limit
        cfg = RunConfig.from_dict(base_config(model=image_model(), dataset=data,
                                              batch_size=4))
        run_training(cfg, out_dir=tmp_path / "images")
        raw = (tmp_path / "images.idx").read_bytes()
        x = np.frombuffer(raw, np.uint8, offset=16).reshape(-1, 1, 6, 6).astype(np.float64)
        y = datasets.load_idx(tmp_path / "labels.idx", expect="labels")
        monkeypatch.setattr(training, "resolve_dataset",
                            lambda spec, seed: (x[:limit] / 255.0, y[:limit]))
        run_training(cfg, out_dir=tmp_path / "float64")
        for name in ("metrics.jsonl", "final_params.npz"):
            assert ((tmp_path / "images" / name).read_bytes()
                    == (tmp_path / "float64" / name).read_bytes())

    @pytest.mark.parametrize("seed", [0, 3])
    def test_first_epoch_draws_the_spawned_shuffle(self, tmp_path, monkeypatch, seed):
        # the epoch's batches are the training rows in the order of child 0
        # of SeedSequence(seed), not of default_rng(seed * 1_000_003 + 1)
        cfg = RunConfig.from_dict(base_config(epochs=1, seed=seed))
        seen, step = [], training.train_step
        monkeypatch.setattr(training, "train_step",
                            lambda model, x, *a, **kw: seen.append(x) or step(model, x, *a, **kw))
        run_training(cfg, out_dir=tmp_path / "run")
        x, _ = resolve_dataset(cfg.dataset, seed)
        rows, _ = datasets.train_eval_split(x.shape[0], seed)
        m = cfg.batch_size

        def epoch(gen):
            perm = gen.permutation(rows.shape[0])
            return x[rows[perm[: rows.shape[0] // m * m]]]
        assert np.array_equal(np.concatenate(seen),
                              epoch(default_rng(np.random.SeedSequence(seed).spawn(2)[0])))
        assert not np.array_equal(np.concatenate(seen), epoch(default_rng(seed * 1_000_003 + 1)))

    def test_batch_size_exceeds_split(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(batch_size=110))
        with pytest.raises(ConfigError):
            run_training(cfg, out_dir=tmp_path / "run")

    def test_distributed_matches_single(self, tmp_path):
        single = RunConfig.from_dict(base_config())
        multi = RunConfig.from_dict(base_config(workers=4))
        pa = run_training(single, out_dir=tmp_path / "one")
        pb = run_training(multi, out_dir=tmp_path / "four")
        la = [json.loads(l)["eval_loss"] for l in pa.read_text().splitlines()]
        lb = [json.loads(l)["eval_loss"] for l in pb.read_text().splitlines()]
        assert np.max(np.abs(np.array(la) - np.array(lb))) < 1e-10

    def test_trajectory_tracking(self, tmp_path):
        raw = base_config(track_first_layer=True)
        raw["model"] = {"layers": [{"kind": "dense", "in": 2, "out": 1,
                                    "bias": False}],
                        "loss": "mse"}
        raw["dataset"] = {"source": "quadratic", "n": 100, "dim": 2, "out_dim": 1}
        raw["optimizer"] = {"name": "sgd", "alpha": 0.01}
        cfg = RunConfig.from_dict(raw)
        run_training(cfg, out_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,w1,w2,loss"
        assert len(lines) == 1 + cfg.epochs

    def test_trajectory_needs_two_parameter_first_layer(self, tmp_path):
        # rejected before training starts: no epoch runs, no file is written
        cfg = RunConfig.from_dict(base_config(track_first_layer=True,
                                              optimizer={"name": "adam"}))
        with pytest.raises(ConfigError, match="track_first_layer"):
            run_training(cfg, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_norm_fisher_off_ablation_runs(self, tmp_path):
        raw = base_config(optimizer={"name": "adafisher", "norm_fisher_off": True})
        raw["model"]["layers"].insert(1, {"kind": "layernorm", "dim": 8})
        ablated = run_training(RunConfig.from_dict(raw), out_dir=tmp_path / "a").read_text()
        raw["optimizer"] = {"name": "adafisher"}
        default = run_training(RunConfig.from_dict(raw), out_dir=tmp_path / "b").read_text()
        assert len(ablated.splitlines()) == 2 and ablated != default

    @pytest.mark.parametrize("ablations, hint", [
        ({"sqrt_divisor": True}, "optimizer.sqrt_divisor"),
        ({"ema_off": True}, "optimizer.gamma: 1"),
        ({"norm_fisher_of": True}, "optimizer.norm_fisher_off"),
    ], ids=["sqrt_divisor", "ema_off", "typo"])
    def test_unsupported_ablation_rejected(self, tmp_path, ablations, hint):
        with pytest.raises(ConfigError, match=hint):
            run_training(RunConfig.from_dict(base_config(ablations=ablations)),
                         out_dir=tmp_path / "run")
        assert not (tmp_path / "run" / "metrics.jsonl").exists()

    @pytest.mark.parametrize("block, message", [
        ({"kf": {"gamma": 0.5, "lambda": 0.01}}, "unknown key kf: use optimizer.gamma and "
                                                 "optimizer.lambda of adafisher or adafisherw"),
        ({"kf": {}}, "unknown key kf: use optimizer.gamma"),
        ({"ablations": {"norm_fisher_off": True}},
         "unknown key ablations: use optimizer.norm_fisher_off, optimizer.sqrt_divisor or "
         "optimizer.gamma: 1 (EMA off) of adafisher or adafisherw"),
    ], ids=["kf", "kf-empty", "ablations"])
    def test_moved_block_exits_2_with_its_pointer(self, tmp_path, capsys, monkeypatch, block,
                                                  message):
        # the kf and ablations blocks are now keys of the AdaFisher optimizer block
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        (tmp_path / "cfg.json").write_text(json.dumps(base_config(**block)))
        assert main(["train", "--config", str(tmp_path / "cfg.json"), "--out", "run"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {message}")
        assert not (tmp_path / "run").exists()

    def test_evaluate_accuracy(self):
        model = build_model({"layers": [{"kind": "dense", "in": 2, "out": 2}]}, default_rng(3))
        x = np.array([[5.0, 0.0], [-5.0, 0.0]])
        w = model.layers[0].params["W"]
        w[:] = np.array([[1.0, 0.0], [-1.0, 0.0]])
        model.layers[0].params["b"][:] = 0.0
        loss, acc = evaluate(model, x, np.array([0, 1]), batch_size=1)
        assert acc == 1.0


def oracle_maes(config):
    """[(layer id, MAE)] of the exact oracle against the Kronecker diagonal of
    a capturing training pass on the first batch, each MAE over the layer's
    arrays in name order."""
    net = build_model(config.model, default_rng(config.seed))
    x, y = resolve_dataset(config.dataset, config.seed)
    m = config.batch_size
    _, _, factors = net.train_batch(x[:m], y[:m])
    oracle = exact_fisher_diag(net, x[:m])
    maes = []
    for i, layer in net.param_layers():
        approx = layer.kronecker_diagonal(factors[i, "h"], factors[i, "s"])
        names = sorted(approx)
        assert [key for key in oracle if key[0] == i] == [(i, n) for n in layer.params]
        maes.append((i, approximation_mae(np.concatenate([oracle[i, n].ravel() for n in names]),
                                          np.concatenate([approx[n].ravel() for n in names]))))
    return maes


def bn_image_net(n, seed=0):
    """image_model() with a BatchNorm after the conv, its running statistics
    moved off their initial values by one training step, and n 1x6x6 images
    with labels."""
    layers = image_model()["layers"]
    model = build_model({"layers": [layers[0], {"kind": "batchnorm", "dim": 2}, *layers[1:]]},
                        default_rng(seed))
    rng = default_rng(seed)
    x, y = rng.random((n, 1, 6, 6)), rng.integers(0, 2, n)
    model.train_batch(x[:4], y[:4])
    return model, x, y


def one_pass(model, x, y):
    """evaluate's result from a single eval-mode forward over all of x."""
    out = model.forward(x, training=False)
    loss, _ = model.loss_and_grad(out, y)
    return float(loss), float(np.mean(softmax(out).argmax(axis=1) == y))


class TestEvaluate:
    def test_one_chunk_is_one_pass(self):
        model, x, y = bn_image_net(10)
        expected = one_pass(model, x, y)
        for batch_size in (10, 64):
            assert evaluate(model, x, y, batch_size) == expected

    def test_partial_last_chunk(self):
        """Chunks of 4, 4 and 2 rows give the one-pass accuracy, and its loss
        within what float64 rounding allows.

        Chunking changes only which rows share a matmul, and BLAS may sum a
        row's dot products in a different order for a different row count.
        With u = 2**-53 and gamma(k) = k*u / (1 - k*u), two float64
        evaluations of a k-term sum differ by at most 2*gamma(k) times the sum
        of the terms' magnitudes. Run the net on |x| with |W|, |b|, |scale|,
        |shift| and a running mean of -|mean|: every activation of that
        absolute net bounds the magnitude sum behind the same activation of
        the real one, and M, its largest logit, bounds them at the output. A
        relative error of e introduced at any layer reaches the logits as at
        most e*M, because the rest of the absolute net is monotone and bounds
        the real net's sensitivity. The conv sums 9 taps and adds its bias
        (10 roundings), batch norm makes 4 (subtract, divide, scale, shift),
        ReLU and max-pool are exact, and the dense sums 18 terms and adds its
        bias (19), so to first order in u each logit moves by at most
        dz = 2*(gamma(10) + gamma(4) + gamma(19))*M. A row's cross entropy
        changes by at most sum_c |p_c - [c = y]| <= 2 times the largest
        logit change, and each side rounds its softmax over C = 2 classes,
        log and mean over n = 10 rows within gamma(n + C + 4) of the loss,
        of magnitude at most 2*M + log(C), so the losses differ by at most
        2*dz + 2*gamma(n + C + 4)*(2*M + log(C)).
        """
        n, c = 10, 2
        model, x, y = bn_image_net(n)
        absolute = model.copy()
        for layer in absolute.layers:
            for arr in layer.params.values():
                np.abs(arr, out=arr)
            if isinstance(layer, BatchNorm):
                layer.running_mean = -np.abs(layer.running_mean)
        big = float(absolute.forward(np.abs(x), training=False).max())
        u = 2.0**-53

        def gamma(k):
            return k * u / (1 - k * u)

        dz = 2 * (gamma(10) + gamma(4) + gamma(19)) * big
        tol = 2 * dz + 2 * gamma(n + c + 4) * (2 * big + np.log(c))
        loss, acc = evaluate(model, x, y, batch_size=4)
        ref_loss, ref_acc = one_pass(model, x, y)
        assert acc == ref_acc
        assert abs(loss - ref_loss) <= tol

    def test_peak_memory_follows_the_chunk(self):
        # numpy reports its buffers to tracemalloc, so the traced peak is the
        # forward's activations: one chunk's, not the whole split's.
        batch_size = 16
        model, x, y = bn_image_net(8 * batch_size)
        peaks = {}
        for chunk in (x.shape[0], batch_size):
            evaluate(model, x, y, chunk)  # leave the layers holding this chunk size
            tracemalloc.start()
            try:
                evaluate(model, x, y, chunk)
                peaks[chunk] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[batch_size] < peaks[x.shape[0]] / 2

    def test_bad_batch_size(self):
        model, x, y = bn_image_net(4)
        with pytest.raises(InputError):
            evaluate(model, x, y, 0)

    def test_zero_rows(self):
        model, x, y = bn_image_net(4)
        with pytest.raises(InputError, match="zero rows"):
            evaluate(model, x[:0], y[:0], 4)


class TestCli:
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(**overrides)))
        return str(path)

    def test_train_roundtrip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        code = main(["train", "--config", self.write_config(tmp_path),
                     "--out", "run"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("metrics.jsonl")
        assert (tmp_path / "run" / "metrics.jsonl").exists()

    def test_distributed_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        code = main(["distributed", "--config", self.write_config(tmp_path),
                     "--workers", "2", "--out", "dist"])
        assert code == 0
        assert (tmp_path / "dist" / "metrics.jsonl").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(base_config(typo_key=1)))
        assert main(["train", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("error, code, label", [
        (ConfigError, 2, "config error"), (DataError, 3, "data error"),
        (FormatError, 3, "data error"), (NumericError, 4, "numeric failure"),
        (InputError, 2, "error"), (SizeError, 2, "error"), (StateError, 2, "error"),
        (DimensionError, 2, "error"), (UnsupportedError, 2, "error"),
        (MemoryError, 2, "error"),  # an allocation numpy refuses
    ], ids=lambda value: value.__name__ if isinstance(value, type) else None)
    def test_every_failure_is_one_stderr_line(self, tmp_path, capsys, monkeypatch, error,
                                              code, label):
        def fail(config, out_dir):
            raise error(f"{error.__name__} message")

        monkeypatch.setattr(cli, "run_training", fail)
        assert main(["train", "--config", self.write_config(tmp_path)]) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"{label}: {error.__name__} message"]
        assert captured.out == ""

    def test_other_package_error_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        # The first Dense expects 49 features but blobs has 50: the model raises
        # DimensionError, which is not a ConfigError, DataError or NumericError.
        layers = [{"kind": "dense", "in": 49, "out": 8}, {"kind": "relu"},
                  {"kind": "dense", "in": 8, "out": 3}]
        bad = self.write_config(tmp_path, model={"layers": layers},
                                dataset={"source": "blobs", "n": 120, "classes": 3, "dim": 50})
        assert main(["train", "--config", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: layer 0: Dense expects") and "Traceback" not in err

    @pytest.mark.parametrize("alpha, seed, quantity", [
        (1e6, 0, "training loss"),
        (1e4, 213, "eval loss"),  # diverges on the last step of an epoch
    ], ids=["step", "eval"])
    def test_divergence_exit_code(self, tmp_path, capsys, monkeypatch, alpha, seed, quantity):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        layers = [{"kind": "dense", "in": 4, "out": 16}, {"kind": "relu"},
                  {"kind": "dense", "in": 16, "out": 3}]
        cfg = self.write_config(tmp_path, model={"layers": layers}, epochs=3, seed=seed,
                                dataset={"source": "blobs", "n": 200, "classes": 3, "dim": 4},
                                optimizer={"name": "adafisher", "alpha": alpha})
        assert main(["train", "--config", cfg]) == 4  # numpy's overflow warnings: silenced
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure: step ")
        assert err[0].endswith(f"non-finite {quantity}")

    def test_divergence_prints_one_stderr_line(self, tmp_path):
        # In a fresh interpreter, where pytest does not capture numpy's warnings.
        layers = [{"kind": "dense", "in": 4, "out": 16}, {"kind": "relu"},
                  {"kind": "dense", "in": 16, "out": 3}]
        cfg = self.write_config(tmp_path, model={"layers": layers}, epochs=3,
                                dataset={"source": "blobs", "n": 200, "classes": 3, "dim": 4},
                                optimizer={"name": "adafisher", "alpha": 1e6})
        src = str(Path(adafisher.__file__).resolve().parents[1])
        env = {**os.environ, "ADAFISHER_OUT_ROOT": str(tmp_path),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "adafisher.cli", "train", "--config", cfg],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 4
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure: step ")

    def test_image_config_trains(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        cfg = self.write_config(tmp_path, model=image_model(), dataset=write_images(tmp_path),
                                batch_size=4, epochs=1)
        assert main(["train", "--config", cfg, "--out", "img"]) == 0

    @pytest.mark.parametrize("overrides", [
        lambda data: {"epochs": "2"},
        lambda data: {"batch_size": 2.5},
        lambda data: {"dataset": "blobs"},
        lambda data: {"model": {"layers": ["dense"]}},
        lambda data: {"dataset": {**data, "limit": "x"}},
        lambda data: {"model": image_model(pool={"stride": [0, 0]})},
        lambda data: {"model": image_model(pool={"kernel": [0, 2]})},
        lambda data: {"model": image_model(conv={"stride": [0, 1]})},
        lambda data: {"model": image_model(conv={"pad": [-1, 0]})},
        lambda data: {"model": {"layers": [{"kind": "flatten"},
                                           {"kind": "dense", "in": "36", "out": 2}]}},
        lambda data: {"dataset": {"source": "blobs", "n": 40, "classes": "x"}},
        lambda data: {"dataset": {"source": "blobs", "n": 40, "dim": 2.5}},
        lambda data: {"dataset": {"source": "blobs", "n": 40, "sep": "far"}},
        lambda data: {"dataset": {"source": "moons", "n": 40, "noise": [1]}},
        lambda data: {"dataset": {"source": "quadratic", "n": 40, "out_dim": "2"}},
        lambda data: {"dataset": {"source": "quadratic", "n": 40, "scale": None}},
        lambda data: {"dataset": {"source": "blobs", "n": 40, "seed": -2}},
        lambda data: {"dataset": {"source": "csv", "path": data["images"],
                                  "schema": {"label_col": "x"}}},
        lambda data: {"dataset": {"source": "csv", "path": data["images"],
                                  "schema": {"has_header": 1}}},
        lambda data: {"dataset": {"source": "csv", "path": data["images"], "schema": []}},
        lambda data: {"optimizer": {"name": "adafisher", "lambda": "x"}},
        lambda data: {"optimizer": {"name": "adafisherw", "gamma": "x"}},
        lambda data: {"optimizer": {"name": "adafisher", "lambda": float("nan")}},
        lambda data: {"dataset": {"source": "csv", "path": 5}},
        lambda data: {"dataset": {**data, "images": 5}},
        lambda data: {"schedule": {"type": "step", "step_size": "x"}},
        lambda data: {"schedule": {"type": "step", "step_size": 0}},
        lambda data: {"schedule": {"type": "step", "factor": "x"}},
        lambda data: {"optimizer": {"name": 5}},
        lambda data: {"optimizer": {"name": "adafisher", "alpha": float("inf")}},
        lambda data: {"optimizer": {"name": "adafisher", "sqrt_divisor": "no"}},
        lambda data: {"optimizer": {"name": "adam", "decoupled": "no"}},
        lambda data: {"optimizer": {"name": "adam", "eps": "x"}},
        lambda data: {"optimizer": {"name": "adam", "weight_decay": -1}},
        lambda data: {"optimizer": {"name": "adafisher", "kappa": float("nan")}},
        lambda data: {"optimizer": {"name": "adafisher", "norm_fisher_off": "no"}},
        lambda data: {"optimizer": {"name": "adam", "lambda": 0.01}},
        lambda data: {"kf": {"lambda": 0.01}},
        lambda data: {"ablations": {}},
        lambda data: {"model": with_first_layer({"kind": "batchnorm", "dim": 1, "eps": -1})},
        lambda data: {"model": with_first_layer({"kind": "batchnorm", "dim": 1,
                                                 "momentum": float("nan")})},
        lambda data: {"model": with_first_layer({"kind": "activation", "name": "relu"})},
        lambda data: {"model": {**image_model(), "loss": 5}},
        lambda data: {"dataset": {"source": "blobs", "n": 40, "sep": float("nan")}},
        lambda data: {"dataset": {"source": "moons", "n": 40, "classes": 3}},
        lambda data: {"workers": 3},
    ], ids=["epochs-string", "batch-size-float", "dataset-string", "layer-string",
            "limit-string", "pool-stride-zero", "pool-kernel-zero", "conv-stride-zero",
            "conv-pad-negative", "dense-in-string", "classes-string", "dim-float",
            "sep-string", "noise-list", "out-dim-string", "scale-null",
            "dataset-seed-negative", "label-col-string", "has-header-int",
            "schema-list", "adafisher-lambda-string", "adafisherw-gamma-string",
            "adafisher-lambda-nan",
            "csv-path-int", "idx-images-int", "step-size-string", "step-size-zero",
            "factor-string", "optimizer-name-int", "alpha-inf", "sqrt-divisor-string",
            "adam-decoupled", "adam-eps-string", "adam-weight-decay-negative",
            "adafisher-kappa-nan", "norm-fisher-off-string", "adam-lambda", "kf-block",
            "ablations-block", "batchnorm-eps-negative",
            "batchnorm-momentum-nan", "activation-kind", "loss-int", "sep-nan",
            "moons-classes", "workers-not-dividing-batch"])
    def test_bad_config_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, overrides):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        data = write_images(tmp_path)
        cfg = self.write_config(tmp_path, **{"model": image_model(), "dataset": data,
                                             "batch_size": 4, "epochs": 1, **overrides(data)})
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    def test_zero_worker_override_exits_2_before_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        assert main(["distributed", "--config", self.write_config(tmp_path), "--workers", "0",
                     "--out", "dist"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: workers must be an integer >= 1, got 0"]
        assert not (tmp_path / "dist" / "metrics.jsonl").exists()

    def test_batchnorm_shard_of_one_exits_2_before_writing(self, tmp_path, capsys,
                                                           monkeypatch):
        # batch 8 over 8 workers leaves each BatchNorm shard one sample
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        layers = [{"kind": "dense", "in": 4, "out": 8}, {"kind": "batchnorm", "dim": 8},
                  {"kind": "dense", "in": 8, "out": 3}]
        cfg = self.write_config(tmp_path, model={"layers": layers}, batch_size=8)
        assert main(["distributed", "--config", cfg, "--workers", "8", "--out", "dist"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: batchnorm needs >= 2 samples per worker, "
                       "got batch_size 8 over 8 workers"]
        assert not (tmp_path / "dist").exists()

    @pytest.mark.parametrize("case", ["idx-count-mismatch", "idx-header-overflow",
                                      "csv-ragged-row", "csv-fractional-label"])
    def test_bad_data_file_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch, case):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        if case.startswith("idx"):
            data = write_images(tmp_path)
            layers = [{"kind": "flatten"}, {"kind": "dense", "in": 36, "out": 2}]
            if case == "idx-count-mismatch":
                write_idx(tmp_path / "labels.idx", np.zeros(20, dtype=np.uint8), "labels")
                expected = "24 inputs but 20 labels"
            else:  # 2^64 image bytes, which np.prod counts as 0
                (tmp_path / "images.idx").write_bytes(
                    struct.pack(">IIII", datasets.IDX_IMAGES_MAGIC, 2**22, 2**21, 2**21))
                expected = "expected 18446744073709551616 data bytes, found 0"
        else:
            text, expected = {"csv-ragged-row": ("1,2,0\n1,0\n", "row 1 has 2 cells"),
                              "csv-fractional-label": ("1,2,0\n1,0,1.7\n",
                                                       "row 1, column 2 is not an int64")}[case]
            (tmp_path / "d.csv").write_text(text * 10)
            data = {"source": "csv", "path": str(tmp_path / "d.csv")}
            layers = [{"kind": "dense", "in": 2, "out": 2}]
        cfg = self.write_config(tmp_path, model={"layers": layers}, dataset=data, batch_size=4)
        assert main(["train", "--config", cfg]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ") and expected in err[0]

    @pytest.mark.parametrize("dataset", [
        {"source": "blobs", "n": 1, "classes": 3, "dim": 4},
        {"source": "blobs", "n": 120, "classes": 3, "dim": 4, "limit": 1},
    ], ids=["blobs-n-1", "limit-1"])
    def test_one_sample_dataset_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                      dataset):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        cfg = self.write_config(tmp_path, dataset=dataset, batch_size=1)
        assert main(["train", "--config", cfg]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ")

    def test_negative_seed_override_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        assert main(["train", "--config", self.write_config(tmp_path), "--seed", "-1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: seed must be an integer >= 0, got -1"]
        assert not (tmp_path / "runs" / "metrics.jsonl").exists()

    def test_data_error_exit_code(self, tmp_path):
        assert main(["diagnose", "--snapshot", str(tmp_path / "missing.npy"),
                     "--analysis", "fft"]) == 3

    @pytest.mark.parametrize("name, content, analysis", [
        ("garbage.npy", b"not an array", "gershgorin"),
        ("garbage.npz", b"not a zip archive", "fft"),
        ("other.npz", {"other": np.eye(2)}, "gershgorin"),
        ("other.npz", {"other": np.eye(2)}, "fft"),
        ("other.npz", {"other": np.eye(2)}, "fim"),
        ("clean.npz", {"clean": np.eye(2)}, "snr"),
        ("nan.npz", {"matrix": np.array([[1.0, np.nan], [0.0, 1.0]])}, "gershgorin"),
        ("str.npz", {"matrix": np.array([["1", "0"], ["0", "1"]])}, "fft"),
        ("inf.npz", {"matrix": np.array([[1.0, np.inf], [0.0, 1.0]])}, "fim"),
        ("complex.npz", {"matrix": np.eye(2) * (1 + 1j)}, "gershgorin"),
        ("empty.npy", np.ones((0, 0)), "gershgorin"),
        ("empty.npy", np.ones((0, 0)), "fft"),
        ("empty.npy", np.ones((0, 0)), "fim"),
        ("empty.npz", {"clean": np.ones((0, 0)), "noisy": np.ones((0, 0))}, "snr"),
    ], ids=["npy-unreadable", "npz-unreadable", "gershgorin-no-matrix", "fft-no-matrix",
            "fim-no-matrix", "snr-no-noisy", "gershgorin-nan", "fft-string", "fim-inf",
            "gershgorin-complex", "gershgorin-empty", "fft-empty", "fim-empty", "snr-empty"])
    def test_bad_snapshot_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch, name,
                                                content, analysis):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        snap = tmp_path / name
        if isinstance(content, bytes):
            snap.write_bytes(content)
        elif isinstance(content, np.ndarray):
            np.save(snap, content)
        else:
            np.savez(snap, **content)
        assert main(["diagnose", "--snapshot", str(snap), "--analysis", analysis]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ")

    @pytest.mark.parametrize("analysis", ["gershgorin", "fft", "fim", "snr"])
    def test_overflowing_snapshot_exits_4_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                        analysis):
        # finite entries whose sums overflow: no numpy warning, no inf in a CSV
        # (for snr, the noise energy overflows under a tiny signal)
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        np.savez(tmp_path / "huge.npz", matrix=np.full((2, 2), 1e308),
                 clean=np.eye(2) * 1e-160, noisy=np.ones((2, 2)) * 1e160)
        assert main(["diagnose", "--snapshot", str(tmp_path / "huge.npz"),
                     "--analysis", analysis, "--out", "diag"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure: ")
        assert not any((tmp_path / "diag").glob("*.csv"))

    def test_fft_magnitude_overflow_exits_4_with_one_line(self, tmp_path, capsys, monkeypatch):
        # every spectrum entry is finite, but |F[0, 1]| = sqrt(2) * 1.5e308 is not
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        np.save(tmp_path / "m.npy", np.array([[1.0, -1.0, -1.0, 1.0]]) * 0.75e308)
        assert np.isfinite(fft2(np.load(tmp_path / "m.npy"))).all()
        assert main(["diagnose", "--snapshot", str(tmp_path / "m.npy"), "--analysis", "fft",
                     "--out", "diag"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["numeric failure: fft result is not finite: the snapshot's values "
                       "overflow float64"]
        assert not (tmp_path / "diag" / "spectra.csv").exists()

    def test_every_csv_table_reads_back_bit_for_bit(self, tmp_path, monkeypatch):
        # Each diagnose analysis, the exact oracle and a tracked training run
        # write their tables through diagnostics.write_csv: every numeric cell
        # reads back with float() as the library's value, bit for bit, on any
        # numpy (numpy 2's repr of a float64 is "np.float64(...)").
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        g = default_rng(3).normal(size=(5, 5))
        snap = tmp_path / "snap.npz"
        np.savez(snap, matrix=g @ g.T, clean=g @ g.T, noisy=g)
        for analysis in ("gershgorin", "fft", "snr", "fim"):
            assert main(["diagnose", "--snapshot", str(snap), "--analysis", analysis,
                         "--out", analysis]) == 0
        cfg = self.write_config(tmp_path, batch_size=8)
        assert main(["oracle", "--config", cfg, "--mode", "exact", "--out", "oracle"]) == 0
        traj_cfg = tmp_path / "traj.json"
        traj_cfg.write_text(json.dumps(base_config(
            model={"layers": [{"kind": "dense", "in": 2, "out": 1, "bias": False}],
                   "loss": "mse"},
            dataset={"source": "quadratic", "n": 100, "dim": 2, "out_dim": 1},
            optimizer={"name": "sgd", "alpha": 0.01}, track_first_layer=True)))
        assert main(["train", "--config", str(traj_cfg), "--out", "traj"]) == 0

        m = g @ g.T
        discs, spec = gershgorin(m), fft2(m)
        res, stats = snr(m, g), fim_hist_stats(m.ravel())
        entries = spec.ravel().tolist()
        metrics = [json.loads(line) for line in
                   (tmp_path / "traj" / "metrics.jsonl").read_text().splitlines()]
        maes = oracle_maes(RunConfig.from_json(cfg))
        # tuples are text cells as written; None is a float checked below
        want = {
            "gershgorin/discs.csv": {"layer": ("",) * 5, "row": range(5),
                                     "center": discs.centers, "radius": discs.radii},
            "fft/spectra.csv": {"row": [k // 5 for k in range(25)],
                                "col": [k % 5 for k in range(25)],
                                "re": [z.real for z in entries], "im": [z.imag for z in entries],
                                "mag": [abs(z) for z in entries]},
            "snr/snr.csv": {"snr_db": [res.db], "infinite": ("0",)},
            "fim/fim_stats.csv": {"step": ("0",), "layer": ("",),
                                  **{k: [v] for k, v in stats.items()}},
            "oracle/fisher_mae.csv": {"epoch": ("0", "0"), "layer": ("0", "2"),
                                      "mae": [mae for _, mae in maes]},
            "traj/trajectory.csv": {"epoch": ("1", "2"), "w1": None, "w2": None,
                                    "loss": [rec["train_loss"] for rec in metrics]},
        }
        for name, columns in want.items():
            header, *lines = (tmp_path / name).read_text().splitlines()
            cells = dict(zip(header.split(","), zip(*(line.split(",") for line in lines))))
            assert list(cells) == list(columns), name
            for col, values in columns.items():
                if isinstance(values, tuple):
                    assert cells[col] == values, (name, col)
                    continue
                got = np.array([float(cell) for cell in cells[col]])
                assert np.isfinite(got).all(), (name, col)
                if values is not None:
                    assert got.tobytes() == np.asarray(values, np.float64).tobytes(), (name, col)
        # the trajectory's last row holds the run's final weights
        last_row = (tmp_path / "traj" / "trajectory.csv").read_text().splitlines()[-1]
        last = [float(cell) for cell in last_row.split(",")[1:3]]
        w = np.load(tmp_path / "traj" / "final_params.npz")["0.W"]
        # the cells are the saved float32 weights, widened exactly to float64
        assert np.array(last).tobytes() == w.ravel().astype(np.float64).tobytes()

    def test_diagnose_gershgorin(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        snap = tmp_path / "m.npy"
        np.save(snap, np.diag([2.0, 3.0]))
        code = main(["diagnose", "--snapshot", str(snap),
                     "--analysis", "gershgorin", "--out", "diag"])
        assert code == 0
        assert (tmp_path / "diag" / "discs.csv").exists()

    def test_diagnose_snr(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        snap = tmp_path / "pair.npz"
        np.savez(snap, clean=np.eye(2) * 2, noisy=np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert main(["diagnose", "--snapshot", str(snap),
                     "--analysis", "snr", "--out", "diag"]) == 0
        text = (tmp_path / "diag" / "snr.csv").read_text()
        assert "snr_db" in text

    def test_diagnose_snr_casts_integer_snapshot(self, tmp_path, monkeypatch):
        # (2**32)**2 wraps around in int64; as float64 the diagonal energy is 2**64
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        snap = tmp_path / "pair.npz"
        np.savez(snap, clean=np.array([[2**32, 0], [0, 1]], dtype=np.int64),
                 noisy=np.array([[0, 3], [0, 0]], dtype=np.int64))
        assert main(["diagnose", "--snapshot", str(snap),
                     "--analysis", "snr", "--out", "diag"]) == 0
        rows = (tmp_path / "diag" / "snr.csv").read_text().splitlines()
        assert rows[0] == "snr_db,infinite" and rows[1].endswith(",0")
        want = 10.0 * (64 * math.log10(2.0) - math.log10(9.0))
        assert abs(float(rows[1].split(",")[0]) - want) < 1e-9

    def test_diagnose_snr_zero_signal(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        snap = tmp_path / "pair.npz"
        np.savez(snap, clean=np.zeros((2, 2)), noisy=np.ones((2, 2)))
        assert main(["diagnose", "--snapshot", str(snap),
                     "--analysis", "snr", "--out", "diag"]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "diag" / "snr.csv").read_text().splitlines() == ["snr_db,infinite",
                                                                            "-inf,1"]

    def test_oracle_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        cfg = self.write_config(tmp_path, batch_size=4)
        assert main(["oracle", "--config", cfg, "--mode", "exact",
                     "--out", "orc"]) == 0
        text = (tmp_path / "orc" / "fisher_mae.csv").read_text()
        assert text.startswith("epoch,layer,mae")
        assert len(text.strip().splitlines()) >= 2

    def test_oracle_mc_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        cfg = self.write_config(tmp_path)
        texts = []
        for out in ("mc1", "mc2"):
            assert main(["oracle", "--config", cfg, "--mode", "mc", "--out", out]) == 0
            texts.append((tmp_path / out / "fisher_mae.csv").read_bytes())
        assert texts[0] == texts[1]
        header, *rows = texts[0].decode().strip().splitlines()
        assert header == "epoch,layer,mae"
        assert [row.split(",")[1] for row in rows] == ["0", "2"]  # the two dense layers
        assert all(np.isfinite(float(row.split(",")[2])) for row in rows)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_oracle_mc_draws_the_spawned_label_stream(self, tmp_path, monkeypatch, seed):
        # the uniforms are child 1 of SeedSequence(seed), not PCG64(seed),
        # the stream that initialized the model
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        cfg = self.write_config(tmp_path, seed=seed)
        drawn, counts = [], fisher._label_counts
        monkeypatch.setattr(fisher, "_label_counts", lambda p, u: drawn.append(u) or counts(p, u))
        assert main(["oracle", "--config", cfg, "--mode", "mc", "--samples", "7",
                     "--out", "mc"]) == 0
        u, shape = np.concatenate(drawn), (base_config()["batch_size"], 7)
        child = np.random.SeedSequence(seed).spawn(2)[1]
        assert np.array_equal(u, default_rng(child).random(shape))
        assert not np.array_equal(u, default_rng(seed).random(shape))

    def test_oracle_checks_every_parameterized_layer(self, tmp_path, monkeypatch):
        # dense -> batchnorm -> dense: the norm layer gets its own row
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        model = {"layers": [{"kind": "dense", "in": 4, "out": 6}, {"kind": "batchnorm", "dim": 6},
                            {"kind": "relu"}, {"kind": "dense", "in": 6, "out": 3}]}
        cfg = self.write_config(tmp_path, model=model, batch_size=8)
        assert main(["oracle", "--config", cfg, "--mode", "exact", "--out", "orc"]) == 0
        header, *rows = (tmp_path / "orc" / "fisher_mae.csv").read_text().strip().splitlines()
        assert header == "epoch,layer,mae"
        assert [row.split(",")[1] for row in rows] == ["0", "1", "3"]
        assert all(np.isfinite(float(row.split(",")[2])) for row in rows)

    def test_oracle_reads_a_capturing_pass(self, tmp_path, monkeypatch):
        # The oracle's training pass keeps the default capture: its rows are
        # the MAEs against the factors of train_batch with capture on.
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        model = {"layers": [{"kind": "dense", "in": 4, "out": 6}, {"kind": "batchnorm", "dim": 6},
                            {"kind": "relu"}, {"kind": "dense", "in": 6, "out": 3}]}
        cfg = self.write_config(tmp_path, model=model, batch_size=8)
        assert main(["oracle", "--config", cfg, "--mode", "exact", "--out", "orc"]) == 0
        rows = ["epoch,layer,mae"] + [f"0,{i},{mae!r}"
                                      for i, mae in oracle_maes(RunConfig.from_json(cfg))]
        assert (tmp_path / "orc" / "fisher_mae.csv").read_text().splitlines() == rows

    def test_oracle_count_mismatch_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        data = write_images(tmp_path)
        write_idx(tmp_path / "labels.idx", np.zeros(20, dtype=np.uint8), "labels")
        cfg = self.write_config(tmp_path, dataset=data, batch_size=24, model={
            "layers": [{"kind": "flatten"}, {"kind": "dense", "in": 36, "out": 2}]})
        assert main(["oracle", "--config", cfg, "--mode", "exact"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["data error: 24 inputs but 20 labels"]

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_oracle_overflow_exits_4_before_writing(self, tmp_path, capsys, monkeypatch, mode):
        # Blobs 1e300 apart overflow layer 0's squared per-sample gradients:
        # the oracle wrote the rows 0,0,nan and 0,2,nan and exited 0
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        cfg = self.write_config(tmp_path, batch_size=8, dataset={
            "source": "blobs", "n": 40, "classes": 3, "dim": 4, "sep": 1e300})
        assert main(["oracle", "--config", cfg, "--mode", mode, "--out", "orc"]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"numeric failure: non-finite {mode} Fisher MAE of layer 0: a diagonal overflows "
            f"float64"]
        assert not (tmp_path / "orc").exists()

    def test_oracle_batch_larger_than_data_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        cfg = self.write_config(tmp_path, batch_size=80,
                                dataset={"source": "blobs", "n": 40, "classes": 3, "dim": 4})
        assert main(["oracle", "--config", cfg, "--mode", "exact", "--out", "orc"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: batch size 80 exceeds the dataset's 40 samples"]
        assert not (tmp_path / "orc" / "fisher_mae.csv").exists()

    @pytest.mark.parametrize("samples", [2**62, 10**9])
    def test_oversized_mc_draw_exits_2(self, tmp_path, capsys, monkeypatch, samples):
        class NoDraws:  # a draw would try to allocate every uniform
            def random(self, size):
                raise AssertionError("drew before the size check")

        monkeypatch.setattr(cli, "run_streams", lambda seed: [*run_streams(seed)[:2], NoDraws()])
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        cfg = self.write_config(tmp_path)
        assert main(["oracle", "--config", cfg, "--mode", "mc", "--samples", str(samples),
                     "--out", "orc"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "label draws" in err[0]
        assert not (tmp_path / "orc").exists()

    @pytest.mark.parametrize("n", [10**20, 10**9])
    def test_oversized_synthetic_dataset_exits_2(self, tmp_path, capsys, monkeypatch, n):
        class NoDraws:  # a draw would try to allocate the whole dataset
            def __init__(self, seed):
                pass

        # run_streams seeds the model's stream with a SeedSequence, the data an int
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: (
            real(seed) if isinstance(seed, np.random.SeedSequence) else NoDraws(seed)))
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        cfg = self.write_config(tmp_path, dataset={"source": "blobs", "n": n, "dim": 4})
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: synthetic dataset of ")

    def test_oversized_model_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch):
        # 10^12 weights: numpy would raise its allocation error from Dense
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        cfg = self.write_config(tmp_path, model={"layers": [
            {"kind": "dense", "in": 1_000_000, "out": 1_000_000}]})
        assert main(["train", "--config", cfg, "--out", "big"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: Dense has 1000001000000 parameter values, over the guard "
                       "of 10000000"]
        assert not (tmp_path / "big").exists()

    @pytest.mark.parametrize("case", ["track-first-layer", "csv-ragged-row", "batch-over-split",
                                      "model-over-guard", "out-under-a-file",
                                      "dense-in-not-previous-out", "label-past-last-class",
                                      "batchnorm-shard-of-one", "workers-not-dividing-batch",
                                      "non-finite-loss"])
    def test_failed_set_up_writes_nothing(self, tmp_path, capsys, monkeypatch, case):
        # run_training makes its out dir only when it writes the first
        # epoch's lines, so a failed set-up, a config that fails in the first
        # step (the rows from dense-in-not-previous-out on; workers run under
        # distributed) and a run that diverges in the first epoch leave no
        # directory behind; a dir it cannot make is a DataError naming it
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        (tmp_path / "d.csv").write_text("1,2,0\n1,0\n" * 10)
        (tmp_path / "afile").write_text("")
        out = "afile/run" if case == "out-under-a-file" else "run"
        dense = [{"kind": "dense", "in": 4, "out": 8}, {"kind": "relu"}]
        bn = [{"kind": "dense", "in": 4, "out": 8}, {"kind": "batchnorm", "dim": 8}]
        overrides, code, line = {
            "track-first-layer": (
                {"track_first_layer": True,
                 "model": {"layers": [{"kind": "dense", "in": 2, "out": 3, "bias": False}]},
                 "dataset": {"source": "blobs", "n": 120, "classes": 3, "dim": 2}},
                2, "config error: track_first_layer needs a 2-parameter first layer"),
            "csv-ragged-row": (
                {"dataset": {"source": "csv", "path": str(tmp_path / "d.csv")},
                 "model": {"layers": [{"kind": "dense", "in": 2, "out": 2}]}},
                3, f"data error: {tmp_path / 'd.csv'}: row 1 has 2 cells, row 0 has 3"),
            "batch-over-split": (  # 120 rows leave 96 for training
                {"batch_size": 100}, 2, "config error: batch size exceeds the training split"),
            "model-over-guard": (  # layers of 5000000 and 5000005 values
                {"model": {"layers": [{"kind": "dense", "in": 4, "out": 10**6},
                                      {"kind": "dense", "in": 10**6, "out": 5}]}},
                2, "error: model has 10000005 parameter values in its first 2 layers, over "
                   "the guard of 10000000"),
            "out-under-a-file": (
                {}, 3, f"data error: cannot make the output directory {tmp_path / out}: "
                       "Not a directory"),
            "dense-in-not-previous-out": (
                {"model": {"layers": [*dense, {"kind": "dense", "in": 9, "out": 3}]}},
                2, "error: layer 2: Dense expects (M, 9), got (16, 8)"),
            "label-past-last-class": (  # 3-class blobs, 2 outputs
                {"model": {"layers": [*dense, {"kind": "dense", "in": 8, "out": 2}]}},
                2, "error: labels must lie in [0, 2)"),
            "batchnorm-shard-of-one": (
                {"model": {"layers": [*bn, {"kind": "dense", "in": 8, "out": 3}]},
                 "batch_size": 8, "workers": 8},
                2, "config error: batchnorm needs >= 2 samples per worker, got batch_size 8 "
                   "over 8 workers"),
            "workers-not-dividing-batch": (
                {"workers": 3}, 2,
                "config error: workers must divide the batch size; got 3 for M=16"),
            "non-finite-loss": (  # at step 5 of the first epoch's 6
                {"optimizer": {"name": "adafisher", "alpha": 1e6}},
                4, "numeric failure: step 5: non-finite training loss"),
        }[case]
        command = (["distributed", "--workers", str(overrides.pop("workers"))]
                   if "workers" in overrides else ["train"])
        cfg = self.write_config(tmp_path, **overrides)
        assert main([*command, "--config", cfg, "--out", out]) == code
        assert capsys.readouterr().err.splitlines() == [line]
        assert not (tmp_path / "run").exists() and (tmp_path / "afile").read_text() == ""

    @pytest.mark.parametrize("name", ["metrics.jsonl", "timings.jsonl", "trajectory.csv",
                                      "final_params.npz", "spectra.csv", "fisher_mae.csv"])
    def test_file_that_cannot_be_written_exits_3(self, tmp_path, capsys, monkeypatch, name):
        # a directory where an output file goes: a data error naming the file,
        # not an IsADirectoryError traceback
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        (tmp_path / "out" / name).mkdir(parents=True)
        if name == "spectra.csv":
            np.save(tmp_path / "m.npy", np.eye(3))
            argv = ["diagnose", "--snapshot", str(tmp_path / "m.npy"), "--analysis", "fft"]
        elif name == "fisher_mae.csv":
            argv = ["oracle", "--config", self.write_config(tmp_path, batch_size=8),
                    "--mode", "exact"]
        else:  # a tracked 2-weight run writes all four of train's files
            argv = ["train", "--config", self.write_config(
                tmp_path, track_first_layer=True, optimizer={"name": "sgd"},
                model={"layers": [{"kind": "dense", "in": 2, "out": 1, "bias": False}],
                       "loss": "mse"},
                dataset={"source": "quadratic", "n": 100, "dim": 2, "out_dim": 1})]
        assert main([*argv, "--out", "out"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"data error: cannot write {tmp_path / 'out' / name}: Is a directory"]

    def test_interrupt_exits_130_and_keeps_finished_epochs(self, tmp_path, capsys,
                                                          monkeypatch):
        # Ctrl-C in the third epoch's first step: one stderr line, and the
        # files hold the complete lines of the two epochs that finished
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        cfg = self.write_config(tmp_path, epochs=3)
        assert main(["train", "--config", cfg, "--out", "full"]) == 0
        step, calls = training.train_step, []

        def interrupted_step(*args, **kwargs):
            calls.append(None)
            if len(calls) > 12:  # 96 training rows: 6 steps an epoch
                raise KeyboardInterrupt
            return step(*args, **kwargs)

        monkeypatch.setattr(training, "train_step", interrupted_step)
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", "cut"]) == 130
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["interrupted"] and captured.out == ""
        full = (tmp_path / "full" / "metrics.jsonl").read_text().splitlines(keepends=True)
        assert (tmp_path / "cut" / "metrics.jsonl").read_text() == "".join(full[:2])
        assert len((tmp_path / "cut" / "timings.jsonl").read_text().splitlines()) == 2
        assert not (tmp_path / "cut" / "final_params.npz").exists()

    def test_fft_magnitudes_are_python_abs_at_every_scale(self, tmp_path, monkeypatch):
        # spectra.csv's mag is np.hypot of each entry's parts, which reads
        # Python's abs() of the complex entry bit for bit, tiny to huge
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
            m = default_rng(4).normal(size=(8, 6)) * scale / 64
            np.save(tmp_path / "m.npy", m)
            assert main(["diagnose", "--snapshot", str(tmp_path / "m.npy"), "--analysis", "fft",
                         "--out", "fft"]) == 0
            rows = (tmp_path / "fft" / "spectra.csv").read_text().splitlines()[1:]
            mags = [float(row.split(",")[4]) for row in rows]
            assert mags == [abs(z) for z in fft2(m).ravel().tolist()], scale

    def test_one_process_runs_each_command_as_a_fresh_process_would(self, tmp_path, capsys,
                                                                      monkeypatch):
        # main builds its parser once per process. A usage error, a config
        # error, a training run and two diagnose analyses, run one after the
        # other in this process, each end with the exit code, stdout, stderr
        # and file bytes of the same command in a fresh interpreter.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(base_config(typo_key=1)))
        snap = tmp_path / "m.npy"
        np.save(snap, (lambda a: a + a.T)(default_rng(0).normal(size=(6, 6))))
        commands = [["diagnose", "--analysis", "gershgorin"],
                    ["train", "--config", str(bad), "--out", "bad"],
                    ["train", "--config", self.write_config(tmp_path), "--out", "run"],
                    ["diagnose", "--snapshot", str(snap), "--analysis", "gershgorin",
                     "--out", "discs"],
                    ["diagnose", "--snapshot", str(snap), "--analysis", "fim", "--out", "fim"]]

        def files(root):  # timings.jsonl holds wall-clock times
            return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*"))
                    if f.is_file() and f.name != "timings.jsonl"}

        src = str(Path(adafisher.__file__).resolve().parents[1])
        fresh_root, same_root = tmp_path / "fresh", tmp_path / "same"
        env = {**os.environ, "ADAFISHER_OUT_ROOT": str(fresh_root), "COLUMNS": "80",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        fresh = []
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "adafisher.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            fresh.append((proc.returncode, proc.stdout.replace(str(fresh_root), "ROOT"),
                          proc.stderr))
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(same_root))
        monkeypatch.setenv("COLUMNS", "80")
        same = []
        for argv in commands:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
            out, err = capsys.readouterr()
            same.append((code, out.replace(str(same_root), "ROOT"), err))
        assert [code for code, _, _ in same] == [2, 2, 0, 0, 0]
        assert same == fresh
        assert cli.build_parser() is cli.build_parser()
        assert files(same_root) == files(fresh_root)
        assert {"run/metrics.jsonl", "run/final_params.npz", "discs/discs.csv",
                "fim/fim_stats.csv"} <= files(same_root).keys()


def divisors_with(entries):
    """AdaFisher.divisors of Dense(2, 2)-relu-Dense(2, 3) from a table of ones
    with the given entries in place of its own."""
    model = Model([Dense(2, 2), Activation("relu"), Dense(2, 3)])
    table = {(i, name): np.ones(n) for i, layer in model.param_layers()
             for name, n in zip(("h", "s"), layer.factor_sizes)}
    return AdaFisher().divisors(model, {**table, **{k: np.array(v) for k, v in entries.items()}})


def step_over(entries):
    """A second AdaFisher step on Dense(2, 2)-relu-Dense(2, 3), over the first
    step's curvature with the given entries in place of its own."""
    model = Model([Dense(2, 2), Activation("relu"), Dense(2, 3)]).init(default_rng(0))
    x, y, opt = default_rng(1).standard_normal((4, 2)), np.array([0, 1, 2, 0]), AdaFisher()
    opt.step(model, *model.train_batch(x, y, 1)[1:])
    opt.curvature = {**opt.curvature, **{k: np.array(v) for k, v in entries.items()}}
    opt.step(model, *model.train_batch(x, y, 1)[1:])


@pytest.mark.parametrize("call, error, match", [
    (lambda: cross_entropy(np.zeros(3), np.zeros(3, dtype=int)), DimensionError, "2-D"),
    (lambda: cross_entropy(np.zeros((2, 3, 1)), np.zeros(2, dtype=int)), DimensionError, "2-D"),
    (lambda: fisher.mc_fisher_diag(Model([Dense(2, 2)]).init(default_rng(0)), np.zeros((3, 2)),
                                   n_samples=2.5, rng=default_rng(0)), InputError, "n_samples"),
    (lambda: fisher.mc_fisher_diag(Model([Dense(2, 2)]).init(default_rng(0)), np.zeros((3, 2)),
                                   n_samples=True, rng=default_rng(0)), InputError, "n_samples"),
    (lambda: build_optimizer("adam", {"beta": 0.9}), ConfigError, "keyword argument 'beta'"),
    (lambda: build_optimizer("sgd", {"alpha": "0.1"}), ConfigError, "optimizer 'sgd'"),
    # the constructors check what the config does: a finite real, not a bool, in range
    (lambda: AdaFisher(lam=float("nan")), ConfigError, "lambda must be a finite number > 0"),
    (lambda: AdaFisher(lam=float("inf")), ConfigError, "lambda must be a finite number > 0"),
    (lambda: build_optimizer("adafisherw", {"lam": float("nan")}), ConfigError,
     "optimizer 'adafisherw': lambda"),
    (lambda: AdaFisher(gamma="x"), ConfigError, "gamma must be a finite number in \\(0, 1\\]"),
    (lambda: AdaFisher(gamma=True), ConfigError, "gamma"),
    # a name that is no string: an AttributeError from name.lower()
    (lambda: build_optimizer(3), ConfigError, "unknown optimizer 3"),
    (lambda: build_optimizer(None), ConfigError, "unknown optimizer None"),
    # inf read as a range: [inf, 1.0] normalized to [nan, 0.0]
    (lambda: minmax_normalize([np.inf, 1.0]), InputError, "non-finite"),
    (lambda: LayerNorm(3, eps="x"), InputError, "eps must be a finite number >= 0"),
    (lambda: LayerNorm(3, eps=float("inf")), InputError, "eps must be a finite number >= 0"),
    (lambda: BatchNorm(3, momentum=5), InputError, "momentum must be a finite number in"),
    (lambda: BatchNorm(3, momentum=float("nan")), InputError, "momentum"),
    # over the guard of 10**7 parameter values: refused before numpy is asked
    # for 7.28 TiB, 671 GiB or 72.8 TiB
    (lambda: Dense(10**6, 10**6), SizeError, "Dense has 1000001000000 parameter values"),
    (lambda: Conv2d(10**5, 10**5, (3, 3)), SizeError,
     "Conv2d has 90000100000 parameter values, over the guard of 10000000"),
    (lambda: LayerNorm(10**13), SizeError, "LayerNorm has 20000000000000 parameter values"),
    # a training BatchNorm checks its worker count as Model.train_batch does
    (lambda: BatchNorm(2).forward(np.zeros((10, 2)), workers=3), ConfigError,
     "workers must divide the batch size; got 3 for M=10"),
    *[(lambda k=k: BatchNorm(2).forward(np.zeros((8, 2)), workers=k), ConfigError,
       "workers must be an integer >= 1") for k in (2.0, "2", None, True, 0)],
    *[(lambda n=n: evaluate(Model([Dense(2, 2)]), np.zeros((3, 2)), np.zeros(3, int), n),
       InputError, "evaluation batch size must be an integer >= 1") for n in (2.5, "3", None, True)],
    (lambda: Conv2d(2, 3, (3, 3)).forward(np.zeros((1, 1, 4, 4))), DimensionError,
     "Conv2d expects \\(M, 2, H, W\\)"),
    (lambda: Conv2d(2, 3, (3, 3)).forward(np.zeros((1, 2, 4))), DimensionError, "Conv2d expects"),
    (lambda: BatchNorm(3).forward(np.zeros((4, 2))), DimensionError, "BatchNorm expects 3 channels"),
    (lambda: LayerNorm(3).forward(np.zeros((4, 3, 1))), DimensionError,
     "LayerNorm expects \\(M, 3\\)"),
    # Model.forward names the layer by its place in model.layers
    (lambda: Model([Dense(4, 8), Activation("relu"), Dense(9, 3)]).forward(np.zeros((16, 4))),
     DimensionError, "^layer 2: Dense expects \\(M, 9\\), got \\(16, 8\\)$"),
    (lambda: Activation("gelu"), UnsupportedError, "unsupported activation 'gelu'"),
    (lambda: cross_entropy(np.zeros((3, 2)), np.zeros(2, dtype=int)), DimensionError,
     "labels must have shape \\(3,\\)"),
    (lambda: mse(np.zeros((3, 2)), np.zeros((3, 1))), DimensionError,
     "prediction/target shape mismatch"),
    (lambda: Model([Dense(2, 2)], loss="hinge").loss_and_grad(np.zeros((3, 2)), np.zeros(3, int)),
     UnsupportedError, "unknown loss 'hinge'"),
    (lambda: minmax_normalize([]), DimensionError, "cannot normalize an empty vector"),
    # AdaFisher.divisors names the layer and the factor of a bad entry, the
    # first in layer order (each layer's h, then its s)
    (lambda: divisors_with({(2, "h"): [1.0, np.nan, 0.0]}), InputError,
     "^layer 2: factor h: non-finite value in min-max input$"),
    (lambda: divisors_with({(0, "s"): [np.inf, 1.0], (2, "h"): [np.nan] * 3}), InputError,
     "^layer 0: factor s: non-finite value in min-max input$"),
    (lambda: divisors_with({(2, "s"): []}), DimensionError,
     "^layer 2: factor s: cannot normalize an empty vector$"),
    (lambda: divisors_with({(0, "h"): [], (2, "s"): [np.nan] * 3}), DimensionError,
     "^layer 0: factor h: cannot normalize an empty vector$"),
    # an entry that is no vector: not len()'s TypeError or np.concatenate's ValueError
    (lambda: divisors_with({(2, "h"): 1.0}), DimensionError,
     "^layer 2: factor h: a curvature entry must be a vector, got shape \\(\\)$"),
    (lambda: divisors_with({(0, "s"): [[1.0]]}), DimensionError,
     "^layer 0: factor s: a curvature entry must be a vector, got shape \\(1, 1\\)$"),
    (lambda: step_over({(0, "h"): 1.0}), DimensionError,
     "^layer 0: factor h: a curvature entry must be a vector, got shape \\(\\)$"),
    (lambda: step_over({(2, "s"): np.ones((3, 1))}), DimensionError,
     "^layer 2: factor s: a curvature entry must be a vector, got shape \\(3, 1\\)$"),
    (lambda: datasets.load_idx("unread.idx", "pixels"), InputError,
     "expect must be 'images' or 'labels'"),
    (lambda: write_idx("unwritten.idx", np.zeros((2, 3)), "images"), InputError,
     "images must be \\(N, H, W\\)"),
    (lambda: write_idx("unwritten.idx", np.zeros((2, 3)), "labels"), InputError,
     "labels must be 1-D"),
    (lambda: write_idx("unwritten.idx", np.zeros(2), "pixels"), InputError,
     "kind must be 'images' or 'labels'"),
], ids=["logits-1d", "logits-3d", "samples-float", "samples-bool", "optimizer-keyword",
        "optimizer-value", "adafisher-lambda-nan", "adafisher-lambda-inf",
        "adafisherw-lambda-nan", "adafisher-gamma-string", "adafisher-gamma-bool",
        "optimizer-name-int", "optimizer-name-none", "minmax-inf", "layernorm-eps-string",
        "layernorm-eps-inf",
        "batchnorm-momentum-5", "batchnorm-momentum-nan", "dense-oversized",
        "conv2d-oversized", "layernorm-oversized", "batchnorm-workers-uneven",
        "batchnorm-workers-float", "batchnorm-workers-string", "batchnorm-workers-none",
        "batchnorm-workers-bool", "batchnorm-workers-zero", "evaluate-batch-float",
        "evaluate-batch-string", "evaluate-batch-none", "evaluate-batch-bool",
        "conv2d-channels", "conv2d-rank", "batchnorm-channels", "layernorm-shape",
        "model-forward-layer-index",
        "activation-gelu", "labels-shape", "mse-shape", "loss-hinge", "minmax-empty",
        "divisors-nan", "divisors-first-bad", "divisors-empty", "divisors-empty-first",
        "divisors-0d", "divisors-2d", "step-curvature-0d", "step-curvature-2d",
        "load-idx-expect", "write-idx-images", "write-idx-labels", "write-idx-kind"])
def test_library_calls_raise_typed_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
