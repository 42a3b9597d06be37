import io
import json

import numpy as np
import pytest

from adafisher.cli import main
from adafisher.config import RunConfig, build_model, resolve_dataset
from adafisher.errors import ConfigError, InputError
from adafisher.nn import BatchNorm, Conv2d, Dense
from adafisher.tensor import Rng
from adafisher.training import emit_metrics, evaluate, run_training


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
            {"kind": "activation", "name": "relu"},
            {"kind": "maxpool", "kernel": [2, 2]},
            {"kind": "batchnorm", "dim": 2},
            {"kind": "flatten"},
            {"kind": "dense", "in": 2, "out": 4},
            {"kind": "layernorm", "dim": 4},
            {"kind": "tanh"},
        ]}
        model = build_model(spec, Rng(0))
        assert isinstance(model.layers[0], Conv2d)
        assert isinstance(model.layers[3], BatchNorm)
        assert isinstance(model.layers[5], Dense)

    def test_unknown_layer_kind(self):
        with pytest.raises(ConfigError):
            build_model({"layers": [{"kind": "dropout"}]}, Rng(0))

    def test_unknown_layer_field(self):
        with pytest.raises(ConfigError):
            build_model({"layers": [{"kind": "dense", "in": 2, "out": 2,
                                     "rate": 0.5}]}, Rng(0))

    def test_missing_layer_field(self):
        with pytest.raises(ConfigError):
            build_model({"layers": [{"kind": "dense", "in": 2}]}, Rng(0))

    def test_empty_layers(self):
        with pytest.raises(ConfigError):
            build_model({"layers": []}, Rng(0))


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
            resolve_dataset({"source": "imagenet"}, seed=0)

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            resolve_dataset({"source": "csv", "path": "x", "shuffle": True}, seed=0)


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
        cfg = RunConfig.from_dict(base_config())
        a = run_training(cfg, out_dir=tmp_path / "a", seed=1).read_text()
        b = run_training(cfg, out_dir=tmp_path / "b", seed=2).read_text()
        assert a != b

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

    def test_evaluate_accuracy(self):
        model = build_model({"layers": [{"kind": "dense", "in": 2, "out": 2}]}, Rng(3))
        x = np.array([[5.0, 0.0], [-5.0, 0.0]])
        w = model.layers[0].params["W"]
        w[:] = np.array([[1.0, 0.0], [-1.0, 0.0]])
        model.layers[0].params["b"][:] = 0.0
        loss, acc = evaluate(model, x, np.array([0, 1]))
        assert acc == 1.0


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
        assert err.startswith("error: Dense expects") and "Traceback" not in err

    def test_data_error_exit_code(self, tmp_path):
        assert main(["diagnose", "--snapshot", str(tmp_path / "missing.npy"),
                     "--analysis", "fft"]) == 3

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

    def test_oracle_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADAFISHER_OUT_ROOT", str(tmp_path))
        cfg = self.write_config(tmp_path, batch_size=4)
        assert main(["oracle", "--config", cfg, "--mode", "exact",
                     "--out", "orc"]) == 0
        text = (tmp_path / "orc" / "fisher_mae.csv").read_text()
        assert text.startswith("epoch,layer,mae")
        assert len(text.strip().splitlines()) >= 2
