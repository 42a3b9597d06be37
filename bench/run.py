#!/usr/bin/env python3
"""Benchmark harness for the adafisher package.

    python3 bench/run.py --workload {mlp,mlp_k4,cnn,verify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The package is imported from ``src/`` next to
this directory. Each workload is a closed loop: one caller in one process,
and the next training run or CLI command starts only when the previous one
has returned.

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
interleaves untraced and traced runs in one process and reports per-layer
self times, computed counts and the tracing overhead. The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. All working files,
result files and span dumps go under ``bench/.work/``.
"""

import os

# One closed-loop caller: BLAS gets one thread, which never exceeds nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

END_TO_END = {  # name -> unit
    "op_ms_p50": "ms", "base_op_ms_p50": "ms", "items_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
# Names README.md uses for the same numbers, per workload kind.
ALIASES = {
    "train": {"op_ms_p50": "step_ms_p50", "op_ms_p90": "step_ms_p90",
              "base_op_ms_p50": "adam_step_ms_p50", "items_per_s": "samples_per_s"},
    "verify": {"op_ms_p50": "oracle_ms_p50", "op_ms_p90": "oracle_ms_p90",
               "base_op_ms_p50": "diagnose_ms_p50", "items_per_s": "commands_per_s"},
}

# Traced targets: span name, module, attribute path looked up at call time.
TARGETS = [
    ("tensor.im2col", "adafisher.nn", "im2col_batch"),
    ("tensor.col2im", "adafisher.nn", "col2im_batch"),
    ("nn.conv2d.fwd", "adafisher.nn", "Conv2d.forward"),
    ("nn.conv2d.bwd", "adafisher.nn", "Conv2d.backward"),
    ("nn.maxpool.fwd", "adafisher.nn", "MaxPool2d.forward"),
    ("nn.maxpool.bwd", "adafisher.nn", "MaxPool2d.backward"),
    ("nn.batchnorm.fwd", "adafisher.nn", "BatchNorm.forward"),
    ("nn.batchnorm.bwd", "adafisher.nn", "BatchNorm.backward"),
    ("nn.dense.fwd", "adafisher.nn", "Dense.forward"),
    ("nn.dense.bwd", "adafisher.nn", "Dense.backward"),
    ("nn.activation.fwd", "adafisher.nn", "Activation.forward"),
    ("nn.activation.bwd", "adafisher.nn", "Activation.backward"),
    ("nn.flatten", "adafisher.nn", "Flatten.forward"),
    ("nn.flatten", "adafisher.nn", "Flatten.backward"),
    ("nn.loss", "adafisher.nn", "Model.loss_and_grad"),
    ("nn.model", "adafisher.nn", "Model.forward"),
    ("nn.model.backward", "adafisher.nn", "Model.backward"),
    ("kfactor.fresh", "adafisher.distributed", "fresh_factors"),
    ("kfactor.fresh", "adafisher.cli", "fresh_factors"),
    ("kfactor.ema", "adafisher.kfactor", "KFState.update"),
    ("kfactor.assemble", "adafisher.distributed", "efim_assemble"),
    ("kfactor.divisors", "adafisher.kfactor", "FactoredEFIM.divisors"),
    ("optim.step", "adafisher.optim", "AdaFisher.step"),
    ("optim.adam_step", "adafisher.optim", "Adam.step"),
    ("distributed.shard", "adafisher.distributed", "shard_batch"),
    ("distributed.step", "adafisher.training", "train_step"),
    ("fisher.exact", "adafisher.cli", "exact_fisher_diag"),
    ("diagnostics.gershgorin", "adafisher.cli", "gershgorin"),
    ("diagnostics.eigh", "adafisher.diagnostics", "jacobi_eigh"),
    ("datasets.load", "adafisher.config", "load_idx"),
    ("datasets.load", "adafisher.config", "synth_dataset"),
    ("datasets.split", "adafisher.training", "train_eval_split"),
    ("config.parse", "adafisher.config", "RunConfig.from_dict"),
    ("config.build_model", "adafisher.training", "build_model"),
    ("config.build_model", "adafisher.cli", "build_model"),
    ("training.eval", "adafisher.training", "evaluate"),
    ("training.emit", "adafisher.training", "emit_metrics"),
]
# Per-layer self time per op: metric -> (role, span names). The op is one
# AdaFisher step ("primary") or Adam step ("baseline") on training
# workloads, one oracle ("primary") or diagnose ("baseline") command on verify.
SELF_PER_OP = {
    "tensor.im2col_ms": ("primary", ["tensor.im2col"]),
    "tensor.col2im_ms": ("primary", ["tensor.col2im"]),
    "nn.conv2d.fwd_ms": ("primary", ["nn.conv2d.fwd"]),
    "nn.conv2d.bwd_ms": ("primary", ["nn.conv2d.bwd"]),
    "nn.maxpool.fwd_ms": ("primary", ["nn.maxpool.fwd"]),
    "nn.maxpool.bwd_ms": ("primary", ["nn.maxpool.bwd"]),
    "nn.batchnorm.fwd_ms": ("primary", ["nn.batchnorm.fwd"]),
    "nn.batchnorm.bwd_ms": ("primary", ["nn.batchnorm.bwd"]),
    "nn.dense.fwd_ms": ("primary", ["nn.dense.fwd"]),
    "nn.dense.bwd_ms": ("primary", ["nn.dense.bwd"]),
    "nn.activation.fwd_ms": ("primary", ["nn.activation.fwd"]),
    "nn.activation.bwd_ms": ("primary", ["nn.activation.bwd"]),
    "nn.loss_ms": ("primary", ["nn.loss"]),
    "nn.model_self_ms": ("primary", ["nn.model", "nn.model.backward",
                                     "nn.model.train_batch", "nn.flatten"]),
    "kfactor.fresh_ms": ("primary", ["kfactor.fresh"]),
    "kfactor.ema_ms": ("primary", ["kfactor.ema"]),
    "kfactor.assemble_ms": ("primary", ["kfactor.assemble"]),
    "kfactor.divisors_ms": ("primary", ["kfactor.divisors"]),
    "optim.step_ms": ("primary", ["optim.step"]),
    "optim.adam_step_ms": ("baseline", ["optim.adam_step"]),
    "distributed.shard_ms": ("primary", ["distributed.shard"]),
    "distributed.agg_grads_ms": ("primary", ["distributed.agg_grads"]),
    "distributed.agg_kfs_ms": ("primary", ["distributed.agg_kfs"]),
    "distributed.step_self_ms": ("primary", ["distributed.step"]),
    "fisher.exact_ms": ("primary", ["fisher.exact"]),
    "diagnostics.gershgorin_ms": ("baseline", ["diagnostics.gershgorin"]),
    "diagnostics.eigh_ms": ("baseline", ["diagnostics.eigh"]),
    "cli.self_ms": ("both", ["cli"]),
}
# Inclusive time per run (one run_training call or one oracle command).
PER_RUN = {
    "datasets.load_ms": "datasets.load",
    "datasets.split_ms": "datasets.split",
    "config.parse_ms": "config.parse",
    "config.build_model_ms": "config.build_model",
    "training.eval_ms": "training.eval",
    "training.emit_ms": "training.emit",
}
COUNTS = {"nn.capture_bytes": "bytes", "distributed.agg_bytes": "bytes",
          "fisher.backward_calls": "count", "training.steps_per_run": "count"}
TRACE = ["trace.op_ms_p50", "trace.untraced_op_ms_p50", "trace.overhead_ms",
         "trace.op_ms_mean", "trace.self_sum_ms"]


class SetupDone(Exception):
    """Raised by a set-up probe at the first step, ending the call early."""


class CheckFailed(Exception):
    """An output check did not hold."""


class CallTimer:
    """Replaces ``owner.attr`` while active and times every call of it.

    ``first`` is the clock reading at the first call after entering; with
    ``probe`` set, that first call raises ``SetupDone`` instead of running.
    """

    def __init__(self, owner, attr: str, probe: bool = False):
        self.owner, self.attr, self.probe = owner, attr, probe
        self.inner = vars(owner)[attr]
        self.times: list[float] = []
        self.first: float | None = None

    def __enter__(self):
        def hook(*args, **kwargs):
            start = time.perf_counter()
            if self.first is None:
                self.first = start
            if self.probe:
                raise SetupDone
            result = self.inner(*args, **kwargs)
            self.times.append(time.perf_counter() - start)
            return result

        setattr(self.owner, self.attr, hook)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.inner)


class Tally:
    """Attempted and failed operations with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def op(self, what: str):
        self.attempted += 1
        try:
            yield
        except SetupDone:
            raise
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    @staticmethod
    def check(ok: bool, what: str) -> None:
        if not ok:
            raise CheckFailed(what)


class Calibration:
    """Rescales wall times to the speed of the reference machine.

    The speed of a machine shared with other tenants can drift by half
    within seconds (see README.md). Around every unit of work, a calibration
    kernel whose operation mix matches the unit, and which does not touch the
    package, is timed; the unit's times are multiplied by ``ref / k``, where
    ``k`` is the mean of the kernel times just before and just after the unit.
    """

    def __init__(self, kinds):
        from workloads import KERNEL_REF_S, calibration_kernel

        self.kernels = {kind: calibration_kernel(kind) for kind in set(kinds)}
        self.ref = KERNEL_REF_S
        self.kernel_s: dict[str, list[float]] = {kind: [] for kind in self.kernels}
        self._last: tuple[str, float] | None = None

    def _run(self, kind: str) -> float:
        elapsed = self.kernels[kind]()
        self.kernel_s[kind].append(elapsed)
        self._last = (kind, elapsed)
        return elapsed

    def start(self, kind: str) -> float:
        """Kernel time just before a unit (reused if that kernel ran last)."""
        last, self._last = self._last, None
        return last[1] if last and last[0] == kind else self._run(kind)

    def factor(self, kind: str, before: float) -> float:
        return self.ref[kind] / statistics.fmean((before, self._run(kind)))


class NoCalibration:
    """Stands in for Calibration in traced runs, whose times stay raw."""

    kernel_s = None

    def start(self, kind):
        return None

    def factor(self, kind, before):
        return 1.0


class Samples:
    """Raw wall times per quantity, each with the calibration factor of the
    unit of work it was measured in."""

    def __init__(self):
        self.data: dict[str, list[tuple[float, float]]] = {}
        self.traced_runs = 0

    def add(self, name: str, values, factor: float = 1.0) -> None:
        self.data.setdefault(name, []).extend((v, factor) for v in values)

    def get(self, name: str, calibrated: bool) -> list[float]:
        return [v * f if calibrated else v for v, f in self.data.get(name, [])]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else median(xs)


def alternate(i: int, pair: tuple) -> tuple:
    """The pair in order on even iterations and reversed on odd ones."""
    return pair if i % 2 == 0 else pair[::-1]


def loop(seconds: float):
    """Iteration indices of a closed loop: at least two, then until time is up."""
    began = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - began < seconds:
        yield i
        i += 1


@contextlib.contextmanager
def traced(tracer, tag: str):
    """Install the tracer for one unit of work, tagging its spans."""
    tracer.tag = tag
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


# ---------------------------------------------------------------- training

def check_metrics(text: str, reference: dict) -> None:
    """Every loss finite; the final losses inside the recorded reference."""
    records = [json.loads(line) for line in text.splitlines()]
    if not records:
        raise CheckFailed("metrics.jsonl is empty")
    for rec in records:
        for key in ("train_loss", "eval_loss"):
            if not math.isfinite(rec[key]):
                raise CheckFailed(f"non-finite {key} at epoch {rec['epoch']}")
    for key, (lo, hi) in reference.items():
        if not lo <= records[-1][key] <= hi:
            raise CheckFailed(f"final {key} {records[-1][key]!r} outside "
                              f"reference [{lo}, {hi}]")


def train_once(raw: dict, out: Path):
    """One run_training call: (metrics text, run_training wall s, start clock).

    The start clock is read before the config is parsed."""
    from adafisher.config import RunConfig
    from adafisher.training import run_training

    start = time.perf_counter()
    config = RunConfig.from_dict(raw)
    begin = time.perf_counter()
    path = run_training(config, out_dir=out)
    wall = time.perf_counter() - begin
    return Path(path).read_text(), wall, start


def probe_train(raw, out) -> float:
    """Set-up time only: from config parse to the first step, which is skipped."""
    import adafisher.training as training

    with CallTimer(training, "train_step", probe=True) as timer:
        start = time.perf_counter()
        try:
            train_once(raw, out)
        except SetupDone:
            return timer.first - start
    raise CheckFailed("training ran no step")


def measure_train(w, seed, seconds, work, tally, tracer, cal) -> Samples:
    import adafisher.training as training
    from workloads import train_configs

    raws = dict(zip(("adafisher", "adam"), train_configs(w, seed, work)))
    refs = json.loads((BENCH / "reference.json").read_text())[w.name]
    expected = {}
    for name, raw in raws.items():  # warm-up; its outputs are the reference bytes
        with tally.op(f"warm-up {name} run"):
            text, _, _ = train_once(raw, work / name)
            check_metrics(text, refs[name])
            expected[name] = text
    samples = Samples()
    kernel = w.kernels[0]

    def timed_run(name):
        with tally.op(f"{name} run"):
            before = cal.start(kernel)
            with CallTimer(training, "train_step") as timer:
                text, wall, start = train_once(raws[name], work / name)
            f = cal.factor(kernel, before)
            if name == "adafisher":
                samples.add("op", timer.times, f)
                samples.add("s_per_item", [wall / (len(timer.times) * w.batch_size)], f)
                samples.add("setup", [timer.first - start], f)
            else:
                samples.add("base", timer.times, f)
            Tally.check(text == expected[name],
                        f"{name} metrics.jsonl differs from the warm-up run")

    def traced_run(name):
        with tally.op(f"{name} run traced"), traced(tracer, name):
            text, _, _ = train_once(raws[name], work / name)
            if name == "adafisher":
                samples.traced_runs += 1
            Tally.check(text == expected[name],
                        f"traced {name} metrics.jsonl differs from the untraced run")

    for i in loop(seconds):
        if tracer:
            for run in alternate(i, (timed_run, traced_run)):
                run("adafisher")
            traced_run("adam")
            continue
        setups, before = [], cal.start(kernel)
        for _ in range(w.setup_probes):
            with tally.op("set-up probe"):
                setups.append(probe_train(raws["adafisher"], work / "probe"))
        samples.add("setup", setups, cal.factor(kernel, before))
        for name in alternate(i, ("adafisher", "adam")):
            timed_run(name)
    return samples


# ------------------------------------------------------------------ verify

def cli_once(argv):
    """Run one CLI command in-process: (exit code, stdout, wall s, start clock)."""
    from adafisher import cli

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - start, start


def check_oracle(code, out: Path) -> str:
    if code != 0:
        raise CheckFailed(f"oracle exited {code}")
    text = (out / "fisher_mae.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows or not all(math.isfinite(float(r["mae"])) for r in rows):
        raise CheckFailed("oracle CSV has no rows or a non-finite MAE")
    return text


def check_diagnose(code, stdout: str) -> None:
    if code != 0:
        raise CheckFailed(f"diagnose exited {code}")
    if "contained=True" not in stdout:
        raise CheckFailed(f"gershgorin did not report contained=True: {stdout!r}")


def probe_oracle(argv) -> float:
    """Set-up time only: from cli.main to the first forward pass, which is skipped."""
    from adafisher import nn

    with CallTimer(nn.Model, "forward", probe=True) as timer:
        start = time.perf_counter()
        try:
            cli_once(argv)
        except SetupDone:
            return timer.first - start
    raise CheckFailed("oracle ran no forward pass")


def measure_verify(w, seed, seconds, work, tally, tracer, cal) -> Samples:
    from adafisher import nn
    from workloads import verify_commands

    oracle, diagnose = verify_commands(w, seed, work)
    oracle_out = Path(oracle[oracle.index("--out") + 1])
    expected = None
    with tally.op("warm-up oracle"):
        code, _, _, _ = cli_once(oracle)
        expected = check_oracle(code, oracle_out)
    with tally.op("warm-up diagnose"):
        code, stdout, _, _ = cli_once(diagnose)
        check_diagnose(code, stdout)
    samples = Samples()
    op_kernel, base_kernel = w.kernels

    def run_oracle(tag=None):
        with tally.op(f"oracle{' traced' if tag else ''}"):
            if tag:
                with traced(tracer, tag), tracer.span("cli"):
                    code, _, _, _ = cli_once(oracle)
                samples.traced_runs += 1
            else:
                before = cal.start(op_kernel)
                with CallTimer(nn.Model, "forward") as timer:
                    code, _, wall, start = cli_once(oracle)
                f = cal.factor(op_kernel, before)
                samples.add("op", [wall], f)
                samples.add("setup", [timer.first - start], f)
            Tally.check(check_oracle(code, oracle_out) == expected,
                        "oracle CSV differs from the warm-up run")
            return None if tag else (wall, f)

    def run_diagnose(tag=None):
        with tally.op(f"diagnose{' traced' if tag else ''}"):
            if tag:
                with traced(tracer, tag), tracer.span("cli"):
                    code, stdout, _, _ = cli_once(diagnose)
            else:
                before = cal.start(base_kernel)
                code, stdout, wall, _ = cli_once(diagnose)
                f = cal.factor(base_kernel, before)
                samples.add("base", [wall], f)
            check_diagnose(code, stdout)
            return None if tag else (wall, f)

    for i in loop(seconds):
        if tracer:
            for tag in alternate(i, (None, "oracle")):
                run_oracle(tag)
            run_diagnose("diagnose")
            continue
        setups, before = [], cal.start(op_kernel)
        for _ in range(w.setup_probes):
            with tally.op("set-up probe"):
                setups.append(probe_oracle(oracle))
        samples.add("setup", setups, cal.factor(op_kernel, before))
        pair = [run() for run in alternate(i, (run_oracle, run_diagnose))]
        if None not in pair:  # seconds per command of this pair
            raw = statistics.fmean(wall for wall, _ in pair)
            samples.add("s_per_item", [raw], statistics.fmean(w * f for w, f in pair) / raw)
    return samples


# ----------------------------------------------------------------- metrics

def capture_bytes(model) -> int:
    """Bytes held by every layer capture after a forward+backward pass."""
    from tracer import array_bytes

    captures = [getattr(layer, "capture", None) for layer in model.layers]
    return sum(array_bytes(getattr(c, "__dict__", c)) for c in captures if c is not None)


def make_tracer():
    from tracer import Tracer, array_bytes

    tracer = Tracer()
    for name, module, path in TARGETS:
        tracer.add(name, module, path)
    tracer.add("nn.model.train_batch", "adafisher.nn", "Model.train_batch",
               ("nn.capture_bytes", lambda args, _: capture_bytes(args[0])))
    shard_bytes = ("distributed.agg_bytes", lambda args, _: array_bytes(args[0]))
    tracer.add("distributed.agg_grads", "adafisher.distributed", "aggregate_grads", shard_bytes)
    tracer.add("distributed.agg_kfs", "adafisher.distributed", "aggregate_kfs", shard_bytes)
    return tracer


def exact(total, n):
    """Per-op value of a computed count; an int when it divides evenly."""
    if not n:
        return 0
    return total // n if total % n == 0 else total / n


def layer_metrics(tracer, kind, samples) -> dict:
    """Per-layer metrics of a traced run (see README.md for the definitions)."""
    op_root = "distributed.step" if kind == "train" else "cli"
    primary, baseline = ("adafisher", "adam") if kind == "train" else ("oracle", "diagnose")
    roles = {"primary": [primary], "baseline": [baseline], "both": [primary, baseline]}
    self_ns, incl, ops, within = tracer.summary(op_root, "fisher.exact", "nn.model.backward")
    out = {}
    for metric, (role, names) in SELF_PER_OP.items():
        tags = roles[role]
        n = sum(len(ops[t]) for t in tags)
        total = sum(self_ns.get((t, name), 0) for t in tags for name in names)
        out[metric] = total / 1e6 / n if n else 0.0
    runs = samples.traced_runs
    for metric, name in PER_RUN.items():
        out[metric] = incl[(primary, name)][0] / 1e6 / runs if runs else 0.0
    n_ops = len(ops[primary])
    out["nn.capture_bytes"] = exact(tracer.counts[(primary, "nn.capture_bytes")], n_ops)
    out["distributed.agg_bytes"] = exact(tracer.counts[(primary, "distributed.agg_bytes")], n_ops)
    out["fisher.backward_calls"] = exact(within[primary], n_ops)
    out["training.steps_per_run"] = exact(incl[(primary, "distributed.step")][1], runs)
    traced = [d / 1e6 for d in ops[primary]]
    untraced = [t * 1e3 for t in samples.get("op", calibrated=False)]
    out["trace.op_ms_p50"] = median(traced)
    out["trace.untraced_op_ms_p50"] = median(untraced)
    out["trace.overhead_ms"] = out["trace.op_ms_p50"] - out["trace.untraced_op_ms_p50"]
    out["trace.op_ms_mean"] = statistics.fmean(traced) if traced else 0.0
    out["trace.self_sum_ms"] = sum(out[m] for m, (role, _) in SELF_PER_OP.items()
                                   if role == "primary")
    return out


def per_layer_units() -> dict:
    units = {m: "ms" for m in SELF_PER_OP}
    units.update({m: "ms" for m in PER_RUN})
    units.update(COUNTS)
    units.update({m: "ms" for m in TRACE})
    return units


def end_to_end_metrics(samples: Samples, calibrated: bool) -> dict:
    def get(name):
        return samples.get(name, calibrated)

    per_item = median(get("s_per_item"))
    return {
        "op_ms_p50": median(get("op")) * 1e3,
        "op_ms_p90": p90(get("op")) * 1e3,
        "base_op_ms_p50": median(get("base")) * 1e3,
        "items_per_s": 1.0 / per_item if per_item else 0.0,
        "setup_s": median(get("setup")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, loadavg) -> dict:
    """What a comparison between two result files must agree on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "loadavg_start": list(loadavg),
        "seed": seed,
        "commit": commit(),
        "src_sha256": src_digest(),
    }


# -------------------------------------------------------------------- main

def import_package() -> str | None:
    """Import adafisher from this checkout's src/; return a problem or None."""
    if not (SRC / "adafisher" / "__init__.py").is_file():
        return f"package source not found under {SRC}"
    sys.path.insert(0, str(SRC))
    import adafisher

    if Path(adafisher.__file__).resolve().parent != SRC / "adafisher":
        return f"imported adafisher from {adafisher.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    problem = import_package()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    work = WORK / w.name / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    tally = Tally()
    tracer = make_tracer() if args.trace else None
    cal = NoCalibration() if args.trace else Calibration(w.kernels)
    measure = measure_train if w.kind == "train" else measure_verify
    samples = measure(w, args.seed, args.seconds, work, tally, tracer, cal)

    aliases = ALIASES[w.kind]
    raw = None
    if args.trace:
        values = layer_metrics(tracer, w.kind, samples)
        units = per_layer_units()
        if w.kind == "train":
            with tally.op("per-layer self times add up to the traced step"):
                gap = abs(values["trace.self_sum_ms"] - values["trace.op_ms_mean"])
                Tally.check(gap <= 0.01 * values["trace.op_ms_mean"],
                            f"self times sum to {values['trace.self_sum_ms']} ms, "
                            f"traced step mean is {values['trace.op_ms_mean']} ms")
        tracer.write(work / "spans.csv")
    else:
        values = end_to_end_metrics(samples, calibrated=True)
        raw = end_to_end_metrics(samples, calibrated=False)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    failed = len(tally.failures)
    result = {
        "workload": w.name, "trace": args.trace, "seconds": args.seconds,
        "env": environment(args.seed, loadavg),
        "metrics": metrics,
        "raw_wall_metrics": raw,
        "calibration_kernel_s": cal.kernel_s,
        "aliases": {aliases[m]: values[m] for m in aliases if m in values},
        "computed": sorted(COUNTS) if args.trace else [],
        "missing": tracer.missing if tracer else [],
        "samples": {k: len(v) for k, v in samples.data.items()},
        "attempted": tally.attempted, "failed": failed, "failures": tally.failures,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))

    print(f"workload={w.name} seed={args.seed} trace={args.trace} "
          f"attempted={tally.attempted} failed={failed} "
          f"fail_frac={failed / max(tally.attempted, 1)}")
    for reason in tally.failures:
        print(f"  FAILED {reason}")
    for name, entry in metrics.items():
        label = f" ({aliases[name]})" if name in aliases else ""
        tag = " [computed]" if name in COUNTS else ""
        wall = f"  (raw wall {raw[name]})" if raw and name != "peak_rss_mb" else ""
        print(f"  {name}{label} = {entry['value']} {entry['unit']}{tag}{wall}")
    if args.trace:
        print(f"  tracing overhead: {values['trace.overhead_ms']} ms per op "
              f"(traced p50 {values['trace.op_ms_p50']} - untraced p50 "
              f"{values['trace.untraced_op_ms_p50']})")
        for label in tracer.missing:
            print(f"  missing trace target: {label}")
    else:
        print(f"  op_ms_p90 ({aliases['op_ms_p90']}) = {values['op_ms_p90']} ms  "
              f"(raw wall {raw['op_ms_p90']}; not gated: unsteady across seeds)")
        if w.kind == "train" and values["base_op_ms_p50"]:
            print(f"  cost ratio step_ms_p50 / adam_step_ms_p50 = "
                  f"{values['op_ms_p50'] / values['base_op_ms_p50']} (not gated)")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
