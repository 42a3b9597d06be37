#!/usr/bin/env python3
"""Regenerate bench/reference.json, the final-loss ranges the benchmark checks.

    python3 bench/make_reference.py [--seeds 20]

For every training workload and both optimizers it trains seeds
0..N-1 exactly as the benchmark does and records the final train and eval
loss. The accepted range is [min - w, max + w] with w = max - min, clipped
at 0: it is derived from the spread across seeds, so any seed passes unless
the arithmetic changed enough to move a loss well outside that spread.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--seeds", type=int, default=20)
args = parser.parse_args()
problem = run.import_package()
if problem:
    sys.exit(f"error: {problem}")
from workloads import WORKLOADS, train_configs  # noqa: E402

reference = {}
with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
    work = Path(tmp)
    for w in WORKLOADS.values():
        if w.kind != "train":
            continue
        finals: dict[str, dict[str, list[float]]] = {}
        for seed in range(args.seeds):
            for name, raw in zip(("adafisher", "adam"), train_configs(w, seed, work)):
                text, _, _ = run.train_once(raw, work / name)
                last = json.loads(text.splitlines()[-1])
                for key in ("train_loss", "eval_loss"):
                    finals.setdefault(name, {}).setdefault(key, []).append(last[key])
        reference[w.name] = {
            name: {key: [max(0.0, min(v) - (max(v) - min(v))), max(v) + (max(v) - min(v))]
                   for key, v in losses.items()}
            for name, losses in finals.items()}
        print(w.name, json.dumps(reference[w.name]), flush=True)
(run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
