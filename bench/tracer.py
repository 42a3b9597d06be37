"""Outside-in span tracer for the benchmark.

The tracer never edits the package. It replaces public callables from the
outside and puts the originals back afterwards:

* module attributes that callers look up at call time, such as
  ``adafisher.nn.im2col_batch`` (called by ``Conv2d.forward`` through the
  ``adafisher.nn`` globals);
* methods and classmethods on classes, such as ``Dense.forward``, which every
  instance looks up on its class at call time.

Each call becomes a span ``[name, start_ns, end_ns, parent, tag]``. Spans stay
in memory until ``write`` is called at the end of the run. A span's self time
is its duration minus the durations of its direct children; the process is
single-threaded, so children nest strictly inside their parent.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

import numpy as np


def array_bytes(obj) -> int:
    """Total nbytes of every numpy array inside nested lists, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v) for v in obj)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.missing: list[str] = []
        self.tag = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._targets: list[tuple] = []

    def add(self, name: str, module: str, path: str, counter=None) -> None:
        """Register a target: ``path`` is an attribute path inside ``module``
        (``"Dense.forward"`` or ``"im2col_batch"``). ``counter`` is an optional
        ``(count_name, fn(args, result) -> int)`` evaluated after each call."""
        self._targets.append((name, module, path, counter))

    def install(self) -> None:
        for name, module, path, counter in self._targets:
            try:
                owner = importlib.import_module(module)
            except ModuleNotFoundError:
                owner = None
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                label = f"{module}.{path}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, counter))
            else:
                patched = self._wrap(raw, name, counter)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrap(self, func, name, counter):
        # span() inlined: this runs on every traced call, and a context
        # manager would add to the tracing overhead it is meant to measure
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.tag])
            stack.append(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if counter is not None:
                self.counts[(self.tag, counter[0])] += counter[1](args, result)
            return result

        traced.__wrapped__ = func
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call site in the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1, self.tag])
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def summary(self, op_root: str, within: str, counted: str):
        """Aggregate the spans of every tag.

        Returns ``(self_ns, incl, ops, within_calls)``:
        ``self_ns[(tag, name)]`` is the self time of spans whose root span is
        named ``op_root``; ``incl[(tag, name)]`` is ``[total_ns, calls]`` over
        all spans; ``ops[tag]`` lists the durations of the ``op_root`` spans;
        ``within_calls[tag]`` counts ``counted`` spans below a ``within`` span.
        """
        n = len(self.spans)
        child_ns = [0] * n
        root = [0] * n
        inside = [False] * n
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
                root[i] = root[parent]
                inside[i] = inside[parent] or self.spans[parent][0] == within
            else:
                root[i] = i
        self_ns: dict[tuple[str, str], int] = defaultdict(int)
        incl: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        ops: dict[str, list[int]] = defaultdict(list)
        within_calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, tag) in enumerate(self.spans):
            dur = end - start
            acc = incl[(tag, name)]
            acc[0] += dur
            acc[1] += 1
            if self.spans[root[i]][0] == op_root:
                self_ns[(tag, name)] += dur - child_ns[i]
            if name == op_root and root[i] == i:
                ops[tag].append(dur)
            if name == counted and inside[i]:
                within_calls[tag] += 1
        return self_ns, incl, ops, within_calls

    def write(self, path) -> None:
        """Write every span as CSV: name,start_ns,end_ns,parent,tag."""
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,tag\n")
            for name, start, end, parent, tag in self.spans:
                fh.write(f"{name},{start},{end},{parent},{tag}\n")
