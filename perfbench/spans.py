"""Stage timing and span recording for one benchmark repetition.

Every call the benchmark makes into a cspasp layer goes through
``Recorder.call``, which adds its wall time to a per-stage total.  In a
traced repetition it also keeps a span (name, layer, start, end, parent,
instance id) in memory, and ``trace_nested`` wraps the functions one
layer calls inside another, so their time is split off the caller's.
"""

from __future__ import annotations

import time
from collections import defaultdict

# layers are the modules under src/cspasp; "bench" is the harness itself
LAYERS = ("bench", "csp", "encoder", "program", "propagation", "solver")
# stages whose every call duration is kept, for latency percentiles
SAMPLED = ("encoder.propagate",)


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.totals: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLED}
        self.spans: list = []
        self._stack: list[int] = []
        self.instance = 0

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` as stage ``name`` of ``layer`` and time it."""
        if self.traced:
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.totals[name] += end - start
            self.calls[name] += 1
            if name in self.samples:
                self.samples[name].append(end - start)
            if self.traced:
                self._stack.pop()
                self.spans[sid] = (name, layer, start, end, parent, self.instance)

    def wrap(self, name: str, layer: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)

        return traced


def trace_nested(rec: Recorder) -> None:
    """Time cross-layer calls made inside the program (traced runs only).

    The functions are module globals looked up at call time, so replacing
    them in the calling module routes every call through the recorder.
    """
    from cspasp import encoder, solver

    solver.unit_propagate = rec.wrap("propagation.unit_propagate", "propagation",
                                     solver.unit_propagate)
    solver.analyze = rec.wrap("solver.analyze", "solver", solver.analyze)
    encoder.unit_propagate = rec.wrap("propagation.unit_propagate", "propagation",
                                      encoder.unit_propagate)
    encoder.normalize_cardinality = rec.wrap("program.normalize", "program",
                                             encoder.normalize_cardinality)
    encoder.completion_nogoods = rec.wrap("program.complete", "program",
                                          encoder.completion_nogoods)


def self_times(spans, root: str) -> dict[str, float]:
    """Self time per layer, summed over the spans under ``root`` spans.

    A span's self time is its duration minus its children's durations.
    Spans outside any ``root`` span (the correctness checks) are left out.
    """
    child_time = [0.0] * len(spans)
    in_root = [False] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    # a parent always opens before its children, so it has the lower index
    for i, (name, _, _, _, parent, _) in enumerate(spans):
        in_root[i] = name == root if parent is None else in_root[parent]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, (_, layer, start, end, _, _) in enumerate(spans):
        if in_root[i]:
            layer_self[layer] += (end - start) - child_time[i]
    return layer_self
