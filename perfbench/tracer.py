"""In-memory span recorder for the traced benchmark run.

The recorder replaces every public function of the measured smvslab
modules, and the public methods and constructors of their classes, with a
wrapper that records one span per call: name, start, end and the index of
the enclosing span. A function is replaced under every name a caller looks
it up by, so `smvslab.smvs.estimate_covariances` is traced as well as
`smvslab.geometry.estimate_covariances`. Spans stay in memory until the run
ends; `aggregate` then turns them into self times per function and layer.

Some calls also feed counters (rays cast, bytes written, matched points).
A counter runs after its span has closed and is recorded as a `bench`
span of its own, so its cost lands in the benchmark's self time, not in
the layer that made the call.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("simulate", "datasets", "geometry", "se3", "matching", "smvs", "placement", "attacks")
BENCH = "bench"

START, END, PARENT, TAG = 1, 2, 3, 4


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _dir_bytes(path):
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def _count_rays(counts, args, kwargs, result):
    sensor = _arg(args, kwargs, 2, "sensor")
    counts["simulate.rays"] += sensor.rings * int(round(360.0 / sensor.horizontal_resolution_deg))


def _count_written(counts, args, kwargs, result):
    counts["datasets.bytes_written"] += _dir_bytes(_arg(args, kwargs, 1, "out_dir"))


def _count_read(counts, args, kwargs, result):
    counts["datasets.bytes_read"] += _dir_bytes(_arg(args, kwargs, 0, "in_dir"))


def _count_attack(counts, args, kwargs, result):
    frame = _arg(args, kwargs, 0, "frame")
    row = np.dtype((np.void, 3 * 8))
    original = np.ascontiguousarray(frame.points).view(row).ravel()
    out = np.ascontiguousarray(result.points).view(row).ravel()
    kept = int(np.count_nonzero(np.isin(out, original)))
    counts["attacks.points_removed"] += len(original) - kept
    counts["attacks.points_added"] += len(out) - kept


def _count_linearize(counts, args, kwargs, result):
    counts["matching.linearize.matched"] += result.num_correspondences
    counts["matching.linearize.sources"] += len(result.correspondences)


def _count_profile(counts, args, kwargs, result):
    counts["smvs.frames_skipped"] += len(result.skipped)
    counts["smvs.degenerate_frames"] += sum(e.degenerate_spectrum for e in result.entries)


def _tag_query(counts, args, kwargs, result):
    return "knn" if _arg(args, kwargs, 2, "k", 1) > 1 else "nn"


COUNTERS = {
    "simulate.raycast_frame": _count_rays,
    "datasets.save_dataset": _count_written,
    "datasets.load_dataset": _count_read,
    "attacks.apply_attack": _count_attack,
    "matching.linearize": _count_linearize,
    "smvs.trajectory_smvs": _count_profile,
    "geometry.SpatialIndex.query": _tag_query,
}


class Tracer:
    """Records spans for calls into the measured layers while installed."""

    def __init__(self):
        self.spans = []             # [name, start, end, parent index, tag]
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []          # (owner, attribute, original value)

    def span_wrapper(self, fn, name):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                bench = [BENCH + ".counter", clock(), 0.0, span[PARENT], None]
                spans.append(bench)
                span[TAG] = counter(counts, args, kwargs, result)
                bench[END] = clock()
            return result

        return traced

    def install(self, package_modules):
        """Wrap the public callables of the layer modules in `package_modules`.

        `package_modules` maps a short module name to the imported module;
        every module in it has its references to a wrapped function rebound.
        """
        replaced = {}
        for layer in LAYERS:
            module = package_modules[layer]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.span_wrapper(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}")
        for module in package_modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._patch(module, attr, replaced[id(obj)])

    def _wrap_class(self, cls, prefix):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span_wrapper(raw.__func__, f"{prefix}.{attr}"))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self.span_wrapper(raw.__func__, f"{prefix}.{attr}"))
            elif inspect.isfunction(raw):
                wrapped = self.span_wrapper(raw, f"{prefix}.{attr}")
            else:
                continue
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, package_modules):
        """Trace calls while the block runs; restore the originals after it."""
        self.install(package_modules)
        try:
            yield self
        finally:
            self.uninstall()

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "tag"])
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent, tag or ""])


def self_times(spans):
    """Per-span self time: duration minus the time covered by direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_of(name):
    return name.split(".", 1)[0]


def aggregate(spans, wall_s):
    """Sum self times by span name and by layer over one traced segment.

    Returns (by_name, by_layer, bench_self_s). The benchmark's own self
    time is the traced wall time not covered by any top-level span, plus
    the counter spans; with well-nested spans the layers' and the
    benchmark's self times add up to `wall_s`.
    """
    own = self_times(spans)
    by_name = defaultdict(float)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    top_level = 0.0
    bench_self = 0.0
    for (name, start, end, parent, _), s in zip(spans, own):
        if parent < 0:
            top_level += end - start
        layer = layer_of(name)
        if layer == BENCH:
            bench_self += s
        else:
            by_name[name] += s
            by_layer[layer] += s
    return by_name, by_layer, wall_s - top_level + bench_self


def wrapper_cost_s(samples=20000):
    """Time one traced call of a no-op, for estimating the tracing overhead."""
    tracer = Tracer()
    noop = tracer.span_wrapper(lambda: None, "calibration.noop")
    plain = time.perf_counter()
    for _ in range(samples):
        pass
    plain = time.perf_counter() - plain
    start = time.perf_counter()
    for _ in range(samples):
        noop()
    return max(time.perf_counter() - start - plain, 0.0) / samples


def trace_error_s(by_layer, bench_self_s, wall_s):
    """How far the layers' and the benchmark's self times miss the wall time."""
    return abs(sum(by_layer.values()) + bench_self_s - wall_s)
