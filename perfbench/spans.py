"""In-memory span tracing around the calls into each marginforge layer.

The tracer replaces public functions under the names their callers import
(for example `marginforge.protocol.compute_scatter`) with wrappers that
record a span: name, start, end and parent. Wrappers are installed only
for a traced operation and removed after it, so untraced operations run
the program's own functions. `src/` is never edited.

A layer's self time is the length of its spans minus the part of each
span that its child spans cover. Counts that the benchmark computes from
arguments (pairs from the fold plan, DTW cells, scatter flops and bytes)
are exact and repeat from run to run; they are computed, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from collections import defaultdict

# (module the caller lives in, name it imports, span name). A name that a
# later version no longer imports is skipped; its time then shows as the
# self time of the caller's span.
PATCH_POINTS = (
    ("marginforge.cli", "load_dataset", "dataset.load"),
    ("marginforge.cli", "save_dataset", "dataset.save"),
    ("marginforge.cli", "plan_folds", "protocol.plan_folds"),
    ("marginforge.cli", "run_protocol", "protocol.run_protocol"),
    ("marginforge.cli", "align_walk_direction", "preprocess.align"),
    ("marginforge.cli", "center_on_root", "preprocess.center"),
    ("marginforge.cli", "resample_time", "preprocess.resample"),
    ("marginforge.preprocess", "dtw_distance", "preprocess.dtw"),
    ("marginforge.protocol", "compute_scatter", "scatter.compute"),
    ("marginforge.template_space", "compute_scatter", "scatter.compute"),
    ("marginforge.protocol", "learn_mmc", "learners.mmc"),
    ("marginforge.protocol", "learn_pcalda", "learners.pcalda"),
    ("marginforge.protocol", "extract_template", "template_space.extract"),
    ("marginforge.protocol", "build_matching_context", "template_space.context"),
    ("marginforge.protocol", "compute_separability", "metrics_separability.compute"),
    ("marginforge.protocol", "cmc_curve", "metrics_classification.cmc"),
    ("marginforge.protocol", "far_frr_curves", "metrics_classification.far_frr"),
    ("marginforge.protocol", "roc_curve", "metrics_classification.roc"),
    ("marginforge.protocol", "rcl_pcn_curve", "metrics_classification.rcl_pcn"),
)

ROOT_SPAN = "cli.main"

# Counts the benchmark derives from call arguments rather than measures.
COMPUTED = ("protocol.pairs", "preprocess.dtw_cells", "scatter.flops", "scatter.bytes")


def _scatter_cost(flats):
    """Computed flops and bytes moved by one compute_scatter call.

    For N vectors of dimension D in C classes: the within and total Gram
    products cost 2*N*D^2 flops each; per class, the outer product, the
    two 1/N_c scalings and three compensated adds (4 flops each) cost
    15*D^2. Bytes count float64 traffic: the N*D input read for each of
    the two deviation matrices, each written and read once more by its
    Gram product, and per class ten D*D matrix passes (three products
    written, six accumulator and compensation reads and writes, the
    outer product read).
    """
    n = len(flats)
    d = flats[0].dimension
    c = len({f.label for f in flats})
    flops = 4 * n * d * d + 15 * c * d * d
    moved = 8 * (6 * n * d + 10 * c * d * d)
    return flops, moved


def _plan_pairs(dataset, plan, config) -> int:
    """Probe/gallery records the protocol scores, from the fold plan."""
    labels = [s.label for s in dataset.samples]
    pairs = 0
    for fold in range(plan.n_outer):
        evaluation = plan.evaluation_indices(fold)
        for part in plan.inner_folds[fold]:
            gallery = len(evaluation) - len(part)
            if config is not None and config.pair_policy == "class_best":
                probe_set = set(part)
                gallery = len({labels[i] for i in evaluation if i not in probe_set})
            pairs += len(part) * gallery
    return pairs


class Tracer:
    """Spans and counters for the traced operations of one run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op index]
        self.counters = defaultdict(float)
        self.missing = []
        self._local = threading.local()
        self._op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def _count(self, name, args, result):
        c = self.counters
        if name == "dataset.load":
            c["dataset.bytes_read"] += os.path.getsize(args[0])
            c["dataset.samples_loaded"] += result.num_samples
        elif name == "dataset.save":
            c["dataset.bytes_written"] += os.path.getsize(args[1])
            c["dataset.samples_saved"] += args[0].num_samples
        elif name == "preprocess.dtw":
            c["preprocess.dtw_cells"] += args[0].frame_count * args[1].frame_count
        elif name == "scatter.compute":
            flops, moved = _scatter_cost(list(args[0]))
            c["scatter.flops"] += flops
            c["scatter.bytes"] += moved
        elif name.startswith("learners."):
            c["learners.feature_dim_sum"] += result.feature_dim
        elif name == "protocol.run_protocol":
            config = args[3] if len(args) > 3 else None
            c["protocol.pairs"] += _plan_pairs(args[0], args[2], config)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for one traced operation, originals after."""
        self._op += 1
        saved = []
        try:
            for module_name, attr, name in PATCH_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    if (module_name, attr) not in self.missing:
                        self.missing.append((module_name, attr))
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self):
        """Per span: its duration minus the union of its children's spans."""
        children = defaultdict(list)
        for index, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children[index]):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def to_json(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics, each a mean over the traced operations.

    Every *_s value is self time, so the layer times of one operation sum
    to its traced wall time.
    """
    ops = max(ops, 1)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for (name, *_), own in zip(tracer.spans, tracer.self_times()):
        self_s[name] += own
        calls[name] += 1
    c = tracer.counters
    protocol_wall = sum(
        end - start
        for name, start, end, _, _ in tracer.spans
        if name == "protocol.run_protocol"
    )
    learner_calls = calls["learners.mmc"] + calls["learners.pcalda"]
    loaded = c["dataset.samples_loaded"]
    per_op = {
        "cli.self_s": self_s[ROOT_SPAN],
        "dataset.load_s": self_s["dataset.load"],
        "dataset.save_s": self_s["dataset.save"],
        "dataset.bytes_read": c["dataset.bytes_read"],
        "dataset.bytes_written": c["dataset.bytes_written"],
        "preprocess.align_s": self_s["preprocess.align"],
        "preprocess.center_s": self_s["preprocess.center"],
        "preprocess.resample_s": self_s["preprocess.resample"],
        "preprocess.dtw_s": self_s["preprocess.dtw"],
        "preprocess.dtw_calls": calls["preprocess.dtw"],
        "preprocess.dtw_cells": c["preprocess.dtw_cells"],
        "protocol.self_s": self_s["protocol.run_protocol"]
        + self_s["protocol.plan_folds"],
        "protocol.pairs": c["protocol.pairs"],
        "scatter.time_s": self_s["scatter.compute"],
        "scatter.calls": calls["scatter.compute"],
        "scatter.flops": c["scatter.flops"],
        "scatter.bytes": c["scatter.bytes"],
        "learners.time_s": self_s["learners.mmc"] + self_s["learners.pcalda"],
        "learners.calls": learner_calls,
        "template_space.extract_s": self_s["template_space.extract"],
        "template_space.extract_calls": calls["template_space.extract"],
        "template_space.context_s": self_s["template_space.context"],
        "template_space.context_calls": calls["template_space.context"],
        "metrics_separability.time_s": self_s["metrics_separability.compute"],
        "metrics_classification.cmc_s": self_s["metrics_classification.cmc"],
        "metrics_classification.far_frr_s": self_s["metrics_classification.far_frr"],
        "metrics_classification.roc_s": self_s["metrics_classification.roc"],
        "metrics_classification.rcl_pcn_s": self_s["metrics_classification.rcl_pcn"],
    }
    out = {k: v / ops for k, v in per_op.items()}
    # Ratios are taken over all traced operations, so they need no mean.
    out["protocol.pairs_per_s"] = c["protocol.pairs"] / protocol_wall if protocol_wall else 0.0
    out["learners.feature_dim"] = (
        c["learners.feature_dim_sum"] / learner_calls if learner_calls else 0.0
    )
    out["preprocess.kept_ratio"] = c["dataset.samples_saved"] / loaded if loaded else 0.0
    return out


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "scatter.flops":
        return "flop"
    if name.startswith("dataset.bytes") or name == "scatter.bytes":
        return "B"
    if name.endswith("ratio") or name == "error_rate":
        return "1"
    return "count"
