"""Spans around calls into frauduq's modules, installed from outside the package.

Modules bind names with ``from ... import``, so each wrapper goes on the
name the caller looks up (``pipeline.predict_table``, not only
``uncertainty.predict_table``). A span records its name, start, end,
parent span, the phase it ran in ("cold" or "resume") and an optional
work note (bytes, rows, FLOPs) taken from the call's arguments or result.
Tracing changes no argument or result, so traced artifacts must be
byte-identical to untraced ones; the benchmark checks that.
"""

import functools
import os
import time
from collections import defaultdict

METHODS = ("mcd", "ensemble", "emcd")
MB = 1e6


def _size(path) -> int:
    return os.path.getsize(path)


def _forward_note(args, kwargs, result):
    net, x = args[0], args[1]
    rows = 1 if x.ndim == 1 else x.shape[0]
    macs = sum(rows_ * cols for rows_, cols in net.config.layer_dims)
    return {"rows": rows, "flop": 2.0 * rows * macs}


def _mask_note(args, kwargs, result):
    n_rows = kwargs.get("n_rows", args[2] if len(args) > 2 else None) or 1
    return {"cells": n_rows * sum(args[0].hidden_units)}


def _train_note(args, kwargs, result):
    config, data = args[0], args[1]
    return {"rows": data.features.shape[0] * config.epochs}


# (module name, attribute, span name, note). Stage spans come first: the
# predict/evaluate stages are split per method by their second argument.
WRAPS = (
    ("pipeline", "stage_data", "pipeline.data", None),
    ("pipeline", "stage_train", "pipeline.models", None),
    ("pipeline", "stage_predict", "pipeline.predict", lambda a, k, r: {"method": a[1]}),
    ("pipeline", "stage_evaluate", "pipeline.evaluate", lambda a, k, r: {"method": a[1]}),
    ("pipeline", "stage_summary", "pipeline.summary", None),
    ("pipeline", "run_stage", "pipeline.run_stage", lambda a, k, r: {"skipped": r.skipped}),
    ("pipeline", "load_csv", "data.load_csv",
     lambda a, k, r: {"cells": r.n_rows * (len(r.columns) + 1)}),
    ("pipeline", "synth_generate", "data.synth", lambda a, k, r: {"cells": r.features.size}),
    ("pipeline", "split_train_test", "data.split", None),
    ("pipeline", "fit_preprocessor", "data.fit", None),
    ("pipeline", "apply_preprocessor", "data.apply", None),
    ("pipeline", "save_features", "data.save_features", None),
    ("pipeline", "load_features", "data.load_features", None),
    ("pipeline", "train", "network.train", _train_note),
    ("uncertainty", "train", "network.train", _train_note),
    ("pipeline", "save_network", "network.save", None),
    ("pipeline", "load_network", "network.load", None),
    ("network", "adam_step", "network.adam_step", None),
    ("network", "sample_dropout_mask", "network.sample_dropout_mask", _mask_note),
    ("network", "softmax", "network.softmax", None),
    ("pipeline", "predict_table", "uncertainty.predict_table", None),
    ("uncertainty", "forward", "uncertainty.forward", _forward_note),
    ("uncertainty", "sample_dropout_mask", "uncertainty.sample_dropout_mask", _mask_note),
    ("uncertainty", "summarize", "uncertainty.summarize", None),
    ("pipeline", "write_dump", "uncertainty.write_dump",
     lambda a, k, r: {"bytes": _size(a[0]) + _size(a[1])}),
    ("pipeline", "read_dump", "uncertainty.read_dump", lambda a, k, r: {"bytes": _size(a[0])}),
    ("pipeline", "build_report", "evaluation.build_report", None),
    ("pipeline", "report_to_dict", "evaluation.render", None),
    ("pipeline", "threshold_table_csv", "evaluation.render", None),
    ("pipeline", "entropy_histogram_csv", "evaluation.render", None),
    ("pipeline", "render_reliability_svg", "evaluation.render", None),
    ("container", "write_json", "container.write_json", lambda a, k, r: {"bytes": _size(a[1])}),
    ("container", "read_json", "container.read_json", lambda a, k, r: {"bytes": _size(a[0])}),
    ("container", "sha256_file", "container.sha256_file", lambda a, k, r: {"bytes": _size(a[0])}),
    ("container", "encode_array", "container.codec", None),
    ("container", "decode_array", "container.codec", None),
)


class Tracer:
    """Collects spans in memory; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, phase, note dict or None]
        self.spans: list[list] = []
        self.phase = "cold"
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self, modules: dict) -> None:
        for module_name, attr, name, note in WRAPS:
            module = modules[module_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, note))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, original, name, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return traced


def _outermost(spans):
    """Indices of spans with no ancestor of the same name, so nested calls
    (save_network -> write_json -> ...) are not counted twice per name."""
    keep = []
    for i, span in enumerate(spans):
        parent = span[3]
        while parent >= 0 and spans[parent][0] != span[0]:
            parent = spans[parent][3]
        if parent < 0:
            keep.append(i)
    return keep


def _under(spans, i, ancestor_name) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == ancestor_name:
            return True
        parent = spans[parent][3]
    return False


def self_times(spans, phase="cold") -> dict:
    """Seconds per span name not covered by child spans."""
    child_time = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out = defaultdict(float)
    for i, span in enumerate(spans):
        if span[4] == phase:
            out[span[0]] += span[2] - span[1] - child_time[i]
    return dict(out)


def layer_metrics(spans) -> dict:
    """Per-layer figures from one traced cold chain followed by one resume.

    Times are inclusive seconds summed over the outermost calls of a name.
    """
    seconds = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(float)
    per_method = defaultdict(float)
    predict_softmax_s = 0.0
    run_stage = {"cold": [0, 0], "resume": [0, 0]}  # [attempted, skipped]
    for i in _outermost(spans):
        name, start, end, _, phase, note = spans[i]
        key = (phase, name)
        seconds[key] += end - start
        calls[key] += 1
        for label, value in (note or {}).items():
            if label == "method":
                per_method[(name, value)] += end - start
            elif label == "skipped":
                run_stage[phase][0] += 1
                run_stage[phase][1] += int(value)
            else:
                work[(phase, name, label)] += value
        if name == "network.softmax" and _under(spans, i, "uncertainty.predict_table"):
            predict_softmax_s += end - start

    def s(name, phase="cold"):
        return seconds[(phase, name)]

    def n(name, phase="cold"):
        return calls[(phase, name)]

    def w(name, label, phase="cold"):
        return work[(phase, name, label)]

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {
        "pipeline.data_s": s("pipeline.data"),
        "pipeline.models_s": s("pipeline.models"),
        **{f"pipeline.predict.{k}_s": per_method[("pipeline.predict", k)] for k in METHODS},
        **{f"pipeline.evaluate.{k}_s": per_method[("pipeline.evaluate", k)] for k in METHODS},
        "pipeline.summary_s": s("pipeline.summary"),
        "pipeline.stages_run": run_stage["cold"][0] - run_stage["cold"][1],
        "pipeline.stages_skipped": run_stage["resume"][1],
        "pipeline.resume_skip_ratio": rate(run_stage["resume"][1], run_stage["resume"][0]),
    }
    source_s = s("data.load_csv") + s("data.synth")
    cells = w("data.load_csv", "cells") + w("data.synth", "cells")
    m.update({
        "data.source_s": source_s,
        "data.prepare_s": s("data.split") + s("data.fit") + s("data.apply"),
        "data.save_features_s": s("data.save_features"),
        "data.load_features_s": s("data.load_features"),
        "data.cells": cells,
        "data.cells_per_s": rate(cells, source_s),
    })
    train_s, adam_s = s("network.train"), s("network.adam_step")
    mask_s = s("network.sample_dropout_mask")
    m.update({
        "network.train_s": train_s,
        "network.nets_trained": n("network.train"),
        "network.adam_steps": n("network.adam_step"),
        "network.adam_s": adam_s,
        "network.train_mask_s": mask_s,
        "network.fwd_bwd_s": train_s - adam_s - mask_s,
        "network.train_rows_per_s": rate(w("network.train", "rows"), train_s),
        "network.save_s": s("network.save"),
        "network.load_s": s("network.load"),
    })
    predict_s, forward_s = s("uncertainty.predict_table"), s("uncertainty.forward")
    sample_rows, gflop = w("uncertainty.forward", "rows"), w("uncertainty.forward", "flop") / 1e9
    m.update({
        "uncertainty.predict_s": predict_s,
        "uncertainty.forward_s": forward_s,
        "uncertainty.forward_calls": n("uncertainty.forward"),
        "uncertainty.softmax_s": predict_softmax_s,
        "uncertainty.mask_s": s("uncertainty.sample_dropout_mask"),
        "uncertainty.mask_draws": n("uncertainty.sample_dropout_mask"),
        "uncertainty.mask_cells": w("uncertainty.sample_dropout_mask", "cells"),
        "uncertainty.reduce_s": s("uncertainty.summarize"),
        "uncertainty.reduce_calls": n("uncertainty.summarize"),
        "uncertainty.sample_rows": sample_rows,
        "uncertainty.sample_rows_per_s": rate(sample_rows, predict_s),
        "uncertainty.forward_gflop": gflop,
        "uncertainty.forward_gflops": rate(gflop, forward_s),
        "uncertainty.write_dump_s": s("uncertainty.write_dump"),
        "uncertainty.read_dump_s": s("uncertainty.read_dump"),
        "uncertainty.dump_mb": w("uncertainty.write_dump", "bytes") / MB,
        "evaluation.report_s": s("evaluation.build_report"),
        "evaluation.render_s": s("evaluation.render"),
        "container.write_json_s": s("container.write_json"),
        "container.written_mb": w("container.write_json", "bytes") / MB,
        "container.read_json_s": s("container.read_json"),
        "container.read_mb": w("container.read_json", "bytes") / MB,
        "container.sha256_s": s("container.sha256_file"),
        "container.hashed_mb": w("container.sha256_file", "bytes") / MB,
        "container.codec_s": s("container.codec"),
        "resume.sha256_s": s("container.sha256_file", "resume"),
        "resume.hashed_mb": w("container.sha256_file", "bytes", "resume") / MB,
        "resume.read_json_s": s("container.read_json", "resume"),
    })
    return m
