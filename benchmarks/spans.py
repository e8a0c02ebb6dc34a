"""In-memory spans around calls into ridecomfort's public functions.

A span is (name, start, end, parent, op id, raised, count).  ``Tracer.op``
replaces module attributes with timing wrappers for the duration of one
traced op and restores them afterwards, so untraced ops run the original
functions.  The wrapped names include those that ``pipeline``, ``cli`` and
``perception`` import, so calls made inside the program get spans too.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time

LAYERS = ("body", "perception", "timeseries", "spectral", "excitation",
          "sickness", "comfort", "pipeline", "cli")
STAGES = ("input", "body", "perception", "sickness", "metrics")
ROOT_SPAN = "bench.op"


def _saved(args, kwargs, result):
    ts = args[0] if args else kwargs["ts"]
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path), "rows": ts.n_samples}


def _loaded(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path), "rows": result.n_samples}


def _steps(args, kwargs, result):
    return {"steps": result.n_samples - 1}


def _sv_samples(args, kwargs, result):
    return {"samples": result.n_samples}


# span name -> (modules whose attribute is replaced, count taken after the call)
WRAPPED = {
    "excitation.generate_excitation": (("ridecomfort.excitation", "ridecomfort.pipeline"), None),
    "body.build_model": (("ridecomfort.body.build", "ridecomfort.pipeline"), None),
    "body.simulate": (("ridecomfort.body.integrate", "ridecomfort.pipeline"), _steps),
    "spectral.estimate_frf": (("ridecomfort.spectral", "ridecomfort.pipeline"), None),
    "spectral.detect_peaks": (("ridecomfort.spectral", "ridecomfort.pipeline"), None),
    "perception.perceive": (("ridecomfort.perception", "ridecomfort.pipeline"), None),
    "perception.subjective_vertical": (("ridecomfort.perception",), _sv_samples),
    "sickness.accumulate": (("ridecomfort.sickness", "ridecomfort.pipeline"), None),
    "sickness.summarize": (("ridecomfort.sickness", "ridecomfort.pipeline"), None),
    "comfort.comfort_report": (("ridecomfort.comfort", "ridecomfort.pipeline"), None),
    "comfort.design_weighting": (("ridecomfort.comfort",), None),
    "timeseries.save_timeseries": (("ridecomfort.timeseries", "ridecomfort.pipeline"),
                                   _saved),
    "timeseries.load_timeseries": (("ridecomfort.timeseries", "ridecomfort.pipeline",
                                    "ridecomfort.cli"), _loaded),
    "pipeline.parse_config": (("ridecomfort.pipeline",), None),
    "pipeline.run_pipeline": (("ridecomfort.pipeline",), None),
    **{f"pipeline.stage_{s}": (("ridecomfort.pipeline",), None) for s in STAGES},
    "cli.main": (("ridecomfort.cli",), None),
}

# Fields of a span record.
NAME, START, END, PARENT, OP, RAISED, COUNT = range(7)


class Tracer:
    """Collects spans of traced ops; one instance per benchmark process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def op(self, op_id):
        """Trace one op: patch the wrapped names and open its root span."""
        saved = []
        for name, (modules, count) in WRAPPED.items():
            attr = name.split(".", 1)[1]
            for module_name in modules:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, count))
        self._op = op_id
        root = self._wrap(ROOT_SPAN, lambda body: body(), None)
        try:
            yield root
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._op = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"name": rec[NAME], "start": rec[START],
                                     "end": rec[END], "parent": rec[PARENT],
                                     "op": rec[OP], "raised": rec[RAISED],
                                     "count": rec[COUNT]}) + "\n")


def op_layer_metrics(spans, indices):
    """Per-layer numbers of one op from its spans (``indices`` into ``spans``)."""
    dur = {i: spans[i][END] - spans[i][START] for i in indices}
    child = dict.fromkeys(indices, 0.0)
    child_raised = set()
    for i in indices:
        parent = spans[i][PARENT]
        if parent in child:
            child[parent] += dur[i]
            if spans[i][RAISED]:
                child_raised.add(parent)
    self_s = {i: dur[i] - child[i] for i in indices}

    def layer(i):
        return spans[i][NAME].split(".", 1)[0]

    def named(name):
        return [i for i in indices if spans[i][NAME] == name]

    def outermost(i):
        p = spans[i][PARENT]
        while p in child:
            if layer(p) == layer(i):
                return False
            p = spans[p][PARENT]
        return True

    def total(name, values=dur):
        return sum(values[i] for i in named(name))

    def count(name, key):
        return sum(spans[i][COUNT][key] for i in named(name)
                   if spans[i][COUNT] is not None)

    m = {}
    for lay in LAYERS:
        mine = [i for i in indices if layer(i) == lay]
        m[f"{lay}.busy_s"] = sum(dur[i] for i in mine if outermost(i))
        m[f"{lay}.self_s"] = sum(self_s[i] for i in mine)
        m[f"{lay}.ops_failed"] = sum(1 for i in mine
                                     if spans[i][RAISED] and i not in child_raised)
    m["body.simulate_s"] = total("body.simulate")
    m["body.steps"] = count("body.simulate", "steps")
    m["body.build_model_s"] = total("body.build_model")
    m["perception.subjective_vertical_s"] = total("perception.subjective_vertical")
    m["perception.sv_samples"] = count("perception.subjective_vertical", "samples")
    m["timeseries.save_s"] = total("timeseries.save_timeseries")
    m["timeseries.bytes_written"] = count("timeseries.save_timeseries", "bytes")
    m["timeseries.rows_written"] = count("timeseries.save_timeseries", "rows")
    m["timeseries.load_s"] = total("timeseries.load_timeseries")
    m["timeseries.bytes_read"] = count("timeseries.load_timeseries", "bytes")
    m["spectral.frf_calls"] = len(named("spectral.estimate_frf"))
    m["comfort.design_weighting_calls"] = len(named("comfort.design_weighting"))
    for stage in STAGES:
        m[f"pipeline.stage_self_s.{stage}"] = total(f"pipeline.stage_{stage}", self_s)
    m["pipeline.parse_config_s"] = total("pipeline.parse_config")
    roots = named(ROOT_SPAN)
    m["trace.op_wall_s"] = sum(dur[i] for i in roots)
    m["trace.unattributed_s"] = sum(self_s[i] for i in roots)
    return m
