"""Outside-in span recorder for the traced benchmark run.

Every public function of every ``aplab.*`` module is replaced, in every
``aplab.*`` namespace that holds it, by a wrapper that records one span:
name (``<layer>.<function>``), start, end and parent span.  ``pipelines``
and ``cli`` import names directly, so wrapping only the defining module would
miss their calls.  Each task of the loop gets a root span, so the spans of
one task share its root.  Spans stay in memory; ``write`` dumps them at exit.

Work units are computed from call arguments and results at the boundary, by
the functions in ``Recorder.work``.  The wrappers' own bookkeeping is timed
separately and reported as ``trace.overhead_s``: the time tracing adds.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
from itertools import combinations
from time import perf_counter

LAYERS = ("cli", "pipelines", "torus", "sets", "colorings", "uniformity", "patterns")

# span name -> per-layer metric that receives the span's self time
SELF_TIME = {
    "torus.pattern_probability_exact": "torus.exact_s",
    "torus.pattern_probability_mc": "torus.mc_s",
    "torus.lambda_tilde_mc": "torus.mc_s",
    "torus.interlace_k": "torus.interlace_s",
    "torus.interlace_m": "torus.interlace_s",
    "sets.greedy_solution_free_set": "sets.greedy_s",
    "sets.verify_solution_free": "sets.verify_s",
    "sets.verify_set_pattern_free": "sets.verify_s",
    "colorings.verify_symmetric_ap_free": "colorings.verify_s",
    "colorings.verify_sym_a_ap_free": "colorings.verify_s",
    "colorings.verify_binomial_pattern_free": "colorings.verify_s",
    "colorings.verify_mono_pattern_free": "colorings.verify_s",
    "colorings.verify_abab_abba_free": "colorings.verify_s",
    "colorings.tensor_power": "colorings.tensor_s",
    "colorings.search_coloring": "colorings.search_s",
    "uniformity.lambda_exact": "uniformity.lambda_s",
    "uniformity.gowers_norm": "uniformity.gowers_s",
    "uniformity.extract_coloring": "uniformity.extract_s",
}
# layer -> metric that receives the self time of all of the layer's spans
LAYER_SELF_TIME = {"pipelines": "pipelines.self_s", "cli": "cli.self_s", "patterns": "patterns.s"}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _nd_pairs(coloring, amax, signed=False):
    """(n, d) pairs a scan visits: all of them on Z/NZ, the in-range ones on
    an interval (both signs of d when ``signed``)."""
    n = coloring.n
    if coloring.ambient == "cyclic":
        return n * (n - 1)
    pairs = sum(n - amax * d for d in range(1, (n - 1) // amax + 1)) if amax < n else 0
    return 2 * pairs if signed else pairs


def _amax(spec):
    return spec.normalized().a[-1]


def _verify_set_work(result, args, kwargs):
    t, k = len(args[0]), _arg(args, kwargs, 1, "system").k
    half = (k + 1) // 2
    return {"sets.verify_work": t**half + t ** (k - half)}


def _abab_work(result, args, kwargs):
    coloring, a_bound = args[0], _arg(args, kwargs, 1, "a_bound")
    quads = combinations(range(1, a_bound + 1), 4)
    return {"colorings.verify_work": sum(_nd_pairs(coloring, q[3] - q[0]) for q in quads)}


def _lambda_work(result, args, kwargs):
    fs = args[0]
    n = fs.N if hasattr(fs, "N") else fs[0].N
    return {"uniformity.lambda_work": n * n}


def _greedy_work(result, args, kwargs):
    return {
        "sets.greedy_calls": 1,
        "sets.greedy_scanned": result.scanned,
        "sets.greedy_complete": int(result.complete),
    }


class Recorder:
    """Wraps aplab's public functions and records one span per call."""

    def __init__(self):
        self.spans = []  # [name, t_enter, start, end, t_exit, parent, units]
        self.counters = {}
        self._stack = []
        self._restore = []
        self._cells = {}
        self.work = {
            "torus.pattern_probability_exact": self._exact_work,
            "torus.pattern_probability_mc": lambda r, a, k: {"torus.mc_samples": r.samples},
            "torus.lambda_tilde_mc": lambda r, a, k: {"torus.mc_samples": r.samples},
            "torus.interlace_k": lambda r, a, k: {"torus.interlace_cells": r.D},
            "torus.interlace_m": lambda r, a, k: {"torus.interlace_cells": r.D},
            "sets.greedy_solution_free_set": _greedy_work,
            "sets.verify_solution_free": _verify_set_work,
            "colorings.verify_symmetric_ap_free": lambda r, a, k: {
                "colorings.verify_work": _nd_pairs(a[0], _arg(a, k, 1, "k") - 1)
            },
            "colorings.verify_sym_a_ap_free": lambda r, a, k: {
                "colorings.verify_work": _nd_pairs(a[0], _amax(_arg(a, k, 1, "spec")))
            },
            "colorings.verify_binomial_pattern_free": lambda r, a, k: {
                "colorings.verify_work": _nd_pairs(a[0], _amax(_arg(a, k, 1, "spec")), signed=True)
            },
            "colorings.verify_abab_abba_free": _abab_work,
            "colorings.search_coloring": lambda r, a, k: {"colorings.search_nodes": r.nodes},
            "uniformity.lambda_exact": _lambda_work,
            "uniformity.gowers_norm": lambda r, a, k: {
                "uniformity.gowers_ffts": a[0].N if _arg(a, k, 1, "s") == 3 else 1
            },
            "uniformity.extract_coloring": lambda r, a, k: {
                "uniformity.extract_attempts": r.attempts,
                "uniformity.extract_accepted": int(r.coloring is not None),
            },
        }

    def _exact_work(self, result, args, kwargs):
        phi, spec = args[0], _arg(args, kwargs, 1, "spec")
        key = spec.normalized().a
        if key not in self._cells:
            self._cells[key] = len(self._pattern_cells(spec))
        return {"torus.exact_work": phi.D * phi.D * self._cells[key]}

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def _wrap(self, fn, name):
        work = self.work.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            idx = len(spans)
            span = [name, t_enter, 0.0, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = span[4] = perf_counter()
                stack.pop()
            if work is not None:
                span[6] = work(result, args, kwargs)
            span[4] = perf_counter()
            return result

        return wrapper

    def traced(self, task):
        """The task with a root span ``task.<name>``; every aplab span of the
        task descends from it."""
        return dataclasses.replace(task, run=self._wrap(task.run, f"task.{task.name}"))

    def install(self):
        """Wrap every public aplab function in every aplab namespace."""
        import aplab.cli  # noqa: F401 - the CLI layer is wrapped too
        import aplab.torus

        self._pattern_cells = aplab.torus.pattern_cells
        modules = [m for n, m in sorted(sys.modules.items()) if n == "aplab" or n.startswith("aplab.")]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("aplab.") or inspect.isgeneratorfunction(obj):
                    continue
                layer = obj.__module__.split(".")[1]
                if layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                setattr(mod, attr, wrappers[id(obj)])
                self._restore.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def layer_metrics(self, rounds, round_s):
        """Per-layer metrics, each a mean per round over ``rounds`` rounds."""
        child = [0.0] * len(self.spans)
        for name, t_enter, start, end, t_exit, parent, units in self.spans:
            if parent >= 0:
                child[parent] += t_exit - t_enter
        totals = dict.fromkeys(PER_LAYER, 0.0)
        totals["sets.greedy_complete"] = 0.0
        totals["uniformity.extract_accepted"] = 0.0
        overhead = 0.0
        for (name, t_enter, start, end, t_exit, parent, units), inner in zip(self.spans, child):
            self_s = end - start - inner
            overhead += (start - t_enter) + (t_exit - end)
            layer = name.split(".", 1)[0]
            if name in SELF_TIME:
                totals[SELF_TIME[name]] += self_s
            if layer in LAYER_SELF_TIME:
                totals[LAYER_SELF_TIME[layer]] += self_s
            if layer == "patterns":
                totals["patterns.calls"] += 1
            for key, value in (units or {}).items():
                totals[key] += value
        for key, value in self.counters.items():
            totals[key] += value
        totals["trace.overhead_s"] = overhead
        out = {key: totals[key] / rounds for key in PER_LAYER}
        out["trace.round_s"] = round_s
        out["torus.exact_rate"] = _ratio(totals["torus.exact_work"], totals["torus.exact_s"])
        out["torus.mc_rate"] = _ratio(totals["torus.mc_samples"], totals["torus.mc_s"])
        out["sets.greedy_useful"] = _ratio(totals["sets.greedy_complete"], totals["sets.greedy_calls"])
        out["uniformity.extract_useful"] = _ratio(
            totals["uniformity.extract_accepted"], totals["uniformity.extract_attempts"]
        )
        return out

    def write(self, path, run_start):
        with open(path, "w") as fh:
            for name, _, start, end, _, parent, units in self.spans:
                row = {"name": name, "start": start - run_start, "end": end - run_start, "parent": parent}
                if units:
                    row["units"] = units
                fh.write(json.dumps(row) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = {
    "torus.exact_s": ("s", "lower"),
    "torus.exact_work": ("count", "lower"),
    "torus.exact_rate": ("1/s", "higher"),
    "torus.mc_s": ("s", "lower"),
    "torus.mc_samples": ("count", "lower"),
    "torus.mc_rate": ("1/s", "higher"),
    "torus.interlace_s": ("s", "lower"),
    "torus.interlace_cells": ("count", "lower"),
    "sets.greedy_s": ("s", "lower"),
    "sets.greedy_calls": ("count", "lower"),
    "sets.greedy_scanned": ("count", "lower"),
    "sets.greedy_useful": ("ratio", "higher"),
    "sets.verify_s": ("s", "lower"),
    "sets.verify_work": ("count", "lower"),
    "colorings.verify_s": ("s", "lower"),
    "colorings.verify_work": ("count", "lower"),
    "colorings.tensor_s": ("s", "lower"),
    "colorings.search_s": ("s", "lower"),
    "colorings.search_nodes": ("count", "lower"),
    "uniformity.lambda_s": ("s", "lower"),
    "uniformity.lambda_work": ("count", "lower"),
    "uniformity.gowers_s": ("s", "lower"),
    "uniformity.gowers_ffts": ("count", "lower"),
    "uniformity.extract_s": ("s", "lower"),
    "uniformity.extract_attempts": ("count", "lower"),
    "uniformity.extract_useful": ("ratio", "higher"),
    "pipelines.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "patterns.s": ("s", "lower"),
    "patterns.calls": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.round_s": ("s", "lower"),
}
