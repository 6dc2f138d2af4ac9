"""Per-layer tracing by wrapping the program's public functions from outside.

Every module namespace under ``punctual`` that binds a traced function is
patched, because modules import each other's functions by name.  A
function that does not exist is reported as absent and not traced.

Three kinds of wrapper:

* ``span``: one span per call (name, start, end, parent span, op id),
  kept in memory and written out when the worker ends;
* ``leaf``: hot kernels, aggregated as calls plus busy time only;
* ``gen``: a generator, timed across its ``next`` calls, counting items.

Each wrapper also charges its duration to the enclosing frame, so a
layer's self time is its busy time minus the time of its wrapped callees.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function, kind).  Names are metric prefixes "<module>.<function>".
TARGETS = (
    ("cli", "main", "span"),
    ("poly", "parse_generators", "span"),
    ("groebner", "buchberger", "span"),
    ("groebner", "spolynomial", "leaf"),
    ("groebner", "normal_form", "leaf"),
    ("artinian", "analyze_quotient", "span"),
    ("artinian", "local_components", "span"),
    ("artinian", "local_component_at", "span"),
    ("artinian", "quotient_basis", "span"),
    ("artinian", "multiplication_matrices", "span"),
    ("artinian", "nilpotency_index", "span"),
    ("artinian", "socle_dimension", "span"),
    ("artinian", "generator_count", "span"),
    ("linalg", "minimal_polynomial", "span"),
    ("linalg", "mat_pow", "span"),
    ("linalg", "mat_mul", "leaf"),
    ("linalg", "rref", "leaf"),
    ("verify", "check_socle_identity", "span"),
    ("verify", "check_multiplicity_formula", "span"),
    ("verify", "check_degeneration", "span"),
    ("verify", "check_staircase_bound", "span"),
    ("verify", "socle_census", "span"),
    ("verify", "random_ideal_trials", "span"),
    ("staircase", "partitions_of", "gen"),
    ("staircase", "corners", "leaf"),
)


def _dense_mults(args, result):
    a, b = args[0], args[1]
    return len(a) * len(b) * (len(b[0]) if b else 0)


def _cells(args, result):
    matrix = args[0]
    return len(matrix) * (len(matrix[0]) if matrix else 0)


# Work counts derived from a call's arguments or result: name -> (metric, fn).
EXTRA_COUNTS = {
    "linalg.mat_mul": ("linalg.mat_mul.dense_mults", _dense_mults),
    "linalg.rref": ("linalg.rref.cells", _cells),
    "artinian.multiplication_matrices": (
        "artinian.multiplication_matrices.colength_sum",
        lambda args, result: len(result.on_x),
    ),
    "artinian.local_components": (
        "artinian.components_found",
        lambda args, result: len(result.components),
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.op_id = -1
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self._stack: list[list] = [[0.0, None]]  # [child time, span id]
        self._stats: dict[str, list] = {}  # name -> [calls, busy, self]
        self._counts: dict[str, int] = {}

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "punctual"]
        for module_name, func_name, kind in TARGETS:
            name = f"{module_name}.{func_name}"
            module = sys.modules.get(f"punctual.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            self._stats[name] = [0, 0.0, 0.0]
            if kind == "gen":
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, kind == "span")
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _finish(self, stat, frame, start, end) -> None:
        duration = end - start
        self._stack.pop()
        self._stack[-1][0] += duration
        stat[1] += duration
        stat[2] += duration - frame[0]

    def _wrap(self, name, original, record_span):
        stat = self._stats[name]
        extra = EXTRA_COUNTS.get(name)
        stack, spans, counts, clock = self._stack, self.spans, self._counts, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            frame = [0.0, len(spans) if record_span else parent]
            if record_span:
                spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            stat[0] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                self._finish(stat, frame, start, end)
                if record_span:
                    spans[frame[1]] = (name, start, end, parent, self.op_id)
            if extra:
                counts[extra[0]] = counts.get(extra[0], 0) + extra[1](args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, original):
        stat = self._stats[name]
        yielded = f"{name}.yielded"
        stack, counts, clock = self._stack, self._counts, time.perf_counter

        def wrapper(*args, **kwargs):
            stat[0] += 1
            iterator = original(*args, **kwargs)
            while True:
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._finish(stat, frame, start, clock())
                counts[yielded] = counts.get(yielded, 0) + 1
                yield item

        return wrapper

    def take(self) -> dict:
        """Counts and times since the last call, as flat metric names."""
        out = dict(self._counts)
        for name, stat in self._stats.items():
            out[f"{name}.calls"] = stat[0]
            out[f"{name}.busy_s"] = stat[1]
            out[f"{name}.self_s"] = stat[2]
            stat[:] = [0, 0.0, 0.0]
        self._counts.clear()
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, span in enumerate(self.spans):
                if span is not None:
                    handle.write(json.dumps({"id": span_id, **dict(zip(keys, span))}) + "\n")
