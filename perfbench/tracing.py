"""In-memory tracer that wraps the public functions of each recrange layer.

The tracer replaces every public function of a layer module, at every
recrange module that holds a reference to it (for example both
``recrange.specfun.reg_lower_gamma`` and ``recrange.model.reg_lower_gamma``),
with a wrapper that records a span: name, start, end, parent span and the
item being served. Aggregates (calls, inclusive busy time, self time,
failures) are kept for every span; the span list itself is capped so a long
traced run keeps bounded memory. ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("specfun", "records", "model", "estimators", "intervals", "risk", "sim", "cli")


def _count_values(tracer, args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    tracer.counters["records.extract_upper_records.values"] += len(data)


def _note_quantile_args(tracer, args, kwargs, result):
    key = (args[0], args[1]) if len(args) >= 2 else (kwargs.get("p"), kwargs.get("nu"))
    if key in tracer.quantile_args:
        tracer.counters["specfun.chi2_quantile.repeats"] += 1
    else:
        tracer.quantile_args.add(key)


def _note_hpd_iterations(tracer, args, kwargs, result):
    tracer.counters["intervals.hpd_exact.outer_iterations"] += result.diagnostics[
        "outer_iterations"
    ]
    tracer.counters["intervals.hpd_exact.solved"] += 1


def _note_coverage_eval(tracer, args, kwargs, result):
    if tracer.active["intervals.hpd_exact"] > 0:
        tracer.counters["intervals.hpd_exact.coverage_evals"] += 1


# counters measured where the work happens, keyed by span name
HOOKS = {
    "records.extract_upper_records": _count_values,
    "specfun.chi2_quantile": _note_quantile_args,
    "intervals.hpd_exact": _note_hpd_iterations,
    "model.posterior_coverage": _note_coverage_eval,
}


class Tracer:
    """Span recorder; one instance per traced window."""

    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.item = -1
        self.names: list[str] = []
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.layer_busy: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.layer_depth: Counter = Counter()
        self.active: Counter = Counter()
        self.counters: Counter = Counter()
        self.failures: Counter = Counter()  # (layer, exception type) -> count
        self.expected: Counter = Counter()  # exceptions the caller treats as output
        self.quantile_args: set = set()
        self._stack: list[list] = []  # [span id, time covered by child spans]
        self._next_id = 0
        self._span_id = array("q")
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("q")
        self._span_item = array("q")
        self._patches: list[tuple] = []
        self.origin = perf_counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer at all of its import sites."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"recrange.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[fn] = self._wrap(fn, name, layer, HOOKS.get(name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "recrange" and not mod_name.startswith("recrange."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, fn, name: str, layer: str, hook):
        tracer = self
        stack = self._stack
        name_idx = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [span_id, 0.0]
            tracer.layer_depth[layer] += 1
            tracer.active[name] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._failed(layer, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.active[name] -= 1
                tracer.layer_depth[layer] -= 1
                tracer._close(name_idx, name, layer, span_id, start, end, frame[1])
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- recording ----------------------------------------------------------

    def _close(self, name_idx, name, layer, span_id, start, end, child_time):
        duration = end - start
        parent = -1
        if self._stack:
            parent_frame = self._stack[-1]
            parent = parent_frame[0]
            parent_frame[1] += duration
        own = duration - child_time
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_time[name] += own
        self.layer_self[layer] += own
        if self.layer_depth[layer] == 0:
            self.layer_busy[layer] += duration  # outermost span of this layer
        if len(self._span_id) < self.span_cap:
            self._span_id.append(span_id)
            self._span_name.append(name_idx)
            self._span_start.append(start - self.origin)
            self._span_end.append(end - self.origin)
            self._span_parent.append(parent)
            self._span_item.append(self.item)

    def _failed(self, layer: str, exc: BaseException) -> None:
        # charge an exception to the innermost layer that raised it, once
        if getattr(exc, "_perfbench_layer", None) is None:
            try:
                exc._perfbench_layer = layer
            except AttributeError:
                return
            self.failures[(layer, type(exc).__name__)] += 1

    def expected_error(self, exc: BaseException) -> None:
        """Reclassify an exception the caller handles as a correct output."""
        layer = getattr(exc, "_perfbench_layer", None)
        if layer is not None:
            key = (layer, type(exc).__name__)
            self.failures[key] -= 1
            self.expected[key] += 1

    # -- reporting ----------------------------------------------------------

    @property
    def spans_recorded(self) -> int:
        return self._next_id

    def layer_failures(self, layer: str) -> int:
        return sum(n for (lay, _), n in self.failures.items() if lay == layer)

    def write(self, path, extra: dict) -> None:
        """Dump the spans (sorted by id) and every aggregate as JSON."""
        order = sorted(range(len(self._span_id)), key=self._span_id.__getitem__)
        spans = [
            [
                self._span_id[i],
                self.names[self._span_name[i]],
                round(self._span_start[i], 9),
                round(self._span_end[i], 9),
                self._span_parent[i],
                self._span_item[i],
            ]
            for i in order
        ]
        payload = {
            "span_columns": ["id", "name", "start_s", "end_s", "parent", "item"],
            "spans": spans,
            "spans_total": self._next_id,
            "spans_dropped": self._next_id - len(spans),
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "self_s": dict(self.self_time),
            "layer_busy_s": dict(self.layer_busy),
            "layer_self_s": dict(self.layer_self),
            "counters": dict(self.counters),
            "failures": {f"{lay}.{typ}": n for (lay, typ), n in self.failures.items() if n},
            "expected_errors": {f"{lay}.{typ}": n for (lay, typ), n in self.expected.items()},
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
