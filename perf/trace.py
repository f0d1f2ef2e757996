"""Layer-boundary tracer for the perf benchmark (no edits under ``src/``).

A ``sys.setprofile`` hook opens a span whenever a call enters a function
whose defining package ``repro.<L>`` differs from the layer of the span
that is currently open, and closes it when that frame returns.  Frames of
numpy, scipy, builtins, the stdlib and of ``repro`` packages outside
``LAYERS`` open no span, so their time stays with the nearest enclosing
layer.  A span's self time is its duration minus its child spans'.

Aggregates (self nanoseconds per layer, entries per layer and per calling
layer) are kept for every span; full spans are kept only while
``keep_spans`` is set — the runner sets it for the first unit of each
kind — and are written as Chrome-trace JSON (open it in Perfetto).
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List, Optional, Tuple

#: The ``src/repro`` packages the workloads execute, in reporting order.
LAYERS = (
    "datasets", "graph", "sampling", "frameworks", "kernels", "tensor",
    "models", "datapipe", "serving", "simtime", "hardware", "power",
    "profiling", "telemetry", "resilience", "bench",
)
#: Layer of the root span: the benchmark runner's own loop.
ROOT_LAYER = "perf"


def _layer_of(module_name: str) -> Optional[str]:
    parts = module_name.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


class LayerTracer:
    """Collects layer spans between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        # (phase, layer) -> self nanoseconds
        self.self_ns: Dict[Tuple[str, str], int] = {}
        # (phase, calling layer, layer) -> spans opened
        self.calls: Dict[Tuple[str, str, str], int] = {}
        # finished full spans: (name, start_ns, end_ns, id, parent id, unit)
        self.spans: List[Tuple[str, int, int, int, int, str]] = []
        self.keep_spans = False
        self.unit = ""
        self._code_layer: Dict[object, Optional[str]] = {}
        self._next_id = 0
        self._origin_ns = 0
        # Open spans, innermost last: [layer, frame, start, child_ns, id, name]
        self._stack: List[list] = []
        self._phase = ""

    # ------------------------------------------------------------------
    def start(self, phase: str) -> None:
        """Open the root span for ``phase`` and install the hook."""
        self._phase = phase
        now = time.perf_counter_ns()
        if not self._origin_ns:
            self._origin_ns = now
        self._next_id += 1
        self._stack = [[ROOT_LAYER, None, now, 0, self._next_id,
                        f"{ROOT_LAYER}:{phase}"]]
        sys.setprofile(self._make_hook())

    def stop(self) -> float:
        """Remove the hook, close every open span; return root seconds."""
        sys.setprofile(None)
        end = time.perf_counter_ns()
        root_start = self._stack[0][2]
        while self._stack:
            self._close(end)
        return (end - root_start) / 1e9

    # ------------------------------------------------------------------
    def _make_hook(self):
        code_layer = self._code_layer
        stack = self._stack
        calls = self.calls
        phase = self._phase
        now = time.perf_counter_ns
        close = self._close

        def hook(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                try:
                    layer = code_layer[code]
                except KeyError:
                    layer = code_layer[code] = _layer_of(
                        frame.f_globals.get("__name__", ""))
                top = stack[-1]
                if layer is None or layer == top[0]:
                    return
                key = (phase, top[0], layer)
                calls[key] = calls.get(key, 0) + 1
                self._next_id += 1
                stack.append([layer, frame, now(), 0, self._next_id,
                              f"{layer}:{code.co_qualname}"])
            elif event == "return" and frame is stack[-1][1]:
                close(now())

        return hook

    def _close(self, end: int) -> None:
        layer, _frame, start, child_ns, span_id, name = self._stack.pop()
        duration = end - start
        key = (self._phase, layer)
        self.self_ns[key] = self.self_ns.get(key, 0) + duration - child_ns
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[4]
        if self.keep_spans:
            self.spans.append((name, start, end, span_id, parent_id,
                               self.unit))

    # ------------------------------------------------------------------
    def self_seconds(self, phase: str) -> Dict[str, float]:
        """Self seconds per layer (``ROOT_LAYER`` included) for ``phase``."""
        return {layer: ns / 1e9 for (p, layer), ns in self.self_ns.items()
                if p == phase}

    def entries(self, phase: str) -> Dict[str, int]:
        """Entries into each layer from another layer during ``phase``."""
        out: Dict[str, int] = {}
        for (p, _caller, layer), count in self.calls.items():
            if p == phase:
                out[layer] = out.get(layer, 0) + count
        return out

    def entries_by_caller(self, phase: str) -> Dict[Tuple[str, str], int]:
        return {(caller, layer): count
                for (p, caller, layer), count in self.calls.items()
                if p == phase}

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as Chrome-trace JSON (``ph: X`` events)."""
        events = [
            {
                "name": name,
                "cat": name.split(":", 1)[0],
                "ph": "X",
                "ts": (start - self._origin_ns) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent_id, "unit": unit},
            }
            for name, start, end, span_id, parent_id, unit in self.spans
        ]
        events.sort(key=lambda event: event["ts"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
