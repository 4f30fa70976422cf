"""Span tracer that wraps wmpath's public functions from outside the package.

Each public function of each layer module is replaced by a wrapper in every
wmpath module namespace that holds it, because ``cli``, ``paths``, ``meter``
and ``tomography`` import functions by name.  A wrapper records one span
(name, start, end, parent span, request id, whether it raised) while a
request is active and adds nothing else.  Spans stay in memory; the
benchmark writes them out when the run ends.

Everything runs in one thread of one process and nothing queues, so there
is no wait time to record: a span's duration is busy time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

LAYERS = ("cli", "scenarios", "paths", "hilbert", "meter", "tomography", "tunneling")


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str          # "<layer>.<function>", or "request.<kind>" for a root
    start: float
    end: float
    request_id: int
    raised: bool
    value: float | None = None   # the counter below, where one applies


def _k_values(args, kwargs, result) -> int:
    k = kwargs["k"] if "k" in kwargs else args[1]
    return int(getattr(k, "size", 1))


# counters read at a span's boundary: (args, kwargs, result) -> number;
# the result is None when the call raised
_COUNTERS = {
    "tunneling.transmission_amplitude": _k_values,
    "tunneling.shift_amplitudes":
        lambda args, kwargs, result: None if result is None else result.x_grid.size,
    "cli.main": lambda args, kwargs, result: result,
}


class Tracer:
    """Install with :meth:`install`; wrap each request in :meth:`request`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request_id: int | None = None
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        tracer = self
        counter = _COUNTERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer._request_id is None:
                return func(*args, **kwargs)
            span_id = tracer._open()
            start = time.perf_counter()
            result = None
            raised = True
            try:
                result = func(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                value = counter(args, kwargs, result) if counter else None
                tracer._close(span_id, name, start, end, raised, value)

        return wrapper

    def _open(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id, name, start, end, raised, value):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(span_id, parent, name, start, end,
                               self._request_id, raised, value))

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"wmpath.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("wmpath"), *modules.values(),
                      importlib.import_module("wmpath.errors")]
        for layer, module in modules.items():
            for attr, func in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(func)
                        or func.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", func)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is func:
                            self._installed.append((namespace, key, func))
                            setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for namespace, key, func in reversed(self._installed):
            setattr(namespace, key, func)
        self._installed.clear()

    def request(self, request_id: int, kind: str, call):
        """Run ``call()`` as request ``request_id`` under a root span."""
        self._request_id = request_id
        try:
            span_id = self._open()
            start = time.perf_counter()
            raised = True
            try:
                result = call()
                raised = False
                return result
            finally:
                self._close(span_id, f"request.{kind}", start,
                            time.perf_counter(), raised, None)
        finally:
            self._request_id = None

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                covered[span.parent_id] = (covered.get(span.parent_id, 0.0)
                                           + span.end - span.start)
        return {span.span_id: span.end - span.start - covered.get(span.span_id, 0.0)
                for span in self.spans}

    def dump(self) -> list[dict]:
        return [{"id": s.span_id, "parent": s.parent_id, "name": s.name,
                 "start": s.start, "end": s.end, "request": s.request_id,
                 "raised": s.raised, "value": s.value} for s in self.spans]
