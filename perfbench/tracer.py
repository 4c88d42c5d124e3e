"""Benchmark-owned span recorder: wraps each layer's public functions.

Nothing here lives in the program.  :func:`install` replaces every
module binding of a target function (found by identity in
``sys.modules``) and every target method on its class with a wrapper
that records ``[name, start, end, parent, op, value]``: ``op`` is the
request's cache key or the sweep cell's label, ``value`` a count read
off the return value (events executed, executor retries and failures).
Spans stay in memory; the process that recorded them writes them out
once, at exit.

Parents are per-thread call stacks.  A span opened on a thread with an
empty stack (the service's dispatcher thread) adopts the open *request*
span: the load is a closed loop with one client, so at most one request
is in flight.  Self time is a span's duration minus the union of its
children's intervals, so cross-thread children count too.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# span record fields; VALUE holds what a hook read off the return value
NAME, START, END, PARENT, OP, VALUE = range(6)

#: (module, attribute path) of every wrapped function, grouped by layer
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.serve.service", "SegbusService.submit"),
    ("repro.serve.jobs", "parse_job"),
    ("repro.serve.jobs", "cache_key"),
    ("repro.serve.jobs", "validate_job"),
    ("repro.serve.jobs", "execute_job"),
    ("repro.serve.jobs", "response_bytes"),
    ("repro.xmlio.psdf_parser", "parse_psdf_xml"),
    ("repro.xmlio.psm_parser", "parse_psm_xml"),
    ("repro.xmlio.faults_xml", "parse_fault_plan_xml"),
    ("repro.xmlio.psdf_writer", "psdf_to_xml"),
    ("repro.xmlio.psm_writer", "psm_to_xml"),
    ("repro.lint.engine", "lint_models"),
    ("repro.lint.engine", "lint_multimode"),
    ("repro.xmlio.psdf_parser", "ParsedPSDF.to_graph"),
    ("repro.psdf.matrix", "build_communication_matrix"),
    ("repro.emulator.kernel", "PlatformSpec.from_parsed_psm"),
    ("repro.emulator.kernel", "PlatformSpec.from_platform"),
    ("repro.model.mapping", "map_application"),
    ("repro.placement.placetool", "PlaceTool.solve"),
    ("repro.emulator.kernel", "Simulation.__init__"),
    ("repro.emulator.kernel", "Simulation.run"),
    ("repro.emulator.fastkernel", "FastSimulation.__init__"),
    ("repro.emulator.report", "build_report"),
    ("repro.emulator.report", "EmulationReport.to_dict"),
    ("repro.emulator.report", "EmulationReport.digest"),
    ("repro.analysis.stochastic", "stochastic_estimate"),
    ("repro.analysis.executor", "CampaignExecutor.run"),
    # sweep cells: the executor's per-job functions carry the cell label
    ("repro.analysis.dse", "_run_candidate"),
    ("repro.analysis.reliability", "_run_reliability_job"),
)

REQUEST = "SegbusService.submit"


class Recorder:
    """In-memory spans, plus the queue waits read between two of them."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.request: Optional[int] = None
        self.queue_waits: List[Tuple[int, float]] = []
        self._validated: Dict[int, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.request
        record = [name, time.perf_counter(), 0.0, parent, None, None]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    # -- hooks reading arguments and return values ------------------------

    def _enter(self, name: str, index: int, args: tuple) -> None:
        if name == REQUEST:
            self.request = index
        elif name == "execute_job":
            validated = self._validated.pop(id(args[0]), None)
            if validated is not None:
                wait = self.spans[index][START] - validated
                self.queue_waits.append((index, wait))
        elif name in ("_run_candidate", "_run_reliability_job"):
            self.spans[index][OP] = args[0].label

    def _exit(self, name: str, index: int, args: tuple, result) -> None:
        if name == REQUEST:
            self.request = None
        elif name == "cache_key":
            if self.request is not None and self.spans[self.request][OP] is None:
                self.spans[self.request][OP] = result
        elif name == "validate_job":
            self._validated[id(args[0])] = self.spans[index][END]
        elif name == "Simulation.run":
            self.spans[index][VALUE] = result.queue.executed
        elif name == "CampaignExecutor.run":
            self.spans[index][VALUE] = [result.stats.retries, len(result.failures)]

    def wrap(self, name: str, fn: Callable, method: bool) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            # hooks see the arguments after ``self`` for methods
            payload = args[1:] if method else args
            recorder._enter(name, index, payload)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            recorder._exit(name, index, payload, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def dump(self) -> Dict[str, object]:
        return {"spans": self.spans, "queue_waits": self.queue_waits}


def install(recorder: Recorder, targets: Sequence[Tuple[str, str]] = TARGETS) -> None:
    """Wrap every target: methods on their class, functions at every binding.

    A target the program no longer has is skipped, so a refactor behind
    the public entry points leaves the traced run working (its layer
    metrics then read 0).
    """
    by_id: Dict[int, Callable] = {}
    for module_name, path in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            raw = getattr(cls, "__dict__", {}).get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(recorder.wrap(path, raw.__func__, True)))
            else:
                setattr(cls, attr, recorder.wrap(path, raw, True))
        elif hasattr(module, path):
            fn = getattr(module, path)
            by_id[id(fn)] = recorder.wrap(path, fn, False)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                setattr(module, key, wrapper)


# ---------------------------------------------------------------------------
# analysis: self times, per-op grouping, the stage table
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[list]) -> List[float]:
    """Duration minus the union of child intervals, for every span."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(index)
    result: List[float] = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda i: spans[i][START]):
            lo = max(cursor, spans[child][START])
            hi = min(end, spans[child][END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def roots(spans: Sequence[list]) -> List[int]:
    """The root span index of every span (following parents)."""
    result: List[int] = [0] * len(spans)
    for index, span in enumerate(spans):
        parent = span[PARENT]
        # parents always precede children, so their root is known
        result[index] = index if parent is None else result[parent]
    return result
