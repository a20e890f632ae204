"""Span recorder the benchmark installs into a traced server process.

:func:`install` wraps the public functions of each serving layer — the
module functions, every ``from x import f`` binding of them across the
loaded ``repro`` modules, and class methods — with a recorder that keeps
one span per call in a flat in-memory array:

    name id, root index, span id, parent id, start ns, end ns, self ns, value

The *root index* numbers the top-level spans of the process (one per
request line handled), so the benchmark can select the spans of its
timed window after the fact.  *Self* time is the span's duration minus
its child spans.  *Value* is a per-call count some layers report (rows
returned, matchings found, a memo hit).  The program's own
:data:`COUNTERS` become zero-length spans whose value is the count; the
server counts them only when it runs with ``--metrics``.
:meth:`Recorder.dump` writes the array and the name table when the server
exits; nothing is written while requests are served.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
from array import array
from time import perf_counter_ns

FIELDS = 8


def _length(result: object) -> int:
    return len(result)  # type: ignore[arg-type]


def _hit(result: object) -> int:
    return 0 if result is None else 1


def _answer_rows(result: object) -> int:
    return len(result.rows)  # type: ignore[attr-defined]


def _invalidated(result: object) -> int:
    return int(result.get("invalidated", 0))  # type: ignore[attr-defined]


#: (span name, module, attribute path, value function).  An attribute path
#: ``Class.method`` wraps the method on the class.
TARGETS = (
    ("protocol.handle_line", "repro.serve.protocol", "handle_line", None),
    ("protocol.decode", "repro.serve.protocol", "decode_line", None),
    ("protocol.render", "repro.serve.protocol", "handle_request", None),
    ("protocol.encode", "repro.serve.protocol", "encode_response", None),
    ("service", "repro.serve.service", "MediationService.translate", None),
    ("service", "repro.serve.service", "MediationService.mediate", None),
    ("reload", "repro.serve.service", "MediationService.reload_spec", _invalidated),
    ("parser", "repro.core.parser", "parse_query", None),
    ("intern", "repro.perf.intern", "intern_query", None),
    ("normalize", "repro.core.normalize", "normalize", None),
    ("fingerprint", "repro.perf.fingerprint", "query_fingerprint", None),
    ("cache", "repro.perf.cache", "TranslationCache._get_or_compute", None),
    ("cache", "repro.perf.cache", "TranslationCache.tdqm", None),
    ("cache", "repro.perf.cache", "TranslationCache.tdqm_prepared", None),
    ("tdqm", "repro.core.tdqm", "tdqm_translate", None),
    ("tdqm.disjunctivize", "repro.core.tdqm", "disjunctivize", None),
    ("psafe", "repro.core.psafe", "psafe", None),
    ("ednf", "repro.core.ednf", "ednf", None),
    ("scm", "repro.core.scm", "scm_translate", None),
    ("matching.potential", "repro.core.matching", "Matcher.potential", None),
    ("matching.matchings", "repro.core.matching", "Matcher.matchings", _length),
    ("matching.prematch", "repro.perf.index", "CompiledRuleIndex.prematch_get", _hit),
    ("filters", "repro.core.filters", "build_filter", None),
    ("engine", "repro.engine.source", "Source.select", _length),
    ("mediator", "repro.mediator.mediator", "Mediator.answer_mediated", _answer_rows),
    ("cluster.answer", "repro.serve.cluster", "ClusterServer._answer_line", None),
    ("cluster.handle", "repro.serve.cluster", "ClusterServer._handle_line", None),
    ("cluster.route", "repro.serve.cluster", "ClusterServer._routing_key", None),
    ("cluster.hop", "repro.serve.cluster", "ClusterServer._call_shard", None),
    ("worker.handle", "repro.serve.worker", "_WorkerRuntime.handle_line", None),
)

#: ``repro.obs`` counters recorded as spans: Eq. 2's residue filter F sees
#: the candidates and keeps the survivors.
COUNTERS = ("mediator.filter_candidates", "mediator.filter_survivors")


class Recorder:
    """In-memory spans of one process (see module docstring)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self._local = threading.local()
        self._span_ids = itertools.count()
        self._root_ids = itertools.count()

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _enter(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent, root = stack[-1][0], stack[-1][2]
        else:
            parent, root = -1, next(self._root_ids)
        frame = [next(self._span_ids), 0, root, parent, stack]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, name_id: int, start: int, value: int) -> None:
        end = perf_counter_ns()
        span_id, children, root, parent, stack = frame
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][1] += duration
        self.spans.extend(
            (name_id, root, span_id, parent, start, end, duration - children, value)
        )

    def mark(self, name_id: int, value: int) -> None:
        """A zero-length span under the current one, carrying ``value``."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return
        now = perf_counter_ns()
        parent, root = stack[-1][0], stack[-1][2]
        self.spans.extend((name_id, root, next(self._span_ids), parent, now, now, 0, value))

    def tee_counters(self, count):
        """``repro.obs.count`` that also marks each :data:`COUNTERS` bump."""
        ids = {name: self.name_id(name) for name in COUNTERS}
        mark = self.mark

        @functools.wraps(count)
        def wrapper(name, n=1):
            name_id = ids.get(name)
            if name_id is not None:
                mark(name_id, int(n))
            return count(name, n)

        return wrapper

    def wrap(self, name: str, fn, value_of=None):
        name_id = self.name_id(name)
        enter, leave = self._enter, self._exit

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                frame = enter()
                start = perf_counter_ns()
                value = 0
                try:
                    result = await fn(*args, **kwargs)
                    if value_of is not None:
                        value = value_of(result)
                    return result
                finally:
                    leave(frame, name_id, start, value)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter()
            start = perf_counter_ns()
            value = 0
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = value_of(result)
                return result
            finally:
                leave(frame, name_id, start, value)

        return wrapper

    def dump(self, directory: str) -> None:
        """Write ``<pid>.spans`` (the array) and ``<pid>.json`` (names)."""
        stem = os.path.join(directory, str(os.getpid()))
        with open(stem + ".spans", "wb") as handle:
            self.spans.tofile(handle)
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "names": self.names, "fields": FIELDS}, handle)


def install() -> Recorder:
    """Wrap every :data:`TARGETS` function in this process; returns the recorder."""
    for module in sorted({module for _, module, _, _ in TARGETS}):
        importlib.import_module(module)
    recorder = Recorder()
    replaced: dict[int, object] = {}
    for name, module_name, path, value_of in TARGETS:
        owner = sys.modules[module_name]
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = recorder.wrap(name, original, value_of)
        setattr(owner, attr, wrapper)
        if not owner_path:
            replaced[id(original)] = wrapper
    trace = importlib.import_module("repro.obs.trace")
    count = trace.count
    trace.count = replaced[id(count)] = recorder.tee_counters(count)
    # Rebind ``from x import f`` copies of the wrapped module functions.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None and value is not wrapper:
                setattr(module, attr, wrapper)
    return recorder
