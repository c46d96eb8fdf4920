"""Spans and aggregate counters recorded around calls into the program.

The tracer wraps public functions of each layer from the outside: it
replaces a function or method with a wrapper that times the call and
restores the original on :meth:`Tracer.uninstall`.  The program's source is
never edited.

Two kinds of wrapper exist:

* a **span** records one entry (name, layer, start, end, parent span) per
  call, kept in memory and written out when the run ends;
* a **leaf** records only an aggregate call count and time.  Hot calls use
  it: ``Cache.access`` runs about a million times per Table II, and one
  span per call would cost more than the call.

Generator functions (``SocAPI.reg_wait``, the MPEG2 chunk decoder) are
timed per resumption, since calling one only creates the generator.

Every wrapper pushes a frame on one stack, so a layer's *self time* is its
time minus the time of wrapped calls made inside it.  A frame's children
include calls made on behalf of it in pool workers: the wrapper of
``run_cases`` adds the slowest worker case to its frame, so the runner's
self time is its own overhead rather than the time it spends waiting.

Pool workers are forked from the traced process and inherit the wrappers.
The wrapper around the runner's per-case entry point notices it runs in
another process, records that case alone and writes its counters to a
file that :meth:`Tracer.merge_worker_files` folds back in.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

perf = time.perf_counter


class Stat:
    """Aggregate of one wrapped metric: calls, seconds, recursion depth."""

    __slots__ = ("layer", "calls", "seconds", "depth", "max_s")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0
        self.max_s = 0.0


class Tracer:
    """Owns the wrappers, the frame stack, the spans and the counters."""

    def __init__(self, worker_dir: Optional[str] = None):
        self.owner_pid = os.getpid()
        self.worker_dir = worker_dir
        self.stats: Dict[str, Stat] = {}
        self.self_s: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.stack: List[List[Any]] = []
        self.spans: List[Dict[str, Any]] = []
        self.top_level_s = 0.0
        self._patches: List[tuple] = []

    # -- state ----------------------------------------------------------------
    def reset(self) -> None:
        """Zero every counter in place (wrappers keep their references)."""
        for stat in self.stats.values():
            stat.calls = 0
            stat.seconds = 0.0
            stat.depth = 0
            stat.max_s = 0.0
        for cell in self.self_s.values():
            cell[0] = 0.0
        self.counts.clear()
        del self.stack[:]
        del self.spans[:]
        self.top_level_s = 0.0

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _stat(self, name: str, layer: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat(layer)
            self.self_s.setdefault(layer, [0.0])
        return stat

    def _close(self, stat: Stat, frame: List[Any], start: float) -> float:
        """Account one finished frame; returns its elapsed seconds."""
        elapsed = perf() - start
        stat.calls += 1
        stat.seconds += elapsed
        if elapsed > stat.max_s:
            stat.max_s = elapsed
        self.self_s[stat.layer][0] += elapsed - frame[0]
        stack = self.stack
        if stack:
            stack[-1][0] += elapsed
        else:
            self.top_level_s += elapsed
        return elapsed

    # -- wrapper factories ----------------------------------------------------
    def span(
        self,
        name: str,
        layer: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records a span.

        ``before(args, kwargs)`` runs first and its result is handed to
        ``after(args, kwargs, result, state, frame)``, which may record
        counts or add to ``frame[0]`` (time covered by children).
        """
        stat = self._stat(name, layer)
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stat.depth:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            parent = stack[-1][1] if stack else None
            record = {"name": name, "layer": layer, "parent": parent, "pid": os.getpid()}
            span_id = len(spans)
            spans.append(record)
            frame = [0.0, span_id]
            stat.depth += 1
            stack.append(frame)
            start = perf()
            record["start"] = start
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result, state, frame)
                return result
            finally:
                stack.pop()
                stat.depth -= 1
                record["end"] = start + self._close(stat, frame, start)

        return wrapper

    def leaf(self, name: str, layer: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap a hot ``fn`` with an aggregate count and time, no span."""
        stat = self._stat(name, layer)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stat.depth:
                return fn(*args, **kwargs)
            frame = [0.0, stack[-1][1] if stack else None]
            stat.depth += 1
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result, None, frame)
                return result
            finally:
                stack.pop()
                stat.depth -= 1
                self._close(stat, frame, start)

        return wrapper

    def generator(self, name: str, layer: str, fn: Callable) -> Callable:
        """Wrap a generator function; time each resumption as a leaf."""
        stat = self._stat(name, layer)
        calls = self._stat(name + ".created", layer)
        stack = self.stack
        close = self._close

        def drive(inner):
            value = None
            error = None
            while True:
                frame = [0.0, stack[-1][1] if stack else None]
                stack.append(frame)
                start = perf()
                try:
                    if error is None:
                        item = inner.send(value)
                    else:
                        item = inner.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    stack.pop()
                    close(stat, frame, start)
                try:
                    value = yield item
                    error = None
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as raised:  # noqa: BLE001 -- forwarded into the generator
                    value = None
                    error = raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.calls += 1
            return drive(fn(*args, **kwargs))

        return wrapper

    # -- installation ---------------------------------------------------------
    def patch_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._patches.append((cls, attr, original))

    def patch_function(self, module: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` and every ``from module import attr``
        binding in the program's loaded modules."""
        original = getattr(module, attr)
        wrapped = make(original)
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "") or ""
            if not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = getattr(loaded, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    self._patches.append((loaded, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- pool workers ---------------------------------------------------------
    def worker_case(self, name: str, layer: str, fn: Callable) -> Callable:
        """Wrap the runner's per-case entry point.

        In the traced process it is an ordinary span.  In a forked pool
        worker the inherited counters are zeroed, the case is recorded, and
        the worker's counters are written to ``worker_dir`` for merging.
        """
        traced = self.span(name, layer, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.owner_pid:
                return traced(*args, **kwargs)
            self.reset()
            events_before = _events()
            try:
                return traced(*args, **kwargs)
            finally:
                self.count("kernel.events", _events() - events_before)
                self._dump_worker()

        return wrapper

    def _dump_worker(self) -> None:
        if not self.worker_dir:
            return
        payload = {
            "stats": {
                name: [stat.layer, stat.calls, stat.seconds, stat.max_s]
                for name, stat in self.stats.items()
                if stat.calls
            },
            "self_s": {layer: cell[0] for layer, cell in self.self_s.items()},
            "counts": dict(self.counts),
            "spans": len(self.spans),
        }
        name = "worker-%d-%d.json" % (os.getpid(), len(os.listdir(self.worker_dir)))
        path = os.path.join(self.worker_dir, name)
        with open(path, "w") as handle:
            json.dump(payload, handle)

    def merge_worker_files(self) -> int:
        """Fold every worker dump into this tracer; returns how many."""
        if not self.worker_dir or not os.path.isdir(self.worker_dir):
            return 0
        merged = 0
        for entry in sorted(os.listdir(self.worker_dir)):
            with open(os.path.join(self.worker_dir, entry)) as handle:
                payload = json.load(handle)
            for name, (layer, calls, seconds, max_s) in payload["stats"].items():
                stat = self._stat(name, layer)
                stat.calls += calls
                stat.seconds += seconds
                stat.max_s = max(stat.max_s, max_s)
            for layer, seconds in payload["self_s"].items():
                self.self_s.setdefault(layer, [0.0])[0] += seconds
            for name, amount in payload["counts"].items():
                self.count(name, amount)
            self.count("trace.worker_spans", payload["spans"])
            merged += 1
        return merged

    # -- output ---------------------------------------------------------------
    def seconds(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.seconds if stat is not None else 0.0

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat is not None else 0

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


def _events() -> int:
    from repro.sim.kernel import total_events_processed

    return total_events_processed()
