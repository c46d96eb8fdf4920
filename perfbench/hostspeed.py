"""Host-speed calibration interleaved with the measured work.

The reference box is a share of a host whose other tenants move its speed
by up to about 1.7x within a second (measured: a fixed loop took 3.2-5.6 ms
in alternating phases of 0.5-2 s, with the two CPUs' phases uncorrelated),
and by about 2x between runs minutes apart.  Wall times of one fixed batch
therefore spread far past any useful bound.  ``Calibrator`` samples the
speed of the CPU the measuring process runs on, at the moment it runs: a
real-time interval timer interrupts the process every ``PERIOD_S`` and the
signal handler times one fixed ``reference_slice`` of interpreted Python.
A sample's speed is ``REF_SLICE_S`` over the slice's thread CPU time (1.0
at the reference speed, 0.6 in a slow phase; CPU time, so that time the
guest scheduler gave another process meanwhile does not count as a slow
host), and a span of work converts to
*reference seconds* -- the time it would have taken at the reference speed
-- by weighting each part of it with the speed sampled around it.

The slices' own time is known exactly; ``reference_seconds`` takes it out
of a span measured in the sampling process itself.  Processes forked while
a calibrator with a ``dump_dir`` is installed (the sweep's pool workers)
sample their own CPUs and write their samples there when they exit;
``merge_children`` folds them in, so a span of pooled work is weighted by
the speed of the CPUs that did it.  A worker also converts the spans it
reports with ``record_item`` (its shard of a sweep, the configs in it) with
its own samples before it exits.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import time
from typing import List, Optional, Tuple

#: Interval between speed samples (wall seconds).
PERIOD_S = 0.02
#: CPU time of ``reference_slice`` at the reference speed: about the fastest
#: the reference box (2-CPU Intel Xeon guest) runs it, 0.40-0.43 ms measured.
#: Fixed for good: every reference-seconds figure is relative to it.
REF_SLICE_S = 0.0004
#: Samples either side of a span that still count for it (a span shorter
#: than the period has none of its own).
NEIGHBOURS = 2


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt


def _producer(nodes):
    for node in nodes:
        yield node.key, node.value


def reference_slice() -> int:
    """A fixed piece of interpreted work shaped like the program's inner
    loops: object attributes, calls, dict and list traffic, a generator."""
    total = 0
    table = {}
    for round_ in range(60):
        head = None
        for key in range(12):
            head = _Node(key, key * round_, head)
        nodes = []
        while head is not None:
            nodes.append(head)
            head = head.next
        for key, value in _producer(nodes):
            table[(key + round_) & 63] = value
            total += table.get(key & 63, 0)
        queue = [node.value for node in nodes]
        while queue:
            total ^= queue.pop()
    return total


#: The calibrator installed in this process, if any.
_ACTIVE: Optional["Calibrator"] = None


class Calibrator:
    """Samples host speed while installed; converts spans to reference time.

    One per process, installed from the main thread (signal handlers run
    there).  A sample is its start on the ``time.perf_counter`` clock (which
    all processes of the machine share), its wall time and its CPU time;
    the three lists are kept in start order.
    """

    def __init__(self, dump_dir: Optional[str] = None):
        self.dump_dir = dump_dir
        self.starts: List[float] = []
        #: Wall time of each slice (what it took from the work around it).
        self.durations: List[float] = []
        #: Thread CPU time of each slice: its speed, free of time the guest
        #: scheduler gave other processes meanwhile.
        self.cpu_durations: List[float] = []
        #: ``(kind, start, end)`` of spans this process ran (``record_item``).
        self.items: List[Tuple[str, float, float]] = []
        #: ``(kind, start, end, reference seconds)`` of forked children's spans.
        self.child_items: List[Tuple[str, float, float, float]] = []
        self._busy = False
        self._previous = None

    # -- sampling ---------------------------------------------------------

    def _sample(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            cpu = time.thread_time()
            reference_slice()
            self.cpu_durations.append(time.thread_time() - cpu)
            self.durations.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            self._busy = False

    def install(self) -> "Calibrator":
        global _ACTIVE
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        _ACTIVE = self
        if self.dump_dir is not None:
            from multiprocessing import util

            util.register_after_fork(self, Calibrator._follow_into_child)
        return self

    def _follow_into_child(self) -> None:
        """Runs in a freshly forked ``multiprocessing`` child (a pool
        worker): sample its CPU and dump the samples when it exits."""
        from multiprocessing import util

        if _ACTIVE is not self:
            return  # forked after this calibrator was uninstalled

        # The signal handler survived the fork, the interval timer did not.
        self._previous = None
        self.uninstall()
        child = Calibrator().install()
        path = os.path.join(self.dump_dir, "samples-%d.json" % os.getpid())
        # Workers leave through multiprocessing's exit path, which runs its
        # finalizers (not ``atexit``).
        util.Finalize(child, child.dump, args=(path,), exitpriority=100)

    def uninstall(self) -> None:
        global _ACTIVE
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        _ACTIVE = None

    def dump(self, path: str) -> None:
        self.uninstall()
        items = [(kind, start, end, self.reference_seconds(start, end)) for kind, start, end in self.items]
        with open(path, "w") as handle:
            json.dump(
                {"samples": list(zip(self.starts, self.durations, self.cpu_durations)), "items": items}, handle
            )

    def merge_children(self) -> int:
        """Fold in the samples forked children dumped; returns how many."""
        if not self.dump_dir or not os.path.isdir(self.dump_dir):
            return 0
        merged = list(zip(self.starts, self.durations, self.cpu_durations))
        count = 0
        for name in sorted(os.listdir(self.dump_dir)):
            path = os.path.join(self.dump_dir, name)
            with open(path) as handle:
                data = json.load(handle)
            os.remove(path)
            merged.extend(tuple(sample) for sample in data["samples"])
            self.child_items.extend(tuple(item) for item in data["items"])
            count += len(data["samples"])
        merged.sort()
        self.starts = [sample[0] for sample in merged]
        self.durations = [sample[1] for sample in merged]
        self.cpu_durations = [sample[2] for sample in merged]
        return count

    # -- conversion -------------------------------------------------------

    def speed(self, start: float, end: float) -> float:
        """Mean sampled speed over ``[start, end]`` (1.0 = reference)."""
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_right(self.starts, end)
        low, high = max(0, low - NEIGHBOURS), min(len(self.starts), high + NEIGHBOURS)
        if low >= high:
            return 1.0
        return sum(REF_SLICE_S / cpu for cpu in self.cpu_durations[low:high]) / (high - low)

    def slice_seconds(self, start: float, end: float) -> float:
        """Time the sampling itself took inside ``[start, end]``."""
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_right(self.starts, end)
        return sum(self.durations[low:high])

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the work this process did in ``[start, end]``:
        the span without the sampling slices, weighted by the speed."""
        work = end - start - self.slice_seconds(start, end)
        return max(work, 0.0) * self.speed(start, end)

    def spans(self, start: float, end: float, kind: str = "item") -> List[Tuple[float, float, float]]:
        """``(start, end, reference seconds)`` of the spans of ``kind`` (this
        process's and its children's) that ran inside ``[start, end]``."""
        own = [(k, first, last, self.reference_seconds(first, last)) for k, first, last in self.items]
        return [
            (first, last, seconds)
            for k, first, last, seconds in sorted(own + self.child_items)
            if k == kind and start <= first and last <= end
        ]

    def median_speed(self) -> Optional[float]:
        if not self.cpu_durations:
            return None
        return REF_SLICE_S / statistics.median(self.cpu_durations)


def record_item(start: float, end: float, kind: str = "item") -> None:
    """Note one span of work of ``kind`` that ran in this process over
    ``[start, end]`` (no-op unless a calibrator is installed here)."""
    if _ACTIVE is not None:
        _ACTIVE.items.append((kind, start, end))

