"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_tables|dse_cold|fuzz|generate
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The untraced run (``--trace 0``) repeats
the workload's batch until ``--seconds`` would be exceeded (at least one
batch), then starts fresh processes to time set-up.  It prints every
end-to-end metric (the ones in ``BENCHMARK.json`` plus the workload-specific
ones) with its unit and the output-check verdict.  Its times are in
reference seconds: wall or CPU time weighted by the host speed sampled
while the work ran (``hostspeed.py``); the raw times are printed beside
them.  The traced run
(``--trace 1``) runs one untraced batch, then the same batch with the layer
wrappers of ``layers.py`` installed, and prints the per-layer metrics.  The
last line of standard output is always the JSON result.

Scratch files (sweep caches, fuzz corpora, worker dumps) live under
``.perfbench/`` in the checkout and are removed at the end; the traced run
leaves its spans there as ``trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Fresh processes timed per untraced run for ``setup_s`` (median reported).
SETUP_PROBES = 5

#: End-to-end metrics in ``BENCHMARK.json``: measured on every workload.
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "item_ms_gmean": "ms",
}

#: End-to-end metrics printed in the report, not in the JSON result: they
#: exist only on some workloads, or (``item_ms_p50``) do not repeat within
#: a bound on some (see ``NOTES.md``).  ``fail_frac`` is
#: ``failed / attempted`` of the JSON result.
REPORT_ONLY_UNITS = {
    "item_ms_p50": "ms",
    "item_ms_p95": "ms",
    "sim_cycles_per_s": "cycles/s",
    "paper_err_pct": "%",
    "fail_frac": "ratio",
}


def _die(message: str) -> None:
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def _quantile(values: List[float], percent: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child
    (the sweep's pool workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _setup_seconds(probes: int) -> Tuple[List[float], List[float]]:
    """Raw and reference seconds of ``probes`` fresh processes.

    Each probe samples its own host speed and prints the factor that turns
    its wall time into reference time.
    """
    raw, reference = [], []
    for _ in range(probes):
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py")],
            check=True,
            timeout=120,
            stdout=subprocess.PIPE,
            text=True,
        )
        wall = time.perf_counter() - start
        raw.append(wall)
        reference.append(wall * float(completed.stdout.split()[-1]))
    return raw, reference


def _safe_batch(workload, index: int):
    """One batch; an exception fails it instead of ending the run."""
    from workloads import Batch

    start = time.perf_counter()
    try:
        return workload.run_batch(index)
    except Exception as error:  # noqa: BLE001 -- reported as a failed batch
        traceback.print_exc()
        end = time.perf_counter()
        batch = Batch(attempted=1, wall_s=end - start, start=start, end=end)
        batch.fail("batch raised %s: %s" % (type(error).__name__, error))
        return batch


def run_batches(workload, seconds: float) -> list:
    """Repeat the batch while another one of the same length still fits."""
    batches = []
    start = time.perf_counter()
    while True:
        batch_start = time.perf_counter()
        batches.append(_safe_batch(workload, len(batches)))
        took = time.perf_counter() - batch_start
        if time.perf_counter() - start + took > seconds:
            return batches


def reference_wall(batch, calibrator) -> float:
    """Reference seconds of a batch's wall time.

    A pooled batch (the sweep) waits for its slowest shard, each of which
    one worker ran on its own CPU: its wall is the slowest shard in
    reference time plus the parent's time before the first shard started
    and after the last one ended.
    """
    shards = calibrator.spans(batch.start, batch.end, "shard")
    if not shards:
        return calibrator.reference_seconds(batch.start, batch.end)
    first = min(start for start, _end, _seconds in shards)
    last = max(end for _start, end, _seconds in shards)
    return (
        calibrator.reference_seconds(batch.start, first)
        + max(seconds for _start, _end, seconds in shards)
        + calibrator.reference_seconds(last, batch.end)
    )


def reference_times(batches: list, calibrator) -> Dict[str, list]:
    """Per batch wall and CPU seconds and per item ms, in reference time."""
    wall, cpu, items = [], [], []
    for batch in batches:
        wall.append(reference_wall(batch, calibrator))
        # The sampling slices are CPU time of this process and its workers.
        slices = calibrator.slice_seconds(batch.start, batch.end)
        cpu.append(max(batch.cpu_s - slices, 0.0) * calibrator.speed(batch.start, batch.end))
        seconds = [seconds for _start, _end, seconds in calibrator.spans(batch.start, batch.end)]
        if len(seconds) != len(batch.item_ms):
            # A batch that raised part-way (already counted as failed).
            speed = calibrator.speed(batch.start, batch.end)
            seconds = [ms / 1000.0 * speed for ms in batch.item_ms]
        items.extend(1000.0 * value for value in seconds)
    return {"wall_s": wall, "cpu_s": cpu, "item_ms": items}


def end_to_end(batches: list, reference: Dict[str, list], setup: List[float],
               peak_rss_mb: float) -> Dict[str, Dict[str, float]]:
    """All nine end-to-end metrics (None where a workload has no such metric)."""
    items = reference["item_ms"]
    wall = sum(reference["wall_s"])
    cycles = sum(batch.sim_cycles for batch in batches)
    attempted = sum(batch.attempted for batch in batches)
    failed = sum(batch.failed for batch in batches)
    paper = [batch.extra["paper_err_pct"] for batch in batches if "paper_err_pct" in batch.extra]
    values: Dict[str, Optional[float]] = {
        "wall_s": statistics.median(reference["wall_s"]),
        "cpu_s": statistics.median(reference["cpu_s"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "item_ms_gmean": statistics.geometric_mean(items) if items else 0.0,
        "item_ms_p50": statistics.median(items) if items else None,
        # A p95 is reported only where at least ten samples lie beyond it.
        "item_ms_p95": _quantile(items, 95) if len(items) >= 200 else None,
        "sim_cycles_per_s": cycles / wall if cycles and wall else None,
        "paper_err_pct": paper[0] if paper else None,
        "fail_frac": failed / attempted if attempted else 1.0,
    }
    units = dict(END_TO_END_UNITS, **REPORT_ONLY_UNITS)
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def _result_line(batches: list, metrics: Dict[str, Dict[str, float]]) -> str:
    attempted = sum(batch.attempted for batch in batches)
    failed = sum(batch.failed for batch in batches)
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def _print_verdict(batches: list) -> None:
    attempted = sum(batch.attempted for batch in batches)
    failed = sum(batch.failed for batch in batches)
    print("output check: %s (%d of %d items failed)" % ("PASS" if failed == 0 else "FAIL", failed, attempted))
    for batch in batches:
        for message in batch.failures[:20]:
            print("  FAIL %s" % message)


def untraced(workload, seconds: float, scratch: str) -> str:
    import setup_probe
    from hostspeed import Calibrator

    setup_probe.ready()
    calibrator = Calibrator(dump_dir=tempfile.mkdtemp(prefix="samples-", dir=scratch))
    calibrator.install()
    try:
        batches = run_batches(workload, seconds)
    finally:
        calibrator.uninstall()
    calibrator.merge_children()
    peak = _peak_rss_mb()
    setup_raw, setup = _setup_seconds(SETUP_PROBES)
    metrics = end_to_end(batches, reference_times(batches, calibrator), setup, peak)
    print(
        "workload %s seed %d: %d batch(es), %d item(s) timed, %d set-up probe(s), "
        "%d host-speed sample(s), median speed %.3f of reference"
        % (workload.name, workload.seed, len(batches), sum(len(b.item_ms) for b in batches), len(setup),
           len(calibrator.durations), calibrator.median_speed() or 0.0)
    )
    for name, metric in metrics.items():
        shown = "n/a" if metric["value"] is None else "%.6g" % metric["value"]
        print("  %-18s %14s %s" % (name, shown, metric["unit"]))
    raw_items = [ms for batch in batches for ms in batch.item_ms]
    raw = {
        "wall_s": statistics.median(batch.wall_s for batch in batches),
        "cpu_s": statistics.median(batch.cpu_s for batch in batches),
        "setup_s": statistics.median(setup_raw),
        "item_ms_gmean": statistics.geometric_mean(raw_items) if raw_items else 0.0,
    }
    for name, value in raw.items():
        print("  %-18s %14.6g %s (raw, not speed-weighted)" % (name, value, END_TO_END_UNITS[name]))
    for name in ("dse.warm.s", "dse.warm.hit_ratio", "exempt_findings"):
        values = [batch.extra[name] for batch in batches if name in batch.extra]
        if values:
            print("  %-18s %14.6g (median over batches)" % (name, statistics.median(values)))
    _print_verdict(batches)
    return _result_line(batches, {name: metrics[name] for name in END_TO_END_UNITS})


def traced(workload, scratch: str) -> str:
    import layers
    import setup_probe
    from spans import Tracer

    from repro.sim.kernel import total_events_processed

    setup_probe.ready()
    base = _safe_batch(workload, 0)
    worker_dir = tempfile.mkdtemp(prefix="workers-", dir=scratch)
    tracer = Tracer(worker_dir=worker_dir)
    layers.install(tracer)
    events_before = total_events_processed()
    start = time.perf_counter()
    try:
        batch = _safe_batch(workload, 0)
    finally:
        region = time.perf_counter() - start
        tracer.uninstall()
    tracer.count("kernel.events", total_events_processed() - events_before)
    workers = tracer.merge_worker_files()
    values = layers.per_layer_metrics(tracer, batch.wall_s, base.wall_s, region, batch.extra)
    spans_path = os.path.join(OUT, "trace-%s-seed%d.json" % (workload.name, workload.seed))
    tracer.write_spans(spans_path)

    print(
        "workload %s seed %d traced: untraced batch %.3f s, traced batch %.3f s, "
        "%d span(s) written to %s, %d worker dump(s) merged"
        % (workload.name, workload.seed, base.wall_s, batch.wall_s, len(tracer.spans),
           os.path.relpath(spans_path, ROOT), workers)
    )
    print("layers with recorded calls: %s" % ", ".join(layers.layers_seen(tracer)))
    for name, value in values.items():
        print("  %-26s %14.6g %s" % (name, value, layers.PER_LAYER_UNITS[name]))
    print("not observable from outside the program:")
    for name, reason in layers.NOT_OBSERVABLE.items():
        print("  %s: %s" % (name, reason))
    _print_verdict([base, batch])
    metrics = {name: {"value": value, "unit": layers.PER_LAYER_UNITS[name]} for name, value in values.items()}
    return _result_line([base, batch], metrics)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        _die("no program source at %s; run from the root of a checkout" % os.path.relpath(SRC))
    sys.path.insert(0, SRC)
    # Pool workers and set-up probes find the program the same way.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _die("unknown workload %r (have: %s)" % (args.workload, ", ".join(workloads.WORKLOADS)))
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        workload = workloads.make(args.workload, seed, scratch)
        line = traced(workload, scratch) if args.trace else untraced(workload, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.flush()
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
