"""The benchmark's four workloads: inputs, one timed batch, output checks.

Every workload is a closed batch driven from one process.  A batch is the
unit a run repeats: its wall time, process CPU time and per-item times are
measured around the program's calls only, and its outputs are checked
against the references in ``pins.json`` (recorded at the commit that added
the benchmark) after the timed section.  A batch keeps the ``perf_counter``
span of its timed section, and every item reports its span to
``hostspeed.record_item`` in the process that ran it, so that ``run.py``
can weight both with the host speed sampled meanwhile (``hostspeed.py``).

Items are what ``fail_frac`` counts: a table case, a sweep config, a fuzz
case or a generated system.  An item fails when it errors or its output
differs from the reference; a failed whole-batch check (a shape claim, a
fingerprint) fails every item of the batch.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

#: The ``--seed`` a run uses when none is given; ``generate`` pins the gate
#: counts of this seed's draw.
DEFAULT_SEED = 2003

#: Sweep workers of ``dse_cold`` (the reference box has two CPUs).
DSE_JOBS = 2

#: Fixed inputs of the ``fuzz`` workload (the CI seed and a budget that
#: keeps the heavy BFBA/4 PPA 128-bit FIFO-depth-4 case, the 17th).
FUZZ_SEED = 2003
FUZZ_BUDGET = 20

#: ``generate`` strata: every preset x PE-count band x data width.
GENERATE_BUSES = ("BFBA", "GBAVI", "GBAVII", "GBAVIII", "HYBRID", "SPLITBA", "GGBA", "CCBA")
GENERATE_PE_BANDS = ((1, 4), (5, 16), (17, 64))
GENERATE_WIDTHS = (32, 64, 128)
GENERATE_MAX_SUBSYSTEMS = 8
#: Rounds of the default seed's draw whose gate counts are pinned.
GENERATE_PINNED_ROUNDS = 2


def load_pins() -> Dict[str, Any]:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children.

    ``getrusage`` rather than ``os.times``: the latter counts in 10 ms
    clock ticks, coarse next to a one-second batch.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass
class Batch:
    """Measurements and check outcome of one batch (``start``/``end``
    bound the timed section)."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    start: float = 0.0
    end: float = 0.0
    item_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    sim_cycles: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str, items: int = 1) -> None:
        self.failures.append(message)
        self.failed = min(self.attempted, self.failed + items)

    def fail_all(self, message: str) -> None:
        self.failures.append(message)
        self.failed = self.attempted

    def timed(self, timer: "Timer") -> None:
        self.wall_s, self.cpu_s = timer.wall_s, timer.cpu_s
        self.start, self.end = timer.start, timer.end


class Timer:
    """Wall and process CPU seconds (children included) of a ``with`` block."""

    def __enter__(self) -> "Timer":
        self.cpu = _cpu_seconds()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.wall_s = self.end - self.start
        self.cpu_s = _cpu_seconds() - self.cpu


class Workload:
    """Base class: a named batch with seeded inputs and pinned outputs."""

    name = ""

    def __init__(self, seed: int, scratch: str, pins: Dict[str, Any]):
        self.seed = seed
        self.scratch = scratch
        self.pins = pins

    def run_batch(self, index: int) -> Batch:
        raise NotImplementedError

    def _tempdir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.scratch)


class _ItemClock:
    """Reports every call of ``module.name`` (one item, or one ``kind`` of
    span) to ``hostspeed.record_item`` for the duration of a batch.

    The attribute is replaced, so callers that look it up at call time see
    the clock; pool workers forked inside the batch inherit it, and the
    replacement pickles by the same name.  A worker's calibrator converts
    its items to reference time with its own speed samples.
    """

    def __init__(self, module: Any, name: str, kind: str = "item"):
        self.module = module
        self.name = name
        self.kind = kind

    def __enter__(self) -> "_ItemClock":
        import functools

        import hostspeed

        self.original = original = getattr(self.module, self.name)
        kind = self.kind

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                hostspeed.record_item(start, time.perf_counter(), kind)

        setattr(self.module, self.name, timed)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.module, self.name, self.original)


# ---------------------------------------------------------------------------
# paper_tables
# ---------------------------------------------------------------------------


def table_rows(kernel: str = "compiled") -> Dict[str, Any]:
    """Tables II-V in sequence, in-process, one job; (rows, telemetry) each."""
    from repro.experiments.table2 import run_table2_telemetry
    from repro.experiments.table3 import run_table3_telemetry
    from repro.experiments.table4 import run_table4_telemetry
    from repro.experiments.table5 import run_table5_telemetry

    return {
        "table2": run_table2_telemetry(telemetry=False, kernel=kernel),
        "table3": run_table3_telemetry(telemetry=False, kernel=kernel),
        "table4": run_table4_telemetry(telemetry=False, kernel=kernel),
        "table5": run_table5_telemetry(telemetry=False),
    }


def table_outputs(rows: Dict[str, List[Any]]) -> Dict[str, List[Dict[str, Any]]]:
    """The pinned surface of each table row (simulated, so exact)."""
    return {
        "table2": [
            {"case": "%s/%s" % (r.bus_system, r.style), "cycles": r.cycles, "mbps": r.throughput_mbps}
            for r in rows["table2"]
        ],
        "table3": [
            {
                "case": r.bus_system,
                "cycles": r.cycles,
                "mbps": r.throughput_mbps,
                "frames_correct": r.frames_correct,
            }
            for r in rows["table3"]
        ],
        "table4": [
            {"case": r.bus_system, "ns": r.execution_time_ns, "tasks": r.tasks_completed}
            for r in rows["table4"]
        ],
        "table5": [
            {"case": "%s/%d" % (r.bus_system, r.pe_count), "gates": r.gate_count,
             "lint_errors": r.lint_errors}
            for r in rows["table5"]
        ],
    }


def paper_error_pct(rows: Dict[str, List[Any]]) -> Dict[str, float]:
    """Mean absolute error (%) of the rows against the paper's values, per
    table and over every row with a paper value."""
    pairs = {
        "table2": [(r.throughput_mbps, r.paper_mbps) for r in rows["table2"]],
        "table3": [(r.throughput_mbps, r.paper_mbps) for r in rows["table3"]],
        "table4": [(r.execution_time_ns, r.paper_ns) for r in rows["table4"]],
        "table5": [(r.gate_count, r.paper_gates) for r in rows["table5"] if r.paper_gates],
    }

    def mean_error(values):
        return 100.0 * sum(abs(ours - paper) / paper for ours, paper in values) / len(values)

    errors = {table: mean_error(values) for table, values in pairs.items()}
    errors["all"] = mean_error([pair for values in pairs.values() for pair in values])
    return errors


class PaperTables(Workload):
    """Tables II-V on the compiled kernel, in-process, ``jobs=1``."""

    name = "paper_tables"

    def run_batch(self, index: int) -> Batch:
        import repro.experiments.runner as runner
        from repro.experiments.table2 import check_table2_shape
        from repro.experiments.table3 import check_table3_shape
        from repro.experiments.table4 import check_table4_shape
        from repro.experiments.table5 import check_table5_shape

        batch = Batch()
        with _ItemClock(runner, "_invoke"), Timer() as timer:
            results = table_rows()
        batch.timed(timer)
        rows = {table: pair[0] for table, pair in results.items()}
        for _table, (_rows, telemetry) in sorted(results.items()):
            batch.item_ms.extend(entry.wall_seconds * 1000.0 for entry in telemetry)
        batch.attempted = len(batch.item_ms)
        batch.sim_cycles = (
            sum(r.cycles for r in rows["table2"])
            + sum(r.cycles for r in rows["table3"])
            + sum(int(round(r.execution_time_ns / 10.0)) for r in rows["table4"])
        )
        batch.extra = {"paper_err_pct": paper_error_pct(rows)["all"]}

        outputs = table_outputs(rows)
        for table, expected in sorted(self.pins["paper_tables"].items()):
            got = outputs[table]
            if len(got) != len(expected):
                batch.fail("%s: %d rows, expected %d" % (table, len(got), len(expected)), len(expected))
                continue
            for ours, pinned in zip(got, expected):
                if ours != pinned:
                    batch.fail("%s %s: %r != pinned %r" % (table, pinned["case"], ours, pinned))
        checks = {
            "table2": check_table2_shape,
            "table3": check_table3_shape,
            "table4": check_table4_shape,
            "table5": check_table5_shape,
        }
        for table, check in sorted(checks.items()):
            problems = check(rows[table])
            if problems:
                batch.fail("%s shape: %s" % (table, "; ".join(problems)), len(rows[table]))
        return batch


# ---------------------------------------------------------------------------
# dse_cold
# ---------------------------------------------------------------------------


def dse_row_outputs(summary: Dict[str, Any]) -> Dict[str, List[Any]]:
    """Per-config pinned surface: key -> [gate count, cycles, throughput]."""
    return {
        row["key"]: [row["gate_count"], row["cycles"], row["throughput"]]
        for row in summary["results"]
    }


class DseCold(Workload):
    """The 234-config bench sweep, ``jobs=2``, compiled, into an empty cache,
    followed by a separately timed warm re-run on the same cache."""

    name = "dse_cold"

    def run_batch(self, index: int) -> Batch:
        import repro.dse.engine as engine
        from repro.dse.engine import run_sweep, sweep_fingerprint
        from repro.dse.spec import bench_spec
        from repro.obs.ledger import scrub_timings

        cache_dir = self._tempdir("dse-")
        batch = Batch()
        try:
            with _ItemClock(engine, "_run_config"), _ItemClock(engine, "run_dse_shard", "shard"), \
                    Timer() as timer:
                cold = run_sweep(bench_spec(), jobs=DSE_JOBS, kernel="compiled", cache_dir=cache_dir)
            with Timer() as warm_timer:
                warm = run_sweep(bench_spec(), jobs=DSE_JOBS, kernel="compiled", cache_dir=cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        batch.timed(timer)
        rows = cold["results"]
        batch.item_ms = [row["seconds"] * 1000.0 for row in rows]
        batch.attempted = len(rows)
        batch.sim_cycles = sum(row["cycles"] or 0 for row in rows)
        batch.extra = {
            "dse.warm.s": warm_timer.wall_s,
            "dse.warm.hit_ratio": warm["cache_stats"]["hit_ratio"],
        }

        pins = self.pins["dse_cold"]
        if len(rows) != pins["configs"]:
            batch.fail_all("%d configs, expected %d" % (len(rows), pins["configs"]))
        outputs = dse_row_outputs(cold)
        for row in rows:
            if row["error"] is not None:
                batch.fail("config %s errored: %s" % (row["label"], row["error"]))
            elif pins["rows"].get(row["key"]) != outputs[row["key"]]:
                batch.fail("config %s differs from its pinned row" % row["label"])
        fingerprint = sweep_fingerprint(cold)
        if fingerprint != pins["fingerprint"]:
            batch.fail_all("sweep_fingerprint %s != pinned %s" % (fingerprint[:12], pins["fingerprint"][:12]))
        if warm["cache_stats"]["hit_ratio"] != 1.0:
            batch.fail_all("warm hit ratio %.3f != 1.0" % warm["cache_stats"]["hit_ratio"])
        if scrub_timings(warm["frontier"]) != scrub_timings(cold["frontier"]):
            batch.fail_all("warm frontier differs from the cold frontier")
        if sweep_fingerprint(warm) != fingerprint:
            batch.fail_all("warm sweep_fingerprint differs from the cold one")
        return batch


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------


class _CaseClock:
    """Times each fuzz case and counts simulated cycles during one batch.

    The runner's binding of ``evaluate_case`` and the oracle's binding of
    ``simulate_config`` are replaced for the batch; both forward to the
    current module attribute, so a traced run's wrappers still see the
    calls.
    """

    def __init__(self):
        self.case_ms: List[float] = []
        self.cycles = 0
        self._restore: List[tuple] = []

    def __enter__(self) -> "_CaseClock":
        import hostspeed
        import repro.dse.engine as engine
        import repro.fuzz.oracle as oracle
        import repro.fuzz.runner as fuzz_runner

        def evaluate_case(*args, **kwargs):
            start = time.perf_counter()
            try:
                return oracle.evaluate_case(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.case_ms.append((end - start) * 1000.0)
                hostspeed.record_item(start, end)

        def simulate_config(*args, **kwargs):
            metric = engine.simulate_config(*args, **kwargs)
            self.cycles += metric["cycles"]
            return metric

        for module, name, replacement in (
            (fuzz_runner, "evaluate_case", evaluate_case),
            (oracle, "simulate_config", simulate_config),
        ):
            self._restore.append((module, name, getattr(module, name)))
            setattr(module, name, replacement)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            module, name, original = self._restore.pop()
            setattr(module, name, original)


def fuzz_inputs() -> List[Dict[str, Any]]:
    """The cases the fuzz workload judges (fixed; see ``NOTES.md``)."""
    from repro.fuzz.generator import sample_cases

    return sample_cases(FUZZ_SEED, FUZZ_BUDGET)[0]


class Fuzz(Workload):
    """``run_fuzz`` at the CI seed on compiled: cold cache, empty corpus,
    no findings written."""

    name = "fuzz"

    def run_batch(self, index: int) -> Batch:
        from repro.fuzz.runner import fuzz_fingerprint, run_fuzz

        cache_dir = self._tempdir("fuzz-cache-")
        corpus_dir = self._tempdir("fuzz-corpus-")
        batch = Batch()
        try:
            with _CaseClock() as clock, Timer() as timer:
                summary = run_fuzz(
                    FUZZ_SEED,
                    FUZZ_BUDGET,
                    jobs=1,
                    kernel="compiled",
                    corpus_dir=corpus_dir,
                    cache_dir=cache_dir,
                    write_findings=False,
                )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            shutil.rmtree(corpus_dir, ignore_errors=True)
        batch.timed(timer)
        batch.item_ms = clock.case_ms
        batch.sim_cycles = clock.cycles
        verdicts = summary["results"]
        batch.attempted = FUZZ_BUDGET
        if len(verdicts) != FUZZ_BUDGET:
            batch.fail_all("%d verdicts, expected %d" % (len(verdicts), FUZZ_BUDGET))
        for verdict in verdicts:
            if not verdict["ok"]:
                batch.fail("case %s failed %s" % (verdict["label"], verdict["failed_checks"]))
        fingerprint = fuzz_fingerprint(summary)
        if fingerprint != self.pins["fuzz"]["fingerprint"]:
            batch.fail_all(
                "fuzz_fingerprint %s != pinned %s" % (fingerprint[:12], self.pins["fuzz"]["fingerprint"][:12])
            )
        return batch


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def generate_round(seed: int, index: int) -> List[Any]:
    """One round of the seeded draw: a legal pair of configs per stratum.

    Strata are every preset x PE band x data width, so each round has the
    same mix of small and large systems and only the exact PE and SplitBA
    subsystem counts vary with the seed.  Each stratum draws a PE count
    and its mirror in the band (``low + high - pes``), so that every round
    generates about as many PEs in all and rounds cost about the same.
    Legality is the program's own (``normalize_options``); a pair with an
    illegal member is drawn again.
    """
    from repro.dse.spec import normalize_options

    rng = random.Random("perfbench-generate:%d:%d" % (seed, index))
    configs = []
    for bus in GENERATE_BUSES:
        for low, high in GENERATE_PE_BANDS:
            for width in GENERATE_WIDTHS:
                for _attempt in range(64):
                    drawn = rng.randint(low, high)
                    pair = []
                    for pes in (drawn, low + high - drawn):
                        raw = {
                            "bus": bus,
                            "pes": pes,
                            "subsystems": rng.randint(1, min(pes, GENERATE_MAX_SUBSYSTEMS)),
                            "data_width": width,
                            # Nothing is simulated; mpeg2 has no style constraint on PE count.
                            "app": "mpeg2",
                        }
                        pair.append(normalize_options(raw)[0])
                    if None not in pair:
                        configs.extend(pair)
                        break
                else:
                    raise RuntimeError("no legal config pair for %s %s %d" % (bus, (low, high), width))
    return configs


def generate_system(config: Any) -> Dict[str, Any]:
    """Generate, emit, lint, elaborate and structurally compare one system."""
    from repro.core.busyn import BusSyn
    from repro.dse.spec import build_config_spec
    from repro.sim.fabric import build_machine
    from repro.verify.equiv import compare_graphs
    from repro.verify.graph import graph_from_design, graph_from_machine

    spec = build_config_spec(config)
    generated = BusSyn(cache=False).generate(spec)
    text = generated.verilog()
    lint_errors = [message for message in generated.lint() if message.severity == "error"]
    machine = build_machine(spec, kernel="heap")
    findings = compare_graphs(graph_from_design(generated.design()), graph_from_machine(machine))
    return {
        "gates": generated.report.gate_count,
        "verilog_bytes": len(text),
        "lint_errors": [str(message) for message in lint_errors],
        "findings": [str(finding) for finding in findings],
    }


def config_label(config: Any) -> str:
    return "%s/%d/w%d%s" % (
        config.bus,
        config.pes,
        config.data_width,
        "/x%d" % config.subsystems if config.subsystems is not None else "",
    )


class Generate(Workload):
    """A seeded draw of legal configs through generation, HDL and the
    structural check; nothing is simulated."""

    name = "generate"

    def run_batch(self, index: int) -> Batch:
        import hostspeed
        from repro.fuzz.oracle import STRUCTURAL_EXCLUDED

        configs = generate_round(self.seed, index)
        pins = self.pins["generate"]
        gate_pins = pins["gates"] if self.seed == pins["seed"] else {}
        known = pins["known_findings"]
        batch = Batch(attempted=len(configs))
        outputs = []
        with Timer() as timer:
            for config in configs:
                start = time.perf_counter()
                try:
                    outputs.append(generate_system(config))
                except Exception as error:  # noqa: BLE001 -- counted as a failed item
                    outputs.append({"error": "%s: %s" % (type(error).__name__, error)})
                end = time.perf_counter()
                batch.item_ms.append((end - start) * 1000.0)
                hostspeed.record_item(start, end)
        batch.timed(timer)
        exempt = 0
        for config, output in zip(configs, outputs):
            label = config_label(config)
            if "error" in output:
                batch.fail("%s errored: %s" % (label, output["error"]))
                continue
            problems = []
            if output["lint_errors"]:
                problems.append("lint errors %s" % output["lint_errors"][:2])
            if output["gates"] <= 0 or output["verilog_bytes"] <= 0:
                problems.append("empty design")
            if output["findings"]:
                allowed = known.get("%s/%d" % (config.bus, config.pes))
                if config.bus in STRUCTURAL_EXCLUDED or output["findings"] == allowed:
                    exempt += 1
                else:
                    problems.append("equivalence findings %s" % output["findings"][:2])
            pinned = gate_pins.get(config.key())
            if pinned is not None and pinned != output["gates"]:
                problems.append("gates %d != pinned %d" % (output["gates"], pinned))
            if problems:
                batch.fail("%s: %s" % (label, "; ".join(problems)))
        batch.extra = {"exempt_findings": exempt}
        return batch


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    PaperTables.name: PaperTables,
    DseCold.name: DseCold,
    Fuzz.name: Fuzz,
    Generate.name: Generate,
}


def make(name: str, seed: int, scratch: str, pins: Optional[Dict[str, Any]] = None) -> Workload:
    return WORKLOADS[name](seed, scratch, pins if pins is not None else load_pins())
