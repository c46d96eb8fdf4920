"""Which functions of the program the traced run wraps, and the per-layer
metrics computed from what the wrappers record.

Layers are named after the program's modules (``src/repro/<module>``).
The ``bus`` counters come from the simulated machines' own statistics, read
when an application run returns; the bus fabric has no wrapped call, so its
host time is part of the kernel's self time.
"""

from __future__ import annotations

import os
from importlib import import_module
from typing import Any, Dict, List

from spans import Tracer, perf

#: Layers with wrapped calls; each gets a ``<layer>.self_s`` metric.
LAYERS = (
    "core",
    "moduledb",
    "wiredb",
    "hdl",
    "verify",
    "fabric",
    "kernel",
    "pe",
    "soc",
    "apps",
    "runner",
    "dse",
    "fuzz",
    "faults",
)

#: Per-layer metrics printed by the traced run, in ``BENCHMARK.json`` order.
PER_LAYER_UNITS: Dict[str, str] = {
    "core.generate.calls": "count",
    "core.generate.s": "s",
    "core.gates_total": "gates",
    "core.store_hits": "count",
    "moduledb.load.calls": "count",
    "moduledb.load.s": "s",
    "wiredb.load.s": "s",
    "wiredb.section.calls": "count",
    "wiredb.section.s": "s",
    "hdl.emit.s": "s",
    "hdl.emit.bytes": "bytes",
    "hdl.lint.s": "s",
    "hdl.lint.errors": "count",
    "verify.graph.s": "s",
    "verify.compare.s": "s",
    "verify.findings": "count",
    "verify.monitor.s": "s",
    "fabric.build.calls": "count",
    "fabric.build.s": "s",
    "fabric.specialized_frac": "ratio",
    "kernel.events": "count",
    "kernel.events_per_cycle": "ratio",
    "kernel.run.s": "s",
    "sim.cycles": "cycles",
    "bus.transactions": "count",
    "bus.grants": "count",
    "bus.wait_cycles": "cycles",
    "cache.access.calls": "count",
    "cache.access.s": "s",
    "cache.hit_ratio": "ratio",
    "pe.unattributed_frac": "ratio",
    "soc.reg_wait.calls": "count",
    "soc.reg_wait.s": "s",
    "soc.var_wait.s": "s",
    "soc.polls": "count",
    "apps.ifft.calls": "count",
    "apps.ifft.s": "s",
    "apps.mpeg2.decode.s": "s",
    "runner.case.s": "s",
    "runner.overhead.s": "s",
    "runner.shard_imbalance": "ratio",
    "dse.cache.put.calls": "count",
    "dse.cache.put.s": "s",
    "dse.cache.get.s": "s",
    "dse.cache.bytes": "bytes",
    "dse.warm.s": "s",
    "dse.warm.hit_ratio": "ratio",
    "fuzz.evaluate.s": "s",
    "fuzz.structural.s": "s",
    "fuzz.parity.s": "s",
    "fuzz.protocol.s": "s",
    "fuzz.resilience.s": "s",
    "fuzz.case_ms_max": "ms",
    "faults.install.s": "s",
    "faults.injected": "count",
    "faults.recovered": "count",
    "faults.retries": "count",
}
for _layer in LAYERS:
    PER_LAYER_UNITS["%s.self_s" % _layer] = "s"
PER_LAYER_UNITS.update(
    {
        "trace.wall_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.unattributed_s": "s",
        "trace.spans": "count",
    }
)

#: Per-layer quantities the traced run cannot see, with the reason;
#: printed by every traced run.
NOT_OBSERVABLE = {
    "per-config spans inside dse_cold's pool workers": (
        "workers are forked processes; their wrapped calls are merged back as "
        "counts and times, and only the parent's spans are written out"
    ),
    "bus.self_s": (
        "the bus fabric, arbiters and bridges are reached only from inside "
        "the kernel's run loop, with no public call boundary to wrap; their "
        "host time is part of kernel.self_s"
    ),
}


def _harvest_machine(tracer: Tracer, machine: Any) -> None:
    """Read the simulated statistics of a machine whose run just ended."""
    count = tracer.count
    count("sim.cycles", machine.sim.now)
    for segment in machine.segments.values():
        count("bus.transactions", segment.stats.transactions)
        count("bus.wait_cycles", segment.stats.arbitration_cycles)
        count("bus.grants", segment.arbiter.grants)
    for pe in machine.pes.values():
        stats = pe.stats
        count("pe.hits", stats.icache_hits + stats.dcache_hits)
        count("pe.misses", stats.icache_misses + stats.dcache_misses)
        count("soc.polls", stats.handshake_polls)
        if pe.finished_at:
            count("pe.finished_cycles", pe.finished_at)
            count("pe.attributed_cycles", stats.compute_cycles + stats.bus_cycles + stats.stall_cycles)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (see ``NOTES.md``)."""
    # import_module, not "import a.b as c": repro.apps.ofdm re-exports a
    # function named fft that shadows its fft submodule as an attribute.
    database = import_module("repro.apps.database.workload")
    codec = import_module("repro.apps.mpeg2.codec")
    mpeg2 = import_module("repro.apps.mpeg2.parallel")
    fft = import_module("repro.apps.ofdm.fft")
    ofdm = import_module("repro.apps.ofdm.mapping")
    busyn = import_module("repro.core.busyn")
    dse_cache = import_module("repro.dse.cache")
    engine = import_module("repro.dse.engine")
    runner = import_module("repro.experiments.runner")
    injector = import_module("repro.faults.injector")
    oracle = import_module("repro.fuzz.oracle")
    fuzz_runner = import_module("repro.fuzz.runner")
    lint = import_module("repro.hdl.lint")
    moduledb = import_module("repro.moduledb.library")
    sim_cache = import_module("repro.sim.cache")
    compiled_kernel = import_module("repro.sim.compiled.kernel")
    specializer = import_module("repro.sim.compiled.specializer")
    fabric = import_module("repro.sim.fabric")
    kernel = import_module("repro.sim.kernel")
    soc_api = import_module("repro.soc.api")
    equiv = import_module("repro.verify.equiv")
    graph = import_module("repro.verify.graph")
    monitors = import_module("repro.verify.monitors")
    wiredb = import_module("repro.wiredb.library")

    t = tracer
    count = t.count

    def span(name, layer, before=None, after=None):
        return lambda fn: t.span(name, layer, fn, before, after)

    def leaf(name, layer, after=None):
        return lambda fn: t.leaf(name, layer, fn, after)

    def generator(name, layer):
        return lambda fn: t.generator(name, layer, fn)

    # core: BusSyn and everything it calls (bangen, subsysgen, sysgen, gatecount).
    def generate_after(args, kwargs, result, hits_before, frame):
        count("core.gates_total", result.report.gate_count)
        count("core.store_hits", args[0].store_hits - hits_before)

    t.patch_method(
        busyn.BusSyn, "generate", span("core.generate", "core", lambda a, k: a[0].store_hits, generate_after)
    )

    # moduledb / wiredb
    t.patch_method(moduledb.ModuleLibrary, "load_text", span("moduledb.load", "moduledb"))
    t.patch_method(wiredb.WireLibrary, "load_text", span("wiredb.load", "wiredb"))
    for method in ("ban_section", "global_ban_section", "subsystem_section", "section"):
        t.patch_method(wiredb.WireLibrary, method, leaf("wiredb.section", "wiredb"))

    # hdl
    def emit_after(args, kwargs, result, state, frame):
        count("hdl.emit.bytes", len(result))

    def lint_after(args, kwargs, result, state, frame):
        count("hdl.lint.errors", sum(1 for message in result if message.severity == "error"))

    t.patch_method(busyn.GeneratedBusSystem, "verilog", span("hdl.emit", "hdl", after=emit_after))
    t.patch_function(lint, "lint_design", span("hdl.lint", "hdl", after=lint_after))

    # verify
    def compare_after(args, kwargs, result, state, frame):
        count("verify.findings", len(result))

    t.patch_function(graph, "graph_from_design", span("verify.graph", "verify"))
    t.patch_function(graph, "graph_from_machine", span("verify.graph", "verify"))
    t.patch_function(equiv, "compare_graphs", span("verify.compare", "verify", after=compare_after))
    for method in sorted(vars(monitors.ProtocolMonitor)):
        if method.startswith("on_") or method == "finalize":
            t.patch_method(monitors.ProtocolMonitor, method, leaf("verify.monitor", "verify"))

    # sim elaboration
    def build_after(args, kwargs, result, state, frame):
        count("fabric.specialized", 1 if result._specialized else 0)

    t.patch_method(fabric.MachineBuilder, "build", span("fabric.build", "fabric", after=build_after))
    t.patch_function(specializer, "specialize_machine", span("fabric.specialize", "fabric"))

    # kernel: every backend's run loop
    for cls in (kernel.Simulator, kernel.WheelSimulator, compiled_kernel.CompiledSimulator):
        if "run" in cls.__dict__:
            t.patch_method(cls, "run", span("kernel.run", "kernel"))

    # pe / cache, soc
    t.patch_method(sim_cache.Cache, "access", leaf("cache.access", "pe"))
    t.patch_method(soc_api.SocAPI, "reg_wait", generator("soc.reg_wait", "soc"))
    t.patch_method(soc_api.SocAPI, "var_wait", generator("soc.var_wait", "soc"))

    # apps: the application drivers (which run the simulation) and their compute
    def app_after(args, kwargs, result, state, frame):
        _harvest_machine(t, args[0])

    for module, name in ((ofdm, "run_ofdm"), (mpeg2, "run_mpeg2"), (database, "run_database")):
        t.patch_function(module, name, span("apps.run", "apps", after=app_after))
    t.patch_function(fft, "ifft_butterflies", leaf("apps.ifft", "apps"))
    t.patch_function(codec, "iter_decode_chunk", generator("apps.mpeg2.decode", "apps"))

    # experiments runner
    def run_cases_after(args, kwargs, result, start, frame):
        wall = perf() - start
        jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
        walls = [entry.wall_seconds for entry in result[1]]
        if not walls:
            return
        count("runner.case.s", sum(walls))
        if jobs > 1 and len(walls) > 1:
            # Cases ran in workers: the parent waited for the slowest one.
            frame[0] += max(walls)
            count("runner.overhead.s", wall - max(walls))
            count("runner.pooled_calls", 1)
            count("runner.shard_imbalance", max(walls) / (sum(walls) / len(walls)))
        else:
            count("runner.overhead.s", wall - sum(walls))

    t.patch_function(runner, "run_cases", span("runner.run_cases", "runner", lambda a, k: perf(), run_cases_after))
    t.patch_function(runner, "_invoke", lambda fn: t.worker_case("runner.case", "runner", fn))

    # dse: sweep engine and artifact cache
    def put_after(args, kwargs, result, state, frame):
        count("dse.cache.bytes", os.path.getsize(result))

    t.patch_function(engine, "run_sweep", span("dse.sweep", "dse"))
    for method in ("get_json", "get_object"):
        t.patch_method(dse_cache.ArtifactCache, method, leaf("dse.cache.get", "dse"))
    for method in ("put_json", "put_object"):
        t.patch_method(dse_cache.ArtifactCache, method, leaf("dse.cache.put", "dse", after=put_after))

    # fuzz oracle
    t.patch_function(fuzz_runner, "run_fuzz", span("fuzz.run", "fuzz"))
    t.patch_function(oracle, "evaluate_case", span("fuzz.evaluate", "fuzz"))
    for check in ("structural", "parity", "protocol", "resilience"):
        t.patch_function(oracle, "_check_" + check, span("fuzz." + check, "fuzz"))

    # faults
    def report_after(args, kwargs, result, state, frame):
        count("faults.injected", result.injected)
        count("faults.recovered", result.recovered)
        count("faults.retries", result.retries)

    t.patch_function(injector, "install_faults", span("faults.install", "faults"))
    t.patch_method(injector.FaultInjector, "resilience_report", leaf("faults.report", "faults", after=report_after))


def per_layer_metrics(
    tracer: Tracer, traced_wall: float, untraced_wall: float, region_wall: float, extra: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric from one traced batch (after worker merge).

    ``traced_wall`` and ``untraced_wall`` are the batch's timed work with
    and without the wrappers; ``region_wall`` is everything run while the
    wrappers were installed, output checks included.
    """
    seconds, calls, counts = tracer.seconds, tracer.calls, tracer.counts
    get = counts.get
    cycles = get("sim.cycles", 0)
    builds = calls("fabric.build")
    accesses = get("pe.hits", 0) + get("pe.misses", 0)
    finished = get("pe.finished_cycles", 0)
    pooled = get("runner.pooled_calls", 0)
    evaluate = tracer.stats.get("fuzz.evaluate")
    values: Dict[str, float] = {
        "core.generate.calls": calls("core.generate"),
        "core.generate.s": seconds("core.generate"),
        "core.gates_total": get("core.gates_total", 0),
        "core.store_hits": get("core.store_hits", 0),
        "moduledb.load.calls": calls("moduledb.load"),
        "moduledb.load.s": seconds("moduledb.load"),
        "wiredb.load.s": seconds("wiredb.load"),
        "wiredb.section.calls": calls("wiredb.section"),
        "wiredb.section.s": seconds("wiredb.section"),
        "hdl.emit.s": seconds("hdl.emit"),
        "hdl.emit.bytes": get("hdl.emit.bytes", 0),
        "hdl.lint.s": seconds("hdl.lint"),
        "hdl.lint.errors": get("hdl.lint.errors", 0),
        "verify.graph.s": seconds("verify.graph"),
        "verify.compare.s": seconds("verify.compare"),
        "verify.findings": get("verify.findings", 0),
        "verify.monitor.s": seconds("verify.monitor"),
        "fabric.build.calls": builds,
        "fabric.build.s": seconds("fabric.build"),
        "fabric.specialized_frac": get("fabric.specialized", 0) / builds if builds else 0.0,
        "kernel.events": get("kernel.events", 0),
        "kernel.events_per_cycle": get("kernel.events", 0) / cycles if cycles else 0.0,
        "kernel.run.s": seconds("kernel.run"),
        "sim.cycles": cycles,
        "bus.transactions": get("bus.transactions", 0),
        "bus.grants": get("bus.grants", 0),
        "bus.wait_cycles": get("bus.wait_cycles", 0),
        "cache.access.calls": calls("cache.access"),
        "cache.access.s": seconds("cache.access"),
        "cache.hit_ratio": get("pe.hits", 0) / accesses if accesses else 0.0,
        "pe.unattributed_frac": 1.0 - get("pe.attributed_cycles", 0) / finished if finished else 0.0,
        "soc.reg_wait.calls": calls("soc.reg_wait.created"),
        "soc.reg_wait.s": seconds("soc.reg_wait"),
        "soc.var_wait.s": seconds("soc.var_wait"),
        "soc.polls": get("soc.polls", 0),
        "apps.ifft.calls": calls("apps.ifft"),
        "apps.ifft.s": seconds("apps.ifft"),
        "apps.mpeg2.decode.s": seconds("apps.mpeg2.decode"),
        "runner.case.s": get("runner.case.s", 0),
        "runner.overhead.s": get("runner.overhead.s", 0),
        "runner.shard_imbalance": get("runner.shard_imbalance", 0) / pooled if pooled else 0.0,
        "dse.cache.put.calls": calls("dse.cache.put"),
        "dse.cache.put.s": seconds("dse.cache.put"),
        "dse.cache.get.s": seconds("dse.cache.get"),
        "dse.cache.bytes": get("dse.cache.bytes", 0),
        "dse.warm.s": extra.get("dse.warm.s", 0.0),
        "dse.warm.hit_ratio": extra.get("dse.warm.hit_ratio", 0.0),
        "fuzz.evaluate.s": seconds("fuzz.evaluate"),
        "fuzz.structural.s": seconds("fuzz.structural"),
        "fuzz.parity.s": seconds("fuzz.parity"),
        "fuzz.protocol.s": seconds("fuzz.protocol"),
        "fuzz.resilience.s": seconds("fuzz.resilience"),
        "fuzz.case_ms_max": evaluate.max_s * 1000.0 if evaluate is not None else 0.0,
        "faults.install.s": seconds("faults.install"),
        "faults.injected": get("faults.injected", 0),
        "faults.recovered": get("faults.recovered", 0),
        "faults.retries": get("faults.retries", 0),
    }
    for layer in LAYERS:
        values["%s.self_s" % layer] = tracer.self_s.get(layer, [0.0])[0]
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
    values["trace.unattributed_s"] = region_wall - tracer.top_level_s
    values["trace.spans"] = len(tracer.spans) + get("trace.worker_spans", 0)
    return values


def layers_seen(tracer: Tracer) -> List[str]:
    """Layers with at least one recorded call."""
    return sorted({stat.layer for stat in tracer.stats.values() if stat.calls})
