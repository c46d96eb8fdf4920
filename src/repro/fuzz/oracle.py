"""The oracle: the one place a case is built, armed, run and judged.

:func:`run_case` builds the machine for a :class:`DseConfig`, arms
protocol monitors and/or a fault plan when asked, runs the configured
workload (:func:`repro.dse.engine.simulate_config`) and returns what the
run left behind.  Every harness judges through it and the checks below:
``repro fuzz`` (:func:`evaluate_case`), ``repro verify``
(:mod:`repro.verify.runner`), ``repro chaos`` (:mod:`repro.faults.chaos`)
and the DSE resilience/verify scores (:mod:`repro.dse.engine`).

A fuzz case is judged by four independent checks, composed into one
verdict:

* ``structural`` -- generate the Verilog bus system and require the
  netlist and simulation-machine :class:`FabricGraph` abstractions to be
  equivalent (:func:`repro.verify.equiv.compare_graphs`); architectures in
  :data:`STRUCTURAL_EXCLUDED` skip it;
* ``protocol`` -- run the workload with
  :class:`~repro.verify.monitors.ProtocolMonitor` armed on every
  arbiter/segment/FIFO/bridge; any protocol finding, unfinished PE, or
  monitor-induced cycle perturbation fails the check;
* ``resilience`` -- compile a seeded fault plan (``fault_scale`` smoke
  scenarios worth), install it, run, and require the
  :class:`~repro.faults.report.ResilienceReport` accounting invariant
  (injected == recovered + residual + accounted) plus PE completion;
  a ``fault_scale`` of 0 skips the check (the shrinker's "no fault plan
  needed" direction);
* ``parity`` -- run the bare workload on the heap and compiled kernels
  and require identical run fingerprints (cycles, throughput,
  per-segment bus counts).

Every check is exception-safe: a raised :class:`BusTimeoutError` (or any
other error) becomes a deterministic ``exception:`` finding rather than a
crashed fuzz run.  Verdicts are plain JSON-able dicts so they cache in
the DSE artifact store (kind ``"fuzz"``, keyed by case hash +
:data:`ORACLE_VERSION`) and diff cleanly inside corpus entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.busyn import BusSyn
from ..dse.engine import simulate_config
from ..dse.spec import DEFAULT_STYLE, DseConfig, build_config_spec, normalize_options
from ..obs.ledger import content_hash
from ..options import presets
from ..options.schema import OptionError
from ..sim.kernel import KERNEL_BACKENDS

__all__ = [
    "ORACLE_VERSION",
    "ORACLE_CHECKS",
    "PARITY_BACKENDS",
    "STRUCTURAL_EXCLUDED",
    "VERIFY_ARCHITECTURES",
    "CaseRun",
    "sweep_config",
    "run_case",
    "protocol_findings",
    "tenure_findings",
    "oracle_cache_key",
    "run_fingerprint",
    "evaluate_case",
]

#: Bump when the oracle's judgement surface changes; cached verdicts from
#: older oracles then read as misses instead of stale acquittals.
#: Version 2: data_width propagates into the generated RTL and the
#: structural extractor reads true widths, so every width-divergence
#: verdict from version 1 is void.
ORACLE_VERSION = 2

ORACLE_CHECKS = ("structural", "protocol", "resilience", "parity")

#: All registered scheduler backends, in registry order (heap, compiled)
#: -- the parity check runs the bare workload on each.
PARITY_BACKENDS = tuple(KERNEL_BACKENDS)

#: Architectures whose netlist <-> machine structural comparison is a
#: documented modelled divergence, not a bug (docs/verification.md).
#: The one exemption: the ``repro verify`` default sweep and the fuzz bus
#: pool leave them out, and :func:`evaluate_case` skips their structural
#: check.  An explicit ``repro verify --arch`` still reports the findings.
STRUCTURAL_EXCLUDED = frozenset(["CCBA"])

#: Every architecture the oracles sweep by default -- the ``repro verify``
#: matrix and the fuzz bus pool -- in the style table's order.
VERIFY_ARCHITECTURES = tuple(
    arch for arch in DEFAULT_STYLE if arch not in STRUCTURAL_EXCLUDED
)


@dataclass
class CaseRun:
    """What one :func:`run_case` left behind."""

    metric: Dict[str, Any]
    #: :meth:`~repro.sim.fabric.Machine.bus_snapshot` after the run.
    bus: Dict[str, Dict[str, int]]
    #: Simulated cycle the kernel stopped at.
    sim_now: int
    #: PE name -> finish cycle, ``None`` for a PE that never finished.
    finished: Dict[str, Optional[int]]
    #: The armed :class:`~repro.verify.monitors.ProtocolMonitor`, if any.
    monitor: Any = None
    #: ``monitor.finalize()`` rendered as strings (empty when unmonitored).
    protocol: Tuple[str, ...] = ()
    #: The :class:`~repro.faults.report.ResilienceReport`, if faults were armed.
    resilience: Any = None

    @property
    def unfinished(self) -> List[str]:
        """Names of the PEs that did not complete, name-sorted."""
        return [name for name, at in sorted(self.finished.items()) if at is None]


def sweep_config(
    arch: str,
    pe_count: int,
    packets: int,
    data_width: Optional[int] = None,
    style: str = "auto",
) -> DseConfig:
    """The OFDM config a verify or chaos sweep runs for ``arch``.

    Goes through :func:`~repro.dse.spec.normalize_options`, so ``"auto"``
    is the architecture's default style
    (:data:`~repro.dse.spec.DEFAULT_STYLE`) and an illegal case raises
    :class:`OptionError` (exit 2 in the CLI) instead of failing inside a
    worker.
    """
    raw: Dict[str, Any] = {
        "bus": presets.preset_name(arch),
        "pes": pe_count,
        "packets": packets,
        "style": style,
    }
    if data_width is not None:
        raw["data_width"] = data_width
    try:
        config, reason = normalize_options(raw, strict=True)
    except OptionError as error:
        config, reason = None, "option-error: %s" % error
    if config is None:
        raise OptionError(
            "%s with pes=%d packets=%d%s is not a legal case (%s)"
            % (
                raw["bus"],
                pe_count,
                packets,
                "" if data_width is None else " data_width=%d" % data_width,
                reason,
            )
        )
    return config


def run_case(
    config: DseConfig,
    kernel: str,
    monitors: bool = False,
    faults: Optional[Tuple[Any, int]] = None,
) -> CaseRun:
    """Build ``config``'s machine on ``kernel``, arm it, run it.

    ``monitors`` attaches a :class:`~repro.verify.monitors.ProtocolMonitor`
    (``fail_fast=False``).  ``faults`` is ``(scenario, seed)``: the
    :class:`~repro.faults.plan.ChaosScenario` is compiled against the
    machine and installed with the default recovery policy; a ``None``
    scenario installs the empty plan.  Errors propagate to the caller.
    """
    from ..sim.fabric import build_machine

    machine = build_machine(build_config_spec(config), kernel=kernel)
    monitor = machine.attach_monitors(fail_fast=False) if monitors else None
    injector = None
    if faults is not None:
        from ..faults.injector import RecoveryPolicy, install_faults
        from ..faults.plan import compile_plan, empty_plan

        scenario, seed = faults
        plan = empty_plan() if scenario is None else compile_plan(machine, scenario, seed)
        injector = install_faults(machine, plan, RecoveryPolicy())
    metric = simulate_config(config, machine)
    return CaseRun(
        metric=metric,
        bus=machine.bus_snapshot(),
        sim_now=machine.sim.now,
        finished={name: pe.finished_at for name, pe in machine.pes.items()},
        monitor=monitor,
        protocol=(
            () if monitor is None else tuple(str(finding) for finding in monitor.finalize())
        ),
        resilience=None if injector is None else injector.resilience_report(),
    )


def oracle_cache_key(case: Dict[str, Any]) -> str:
    """Artifact-store key for one case's verdict.

    The scheduler backend stays out of the key on purpose: verdicts are
    backend-invariant (the parity check itself proves it), so a verdict
    computed under ``--kernel compiled`` serves a later heap run.
    """
    return content_hash(
        {
            "oracle": ORACLE_VERSION,
            "options": case["options"],
            "fault_seed": case["fault_seed"],
            "fault_scale": case["fault_scale"],
        }
    )


def run_fingerprint(run: CaseRun) -> str:
    """Deterministic fingerprint of one finished run.

    Hashes the simulated-cycle count, the workload metric, per-PE finish
    cycles and the per-segment bus counts -- everything the
    backend-parity suite guarantees bit-identical across heap/compiled,
    and nothing wall-clock.
    """
    return content_hash(
        {
            "cycles": run.metric["cycles"],
            "metric_name": run.metric["name"],
            "metric_value": run.metric["value"],
            "sim_now": run.sim_now,
            "pe_finish": run.finished,
            "bus": run.bus,
        }
    )


def _findings_from_error(error: BaseException) -> List[str]:
    return ["exception: %s: %s" % (type(error).__name__, error)]


def _unfinished_pes(run: CaseRun) -> List[str]:
    return ["PE %s did not complete" % name for name in run.unfinished]


def protocol_findings(run: CaseRun, baseline_cycles: int) -> List[str]:
    """A monitored run's verdict against its bare twin's cycle count.

    Monitors are observe-only, so any protocol finding, unfinished PE or
    change of cycle count fails.
    """
    findings = list(run.protocol) + _unfinished_pes(run)
    if run.metric["cycles"] != baseline_cycles:
        findings.append(
            "monitors perturbed the run (%d cycles != baseline %d)"
            % (run.metric["cycles"], baseline_cycles)
        )
    return findings


def tenure_findings(run: CaseRun) -> List[str]:
    """Fault-free runs retire exactly one tenure per arbiter grant."""
    return [
        "%s: %d retired tenures != %d arbiter grants"
        % (name, counts["transactions"], counts["grants"])
        for name, counts in run.bus.items()
        if counts["transactions"] != counts["grants"]
    ]


def _check_structural(config: DseConfig, tool: BusSyn) -> List[str]:
    from ..sim.fabric import build_machine
    from ..verify.equiv import compare_graphs
    from ..verify.graph import graph_from_design, graph_from_machine

    spec = build_config_spec(config)
    generated = tool.generate(spec)
    return [
        str(finding)
        for finding in compare_graphs(
            graph_from_design(generated.design()),
            graph_from_machine(build_machine(spec)),
        )
    ]


def _check_protocol(
    config: DseConfig, kernel: str, baseline_cycles: Optional[int] = None
) -> List[str]:
    if baseline_cycles is None:
        # Normally the parity check's run for this kernel is the baseline
        # (monitors are free-when-off); only a parity-stage error forces a
        # dedicated bare run here.
        baseline_cycles = run_case(config, kernel).metric["cycles"]
    return protocol_findings(run_case(config, kernel, monitors=True), baseline_cycles)


def _check_resilience(
    config: DseConfig, fault_seed: int, fault_scale: int, kernel: str
) -> List[str]:
    from ..faults.plan import SMOKE_SCENARIO

    if fault_scale <= 0:
        return []
    scenario = (
        SMOKE_SCENARIO if fault_scale == 1 else SMOKE_SCENARIO.scaled(fault_scale)
    )
    run = run_case(config, kernel, faults=(scenario, fault_seed))
    run.resilience.name = config.label()
    return run.resilience.check() + _unfinished_pes(run)


def _check_parity(config: DseConfig) -> Dict[str, Any]:
    fingerprints: Dict[str, str] = {}
    cycles: Dict[str, int] = {}
    findings: List[str] = []
    for backend in PARITY_BACKENDS:
        try:
            run = run_case(config, backend)
            fingerprints[backend] = run_fingerprint(run)
            cycles[backend] = run.metric["cycles"]
        except Exception as error:  # noqa: BLE001 -- deterministic finding
            fingerprints[backend] = None
            findings.extend(
                "%s: %s" % (backend, text) for text in _findings_from_error(error)
            )
    if len(set(fingerprints.values())) > 1:
        findings.append(
            "run fingerprints diverge across backends: %s"
            % ", ".join(
                "%s=%s" % (backend, (value or "error")[:12])
                for backend, value in sorted(fingerprints.items())
            )
        )
    return {"fingerprints": fingerprints, "cycles": cycles, "findings": findings}


def evaluate_case(
    case: Dict[str, Any], kernel: str = "heap", tool: Optional[BusSyn] = None
) -> Dict[str, Any]:
    """Run the full oracle stack on one case; returns its verdict dict.

    ``kernel`` drives the protocol and resilience checks (the parity
    check always runs all of :data:`PARITY_BACKENDS`).  ``tool`` lets a
    shard worker share one store-backed :class:`BusSyn` across cases.
    """
    config = DseConfig.from_options(case["options"])
    tool = tool or BusSyn()
    checks: Dict[str, List[str]] = {}

    try:
        checks["structural"] = (
            [] if config.bus in STRUCTURAL_EXCLUDED else _check_structural(config, tool)
        )
    except Exception as error:  # noqa: BLE001 -- deterministic finding
        checks["structural"] = _findings_from_error(error)
    try:
        parity = _check_parity(config)
    except Exception as error:  # noqa: BLE001
        parity = {"fingerprints": {}, "cycles": {}, "findings": _findings_from_error(error)}
    checks["parity"] = parity["findings"]
    try:
        checks["protocol"] = _check_protocol(
            config, kernel, baseline_cycles=parity["cycles"].get(kernel)
        )
    except Exception as error:  # noqa: BLE001
        checks["protocol"] = _findings_from_error(error)
    try:
        checks["resilience"] = _check_resilience(
            config, case["fault_seed"], case["fault_scale"], kernel
        )
    except Exception as error:  # noqa: BLE001
        checks["resilience"] = _findings_from_error(error)

    failed = sorted(name for name, findings in checks.items() if findings)
    return {
        "oracle_version": ORACLE_VERSION,
        "key": case.get("key") or oracle_cache_key(case),
        "options": case["options"],
        "fault_seed": case["fault_seed"],
        "fault_scale": case["fault_scale"],
        "label": config.label(),
        "ok": not failed,
        "failed_checks": failed,
        "checks": checks,
        "fingerprints": parity["fingerprints"],
    }
