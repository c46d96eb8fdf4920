"""The ``repro verify`` sweep: structural equivalence + monitored runs.

For every architecture under test this runs, per scheduler backend,
through the oracle (:mod:`repro.fuzz.oracle`):

1. **structural** -- generate the Verilog bus system, abstract both the
   netlist and the simulation machine into :class:`FabricGraph`\\ s, and
   compare them (the oracle's structural check);
2. **runtime** -- run the OFDM workload twice, once bare and once with
   :class:`~repro.verify.monitors.ProtocolMonitor` attached to every
   arbiter/segment/FIFO/bridge, and require (a) zero protocol findings
   and every PE finished and (b) cycle-identical results, proving the
   monitors observe without perturbing (the free-when-off contract);

then asserts backend parity on cycle counts and on the per-segment bus
counts carried by every case row (the bare run's
:meth:`~repro.sim.fabric.Machine.bus_snapshot`: ``BusStats`` plus arbiter
grants; in these fault-free sweeps every retired tenure must also be
exactly one arbiter grant).  Cases fan out over the parallel experiment
runner, so ``repro verify --jobs N`` sweeps architectures concurrently
with deterministic results.

The default sweep is :data:`~repro.fuzz.oracle.VERIFY_ARCHITECTURES`:
every preset but those in :data:`~repro.fuzz.oracle.STRUCTURAL_EXCLUDED`
(CCBA, whose machine abstraction flattens every BAN's memory onto one
processor local bus while the generated netlist keeps the per-BAN
structure -- docs/verification.md).  ``--arch CCBA`` still runs it and
reports its structural findings.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.busyn import BusSyn
from ..fuzz.oracle import (
    VERIFY_ARCHITECTURES,
    _check_structural,
    protocol_findings,
    run_case,
    sweep_config,
    tenure_findings,
)

__all__ = [
    "VERIFY_ARCHITECTURES",
    "SMOKE_ARCHITECTURES",
    "run_verify_case",
    "run_verify",
    "format_verify_summary",
]

# CI's quick pass: one distributed-memory and one shared-memory family
# member, still covering chains/bridges (BFBA) and shared-bus arbitration
# (SPLITBA's two subsystems plus a system bridge).
SMOKE_ARCHITECTURES = ["BFBA", "SPLITBA"]


def run_verify_case(
    case: Tuple[str, str, bool],
    packets: int = 2,
    pe_count: int = 4,
    data_width: Optional[int] = None,
) -> Dict[str, Any]:
    """Run one ``(arch, backend, check_structure)`` verification case;
    picklable.

    ``check_structure`` False skips the structural check (it does not
    depend on the scheduler backend; :func:`run_verify` runs it once per
    architecture) and leaves ``structural_findings`` None.
    """
    arch, backend, check_structure = case
    config = sweep_config(arch, pe_count, packets, data_width)
    structural = _check_structural(config, BusSyn()) if check_structure else None
    bare = run_case(config, backend)
    monitored = run_case(config, backend, monitors=True)
    return {
        "arch": arch,
        "style": config.style,
        "backend": backend,
        "cycles": bare.metric["cycles"],
        "monitored_cycles": monitored.metric["cycles"],
        "throughput_mbps": bare.metric["value"],
        "grants": monitored.monitor.grants_observed,
        "transfers": monitored.monitor.transfers_opened,
        "bus": bare.bus,
        "structural_findings": structural,
        "runtime_findings": protocol_findings(monitored, bare.metric["cycles"])
        + tenure_findings(bare),
    }


def run_verify(
    archs: Optional[Sequence[str]] = None,
    backends: Sequence[str] = ("heap", "compiled"),
    packets: int = 2,
    pe_count: int = 4,
    jobs: int = 1,
    data_width: Optional[int] = None,
) -> Dict[str, Any]:
    """Sweep the verification matrix; returns a JSON-able summary."""
    from ..experiments.runner import run_cases

    archs = [str(arch).upper() for arch in (archs or VERIFY_ARCHITECTURES)]
    for arch in archs:
        sweep_config(arch, pe_count, packets, data_width)
    # The structural check runs with each architecture's first backend;
    # the other backends' rows get a copy of its findings.
    cases = [
        (arch, backend, index == 0)
        for arch in archs
        for index, backend in enumerate(backends)
    ]
    results, _telemetry = run_cases(
        run_verify_case,
        cases,
        jobs=jobs,
        kwargs={"packets": packets, "pe_count": pe_count, "data_width": data_width},
    )
    by_key = {(row["arch"], row["backend"]): row for row in results}
    failures: List[str] = []
    for arch in archs:
        structural = by_key[(arch, backends[0])]["structural_findings"]
        for backend in backends[1:]:
            by_key[(arch, backend)]["structural_findings"] = list(structural)
        for backend in backends:
            row = by_key[(arch, backend)]
            failures.extend(
                "%s/%s structural: %s" % (arch, backend, text)
                for text in row["structural_findings"]
            )
            failures.extend(
                "%s/%s runtime: %s" % (arch, backend, text)
                for text in row["runtime_findings"]
            )
        reference = by_key[(arch, backends[0])]
        for backend in backends[1:]:
            other = by_key[(arch, backend)]
            if other["cycles"] != reference["cycles"]:
                failures.append(
                    "%s: cycles diverge across backends (%s=%d, %s=%d)"
                    % (
                        arch,
                        backends[0],
                        reference["cycles"],
                        backend,
                        other["cycles"],
                    )
                )
            if other["bus"] != reference["bus"]:
                failures.append(
                    "%s: bus counts diverge between %s and %s"
                    % (arch, backends[0], backend)
                )
    return {
        "packets": packets,
        "pe_count": pe_count,
        "data_width": data_width,
        "backends": list(backends),
        "architectures": archs,
        "cases": results,
        "failures": failures,
        "ok": not failures,
    }


def format_verify_summary(summary: Dict[str, Any]) -> List[str]:
    """Human-readable digest of a :func:`run_verify` summary."""
    width = summary.get("data_width")
    lines = [
        "verify sweep: packets=%d pes=%d backends=%s%s"
        % (
            summary["packets"],
            summary["pe_count"],
            "/".join(summary["backends"]),
            " data_width=%d" % width if width else "",
        )
    ]
    for row in summary["cases"]:
        status = (
            "ok"
            if not (row["structural_findings"] or row["runtime_findings"])
            else "FAIL"
        )
        lines.append(
            "  %-8s %-4s %-8s  %8d cycles  %6d grants  %6d transfers  "
            "structural %d  runtime %d  %s"
            % (
                row["arch"],
                row["style"],
                row["backend"],
                row["cycles"],
                row["grants"],
                row["transfers"],
                len(row["structural_findings"]),
                len(row["runtime_findings"]),
                status,
            )
        )
    if summary["failures"]:
        lines.append("verification FAILURES:")
        lines.extend("  - %s" % failure for failure in summary["failures"])
    else:
        lines.append(
            "netlist and machine are structurally equivalent; all protocol "
            "monitors green and bit-identical to baseline"
        )
    return lines
