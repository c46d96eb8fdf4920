"""Chaos harness: seeded fault sweeps across architectures and backends.

For every architecture under test the harness runs three modes on each
scheduler backend:

* ``baseline`` -- no fault machinery at all (the seed behaviour);
* ``empty``    -- an **empty** fault plan installed, which must be
  bit-identical to baseline (the hooks' zero-cost contract);
* ``faulted``  -- the seeded scenario compiled and installed.

and then asserts the chaos invariants:

1. no deadlock -- every case runs to completion (a stuck bus surfaces as a
   :class:`~repro.faults.plan.BusTimeoutError`, not a hang);
2. no silent data loss -- each faulted case's
   :class:`~repro.faults.report.ResilienceReport` accounts for 100% of its
   injected faults (``unaccounted == 0``);
3. empty-plan identity -- ``empty`` matches ``baseline`` cycle-for-cycle;
4. backend parity -- ``faulted`` outcomes (cycles, episode ledger, all
   counters) are identical on the heap and compiled kernels.

Every row additionally carries its machine's per-segment bus counts
(:meth:`~repro.sim.fabric.Machine.bus_snapshot`: ``BusStats`` plus arbiter
grants), which must be identical across backends in *every* mode -- under
injection a watchdog redelivery can legitimately re-grant, so chaos gates
grants by parity rather than by equating them with retired tenures.

Cases fan out over the parallel experiment runner, so ``repro chaos
--jobs N`` sweeps architectures concurrently with deterministic results.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..fuzz.oracle import run_case, sweep_config
from .plan import SCENARIOS

__all__ = [
    "CHAOS_ARCHITECTURES",
    "run_chaos_case",
    "run_chaos",
    "format_chaos_summary",
]

# The five generated architectures of the paper (Figures 3-7); baselines
# (GGBA/CCBA) are reachable via --arch but not swept by default.
CHAOS_ARCHITECTURES = ["BFBA", "GBAVI", "GBAVIII", "HYBRID", "SPLITBA"]

MODES = ("baseline", "empty", "faulted")


def run_chaos_case(
    case: Tuple[str, str, str, str],
    packets: int = 4,
    seed: int = 0,
    scenario: str = "smoke",
    pe_count: int = 4,
) -> Dict[str, Any]:
    """Run one ``(arch, style, backend, mode)`` chaos case; picklable."""
    arch, style, backend, mode = case
    config = sweep_config(arch, pe_count, packets, style=style)
    # The empty-plan case doubles as the protocol-assertion case: monitors
    # are free-when-off and observe-only, so this mode must stay
    # bit-identical to baseline *and* violation-free.  (The faulted mode
    # deliberately breaks protocol -- e.g. withdraws grants -- so monitors
    # only arm when no faults are planned.)
    run = run_case(
        config,
        backend,
        monitors=mode == "empty",
        faults={
            "baseline": None,
            "empty": (None, seed),
            "faulted": (SCENARIOS[scenario], seed),
        }[mode],
    )
    # Run-to-quiescence swallows process failures (a dead PE is just a
    # failed, unwaited event), so an unfinished PE is the deadlock/crash
    # signal -- check it in every mode, baseline included.
    failures = ["%s: PE %s did not complete" % (arch, name) for name in run.unfinished]
    failures += ["%s: protocol %s" % (arch, finding) for finding in run.protocol]
    out: Dict[str, Any] = {
        "arch": arch,
        "style": style,
        "backend": backend,
        "mode": mode,
        "cycles": run.metric["cycles"],
        "throughput_mbps": run.metric["value"],
        "bus": run.bus,
        "invariant_failures": failures,
    }
    if run.resilience is not None:
        report = run.resilience
        report.name = "%s/%s %s" % (arch, style, backend)
        out["resilience"] = report.as_dict()
        out["invariant_failures"] = failures + report.check()
    return out


def run_chaos(
    seed: int = 0,
    scenario: str = "smoke",
    archs: Optional[Sequence[str]] = None,
    backends: Sequence[str] = ("heap", "compiled"),
    packets: int = 4,
    pe_count: int = 4,
    jobs: int = 1,
) -> Dict[str, Any]:
    """Sweep the chaos matrix; returns a JSON-able summary with failures."""
    from ..experiments.runner import run_cases

    if scenario not in SCENARIOS:
        raise ValueError(
            "unknown scenario %r (expected one of %s)"
            % (scenario, ", ".join(sorted(SCENARIOS)))
        )
    archs = [str(arch).upper() for arch in (archs or CHAOS_ARCHITECTURES)]
    cases: List[Tuple[str, str, str, str]] = []
    for arch in archs:
        style = sweep_config(arch, pe_count, packets).style
        for backend in backends:
            for mode in MODES:
                cases.append((arch, style, backend, mode))
    results, _telemetry = run_cases(
        run_chaos_case,
        cases,
        jobs=jobs,
        kwargs={
            "packets": packets,
            "seed": seed,
            "scenario": scenario,
            "pe_count": pe_count,
        },
    )
    by_key = {
        (row["arch"], row["backend"], row["mode"]): row for row in results
    }
    failures: List[str] = []
    for arch in archs:
        for backend in backends:
            baseline = by_key[(arch, backend, "baseline")]
            empty = by_key[(arch, backend, "empty")]
            faulted = by_key[(arch, backend, "faulted")]
            failures.extend(baseline["invariant_failures"])
            failures.extend(empty["invariant_failures"])
            if empty["cycles"] != baseline["cycles"]:
                failures.append(
                    "%s/%s: empty fault plan changed cycles (%d != baseline %d)"
                    % (arch, backend, empty["cycles"], baseline["cycles"])
                )
            if empty["resilience"]["injected"] != 0:
                failures.append(
                    "%s/%s: empty plan injected %d fault(s)"
                    % (arch, backend, empty["resilience"]["injected"])
                )
            failures.extend(faulted["invariant_failures"])
            if faulted["resilience"]["injected"] == 0:
                failures.append(
                    "%s/%s: seeded scenario %r fired no faults (scenario too "
                    "small for this run?)" % (arch, backend, scenario)
                )
        # Backend parity: identical cycle counts and identical fault
        # episode ledgers (sites, cycles, outcomes) on every backend.
        reference_backend = backends[0]
        for mode in MODES:
            reference = by_key[(arch, reference_backend, mode)]
            for backend in backends[1:]:
                other = by_key[(arch, backend, mode)]
                if other["cycles"] != reference["cycles"]:
                    failures.append(
                        "%s/%s: cycles diverge across backends (%s=%d, %s=%d)"
                        % (
                            arch,
                            mode,
                            reference_backend,
                            reference["cycles"],
                            backend,
                            other["cycles"],
                        )
                    )
                if other["bus"] != reference["bus"]:
                    failures.append(
                        "%s/%s: bus counts diverge between %s and %s"
                        % (arch, mode, reference_backend, backend)
                    )
                if mode == "faulted":
                    ref_res = dict(reference["resilience"], name="")
                    other_res = dict(other["resilience"], name="")
                    if ref_res != other_res:
                        failures.append(
                            "%s: fault outcomes diverge between %s and %s"
                            % (arch, reference_backend, backend)
                        )
    return {
        "scenario": scenario,
        "seed": seed,
        "packets": packets,
        "pe_count": pe_count,
        "backends": list(backends),
        "architectures": archs,
        "cases": results,
        "failures": failures,
        "ok": not failures,
    }


def format_chaos_summary(summary: Dict[str, Any]) -> List[str]:
    """Human-readable digest of a :func:`run_chaos` summary."""
    lines = [
        "chaos sweep: scenario=%s seed=%s packets=%d backends=%s"
        % (
            summary["scenario"],
            summary["seed"],
            summary["packets"],
            "/".join(summary["backends"]),
        )
    ]
    for row in summary["cases"]:
        if row["mode"] != "faulted":
            continue
        resilience = row["resilience"]
        lines.append(
            "  %-8s %-4s %-8s  %8d cycles  planned %2d fired %2d "
            "recovered %2d residual %2d accounted %2d dormant %2d"
            % (
                row["arch"],
                row["style"],
                row["backend"],
                row["cycles"],
                resilience["planned"],
                resilience["injected"],
                resilience["recovered"],
                resilience["residual"],
                resilience["accounted"],
                resilience["dormant"],
            )
        )
    if summary["failures"]:
        lines.append("invariant FAILURES:")
        lines.extend("  - %s" % failure for failure in summary["failures"])
    else:
        lines.append(
            "all invariants hold: empty-plan bit-identity, zero silent data "
            "loss, backend parity"
        )
    return lines
