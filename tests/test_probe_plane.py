"""The probe plane: one observer slot per bus model (repro.sim.probe).

``tests/data/probe_pins.json`` was recorded before arbiters, segments,
bridges and FIFOs had a single ``probe`` slot, when each observer reached
them through its own slot (tracer, monitor, segment ``obs``, the arbiter's
VCD grant list).  Every observer must record byte-for-byte what it did
then, on both scheduler backends:

* ``repro trace`` Chrome JSON + JSONL bytes and the RunReport, for a bridged
  (SPLITBA) and a FIFO (BFBA) machine;
* ProtocolMonitor counters and findings for every ``repro verify`` preset;
* a run with observability, monitors and a heavy fault plan all attached;
* the VCD of the GBAVI/4 handshake example.  Its pinned text is the heap
  one: on compiled, grant edges used to be lost to fabric specialization.
"""

import hashlib
import json
import os

import pytest

from repro.apps.ofdm import OfdmParameters, run_ofdm
from repro.dse.spec import DEFAULT_STYLE
from repro.cli import main
from repro.faults import HEAVY_SCENARIO, RecoveryPolicy, compile_plan
from repro.obs import Observability
from repro.obs.tracer import write_chrome_trace, write_jsonl
from repro.options import presets
from repro.sim.arbiter import Arbiter
from repro.sim.bus import BusBridge, BusSegment
from repro.sim.compiled.specializer import eligible_pairs
from repro.sim.fabric import MachineBuilder, build_machine
from repro.sim.fifo import HardwareFifo
from repro.sim.probe import Probe, ProbeFanout, subscribe
from repro.sim.vcd import GrantRecorder, vcd_from_machine
from repro.soc.api import SocAPI
from repro.soc.handshake import GbaviChannel

PINS_PATH = os.path.join(os.path.dirname(__file__), "data", "probe_pins.json")
with open(PINS_PATH) as _handle:
    PINS = json.load(_handle)

KERNELS = ["heap", "compiled"]
COUNTERS = (
    "grants_observed",
    "requests_observed",
    "cancels_observed",
    "transfers_opened",
    "transfers_closed",
)


def _digest(path):
    with open(path, "rb") as handle:
        data = handle.read()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _report_dict(report):
    """A RunReport dict without its wall-clock fields."""
    report = dict(report)
    report.pop("wall_seconds", None)
    report.pop("events_per_second", None)
    return report


def _monitor_pin(monitor):
    return {
        "counters": {name: getattr(monitor, name) for name in COUNTERS},
        "findings": [str(finding) for finding in monitor.finalize()],
    }


def _trace_files(obs, directory):
    chrome = os.path.join(directory, "trace.json")
    write_chrome_trace(obs.tracer, chrome, registry=obs.registry)
    write_jsonl(obs.tracer, chrome + "l")
    return _digest(chrome), _digest(chrome + "l")


def _gbavi_handshake_vcd(kernel):
    machine = build_machine(presets.preset("GBAVI", 4), trace_hsregs=True, kernel=kernel)
    grants = machine.attach_probe(GrantRecorder())
    channel = GbaviChannel(SocAPI(machine, "A"), SocAPI(machine, "B"), 8)

    def sender():
        yield from channel.send(list(range(8)))

    def receiver():
        yield from channel.recv()

    machine.pe("A").run(sender())
    machine.pe("B").run(receiver())
    machine.sim.run()
    return vcd_from_machine(machine, grants)


class TestPins:
    @pytest.mark.parametrize("case", sorted(PINS["trace"]))
    def test_repro_trace_bytes_and_run_report(self, case, tmp_path):
        arch, style, kernel = case.split("/")
        out = str(tmp_path / "trace.json")
        report_path = str(tmp_path / "report.json")
        code = main(
            ["trace", "--preset", arch, "--pes", "4", "--style", style,
             "--packets", "1", "--kernel", kernel, "--format", "both",
             "-o", out, "--report", report_path]
        )
        assert code == 0
        with open(report_path) as handle:
            report = json.load(handle)
        pin = PINS["trace"][case]
        assert _digest(out) == pin["chrome"]
        assert _digest(out + "l") == pin["jsonl"]
        assert _report_dict(report) == pin["report"]

    @pytest.mark.parametrize("case", sorted(PINS["verify"]))
    def test_monitor_counters_and_findings(self, case):
        arch, kernel = case.split("/")
        machine = build_machine(presets.preset(arch, 4), kernel=kernel)
        monitor = machine.attach_monitors(fail_fast=False)
        result = run_ofdm(machine, DEFAULT_STYLE[arch], OfdmParameters(packets=1))
        pin = _monitor_pin(monitor)
        pin["cycles"] = result.cycles
        assert pin == PINS["verify"][case]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_observed_monitored_faulted_run(self, kernel, tmp_path):
        spec = presets.preset("SPLITBA", 4)
        plan = compile_plan(build_machine(spec), HEAVY_SCENARIO, seed=1)
        obs = Observability()
        machine = (
            MachineBuilder(spec)
            .with_kernel(kernel)
            .with_observability(obs)
            .with_monitors(fail_fast=False)
            .with_faults(plan, RecoveryPolicy())
            .build()
        )
        result = run_ofdm(machine, "PPA", OfdmParameters(packets=1))
        chrome, jsonl = _trace_files(obs, str(tmp_path))
        resilience = machine._faults.resilience_report()
        pin = _monitor_pin(machine._monitor)
        pin.update(
            cycles=result.cycles,
            chrome=chrome,
            jsonl=jsonl,
            report=_report_dict(vars(machine.run_report(name="hooked"))),
            faults={"injected": resilience.injected, "recovered": resilience.recovered},
        )
        assert pin == PINS["hooked"][kernel]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_vcd_grant_edges_match_heap_pin(self, kernel):
        assert _gbavi_handshake_vcd(kernel) == PINS["vcd_gbavi4_heap"]


class TestTwoSubscribers:
    """Observability and monitors together record what each records alone."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_both_attached(self, kernel, tmp_path):
        spec = presets.preset("SPLITBA", 4)
        alone = build_machine(spec, kernel=kernel)
        alone_monitor = alone.attach_monitors(fail_fast=False)
        run_ofdm(alone, "PPA", OfdmParameters(packets=1))

        machine = build_machine(spec, kernel=kernel)
        obs = Observability()
        machine.attach_observability(obs)
        monitor = machine.attach_monitors(fail_fast=False)
        segment = next(iter(machine.segments.values()))
        assert type(segment.probe) is ProbeFanout
        assert segment.probe.subscribers == (obs, monitor)
        run_ofdm(machine, "PPA", OfdmParameters(packets=1))

        pin = PINS["trace"]["SPLITBA/PPA/%s" % kernel]
        assert _trace_files(obs, str(tmp_path)) == (pin["chrome"], pin["jsonl"])
        report = vars(machine.run_report(name="SPLITBA ofdm"))
        assert _report_dict(report) == pin["report"]
        assert _monitor_pin(monitor) == _monitor_pin(alone_monitor)

    def test_single_subscriber_is_the_probe(self):
        machine = build_machine(presets.preset("BFBA", 4))
        monitor = machine.attach_monitors()
        assert machine.fifo_blocks
        for segment in machine.segments.values():
            assert segment.probe is monitor
            assert segment.arbiter.probe is monitor
        for block in machine.fifo_blocks.values():
            assert block.up.probe is monitor and block.down.probe is monitor


class TestAttachPath:
    def test_models_have_exactly_probe_and_faults_hooks(self):
        retired = {"tracer", "monitor", "obs", "trace", "trace_enabled"}
        for cls in (Arbiter, BusSegment, BusBridge, HardwareFifo):
            slots = set(cls.__slots__)
            assert {"probe", "faults"} <= slots, cls
            assert not slots & retired, cls

    def test_observability_has_no_constructor_options(self):
        with pytest.raises(TypeError):
            Observability(tracing=False)

    @pytest.mark.parametrize(
        "attach",
        [
            lambda machine: machine.attach_probe(GrantRecorder()),
            lambda machine: machine.attach_observability(Observability()),
            lambda machine: machine.attach_monitors(),
        ],
    )
    def test_attach_despecializes(self, attach):
        machine = build_machine(presets.preset("GBAVIII", 4), kernel="compiled")
        assert machine._specialized
        attach(machine)
        assert not machine._specialized
        assert "transaction" not in machine.__dict__
        assert list(eligible_pairs(machine)) == []

    def test_clean_segment_rule(self):
        """A probe on one arbiter removes exactly that segment's pairs."""
        machine = build_machine(presets.preset("SPLITBA", 4))
        before = {segment.name for _pe, _device, segment in eligible_pairs(machine)}
        probed = machine.segments["GLOBAL_BUS_SUB1"]
        assert probed.name in before
        subscribe(probed.arbiter, Probe())
        after = {segment.name for _pe, _device, segment in eligible_pairs(machine)}
        assert after == before - {probed.name}

    def test_third_subscriber_extends_the_fanout(self):
        machine = build_machine(presets.preset("GBAVI", 4))
        first, second, third = Probe(), Probe(), Probe()
        for subscriber in (first, second, third):
            machine.attach_probe(subscriber)
        for bridge in machine.bridges:
            assert bridge.probe.subscribers == (first, second, third)
