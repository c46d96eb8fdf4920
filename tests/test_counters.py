"""Per-segment bus counts: ``BusStats`` plus arbiter grants.

Pins the contracts behind :meth:`repro.sim.fabric.Machine.bus_snapshot`,
the one bus-count surface that chaos, verify and the fuzz parity oracle
compare across scheduler backends:

* each segment's snapshot is its ``BusStats.as_dict()`` plus the arbiter's
  grant count, and -- fault-free -- every retired tenure is exactly one
  arbiter grant, on the heap backend and on the compiled backend's
  specialized fast path alike;
* the snapshot is identical three ways: heap, compiled with the
  specialized fabric dispatch, and compiled on the generic paths;
* counting needs no hook, so the compiled backend stays specialized, and
  the counts keep accumulating when a later hook despecializes it.
"""

import pytest

from repro.apps.ofdm import OfdmParameters, run_ofdm
from repro.obs import Observability
from repro.options import presets
from repro.sim.fabric import MachineBuilder, build_machine
from repro.sim.kernel import KERNEL_BACKENDS

# (preset, style): BFBA/GBAVI have no shared memory, so FPA is undefined
# for them -- same mapping as Table II.
PRESET_STYLES = [
    ("BFBA", "PPA"),
    ("GBAVI", "PPA"),
    ("GBAVIII", "FPA"),
    ("HYBRID", "FPA"),
    ("SPLITBA", "FPA"),
    ("GGBA", "FPA"),
    ("CCBA", "FPA"),
]


def counted_run(arch, style, backend, packets=2, pes=4, specialize=True):
    builder = MachineBuilder(presets.preset(arch, pes)).with_kernel(backend)
    if not specialize:
        builder.without_specialization()
    machine = builder.build()
    result = run_ofdm(machine, style, OfdmParameters(packets=packets))
    return machine, result


def assert_tenure_per_grant(machine):
    for name, counts in machine.bus_snapshot().items():
        assert counts["transactions"] == counts["grants"], name


class TestCountersMatchStats:
    @pytest.mark.parametrize("arch,style", PRESET_STYLES)
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_totals_match_busstats_and_arbiter(self, arch, style, backend):
        machine, _result = counted_run(arch, style, backend)
        snapshot = machine.bus_snapshot()
        assert list(snapshot) == sorted(machine.segments)
        for name, counts in snapshot.items():
            segment = machine.segments[name]
            assert counts == dict(
                segment.stats.as_dict(), grants=segment.arbiter.grants
            )
        # Fault-free: one retired tenure per arbiter grant.
        assert_tenure_per_grant(machine)
        assert any(counts["transactions"] > 0 for counts in snapshot.values())

    @pytest.mark.parametrize("arch,style", PRESET_STYLES)
    def test_three_way_backend_parity(self, arch, style):
        runs = [
            counted_run(arch, style, "heap"),
            counted_run(arch, style, "compiled"),
            counted_run(arch, style, "compiled", specialize=False),
        ]
        reference = (runs[0][1].cycles, runs[0][0].bus_snapshot())
        for machine, result in runs[1:]:
            assert (result.cycles, machine.bus_snapshot()) == reference


class TestZeroDespecialization:
    def test_compiled_stays_specialized_with_counters(self):
        machine, _result = counted_run("GBAVIII", "FPA", "compiled")
        assert machine._specialized
        assert any(c["transactions"] for c in machine.bus_snapshot().values())

    def test_counters_survive_despecializing_hook(self):
        machine = build_machine(presets.preset("GBAVIII", 4), kernel="compiled")
        assert machine._specialized
        run_ofdm(machine, "FPA", OfdmParameters(packets=1))
        first = machine.bus_snapshot()
        # Observability needs the generic instrumented paths, so this
        # despecializes -- the same BusStats must keep accumulating.
        machine.attach_observability(Observability())
        assert not machine._specialized
        run_ofdm(machine, "FPA", OfdmParameters(packets=1))
        second = machine.bus_snapshot()
        assert sum(c["transactions"] for c in second.values()) > sum(
            c["transactions"] for c in first.values()
        )
        assert all(
            second[name]["transactions"] >= counts["transactions"]
            for name, counts in first.items()
        )
        assert_tenure_per_grant(machine)
