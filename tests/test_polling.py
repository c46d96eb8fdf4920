"""Handshake-register polling (``SocAPI.reg_wait``) on the reusable waiter.

``tests/data/reg_wait_pins.json`` holds what the poll-heavy Table II PPA
cases produced when every probe waited on a fresh change event, a
``Timeout`` and an ``AnyOf``: per-PE finish cycles and probe counts, the
final clock and the bus counts.  The reusable waiter must reproduce them
exactly on both scheduler backends.
"""

import json
from pathlib import Path

import pytest

from repro.apps.ofdm.mapping import OfdmParameters, run_ofdm
from repro.options import presets
from repro.sim.fabric import build_machine
from repro.sim.kernel import Interrupt, Simulator
from repro.sim.hsregs import HandshakeRegisters, RegisterWaiter
from repro.soc import api as soc_api
from repro.soc.api import SocAPI

PINS = json.loads(
    (Path(__file__).parent / "data" / "reg_wait_pins.json").read_text()
)


def _run_ppa(bus, kernel):
    machine = build_machine(presets.preset(bus, 4), kernel=kernel)
    run_ofdm(machine, "PPA", OfdmParameters(packets=2))
    return machine


@pytest.mark.parametrize("bus", sorted(PINS))
def test_ppa_polling_matches_pins(bus):
    pins = PINS[bus]
    events = {}
    for kernel in ("heap", "compiled"):
        machine = _run_ppa(bus, kernel)
        pes = sorted(machine.pes.items())
        assert {name: pe.finished_at for name, pe in pes} == pins["finished_at"]
        assert {
            name: pe.stats.handshake_polls for name, pe in pes
        } == pins["handshake_polls"]
        assert machine.sim.now == pins["sim_now"]
        assert machine.bus_snapshot() == pins["bus_snapshot"]
        events[kernel] = machine.sim.events_processed
    assert events["heap"] == events["compiled"]


class _CountingWaiter(RegisterWaiter):
    """Records, for every wake, whether the polling process was sleeping on
    that arm's token (a wake that resumes it) or not (a stale wake)."""

    __slots__ = ()
    process = None
    arms = 0
    wakes = []

    def arm(self, value, timeout):
        wake = super().arm(value, timeout)
        _CountingWaiter.arms += wake is not None
        return wake

    def _wake(self):
        _CountingWaiter.wakes.append(self._token is _CountingWaiter.process._target)
        super()._wake()


@pytest.mark.parametrize("kernel", ["heap", "compiled"])
def test_interrupt_mid_poll_resumes_once_per_wake(kernel, monkeypatch):
    """An interrupt abandons a poll while it sleeps on its waiter.  The
    abandoned arm still wakes later (its timer stays queued), but that wake
    must not resume the process; every other arm resumes it exactly once."""
    monkeypatch.setattr(soc_api, "RegisterWaiter", _CountingWaiter)
    monkeypatch.setattr(_CountingWaiter, "arms", 0)
    monkeypatch.setattr(_CountingWaiter, "wakes", [])
    machine = build_machine(presets.preset("GBAVI", 4), kernel=kernel)
    sim = machine.sim
    poller, writer = SocAPI(machine, "A"), SocAPI(machine, "B")
    pe = poller.pe
    hs_device = poller.hs_device("A", "B")
    # A first backoff longer than one probe: the abandoned arm's timer is
    # still queued when the next poll arms.
    poller.poll_interval = 100
    log = []

    def program():
        try:
            yield from poller.reg_wait(hs_device, "DONE_RV", 1)
        except Interrupt as interrupt:
            log.append((interrupt.cause, pe.stats.handshake_polls))
        yield from poller.reg_wait(hs_device, "DONE_RV", 1)
        log.append(("done", pe.stats.handshake_polls))

    def set_flag():
        yield 2000
        yield from writer.reg_write(hs_device, "DONE_RV", 1)

    process = pe.run(program())
    monkeypatch.setattr(_CountingWaiter, "process", process)
    # Step until the first poll sleeps on its waiter's wake token.
    waiters = poller._waiters
    while not (waiters and process._target is next(iter(waiters.values()))._token):
        sim.step()
    process.interrupt("poke")
    machine.pe("B").run(set_flag())
    sim.run()

    assert log[0] == ("poke", 1)
    assert log[1][0] == "done" and pe.finished_at >= 2000
    wakes = _CountingWaiter.wakes
    # Every arm woke once; only the abandoned one found the process gone.
    assert len(wakes) == _CountingWaiter.arms
    assert wakes.count(False) == 1
    # One probe up front in each reg_wait, one more per resuming wake.
    assert log[1][1] == 2 + wakes.count(True)
    assert process.ok


@pytest.mark.parametrize("kernel", ["heap", "compiled"])
def test_concurrent_polls_of_one_register(kernel):
    """Two processes of one PE poll the same register through one SocAPI;
    the second gets its own waiter and both see the change."""
    machine = build_machine(presets.preset("GBAVI", 4), kernel=kernel)
    poller, writer = SocAPI(machine, "A"), SocAPI(machine, "B")
    hs_device = poller.hs_device("A", "B")
    done = []

    def wait(tag):
        yield from poller.reg_wait(hs_device, "DONE_RV", 1)
        done.append(tag)

    def set_flag():
        yield 500
        yield from writer.reg_write(hs_device, "DONE_RV", 1)

    machine.sim.process(wait("first"))
    machine.sim.process(wait("second"))
    machine.pe("B").run(set_flag())
    machine.sim.run()
    assert sorted(done) == ["first", "second"]


@pytest.mark.parametrize("kernel", ["heap", "compiled"])
def test_waiter_poll_sequence(kernel):
    """A waiter driven directly: two timeouts, then a change, each waking
    the process once at the right cycle on either backend."""
    sim = Simulator(kernel=kernel)
    block = HandshakeRegisters(sim, "hs")
    waiter = RegisterWaiter(block, "DONE_OP")
    wakes = []

    def poller():
        interval = 4
        while block.read("DONE_OP") != 1:
            wake = waiter.arm(1, interval)
            if wake is None:
                break
            yield wake
            wakes.append(sim.now)
            interval *= 2

    def writer():
        yield 25
        block.write("DONE_OP", 1)

    sim.process(poller())
    sim.process(writer())
    sim.run()
    # Timeouts at 4, 12 (4 + 8), then the change at 25 (before 28).
    assert wakes == [4, 12, 25]
    assert sim.now == 28  # the last arm's timer still fires
