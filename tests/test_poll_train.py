"""Poll-train fast-forward (``SocAPI.reg_wait``) against the per-probe loop.

Once a handshake poll's backoff reaches ``poll_interval_max`` its probes
form a periodic train, and ``SocAPI._skip_polls`` credits the probes that
end before the next foreign kernel entry in one step.  The reference is the
per-probe loop itself, reached by patching ``_skip_polls`` to credit
nothing.  Every scenario below must give the same cycles, counters, cache
state and event order both ways, on both scheduler backends; only the
kernel's event count may shrink.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.options import presets
from repro.sim.fabric import MachineBuilder
from repro.sim.kernel import Interrupt
from repro.soc.api import SocAPI

KERNELS = ("heap", "compiled")
BANS = ("A", "B", "C", "D")


@contextmanager
def _per_probe():
    """Run the reference: the skip helper credits nothing."""
    original = SocAPI._skip_polls
    SocAPI._skip_polls = lambda self, train, interval: 0
    try:
        yield
    finally:
        SocAPI._skip_polls = original


def _signature(machine, log):
    pes = sorted(machine.pes.items())
    return {
        "now": machine.sim.now,
        "log": log,
        "bus": machine.bus_snapshot(),
        "arbiters": {
            name: (
                segment.arbiter.grants,
                segment.arbiter.busy_cycles,
                segment.arbiter.wait_cycles,
            )
            for name, segment in sorted(machine.segments.items())
        },
        "pes": {
            name: (
                pe.finished_at,
                pe.stats.as_dict(),
                pe._cycle_carry,
                pe._fetch_cursor,
                (pe.icache.stats.hits, pe.icache.stats.misses, pe.icache.stats.evictions),
                (pe.dcache.stats.hits, pe.dcache.stats.misses),
            )
            for name, pe in pes
        },
    }


def _scenario(kernel, case):
    """Build and run one scenario; returns (signature, events processed).

    ``case`` keys: warm (pre-walk the I-cache), arch, policy, cpi, pollers (list of dicts with pair,
    side, start, write_at, interval, interval_max), competitor (None or
    (seed, ban, tenures)), mode ("run", "deadline", "step", "interrupt"),
    cut (deadline / interrupt cycle), alarms (optional cycles at which a
    bare process wakes and ends).
    """
    machine = (
        MachineBuilder(presets.preset(case["arch"], 4))
        .with_kernel(kernel)
        .with_arbiter_policy(case["policy"])
        .with_cycles_per_instruction(case["cpi"])
        .build()
    )
    sim = machine.sim
    log = []
    processes = []
    raisers = []  # (writer API, device, register) of each poll
    for index, poller in enumerate(case["pollers"]):
        sender, receiver = BANS[poller["pair"]], BANS[(poller["pair"] + 1) % 4]
        # The receiver waits for DONE_OP, the sender for DONE_RV; the other
        # side of the pair raises it.
        if poller["side"] == "receiver":
            ban, writer_ban, register = receiver, sender, "DONE_OP"
        else:
            ban, writer_ban, register = sender, receiver, "DONE_RV"
        api = SocAPI(machine, ban)
        api.poll_interval = poller["interval"]
        api.poll_interval_max = poller["interval_max"]
        writer = SocAPI(machine, writer_ban)
        hs_device = api.hs_device(sender, receiver)

        def program(api=api, hs_device=hs_device, register=register, index=index, start=poller["start"]):
            try:
                if case["warm"]:
                    # Walk the whole code footprint once: the probes'
                    # I-fetch is warm from the first one on.
                    yield from api.compute(2048)
                yield start
                yield from api.reg_wait(hs_device, register, 1)
            except Interrupt as interrupt:
                log.append((index, "interrupted", sim.now, interrupt.cause))
                yield from api.reg_wait(hs_device, register, 1)
            log.append((index, "done", sim.now))
            # Pass the token on, as a pipeline stage does: the next poll's
            # register may rise on this one's completion.
            writer, device, raised = raisers[(index + 1) % len(raisers)]
            yield from writer.reg_write(device, raised, 1)

        def write(writer=writer, hs_device=hs_device, register=register, at=poller["write_at"]):
            yield at
            yield from writer.reg_write(hs_device, register, 1)

        raisers.append((writer, hs_device, register))
        processes.append((api, api.pe.run(program())))
        writer.pe.run(write())

    if case["competitor"] is not None:
        seed, ban, tenures = case["competitor"]
        home = machine.home_segment[machine.pe_by_ban[ban].name]
        segments = [segment for _name, segment in sorted(machine.segments.items())]
        rng = random.Random(seed)

        def compete():
            # A variable-latency target, mostly on one poller's route and
            # now and then on another: random gaps and tenure lengths (some
            # longer than a backoff period), seeded.
            for _ in range(tenures):
                yield rng.randrange(1, 400)
                segment = home if rng.random() < 0.7 else rng.choice(segments)
                yield from segment.occupy(
                    "DMA_%s" % ban, rng.randrange(1, 9), False, rng.randrange(0, 300)
                )

        sim.process(compete(), "competitor")

    def alarm(at):
        # A foreign entry that does nothing: it only bounds the horizon.
        yield at

    for at in case.get("alarms", ()):
        sim.process(alarm(at), "alarm")

    mode = case["mode"]
    if mode == "step":
        while sim.peek() is not None:
            sim.step()
    elif mode == "deadline":
        sim.run(until=case["cut"])
        log.append(("deadline", sim.now))
        sim.run()
    elif mode == "interrupt":

        def interrupter():
            # Interrupt the polls asleep on their waiter (an interrupt that
            # lands in a bus request would leave it queued on the arbiter).
            yield case["cut"]
            for api, process in processes:
                if any(w._token is process._target for w in api._waiters.values()):
                    process.interrupt("poke")

        sim.process(interrupter(), "interrupter")
        sim.run()
    else:
        sim.run()
    return _signature(machine, log), sim.events_processed


def _check(case):
    """Fast-forward == per-probe on both backends; returns the events."""
    events = {}
    signatures = {}
    for kernel in KERNELS:
        with _per_probe():
            reference, reference_events = _scenario(kernel, case)
        fast, fast_events = _scenario(kernel, case)
        assert fast == reference, kernel
        assert fast_events <= reference_events
        events[kernel] = (reference_events, fast_events)
        signatures[kernel] = fast
    assert signatures["heap"] == signatures["compiled"]
    assert events["heap"] == events["compiled"]
    return events["heap"]


def _poller(pair, side="receiver", start=0, write_at=30_000, interval=16, interval_max=128):
    return dict(
        pair=pair,
        side=side,
        start=start,
        write_at=write_at,
        interval=interval,
        interval_max=interval_max,
    )


def _case(
    pollers,
    arch="BFBA",
    policy="fcfs",
    cpi=0.4,
    competitor=None,
    mode="run",
    cut=0,
    warm=True,
    alarms=(),
):
    return dict(
        alarms=alarms,
        warm=warm,
        arch=arch,
        policy=policy,
        cpi=cpi,
        pollers=pollers,
        competitor=competitor,
        mode=mode,
        cut=cut,
    )


class TestDeterministic:
    def test_single_train_skips_most_events(self):
        reference, fast = _check(_case([_poller(0)]))
        assert fast * 5 < reference

    def test_cold_icache_probes_stay_per_probe(self):
        # The first ~90 probes fill the cold code footprint through the
        # I-cache (bus traffic); the train starts once it is warm.
        reference, fast = _check(_case([_poller(0)], warm=False))
        assert fast < reference

    def test_phase_locked_pair(self):
        """Two pollers started on the same cycle run in lock step; their
        timers share cycles and must keep the per-probe loop's order."""
        reference, fast = _check(_case([_poller(0), _poller(2)]))
        assert fast * 3 < reference

    def test_train_about_to_see_its_value_is_not_skipped(self):
        """Poll 1's register rises while its probe is in flight; when that
        probe ends the poll completes and raises poll 0's register.  Poll
        0, deciding on the same cycle, must not skip past that step."""
        _check(_case([_poller(0, write_at=60_000), _poller(2, write_at=20_058)]))

    def test_timers_tied_across_backoffs(self):
        """Backoffs 32 and 128.  After the alarm at 5,000 the short train
        fast-forwards first; the long one wakes later and credits up to a
        tenure end 96 cycles before the short one's last, so both re-armed
        timers fire on cycle 20,009, the long one's first in the per-probe
        loop.  Both registers rise at 20,012, before the probes that follow
        read them: the polls complete on one cycle, in that order."""
        pollers = [
            _poller(0, interval_max=32, write_at=20_012),
            _poller(2, interval_max=128, start=90, write_at=20_012),
        ]
        case = _case(pollers, alarms=(5_000,))
        reference, fast = _check(case)
        assert fast * 3 < reference
        signature, _events = _scenario("heap", case)
        assert signature["log"] == [(1, "done", 20_023), (0, "done", 20_023)]

    def test_four_trains_with_different_periods(self):
        pollers = [
            _poller(0, interval_max=128),
            _poller(1, interval_max=64, start=7),
            _poller(2, interval_max=32, start=3),
            _poller(3, side="sender", interval_max=128, start=50),
        ]
        _check(_case(pollers))

    @pytest.mark.parametrize("policy", ["fcfs", "round_robin", "priority"])
    def test_competitor_on_the_route(self, policy):
        _check(_case([_poller(1)], policy=policy, competitor=(5, "C", 60)))

    def test_deadline_mid_train(self):
        _check(_case([_poller(0), _poller(2)], mode="deadline", cut=11_111))

    def test_step_driven_run_never_skips(self):
        reference, fast = _check(_case([_poller(0)], mode="step"))
        assert fast == reference

    def test_interrupt_mid_train(self):
        _check(_case([_poller(0), _poller(1)], mode="interrupt", cut=9_000))

    def test_bridged_route_stays_per_probe(self):
        # On GBAVI the sender reaches the receiver's registers over a bridge.
        _check(_case([_poller(0, side="sender"), _poller(1)], arch="GBAVI"))

    def test_carry_off_its_fixed_point(self):
        _check(_case([_poller(0), _poller(1)], cpi=0.37))


_pollers = st.lists(
    st.fixed_dictionaries(
        dict(
            pair=st.integers(min_value=0, max_value=3),
            side=st.sampled_from(["receiver", "sender"]),
            start=st.integers(min_value=0, max_value=600),
            write_at=st.integers(min_value=0, max_value=60_000),
            interval=st.sampled_from([8, 16, 100]),
            interval_max=st.sampled_from([32, 64, 128]),
        )
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda poller: (poller["pair"], poller["side"]),
)


@settings(max_examples=60, deadline=None)
@given(
    arch=st.sampled_from(["BFBA", "BFBA", "GBAVI"]),
    policy=st.sampled_from(["fcfs", "round_robin", "priority"]),
    # 25 probe instructions at 0.4 and 0.48 CPI are whole cycles (the
    # carry is a fixed point: trains form); at 0.37 the carry cycles.
    cpi=st.sampled_from([0.4, 0.48, 0.4, 0.37]),
    pollers=_pollers,
    competitor=st.none()
    | st.none()
    | st.tuples(
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from(BANS),
        st.integers(min_value=1, max_value=60),
    ),
    mode=st.sampled_from(["run", "deadline", "interrupt", "run", "step"]),
    cut=st.integers(min_value=1, max_value=30_000),
    symmetric=st.booleans(),
    warm=st.booleans(),
    alarms=st.lists(st.integers(min_value=100, max_value=40_000), max_size=2),
)
def test_fast_forward_matches_per_probe(
    arch, policy, cpi, pollers, competitor, mode, cut, symmetric, warm, alarms
):
    if symmetric and len(pollers) >= 2:
        # A phase-locked pair: same start, backoff and write time.
        pollers[1].update(
            start=pollers[0]["start"],
            interval=pollers[0]["interval"],
            interval_max=pollers[0]["interval_max"],
            write_at=pollers[0]["write_at"],
        )
    _check(
        _case(
            pollers,
            arch=arch,
            policy=policy,
            cpi=cpi,
            competitor=competitor,
            mode=mode,
            cut=cut,
            warm=warm,
            alarms=tuple(alarms),
        )
    )


@settings(max_examples=100, deadline=None)
@given(
    delays=st.lists(
        st.lists(st.sampled_from([0, 1, 1, 2, 3, 7, 255, 256, 300]), min_size=1, max_size=12),
        min_size=1,
        max_size=5,
    ),
    probes=st.lists(st.sampled_from([0, 1, 2, 5, 40, 260]), min_size=1, max_size=15),
    deadline=st.none() | st.integers(min_value=1, max_value=2_000),
)
def test_horizon_query_agrees_across_backends(delays, probes, deadline):
    """``Simulator.horizon`` mid-run: the compiled backend (reading its
    drain position, delay-1 batch, bitmask and overflow heap) answers what
    the heap backend's ordered walk answers, with and without skipping a
    process's pending entry, and nothing at all under ``step()``."""

    def run(kernel, stepping):
        from repro.sim.kernel import Simulator

        sim = Simulator(kernel=kernel)
        log = []

        def worker(steps):
            for delay in steps:
                yield delay

        workers = [sim.process(worker(steps)) for steps in delays]

        def querier():
            for delay in probes:
                yield delay
                victim = workers[0]._target
                skip = {id(victim)} if victim is not None else set()
                log.append((sim.now, sim.horizon(set()), sim.horizon(skip)))

        sim.process(querier())
        if stepping:
            while sim.peek() is not None:
                sim.step()
        else:
            sim.run(until=deadline)
        return log

    heap = run("heap", False)
    assert run("compiled", False) == heap
    for now, anything, skipping in heap:
        if anything is None:
            assert skipping is None
            continue
        assert now <= anything and (skipping is None or anything <= skipping)
        if deadline is not None:
            assert anything <= deadline
    assert all(entry[1:] == (None, None) for entry in run("compiled", True))
    assert all(entry[1:] == (None, None) for entry in run("heap", True))


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from(["receiver", "sender"])),
        min_size=2,
        max_size=2,
        unique=True,
    ),
    start=st.integers(min_value=0, max_value=600),
    write_at=st.integers(min_value=5_000, max_value=60_000),
    interval=st.sampled_from([8, 16, 100]),
    interval_max=st.sampled_from([32, 64, 128]),
    policy=st.sampled_from(["fcfs", "round_robin", "priority"]),
)
def test_phase_locked_pairs_match_per_probe(keys, start, write_at, interval, interval_max, policy):
    """Two identical pollers started on the same cycle: their tenure ends
    and timers coincide every period, the case whose same-cycle order the
    fast-forward must reproduce rather than back off from."""
    pollers = [
        _poller(pair, side, start, write_at, interval, interval_max) for pair, side in keys
    ]
    _check(_case(pollers, policy=policy))


@pytest.mark.parametrize("kernel", KERNELS)
def test_horizon_sees_a_process_resumed_earlier_in_the_cycle(kernel):
    """A process that ran earlier in the querier's cycle and now waits on
    an integer delay bounds the horizon on both backends (the compiled
    run loop sets that bucket's occupancy bit only when the drain ends)."""
    from repro.sim.kernel import Simulator

    sim = Simulator(kernel=kernel)
    log = []

    def worker():
        for _ in range(5):
            yield 2

    def querier():
        for _ in range(4):
            yield 2
            log.append((sim.now, sim.horizon(set())))

    sim.process(worker())
    sim.process(querier())
    sim.run()
    assert log == [(2, 4), (4, 6), (6, 8), (8, 10)]
