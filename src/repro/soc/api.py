"""Software communication APIs (section IV.C).

The paper wraps the communication procedure in APIs "for the sake of easy
programming and program reliability" -- ``mem_read()`` in Example 3 moves an
exact number of words from a source area of the sender memory to a target
area of the receiver memory.  :class:`SocAPI` is the reproduction of that
layer: one instance is bound to one PE, and every method is a simulation
generator (call with ``yield from``) whose cycle cost flows through the
machine's buses, arbiters, caches and memories.

Addresses are ``(device_name, word_offset)`` pairs; plain integers are also
accepted and interpreted against the PE's default data memory, matching the
flat physical addresses of the paper's examples ("mem_read(64, 0x000000,
0x400000)").
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Iterable, List, Optional, Sequence, Tuple, Union

from ..sim.arbiter import FCFSArbiter, PriorityArbiter, RoundRobinArbiter
from ..sim.fabric import Machine
from ..sim.hsregs import RegisterWaiter
from ..sim.pe import DataTouch, ProcessingElement

__all__ = ["Address", "SocAPI"]

Address = Union[int, Tuple[str, int]]

# Arbiters whose uncontended claim is idempotent for repeated claims by one
# master: FCFS and priority keep no state, round-robin's rotation of the
# last grantee to the back of its ring is a no-op the second time.
_TRAIN_ARBITERS = (FCFSArbiter, RoundRobinArbiter, PriorityArbiter)


def _hook_free(machine: Machine) -> bool:
    """No probe subscriber and no fault injector on any segment, arbiter,
    bridge or PE of ``machine`` (the machine-wide slots are checked first,
    by the caller)."""
    for segment in machine.segments.values():
        arbiter = segment.arbiter
        if (
            segment.probe is not None
            or segment.faults is not None
            or arbiter.probe is not None
            or arbiter.faults is not None
        ):
            return False
    for bridge in machine.bridges:
        if bridge.probe is not None or bridge.faults is not None:
            return False
    return all(pe.faults is None for pe in machine.pes.values())


class _PollTrain:
    """One ``reg_wait`` call whose probes have become a periodic train.

    Registered on ``machine._poll_trains`` from its first steady failed
    probe until the wait ends.  While registered, its probes repeat with
    ``period`` = backoff + ``compute`` + ``tenure`` cycles, so its bus
    tenures end on the cycles congruent to ``last_arm`` (the tenure end at
    which its pending timer was armed, really or as credited) modulo the
    period.
    """

    __slots__ = (
        "api",
        "route",
        "block",
        "register",
        "value",
        "waiter",
        "interval",
        "compute",
        "tenure",
        "fetches",
        "period",
        "decided_at",
        "last_arm",
        "woke",
        "registered",
    )

    def __init__(self, api: "SocAPI", hs_device: str, register: str, value: int):
        self.api = api
        device = api.machine.devices[hs_device]
        # The one segment every probe rides, or None on a bridged route.
        self.route = api.machine.static_segment(api.pe, device)
        self.block = device.target
        self.register = register
        self.value = value
        self.waiter: Optional[RegisterWaiter] = None
        self.interval = self.compute = self.tenure = self.fetches = self.period = 0
        self.decided_at = 0  # cycle of its last decision (see clashes)
        self.last_arm = 0
        self.woke: Optional[int] = None  # cycle the last timer wake resumed it
        self.registered = False

    def leave(self) -> None:
        if self.registered:
            self.registered = False
            self.api.machine._poll_trains.remove(self)

    def pending_step(self, now: int):
        """``(entry, arm, asleep)`` for a registered train on schedule: its
        one pending kernel entry, the tenure end that arms (or armed) its
        next timer, and whether that timer is the pending entry.  None when
        it is off schedule -- about to see its value, woken by a change,
        interrupted, or delayed on its segment -- so its entries count as
        foreign.
        """
        if self.block._values[self.register] == self.value:
            return None
        waiter = self.waiter
        token = waiter._token
        timer_at = self.last_arm + self.interval
        if token is not None:  # asleep on the arm it made at its last decision
            callbacks = token.callbacks
            if waiter._hop is not None or waiter._timer is None or len(callbacks) != 1:
                return None
            process = getattr(callbacks[0], "__self__", None)
            if process is None or process._target is not token or process._interrupts:
                return None
            return waiter._timer, self.last_arm, True
        if self.woke is not None:
            if self.woke != timer_at:
                return None
        elif now != timer_at:
            return None
        process = waiter._sleeper
        next_end = timer_at + self.compute + self.tenure
        arbiter = self.route.arbiter
        if (
            process is None
            or process._target is None
            or process._interrupts
            or next_end < now
            or arbiter._pending
            or arbiter.owner not in (None, self.api.pe.name)
        ):
            return None
        return process._target, next_end, False

    def probes_like(self, other: "_PollTrain") -> bool:
        """Same probe timing and the same kernel entries per probe (one
        arbiter type: one fabric path), so two phase-locked trains keep
        their same-cycle order from one probe to the next."""
        return (
            self.period == other.period
            and self.compute == other.compute
            and self.tenure == other.tenure
            and type(self.route.arbiter) is type(other.route.arbiter)
        )

    def clashes(self, other: "_PollTrain", arm: int, asleep: bool, now: int, end: int) -> bool:
        """Whether a timer this train arms at tenure end ``end``, scheduled
        at ``now`` rather than at ``end``, would change places with an entry
        of ``other`` (on schedule; next timer armed at ``arm``, already
        pending if ``asleep``) that fires on the same cycle.

        Same-cycle entries fire in scheduling order, so only an entry whose
        scheduling falls between ``now`` and ``end`` can change places.  An
        entry other than a timer is scheduled at most ``other.compute +
        other.tenure`` cycles before it fires; when that span reaches this
        train's backoff, any entry of a probe of ``other`` on the fire cycle
        clashes.  Otherwise only ``other``'s timer on that cycle can: its
        pending one (scheduled before ``now``) clashes unless it was armed
        before ``end``, a later one (scheduled when armed) unless armed
        after ``end``.  Armed at ``end`` too, the order is the one their
        tenure ends take there, known only for phase-locked trains alike
        (:meth:`probes_like`) whose tenure ends both really fired at
        ``now``: ``other`` first if it decided at ``now`` already, this
        train first if ``other``'s tenure end at ``now`` is still pending.
        """
        fire = end + self.interval
        first = arm + other.interval  # its next timer
        span = other.compute + other.tenure
        if span >= self.interval:
            return (fire - first) % other.period <= span
        if fire < first:
            return False
        armed = fire - other.interval
        if (armed - arm) % other.period:
            return False
        if armed != end:
            return armed > end if asleep and armed == arm else armed < end
        if not self.probes_like(other):
            return True
        if asleep and armed == arm:
            return other.decided_at != now
        return asleep or arm != now


class SocAPI:
    """The per-PE software interface onto a simulated bus system."""

    def __init__(self, machine: Machine, ban: str):
        self.machine = machine
        self.ban = ban
        self.pe: ProcessingElement = machine.pe_by_ban[ban]
        # The PE's "natural" data memory: its local SRAM when it has one,
        # otherwise the shared memory it runs from (GGBA/SplitBA).
        local = machine.local_memory_of(ban)
        self.default_memory = local or machine.shared_memory_of.get(
            ban, machine.global_memory
        )
        # Polling parameters for register/variable waits.
        self.poll_interval = 16
        self.poll_interval_max = 128
        # Software overhead of one communication-API call (Example 3's
        # mem_read and friends): call/return, parameter marshalling, the
        # virtual-to-physical address translation Example 6 requires, and
        # loop setup.  Charged on every data-movement call.
        self.api_call_instructions = 300
        # A software poll iteration: load, mask, compare, branch.
        self.poll_probe_instructions = 25
        # reg_wait's reusable waiters, by (handshake device, register).
        self._waiters: Dict[Tuple[str, str], RegisterWaiter] = {}

    def _api_overhead(self) -> Generator:
        if self.api_call_instructions:
            yield from self.pe.compute(self.api_call_instructions)

    # ------------------------------------------------------------------
    # Address handling
    # ------------------------------------------------------------------
    def resolve(self, address: Address) -> Tuple[str, int]:
        if isinstance(address, tuple):
            return address
        return self.default_memory, int(address)

    def alloc(self, words: int, device: Optional[str] = None, label: str = "") -> Tuple[str, int]:
        """Reserve a buffer; returns its (device, offset) address."""
        device = device or self.default_memory
        return device, self.machine.reserve(device, words)

    # ------------------------------------------------------------------
    # Data movement (the paper's mem_read/mem_write APIs)
    # ------------------------------------------------------------------
    def mem_read(self, size: int, source: Address, target: Address) -> Generator:
        """Example 3's API: read ``size`` words at ``source`` (typically a
        remote BAN's memory) and store them at ``target`` (typically local).
        Returns the words moved."""
        yield from self._api_overhead()
        src_device, src_offset = self.resolve(source)
        dst_device, dst_offset = self.resolve(target)
        values = yield from self.pe.bus_read(src_device, src_offset, size)
        yield from self.pe.bus_write(dst_device, dst_offset, values)
        return values

    def mem_write(self, values: Sequence[int], target: Address) -> Generator:
        """Write ``values`` to ``target`` over the bus."""
        yield from self._api_overhead()
        device, offset = self.resolve(target)
        yield from self.pe.bus_write(device, offset, list(values))

    def read(self, source: Address, size: int) -> Generator:
        """Read ``size`` words into the program (registers), no store-back."""
        yield from self._api_overhead()
        device, offset = self.resolve(source)
        values = yield from self.pe.bus_read(device, offset, size)
        return values

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def compute(
        self,
        instructions: float,
        touches: Sequence[DataTouch] = (),
    ) -> Generator:
        """Charge a compute phase (see :meth:`ProcessingElement.compute`)."""
        yield from self.pe.compute(instructions, touches)

    def touch(self, address: Address, words: int, write: bool = False) -> DataTouch:
        """Build a DataTouch for :meth:`compute` from an API-level address."""
        device, offset = self.resolve(address)
        return DataTouch(device, offset, words, write)

    def stall(self, cycles: int) -> Generator:
        yield from self.pe.stall(cycles)

    # ------------------------------------------------------------------
    # Handshake registers (HS_REGS blocks; GBAVI / BFBA)
    # ------------------------------------------------------------------
    def reg_read(self, hs_device: str, register: str) -> Generator:
        value = yield from self.machine.reg_read(self.pe, hs_device, register)
        return value

    def reg_write(self, hs_device: str, register: str, value: int) -> Generator:
        yield from self.machine.reg_write(self.pe, hs_device, register, value)

    def reg_wait(self, hs_device: str, register: str, value: int) -> Generator:
        """Poll a handshake register until it holds ``value``.

        Models software polling: each probe is a real one-word bus read, and
        between probes the PE idles with a capped exponential backoff (so
        event counts stay bounded on long waits while contention from the
        polling traffic is still present).

        The PE sleeps between probes on a reusable
        :class:`~repro.sim.hsregs.RegisterWaiter` (woken by the register
        change or the backoff timer), one per (block, register) on this
        PE's API.  A waiter still armed -- by a concurrent poll from another
        process of this PE, or by a poll an interrupt abandoned -- is
        replaced rather than re-armed.

        Poll-train fast-forward: once the backoff has reached
        ``poll_interval_max`` the probes form a periodic train.  After a
        failed probe of a train that nothing else can disturb,
        :meth:`_skip_polls` credits in one step every later probe whose bus
        tenure ends before the next entry the kernel holds for anything
        else, and the waiter's timer is armed for the cycle the per-probe
        loop's next timer would fire on.  Every counter, cycle and event
        order is what the per-probe loop gives; only the kernel's event
        count shrinks (see docs/performance.md, "Poll-train fast-forward").
        """
        key = (hs_device, register)
        interval = self.poll_interval
        train: Optional[_PollTrain] = None
        try:
            while True:
                if self.poll_probe_instructions:
                    yield from self.pe.compute(self.poll_probe_instructions)
                observed = yield from self.reg_read(hs_device, register)
                self.pe.stats.handshake_polls += 1
                if observed == value:
                    return
                waiter = self._waiters.get(key)
                if waiter is None or waiter.busy:
                    block = self.machine.devices[hs_device].target
                    waiter = self._waiters[key] = RegisterWaiter(block, register)
                timeout = interval
                if interval == self.poll_interval_max and interval > 0:
                    if train is None:
                        train = _PollTrain(self, hs_device, register, value)
                    train.waiter = waiter
                    timeout += self._skip_polls(train, interval)
                wake = waiter.arm(value, timeout)
                if wake is None:
                    continue
                yield wake
                if train is not None:
                    train.woke = self.machine.sim.now
                interval = min(interval * 2, self.poll_interval_max)
        finally:
            if train is not None:
                train.leave()

    def _skip_polls(self, train: _PollTrain, interval: int) -> int:
        """Fast-forward ``train`` after its failed probe at ``sim.now``.

        Returns the cycles credited: ``k`` whole probe periods, each counted
        exactly as the per-probe loop counts it, where ``k`` is the largest
        count whose last tenure ends strictly before the horizon -- the
        earliest pending kernel entry that is not a step of another
        registered train, capped at the ``run()`` deadline.  Returns 0, and
        takes the train off ``machine._poll_trains``, when it is not a pure
        train (see :meth:`_probe_shape`) or shares its segment or register
        with another train.  A pure train stays registered even when
        nothing can be credited, so that other trains can skip its steps.
        """
        machine = self.machine
        sim = machine.sim
        trains = machine._poll_trains
        shape = self._probe_shape(train)
        if shape is None or any(
            other is not train
            and (
                other.route is train.route
                or (other.block is train.block and other.register == train.register)
            )
            for other in trains
        ):
            train.leave()
            return 0
        compute, fetches = shape
        segment = train.route
        now = sim.now
        skip = set()
        others = []
        for other in trains:
            if other is not train:
                step = other.pending_step(now)
                if step is not None:
                    skip.add(id(step[0]))
                    others.append((other, step[1], step[2]))
        # An uncontended one-word register read: grant plus one beat.
        tenure = segment.grant_cycles + segment.beat_cycles
        period = interval + compute + tenure
        train.interval = interval
        train.compute = compute
        train.tenure = tenure
        train.fetches = fetches
        train.period = period
        train.decided_at = train.last_arm = now
        train.woke = None
        if not train.registered:
            train.registered = True
            trains.append(train)
        horizon = sim.horizon(skip)
        if horizon is None or horizon <= now + period or not _hook_free(machine):
            # (A train registered on a hooked machine is harmless: no
            # train there credits anything.)
            return 0
        count = (horizon - now - 1) // period
        # The re-armed timer must keep the per-probe loop's place among
        # the entries that fire on its cycle: back off one period at a
        # time while it would not.
        while count > 0 and any(
            train.clashes(other, arm, asleep, now, now + count * period)
            for other, arm, asleep in others
        ):
            count -= 1
        if count <= 0:
            return 0
        self._credit_polls(train, count)
        train.last_arm = now + count * period
        return count * period

    def _probe_shape(self, train: _PollTrain) -> Optional[Tuple[int, int]]:
        """``(compute cycles, I-fetch lines)`` every further probe of
        ``train`` takes, or None when its probes are not a pure train:
        outside an unmonitored ``run()``, on a machine with machine-wide
        hooks, on a bridged route, with the arbiter busy, with a compute
        carry not at its fixed point or an I-fetch that is not warm."""
        machine = self.machine
        segment = train.route
        if (
            machine.sim._horizon_cap is None
            or machine._faults is not None
            or machine._obs is not None
            or machine._monitor is not None
            or segment is None
        ):
            return None
        arbiter = segment.arbiter
        if type(arbiter) not in _TRAIN_ARBITERS or arbiter.owner is not None or arbiter._pending:
            return None
        pe = self.pe
        instructions = self.poll_probe_instructions
        if not instructions:
            return 0, 0
        raw = instructions * pe.cycles_per_instruction + pe._cycle_carry
        compute = int(raw)
        if raw - compute != pe._cycle_carry:
            return None
        if pe.program_device is None:
            return compute, 0
        icache = pe.icache
        fetches = int(instructions) // icache.line_words
        if fetches > 0 and not (
            pe._fetch_warm and icache.stats.evictions == 0 and icache.flushes == 0
        ):
            return None
        return compute, fetches

    def _credit_polls(self, train: _PollTrain, count: int) -> None:
        """Count ``count`` uncontended failed probes of ``train`` in bulk."""
        pe = self.pe
        stats = pe.stats
        stats.handshake_polls += count
        stats.compute_cycles += count * train.compute
        if train.fetches:
            lines = count * train.fetches
            icache = pe.icache
            stats.icache_hits += lines
            icache.stats.hits += lines
            pe._fetch_cursor = (
                pe._fetch_cursor + lines * icache.line_words
            ) % pe.code_footprint_words
        segment = train.route
        bus = segment.stats
        bus.transactions += count
        bus.read_transactions += count
        bus.words_moved += count
        bus.busy_cycles += count * train.tenure
        per_master = bus.per_master
        per_master[pe.name] = per_master.get(pe.name, 0) + count
        arbiter = segment.arbiter
        arbiter.grants += count
        arbiter.busy_cycles += count * train.tenure

    # ------------------------------------------------------------------
    # Shared control variables (GBAVIII / SplitBA / Hybrid / GGBA / CCBA)
    # ------------------------------------------------------------------
    def shared_memory(self) -> str:
        name = self.machine.shared_memory_of.get(self.ban, self.machine.global_memory)
        if name is None:
            raise LookupError("bus system %s has no shared memory" % self.machine.name)
        return name

    def var_read(self, variable: str, memory: Optional[str] = None) -> Generator:
        value = yield from self.machine.var_read(
            self.pe, memory or self.shared_memory(), variable
        )
        return value

    def var_write(self, variable: str, value: int, memory: Optional[str] = None) -> Generator:
        yield from self.machine.var_write(
            self.pe, memory or self.shared_memory(), variable, value
        )

    def var_wait(self, variable: str, value: int, memory: Optional[str] = None) -> Generator:
        """Poll a shared control variable until it reads ``value``.

        Unlike :meth:`reg_wait` there is no hardware change notification for
        a plain memory word, so this polls on a capped-backoff timer; every
        probe is a real arbitrated global-bus read (the contention source
        discussed in section IV.C's 'possible bus conflicts').
        """
        interval = self.poll_interval
        while True:
            if self.poll_probe_instructions:
                yield from self.pe.compute(self.poll_probe_instructions)
            observed = yield from self.var_read(variable, memory)
            self.pe.stats.handshake_polls += 1
            if observed == value:
                return
            yield interval
            interval = min(interval * 2, self.poll_interval_max)

    def scattered_access(
        self, address: Address, word_ops: int, write: bool = False
    ) -> Generator:
        """Word-granular accesses to a (cache-inhibited) buffer.

        Each of the ``word_ops`` single-word accesses re-arbitrates for the
        bus; the fabric groups them per tenure so event counts stay bounded
        while per-access grant cost is preserved.  This is how the MPEG2
        decoder's pointer-chasing over its working buffers is charged --
        the traffic class whose arbitration cost (3 vs 5 cycles) the paper
        blames for CCBA's deficit in Table III.
        """
        device, _offset = self.resolve(address)
        yield from self.machine.miss_traffic(
            self.pe, device, word_ops, line_words=1, write=write
        )

    def atomic_update(
        self, address: Address, update: Callable[[int], int]
    ) -> Generator:
        """Bus-locked read-modify-write (used by the RTOS lock manager)."""
        device, offset = self.resolve(address)
        old, new = yield from self.machine.atomic_rmw(self.pe, device, offset, update)
        return old, new

    # ------------------------------------------------------------------
    # Bi-FIFO operations (BFBA / Hybrid)
    # ------------------------------------------------------------------
    def fifo_set_threshold(self, receiver_ban: str, words: int) -> None:
        """Sender-side: program the receiver FIFO's threshold register."""
        _device, fifo = self.machine.fifo_for(self.ban, receiver_ban)
        fifo.set_threshold(words)

    def fifo_push(self, receiver_ban: str, values: Iterable[int]) -> Generator:
        yield from self._api_overhead()
        device, fifo = self.machine.fifo_for(self.ban, receiver_ban)
        yield from self.machine.fifo_push(self.pe, device, fifo, list(values))

    def fifo_pop(self, sender_ban: str, count: int) -> Generator:
        yield from self._api_overhead()
        device, fifo = self.machine.fifo_for(sender_ban, self.ban)
        values = yield from self.machine.fifo_pop(self.pe, device, fifo, count)
        return values

    def on_fifo_interrupt(self, sender_ban: str, handler: Callable) -> None:
        """Attach ``handler(payload)`` to the Bi-FIFO threshold interrupt
        raised when ``sender_ban`` fills this PE's receive FIFO."""
        controller = self.machine.interrupt_controllers[self.pe.name]
        controller.line("fifo_from_%s" % sender_ban).connect(handler)
        self.pe.stats.interrupts_taken += 0  # line exists; counted on delivery

    # ------------------------------------------------------------------
    # Topology helpers for application drivers
    # ------------------------------------------------------------------
    def neighbors(self) -> Tuple[Optional[str], Optional[str]]:
        return self.machine.neighbors_of(self.ban)

    def hs_device(self, sender_ban: str, receiver_ban: str) -> str:
        return self.machine.hsregs_for(sender_ban, receiver_ban).name
