"""Handshake register blocks (HS_REGS).

The paper's 2-register handshake protocol (Example 2, Figure 10) uses two
one-bit registers shared by a sender/receiver PE pair:

* ``DONE_OP`` -- sender sets it when processed data is ready,
* ``DONE_RV`` -- receiver sets it when the data has been consumed.

The registers live in the receiver's BAN and are reachable from both sides
of the pair.  This module models the register block itself; the polling /
interrupt protocol state machines built on top live in
:mod:`repro.soc.handshake`.

A :class:`HandshakeRegisters` block optionally records a value-change trace,
which the figure-reproduction benches use to check the waveforms of
Figures 11-13.  Software polling waits on a register through a
:class:`RegisterWaiter`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .kernel import Event, SimulationError, Simulator

__all__ = ["HandshakeRegisters", "RegisterWaiter", "SharedVariables"]

_VALID = ("DONE_OP", "DONE_RV")


class HandshakeRegisters:
    """Two one-bit registers with change notification and tracing."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        done_op: int = 0,
        done_rv: int = 0,
        trace: bool = False,
    ):
        self.sim = sim
        self.name = name
        self._values = {"DONE_OP": done_op & 1, "DONE_RV": done_rv & 1}
        self._watchers = {"DONE_OP": [], "DONE_RV": []}
        self.trace_enabled = trace
        self.trace: List[Tuple[int, str, int]] = []

    def _check_name(self, register: str) -> None:
        if register not in _VALID:
            raise KeyError(
                "%s: unknown handshake register %r (expected DONE_OP/DONE_RV)"
                % (self.name, register)
            )

    def read(self, register: str) -> int:
        self._check_name(register)
        return self._values[register]

    def write(self, register: str, value: int) -> None:
        self._check_name(register)
        value &= 1
        if self._values[register] == value:
            return
        self._values[register] = value
        if self.trace_enabled:
            self.trace.append((self.sim.now, register, value))
        watchers = self._watchers[register]
        if watchers:
            kept = self._watchers[register] = []
            for waiter in watchers:
                if waiter.wanted == value:
                    waiter._changed()
                else:
                    kept.append(waiter)

    # Convenience accessors used by the protocol layer.
    @property
    def done_op(self) -> int:
        return self._values["DONE_OP"]

    @property
    def done_rv(self) -> int:
        return self._values["DONE_RV"]


class RegisterWaiter:
    """A reusable "register reaches ``value`` or timeout" wait.

    Software polling (:meth:`repro.soc.api.SocAPI.reg_wait`) sleeps between
    probes until the register changes or the backoff interval expires,
    whichever comes first.  One waiter serves every poll of one PE on one
    register: :meth:`arm` starts a wait and returns the event to yield.
    The wake keeps the exact event order of an ``AnyOf`` over a change
    event and a ``Timeout``:

    * a matching :meth:`HandshakeRegisters.write` schedules a *hop* at the
      write's cycle; the hop's firing is the change's arrival;
    * the timer's firing is the timeout's arrival;
    * the first arrival wins and schedules the arm's *token*, whose firing
      resumes the polling process; the later arrival finds nothing to do.

    The timer stays queued after a change wins (it still fires, as the
    ``Timeout`` did), while a timeout takes the waiter off the block's
    watcher list.  Timer, hop and token are pooled kernel proxies; the
    token is fresh per arm, so the process's ``_target`` identity check
    discards a wake of an arm abandoned by an interrupt.

    A wake also records the process that yielded the token
    (``_sleeper``): a poll train fast-forwarded by ``reg_wait`` is
    recognised mid-probe by that process's pending entry.
    """

    __slots__ = (
        "block",
        "register",
        "sim",
        "wanted",
        "_listed",
        "_timer",
        "_hop",
        "_token",
        "_on_timer",
        "_on_hop",
        "_sleeper",
    )

    def __init__(self, block: "HandshakeRegisters", register: str):
        block._check_name(register)
        self.block = block
        self.register = register
        self.sim = block.sim
        self.wanted: Optional[int] = None
        self._listed = False  # on block._watchers[register]
        self._timer = None  # this arm's timer proxy
        self._hop = None  # this arm's change hop proxy
        self._token: Optional[Event] = None  # this arm's wake, unscheduled
        # Bound once, not per arm.
        self._on_timer = self._timer_fired
        self._on_hop = self._hop_fired
        self._sleeper = None  # the process the last wake resumed

    @property
    def busy(self) -> bool:
        """An arm is outstanding (its wake has not been scheduled yet)."""
        return self._token is not None

    def arm(self, value: int, timeout: int) -> Optional[Event]:
        """Wait for the register to hold ``value``, at most ``timeout`` cycles.

        Returns the event the polling process yields, or None when the
        register already holds ``value`` (nothing is scheduled then).  The
        event is a pooled kernel proxy: exactly one waiter (the yielding
        process) may wait on it, and it is recycled once it fires.
        Raises :class:`SimulationError` while an earlier arm is outstanding.
        """
        if self._token is not None:
            raise SimulationError(
                "%s.%s: waiter re-armed before its wake" % (self.block.name, self.register)
            )
        block = self.block
        if block._values[self.register] == value:
            return None
        self.wanted = value
        block._watchers[self.register].append(self)
        self._listed = True
        sim = self.sim
        self._hop = None
        self._timer = sim._post_callback(self._on_timer, timeout)
        self._token = token = sim._pooled_event()
        return token

    def _changed(self) -> None:
        # Called by HandshakeRegisters.write, which drops us from the list.
        self._listed = False
        self._hop = self.sim._post_callback(self._on_hop)

    def _hop_fired(self, hop: Event) -> None:
        if hop is self._hop:
            self._wake()

    def _timer_fired(self, timer: Event) -> None:
        if timer is self._timer:
            if self._listed:
                self.block._watchers[self.register].remove(self)
                self._listed = False
            self._wake()

    def _wake(self) -> None:
        self._timer = self._hop = None
        token, self._token = self._token, None
        callbacks = token.callbacks
        if callbacks:
            self._sleeper = getattr(callbacks[0], "__self__", None)
        self.sim._schedule(token)


class SharedVariables:
    """Named one-word flags stored in a region of a shared memory.

    GBAVIII/SplitBA/Hybrid keep their DONE_OP/DONE_RV state as *global
    control variables* in the Global SRAM (section IV.C.3) rather than in
    dedicated registers.  This class maps variable names onto words of a
    :class:`repro.sim.memory.Memory` so that every access really is a memory
    access (and therefore really does cross the bus and the arbiter --
    exactly the traffic the paper's arbitration argument is about).
    """

    def __init__(self, memory, base_address: int):
        self.memory = memory
        self.base_address = base_address
        self._slots = {}

    def slot(self, variable: str) -> int:
        """Word address backing ``variable`` (allocated on first use)."""
        if variable not in self._slots:
            self._slots[variable] = self.base_address + len(self._slots)
        return self._slots[variable]

    def peek(self, variable: str) -> int:
        """Read without bus traffic (testing/debug only)."""
        return self.memory.read_word(self.slot(variable))

    def poke(self, variable: str, value: int) -> None:
        """Write without bus traffic (testing/debug only)."""
        self.memory.write_word(self.slot(variable), value)
