"""The probe plane: one observer slot per bus model.

Arbiters, bus segments, bridges and FIFO directions each carry exactly two
hook slots: ``faults`` (the fault injector, the only interceptor -- it may
change behaviour) and ``probe`` (observers, which never do).  A model with
no observer holds ``probe = None`` and pays one attribute load and a branch
at each hook site, where it emits one typed :class:`Probe` event.

Subscribers derive from :class:`Probe` and override the events they need;
:meth:`Probe.bind` runs once per model at attach time.  The one attach
path is :meth:`repro.sim.fabric.Machine.attach_probe`, built on
:func:`subscribe`: the first subscriber *is* the probe (no indirection),
and only a second one puts a :class:`ProbeFanout` in the slot.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["Probe", "ProbeFanout", "subscribe"]


class Probe:
    """Base subscriber: binding and every event are no-ops."""

    def bind(self, model) -> None:
        """Called once for each model this subscriber is attached to."""

    def on_request(self, arbiter, master: str) -> None:
        """A request queued behind the current owner."""

    def on_grant(self, arbiter, master: str, queued: bool, waited: int) -> None:
        """A grant: ``queued`` when dispatched from the queue after
        ``waited`` cycles, else immediate (``waited == 0``)."""

    def on_release(self, arbiter, master: str) -> None:
        """The owner freed the arbiter."""

    def on_cancel(self, arbiter, master: str) -> None:
        """A queued request was withdrawn (fault-layer timeout escalation)."""

    def on_transfer_open(self, segment, master: str) -> None:
        """A transfer started on a segment ``master`` holds."""

    def on_transfer_close(self, segment, master: str) -> None:
        """The transfer's segment was released."""

    def on_tenure(
        self, segment, master, start, acquired, end, words, write, memory_cycles
    ) -> None:
        """One completed tenure: requested at ``start``, granted (grant
        latency charged) at ``acquired``, released at ``end``."""

    def on_fifo_push(self, fifo, count: int) -> None:
        """``count`` words pushed; ``fifo.count`` is already updated."""

    def on_fifo_pop(self, fifo, count: int) -> None:
        """``count`` words popped; ``fifo.count`` is already updated."""

    def on_bridge_cross(self, bridge, master: str) -> None:
        """A transfer by ``master`` crossed the bridge."""


class ProbeFanout:
    """Two or more subscribers behind one probe slot, called in attach order."""

    __slots__ = ("subscribers",)

    def __init__(self, subscribers: Tuple[Probe, ...]):
        self.subscribers = subscribers


def _fan_out(event: str):
    def emit(self, *args) -> None:
        for subscriber in self.subscribers:
            getattr(subscriber, event)(*args)

    emit.__name__ = event
    return emit


for _event in [name for name in vars(Probe) if name.startswith("on_")]:
    setattr(ProbeFanout, _event, _fan_out(_event))


def subscribe(model, subscriber: Probe) -> None:
    """Add ``subscriber`` to ``model``'s probe slot, then bind it.

    For a machine's models use :meth:`repro.sim.fabric.Machine.attach_probe`,
    which also drops compiled-backend specialization.
    """
    current = model.probe
    if current is None:
        model.probe = subscriber
    elif type(current) is ProbeFanout:
        model.probe = ProbeFanout(current.subscribers + (subscriber,))
    else:
        model.probe = ProbeFanout((current, subscriber))
    subscriber.bind(model)
