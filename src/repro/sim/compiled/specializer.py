"""Per-architecture fabric specialization for the compiled backend.

:func:`specialize_machine` walks an elaborated :class:`~repro.sim.fabric.Machine`
and *generates* one transaction function per (master, device) pair whose
route can never change at runtime, baking in everything the generic path
re-derives per transfer:

* the route plan -- eligible pairs are exactly the bridge-independent
  single-segment routes (point-to-point links and directly-mastered target
  segments), so the per-call ``_plan_for`` bridge-enable revalidation
  disappears;
* the arbiter policy -- the FCFS ``try_claim``/``release`` pair is inlined
  (owner/pending checks, grant accounting, busy-cycle bookkeeping), with the
  contended path still delegating to ``arbiter.request``/``_dispatch``;
* the transfer timing constants -- grant cycles, words-per-beat, beat
  cycles -- snapshotted after the builder's bus-loading finalization.

The generated functions are installed as *instance attributes*
(``machine.transaction`` / ``machine.miss_traffic``) dispatching through a
per-master jump table; unknown pairs (bridged routes, post-build DMA
masters, FIFO devices) fall back to the generic bound methods, so behaviour
-- and therefore every simulated cycle and statistic -- is bit-identical.

One despecialization rule covers every hook: a segment is eligible only
when its arbiter is FCFS and neither the segment nor its arbiter has a
probe subscriber (:mod:`repro.sim.probe`) or a fault injector.  Both attach
paths (:meth:`Machine.attach_probe` and :func:`repro.faults.install_faults`)
also call :meth:`Machine._despecialize`, which removes the instance
attributes and restores the generic path, so a hooked run contains no
specialized call sites at all.

The rendered per-machine source is kept on ``machine._specialized_source``
for inspection (``repro compile -o``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..arbiter import FCFSArbiter
from ..pe import MISS_GROUP

__all__ = ["specialize_machine", "eligible_pairs", "specialized_fabric_source"]


def _segment_is_clean(segment) -> bool:
    """FCFS, no probe, no faults -- on the segment and on its arbiter."""
    arbiter = segment.arbiter
    return (
        type(arbiter) is FCFSArbiter
        and segment.probe is None
        and arbiter.probe is None
        and segment.faults is None
        and arbiter.faults is None
    )


def eligible_pairs(machine):
    """Yield ``(pe, device, segment)`` for every specializable pair."""
    for pe in machine.pes.values():
        for device in machine.devices.values():
            if device.kind not in ("memory", "hsregs"):
                continue
            segment = machine.static_segment(pe, device)
            if segment is None or not _segment_is_clean(segment):
                continue
            yield pe, device, segment


# ----------------------------------------------------------------------
# Source templates
# ----------------------------------------------------------------------

_HEADER = '''\
"""Specialized fabric dispatch for machine {machine_name!r} (generated).

One factory per eligible (master, device) pair; closures bind the live
arbiter/stats/memory objects, while route, policy and timing constants are
baked in as literals.  Regenerate with ``repro compile -o``.
"""
'''

_MEM_TXN_TEMPLATE = '''
def _make_{fn}(sim, arbiter, stats, request, access_latency, touch_read, touch_write):
    # {master} -> {device} over {segment}: FCFS inlined, {timing}
    def {fn}(address, words, write, data=None):
        latency = access_latency(address, words, write)
        entry = sim.now
        if arbiter.owner is None and not arbiter._pending:
            arbiter.owner = {master!r}
            arbiter.grants += 1
            arbiter.busy_since = entry
        else:
            yield request({master!r})
        acquired = sim.now
        held = False
        try:
            held = True
            yield (
                ({w_grant} if write else {r_grant})
                + (max(words, 1) + {wpb_minus_1}) // {wpb} * {beat}
                + latency
            )
        finally:
            if held:
                end = sim.now
                arbiter.owner = None
                arbiter.busy_cycles += end - arbiter.busy_since
                arbiter.busy_since = None
                if arbiter._pending:
                    arbiter._dispatch()
                stats.transactions += 1
                if write:
                    stats.write_transactions += 1
                else:
                    stats.read_transactions += 1
                stats.words_moved += words
                stats.busy_cycles += end - entry
                stats.arbitration_cycles += acquired - entry
                stats.memory_cycles += latency
                per_master = stats.per_master
                per_master[{master!r}] = per_master.get({master!r}, 0) + 1
        if write:
            touch_write(address, data if data is not None else [0] * words)
            return None
        return touch_read(address, words)
    return {fn}
'''

_HSREGS_TXN_TEMPLATE = '''
def _make_{fn}(sim, arbiter, stats, request, reg_read, reg_write):
    # {master} -> {device} over {segment}: FCFS inlined, {timing}
    def {fn}(address, words, write, data=None):
        entry = sim.now
        if arbiter.owner is None and not arbiter._pending:
            arbiter.owner = {master!r}
            arbiter.grants += 1
            arbiter.busy_since = entry
        else:
            yield request({master!r})
        acquired = sim.now
        held = False
        try:
            held = True
            yield (
                ({w_grant} if write else {r_grant})
                + (max(words, 1) + {wpb_minus_1}) // {wpb} * {beat}
            )
        finally:
            if held:
                end = sim.now
                arbiter.owner = None
                arbiter.busy_cycles += end - arbiter.busy_since
                arbiter.busy_since = None
                if arbiter._pending:
                    arbiter._dispatch()
                stats.transactions += 1
                if write:
                    stats.write_transactions += 1
                else:
                    stats.read_transactions += 1
                stats.words_moved += words
                stats.busy_cycles += end - entry
                stats.arbitration_cycles += acquired - entry
                per_master = stats.per_master
                per_master[{master!r}] = per_master.get({master!r}, 0) + 1
        register = "DONE_OP" if address == 0 else "DONE_RV"
        if write:
            reg_write(register, (data or [0])[0])
            return None
        return [reg_read(register)]
    return {fn}
'''

_MISS_TEMPLATE = '''
def _make_{fn}(sim, arbiter, stats, request, access_latency, target):
    # {master} -> {device} cache-miss bursts over {segment}
    def {fn}(misses, line_words, write):
        per_line = access_latency(0, line_words, write)
        remaining = misses
        while remaining > 0:
            group = remaining if remaining < {miss_group} else {miss_group}
            remaining -= group
            words = group * line_words
            entry = sim.now
            if arbiter.owner is None and not arbiter._pending:
                arbiter.owner = {master!r}
                arbiter.grants += 1
                arbiter.busy_since = entry
            else:
                yield request({master!r})
            acquired = sim.now
            memory_cycles = per_line * group
            held = False
            try:
                held = True
                yield (
                    ({w_grant} if write else {r_grant}) * group
                    + (max(words, 1) + {wpb_minus_1}) // {wpb} * {beat}
                    + memory_cycles
                )
            finally:
                if held:
                    end = sim.now
                    arbiter.owner = None
                    arbiter.busy_cycles += end - arbiter.busy_since
                    arbiter.busy_since = None
                    if arbiter._pending:
                        arbiter._dispatch()
                    stats.transactions += 1
                    if write:
                        stats.write_transactions += 1
                    else:
                        stats.read_transactions += 1
                    stats.words_moved += words
                    stats.busy_cycles += end - entry
                    stats.arbitration_cycles += acquired - entry
                    stats.memory_cycles += memory_cycles
                    per_master = stats.per_master
                    per_master[{master!r}] = per_master.get({master!r}, 0) + 1
            if write:
                target.writes += words
            else:
                target.reads += words
    return {fn}
'''


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def specialized_fabric_source(machine) -> Tuple[str, list]:
    """Render the per-machine specialization module.

    Returns ``(source, entries)`` where each entry is
    ``(factory_name, kind, pe, device, segment)`` describing how to bind
    the factory after ``exec``.
    """
    chunks = [_HEADER.format(machine_name=machine.name)]
    entries = []
    used = set()
    for pe, device, segment in eligible_pairs(machine):
        base = "_txn_%s__%s" % (_sanitize(pe.name), _sanitize(device.name))
        fn = base
        serial = 2
        while fn in used:
            fn = "%s_%d" % (base, serial)
            serial += 1
        used.add(fn)
        wpb = segment.words_per_beat
        fields = dict(
            fn=fn,
            master=pe.name,
            device=device.name,
            segment=segment.name,
            r_grant=segment.grant_cycles,
            w_grant=segment.write_grant_cycles,
            wpb=wpb,
            wpb_minus_1=wpb - 1,
            beat=segment.beat_cycles,
            timing="grant %d/%dw, %d w/beat, %d cyc/beat"
            % (
                segment.grant_cycles,
                segment.write_grant_cycles,
                wpb,
                segment.beat_cycles,
            ),
        )
        if device.kind == "memory":
            chunks.append(_MEM_TXN_TEMPLATE.format(**fields))
            entries.append((fn, "memory", pe, device, segment))
            miss_fn = fn.replace("_txn_", "_miss_", 1)
            chunks.append(
                _MISS_TEMPLATE.format(**dict(fields, fn=miss_fn, miss_group=MISS_GROUP))
            )
            entries.append((miss_fn, "miss", pe, device, segment))
        else:
            chunks.append(_HSREGS_TXN_TEMPLATE.format(**fields))
            entries.append((fn, "hsregs", pe, device, segment))
    return "".join(chunks), entries


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------


def specialize_machine(machine) -> bool:
    """Compile and install specialized dispatch on ``machine``.

    Returns True when at least one pair was specialized.  No-op (False)
    when nothing is eligible -- every hook attach path probes or faults
    every segment -- and safe to call twice.
    """
    if getattr(machine, "_specialized", False):
        return True
    source, entries = specialized_fabric_source(machine)
    if not entries:
        return False
    namespace: Dict[str, Any] = {}
    code = compile(source, "<repro.sim.compiled:fabric:%s>" % machine.name, "exec")
    exec(code, namespace)

    sim = machine.sim
    txn_table: Dict[Tuple[str, str], Callable] = {}
    miss_table: Dict[Tuple[str, str], Callable] = {}
    for fn_name, kind, pe, device, segment in entries:
        factory = namespace["_make_%s" % fn_name]
        arbiter = segment.arbiter
        if kind == "memory":
            txn_table[(pe.name, device.name)] = factory(
                sim,
                arbiter,
                segment.stats,
                arbiter.request,
                device.target.access_latency,
                device.target.read,
                device.target.write,
            )
        elif kind == "miss":
            miss_table[(pe.name, device.name)] = factory(
                sim,
                arbiter,
                segment.stats,
                arbiter.request,
                device.target.access_latency,
                device.target,
            )
        else:  # hsregs
            txn_table[(pe.name, device.name)] = factory(
                sim,
                arbiter,
                segment.stats,
                arbiter.request,
                device.target.read,
                device.target.write,
            )

    # Bind the generic paths *before* shadowing them with instance attrs.
    generic_txn = machine.transaction
    generic_miss = machine.miss_traffic
    txn_get = txn_table.get
    miss_get = miss_table.get

    def transaction(pe, device_name, address, words, write, data=None):
        fn = txn_get((pe.name, device_name))
        if fn is not None:
            return fn(address, words, write, data)
        return generic_txn(pe, device_name, address, words, write, data)

    def miss_traffic(pe, device_name, misses, line_words, write):
        fn = miss_get((pe.name, device_name))
        if fn is not None:
            return fn(misses, line_words, write)
        return generic_miss(pe, device_name, misses, line_words, write)

    machine.transaction = transaction
    machine.miss_traffic = miss_traffic
    machine._specialized = True
    machine._specialized_source = source
    return True
