"""Netlist construction shared by BANGen and SubSysGen.

Both generation algorithms (Figures 19 and 20) do the same structural
work: take a set of instantiated modules and a list of wire specs, match
wire endpoints against module ports (Step 4), decide the enclosing
module's I/O ports, and emit the instantiation code.  The
:class:`NetlistBuilder` implements that matching:

* wire specs naming the same ``(instance, port)`` merge into one net
  (union-find), which is how a BAN's segment port joins the bridge on its
  left *and* the bridge on its right;
* endpoints on the pseudo-module ``EXT`` surface their net as a port of
  the module under construction;
* any instance port untouched by a wire is *promoted* to a port of the
  enclosing module, same-name promotions sharing one port -- this is how a
  BAN inherits its ``data_up``/``done_op_cs_dn`` pins from the GBI and
  HS_REGS inside it (Figure 17b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..hdl.ast import Instance, Module, Port, PortConnection, Range, Wire
from ..options.schema import did_you_mean

__all__ = ["NetlistError", "NetlistBuilder"]

EXT = "EXT"


class NetlistError(ValueError):
    pass


@dataclass
class _Net:
    name: str
    width: int
    # (logical instance, port, net msb, net lsb)
    taps: List[Tuple[str, str, int, int]] = field(default_factory=list)
    external_port: Optional[str] = None


class NetlistBuilder:
    def __init__(self, module_name: str):
        self.module_name = module_name
        # logical name -> (module definition, instance name)
        self._instances: Dict[str, Tuple[Module, str]] = {}
        self._order: List[str] = []
        self._nets: Dict[str, _Net] = {}
        self._alias: Dict[str, str] = {}
        self._port_net: Dict[Tuple[str, str], str] = {}

    # -- construction inputs ----------------------------------------------
    def add_instance(self, logical: str, definition: Module, instance_name: str) -> None:
        if logical in self._instances:
            raise NetlistError("duplicate logical instance %r" % logical)
        self._instances[logical] = (definition, instance_name)
        self._order.append(logical)

    def has_instance(self, logical: str) -> bool:
        return logical in self._instances

    def _resolve(self, net_name: str) -> str:
        while net_name in self._alias:
            net_name = self._alias[net_name]
        return net_name

    def _merge(self, keep: str, absorb: str) -> None:
        keep = self._resolve(keep)
        absorb = self._resolve(absorb)
        if keep == absorb:
            return
        kept = self._nets[keep]
        absorbed = self._nets.pop(absorb)
        kept.width = max(kept.width, absorbed.width)
        kept.taps.extend(absorbed.taps)
        if absorbed.external_port:
            if kept.external_port and kept.external_port != absorbed.external_port:
                raise NetlistError(
                    "nets %s/%s both have external ports (%s, %s)"
                    % (keep, absorb, kept.external_port, absorbed.external_port)
                )
            kept.external_port = kept.external_port or absorbed.external_port
        self._alias[absorb] = keep
        for key, value in list(self._port_net.items()):
            if self._resolve(value) == keep:
                self._port_net[key] = keep

    def connect(
        self,
        wire_name: str,
        width: int,
        taps: List[Tuple[str, str, int, int]],
    ) -> None:
        """Attach endpoint taps ``(logical, port, msb, lsb)`` to a net."""
        net_name = self._resolve(wire_name)
        if net_name not in self._nets:
            self._nets[net_name] = _Net(net_name, width)
        net = self._nets[net_name]
        net.width = max(net.width, width)
        for logical, port, msb, lsb in taps:
            if logical == EXT:
                if (msb - lsb + 1) != net.width:
                    raise NetlistError(
                        "EXT port %s must span the whole wire %s" % (port, wire_name)
                    )
                if net.external_port and net.external_port != port:
                    raise NetlistError(
                        "wire %s exposed as both %s and %s"
                        % (wire_name, net.external_port, port)
                    )
                net.external_port = port
                continue
            if logical not in self._instances:
                raise NetlistError(
                    "wire %s references unknown module %r%s; known modules: %s"
                    % (
                        wire_name,
                        logical,
                        did_you_mean(logical, self._order),
                        ", ".join(sorted(self._instances)) or "<none>",
                    )
                )
            definition, _instance = self._instances[logical]
            port_def = definition.port(port)
            if port_def is None:
                port_names = [p.name for p in definition.ports]
                raise NetlistError(
                    "wire %s: module %s (%s) has no port %r%s; its ports: %s"
                    % (
                        wire_name,
                        logical,
                        definition.name,
                        port,
                        did_you_mean(port, port_names),
                        ", ".join(sorted(port_names)) or "<none>",
                    )
                )
            key = (logical, port)
            if key in self._port_net:
                # The pin already sits on a net: a repeat mention (the
                # multi-drop style of Example 7's shared bus wires) is a
                # no-op; a mention on a *different* wire merges the nets.
                existing = self._resolve(self._port_net[key])
                if existing != self._resolve(wire_name):
                    self._merge(existing, self._resolve(wire_name))
                    net = self._nets[self._resolve(existing)]
                continue
            tap_width = msb - lsb + 1
            if port_def.width != tap_width:
                raise NetlistError(
                    "wire %s: %s.%s is %d bits but tap selects %d"
                    % (wire_name, logical, port, port_def.width, tap_width)
                )
            self._port_net[key] = self._resolve(wire_name)
            net.taps.append((logical, port, msb, lsb))

    # -- finalization ----------------------------------------------------
    def build(self) -> Module:
        module = Module(self.module_name)
        promoted: Dict[str, Port] = {}
        promoted_taps: Dict[str, List[Tuple[str, str]]] = {}

        # Promote unmatched instance ports (Step 4: "obtain exact I/O
        # ports of the BAN to be generated").  Inputs and inouts sharing a
        # name fan out from one promoted port (clk, rst_n, the shared
        # data_dn lines of Figure 17b).  Two *outputs* cannot share a pin,
        # so colliding output names get instance-suffixed (the done_op
        # status pins of repeated BANs at subsystem level).
        unmatched: List[Tuple[str, Port]] = []
        output_name_counts: Dict[str, int] = {}
        for logical in self._order:
            definition, _instance = self._instances[logical]
            for port in definition.ports:
                if (logical, port.name) in self._port_net:
                    continue
                unmatched.append((logical, port))
                if port.direction == "output":
                    output_name_counts[port.name] = output_name_counts.get(port.name, 0) + 1
        promote_name_of: Dict[Tuple[str, str], str] = {}
        for logical, port in unmatched:
            if port.direction == "output" and output_name_counts.get(port.name, 0) > 1:
                promote_name = "%s_%s" % (port.name, logical.lower())
            else:
                promote_name = port.name
            promote_name_of[(logical, port.name)] = promote_name
            existing = promoted.get(promote_name)
            if existing is None:
                promoted[promote_name] = Port(promote_name, port.direction, port.range)
            else:
                if existing.width != port.width:
                    raise NetlistError(
                        "port %r promoted with widths %d and %d"
                        % (promote_name, existing.width, port.width)
                    )
                existing.direction = _merge_direction(
                    existing.direction, port.direction, promote_name
                )
            promoted_taps.setdefault(promote_name, []).append((logical, port.name))
        self._promote_name_of = promote_name_of

        # External (EXT) net ports, direction inferred from the taps.
        for net in self._nets.values():
            if net.external_port is None:
                continue
            directions = set()
            for logical, port, _msb, _lsb in net.taps:
                definition, _instance = self._instances[logical]
                directions.add(definition.port(port).direction)
            if directions <= {"input"}:
                direction = "input"
            elif directions <= {"output"}:
                direction = "output"
            else:
                direction = "inout"
            if net.external_port in promoted:
                raise NetlistError(
                    "EXT port %r collides with a promoted port" % net.external_port
                )
            module.ports.append(
                Port(
                    net.external_port,
                    direction,
                    Range(net.width - 1, 0) if net.width > 1 else None,
                )
            )

        module.ports.extend(promoted.values())

        # Wire declarations for internal nets.
        for net in sorted(self._nets.values(), key=lambda item: item.name):
            if net.external_port is not None:
                continue
            module.wires.append(
                Wire(net.name, Range(net.width - 1, 0) if net.width > 1 else None)
            )

        # Instances with named connections (Step 5).
        for logical in self._order:
            definition, instance_name = self._instances[logical]
            connections: List[PortConnection] = []
            for port in definition.ports:
                key = (logical, port.name)
                if key in self._port_net:
                    net = self._nets[self._resolve(self._port_net[key])]
                    net_ref = net.external_port or net.name
                    expression = _slice_expression(
                        net_ref, net.width, self._tap_bits(net, logical, port.name)
                    )
                    connections.append(PortConnection(port.name, expression))
                else:
                    promote_name = self._promote_name_of[(logical, port.name)]
                    connections.append(PortConnection(port.name, promote_name))
            module.instances.append(
                Instance(definition.name, instance_name, connections)
            )
        return module

    def _tap_bits(self, net: _Net, logical: str, port: str) -> Tuple[int, int]:
        for tap_logical, tap_port, msb, lsb in net.taps:
            if tap_logical == logical and tap_port == port:
                return msb, lsb
        raise NetlistError("lost tap for %s.%s" % (logical, port))


def _merge_direction(first: str, second: str, name: str) -> str:
    if first == second:
        return first
    if "inout" in (first, second):
        return "inout"
    if {first, second} == {"input", "output"}:
        # An output feeding same-named inputs of sibling modules would be a
        # real connection the wire library should have specified.
        raise NetlistError(
            "port %r promoted as both input and output; add a wire spec" % name
        )
    raise NetlistError(
        "port %r promoted with unsupported direction pair (%s, %s)"
        % (name, first, second)
    )


def _slice_expression(net_name: str, net_width: int, bits: Tuple[int, int]) -> str:
    msb, lsb = bits
    if lsb == 0 and msb == net_width - 1:
        return net_name
    if msb == lsb:
        if net_width == 1:
            return net_name
        return "%s[%d]" % (net_name, msb)
    return "%s[%d:%d]" % (net_name, msb, lsb)
