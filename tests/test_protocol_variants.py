"""Tests for protocol variants and experiment shape-checkers."""

import pytest

from repro.experiments import table2, table3, table4
from repro.experiments.table2 import Table2Row, check_table2_shape
from repro.experiments.table3 import Table3Row, check_table3_shape
from repro.experiments.table4 import Table4Row, check_table4_shape
from repro.options import presets
from repro.sim.fabric import build_machine
from repro.soc.api import SocAPI
from repro.soc.handshake import GbaviChannel, ThreeRegisterChannel


class TestThreeRegisterChannel:
    def _run(self, channel_cls, transfers=5, trace_hsregs=False):
        machine = build_machine(presets.preset("GBAVI", 4), trace_hsregs=trace_hsregs)
        channel = channel_cls(SocAPI(machine, "A"), SocAPI(machine, "B"), 16)
        payload = list(range(16))
        received = []

        def sender():
            for _ in range(transfers):
                yield from channel.send(payload)

        def receiver():
            for _ in range(transfers):
                values = yield from channel.recv()
                received.append(list(values))

        machine.pe("A").run(sender())
        machine.pe("B").run(receiver())
        machine.sim.run()
        assert received == [payload] * transfers
        return machine.sim.now, channel

    def test_data_integrity(self):
        _cycles, channel = self._run(ThreeRegisterChannel)
        assert channel.transfers == 5

    def test_read_request_steps_traced(self):
        # Step markers are recorded only on machines built for tracing.
        _cycles, channel = self._run(
            ThreeRegisterChannel, transfers=1, trace_hsregs=True
        )
        labels = [label for label, _cycle in channel.trace]
        assert "1:assert read request" in labels
        assert "1:consume read request" in labels
        # Condition (1) precedes condition (2) per transfer.
        assert labels.index("1:consume read request") < labels.index("2:assert DONE_OP")

    def test_costs_more_than_two_register(self):
        """Dropping the read-request register is a measurable win -- the
        design decision section IV.C argues for."""
        three_reg, _ = self._run(ThreeRegisterChannel)
        two_reg, _ = self._run(GbaviChannel)
        assert three_reg > two_reg

    def test_request_register_allocated_once(self):
        machine = build_machine(presets.preset("GBAVI", 4))
        a, b = SocAPI(machine, "A"), SocAPI(machine, "B")
        first = ThreeRegisterChannel(a, b, 8)
        second = ThreeRegisterChannel(a, b, 8)
        assert first.req_device == second.req_device


def _t2row(case, bus, style, mbps):
    return Table2Row(case, bus, style, mbps, 1000, table2.TABLE2_PAPER[(bus, style)])


class TestShapeCheckers:
    """The benchmark assertions themselves must catch wrong shapes."""

    def test_good_table2_passes(self):
        rows = [
            _t2row(case, bus, style, mbps)
            for (case, bus, style), mbps in zip(
                table2.TABLE2_CASES,
                [1.5, 1.40, 3.2, 1.48, 3.2, 1.5, 3.25, 2.85, 1.45],
            )
        ]
        assert check_table2_shape(rows) == []

    def test_table2_catches_wrong_winner(self):
        rows = [
            _t2row(case, bus, style, mbps)
            for (case, bus, style), mbps in zip(
                table2.TABLE2_CASES,
                [1.5, 1.40, 9.9, 1.48, 3.2, 1.5, 3.25, 2.85, 1.45],  # GBAVIII wins
            )
        ]
        failures = check_table2_shape(rows)
        assert any("best case" in f for f in failures)

    def test_table2_catches_fpa_regression(self):
        rows = [
            _t2row(case, bus, style, mbps)
            for (case, bus, style), mbps in zip(
                table2.TABLE2_CASES,
                [1.5, 1.40, 1.0, 1.48, 3.2, 1.5, 3.25, 2.85, 1.45],  # FPA < PPA
            )
        ]
        assert any("FPA should beat PPA" in f for f in check_table2_shape(rows))

    def test_table3_catches_frame_mismatch(self):
        rows = [
            Table3Row(10 + i, bus, mbps, 1000, table3.TABLE3_PAPER[bus], bus != "BFBA")
            for i, (bus, mbps) in enumerate(
                [("BFBA", 0.9), ("GBAVI", 0.89), ("GBAVIII", 1.53),
                 ("HYBRID", 1.54), ("CCBA", 1.36)]
            )
        ]
        assert any("mismatch" in f for f in check_table3_shape(rows))

    def test_table3_good_passes(self):
        rows = [
            Table3Row(10 + i, bus, mbps, 1000, table3.TABLE3_PAPER[bus], True)
            for i, (bus, mbps) in enumerate(
                [("BFBA", 0.9), ("GBAVI", 0.89), ("GBAVIII", 1.53),
                 ("HYBRID", 1.54), ("CCBA", 1.36)]
            )
        ]
        assert check_table3_shape(rows) == []

    def test_table4_catches_missing_reduction(self):
        rows = [
            Table4Row(15, "GGBA", 1_000_000, 41, 0, table4.TABLE4_PAPER["GGBA"]),
            Table4Row(16, "SPLITBA", 950_000, 41, 0, table4.TABLE4_PAPER["SPLITBA"]),
        ]
        assert any("reduction" in f for f in check_table4_shape(rows))

    def test_table4_catches_incomplete_tasks(self):
        rows = [
            Table4Row(15, "GGBA", 1_000_000, 41, 0, table4.TABLE4_PAPER["GGBA"]),
            Table4Row(16, "SPLITBA", 590_000, 12, 0, table4.TABLE4_PAPER["SPLITBA"]),
        ]
        assert any("tasks" in f for f in check_table4_shape(rows))
