"""Tests for memory models (SRAM / DRAM)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.memory import Dram, Memory, Sram, make_memory


class TestSram:
    def test_read_back(self):
        sram = Sram("m", 1024)
        sram.write(10, [1, 2, 3])
        assert sram.read(10, 3) == [1, 2, 3]

    def test_uninitialized_reads_zero(self):
        sram = Sram("m", 16)
        assert sram.read(0, 4) == [0, 0, 0, 0]

    def test_word_masking(self):
        sram = Sram("m", 4)
        sram.write_word(0, 0x1_FFFF_FFFF)
        assert sram.read_word(0) == 0xFFFFFFFF

    def test_bounds_check(self):
        sram = Sram("m", 8)
        with pytest.raises(IndexError):
            sram.read(7, 2)
        with pytest.raises(IndexError):
            sram.write(-1, [0])

    def test_constant_latency(self):
        sram = Sram("m", 64, access_cycles=2)
        assert sram.burst_latency(0, 10, False) == 2
        assert sram.burst_latency(50, 1, True) == 2

    def test_counters(self):
        sram = Sram("m", 64)
        sram.write(0, [1, 2])
        sram.read(0, 2)
        assert sram.writes == 2 and sram.reads == 2

    def test_clear(self):
        sram = Sram("m", 8)
        sram.write_word(3, 9)
        sram.clear()
        assert sram.read_word(3) == 0

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Sram("m", 0)

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, values):
        sram = Sram("m", 256)
        sram.write(0, values)
        assert sram.read(0, len(values)) == values


_SPAN_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.integers(min_value=-8, max_value=5000),
            st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=2100),
        ),
        st.tuples(
            st.just("read"),
            st.integers(min_value=-8, max_value=5000),
            st.integers(min_value=0, max_value=2100),
        ),
    ),
    min_size=1,
    max_size=12,
)


class TestPagedStorage:
    """Paged word storage against a plain-dict reference model."""

    @given(size=st.integers(min_value=1, max_value=4200), ops=_SPAN_OPS)
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_model(self, size, ops):
        memory = Sram("m", size)
        model = {}
        for op, address, arg in ops:
            count = len(arg) if op == "write" else arg
            if address < 0 or address + count > size:
                with pytest.raises(IndexError):
                    if op == "write":
                        memory.write(address, arg)
                    else:
                        memory.read(address, count)
                continue
            if op == "write":
                memory.write(address, arg)
                for offset, value in enumerate(arg):
                    model[address + offset] = value & 0xFFFFFFFF
            else:
                assert memory.read(address, count) == [
                    model.get(address + offset, 0) for offset in range(count)
                ]
        assert memory.read(0, size) == [model.get(i, 0) for i in range(size)]

    def test_span_across_page_boundaries(self):
        memory = Sram("m", 4096)
        values = list(range(1, 2051))
        memory.write(1000, values)  # pages 0, 1 and 2
        assert memory.read(1000, len(values)) == values
        assert memory.read(990, 10) == [0] * 10
        assert memory.read(3050, 10) == [0] * 10


class TestDram:
    def test_row_miss_then_hit(self):
        dram = Dram("d", 4096, row_words=256, hit_cycles=2, miss_cycles=6)
        assert dram.burst_latency(0, 8, False) == 6  # cold row
        assert dram.burst_latency(16, 8, False) == 2  # same row
        assert dram.burst_latency(300, 8, False) == 6  # new row

    def test_burst_spanning_rows(self):
        dram = Dram("d", 4096, row_words=256, hit_cycles=2, miss_cycles=6)
        latency = dram.burst_latency(250, 16, False)  # rows 0 and 1, both cold
        assert latency == 12
        assert dram.row_misses == 2

    def test_row_stats(self):
        dram = Dram("d", 1024, row_words=128)
        dram.burst_latency(0, 1, False)
        dram.burst_latency(1, 1, False)
        assert dram.row_hits == 1 and dram.row_misses == 1

    def test_data_independent_of_rows(self):
        dram = Dram("d", 1024)
        dram.write(700, [5, 6])
        assert dram.read(700, 2) == [5, 6]

    def test_bad_row_words(self):
        with pytest.raises(ValueError):
            Dram("d", 64, row_words=0)


class TestFactory:
    def test_make_sram(self):
        memory = make_memory("SRAM", "m", 128)
        assert isinstance(memory, Sram)
        assert memory.kind == "SRAM"

    def test_make_dram_case_insensitive(self):
        assert isinstance(make_memory("dram", "m", 128), Dram)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            make_memory("FLASH", "m", 128)
