"""Tests for the processing-element cost model (caches -> bus traffic)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.options import presets
from repro.sim.fabric import build_machine
from repro.sim.kernel import Simulator
from repro.sim.pe import MISS_GROUP, DataTouch, ProcessingElement


def fresh_pe(preset_name="GBAVIII", ban="A"):
    machine = build_machine(presets.preset(preset_name, 4))
    return machine, machine.pe_by_ban[ban]


class TestComputeCharging:
    def test_cycles_scale_with_instructions(self):
        machine, pe = fresh_pe()

        def program():
            yield from pe.compute(10_000)

        pe.run(program())
        machine.sim.run()
        expected = int(10_000 * pe.cycles_per_instruction)
        assert pe.stats.compute_cycles == expected

    def test_fractional_cycles_carry(self):
        """Sub-cycle remainders accumulate instead of being dropped."""
        machine, pe = fresh_pe()

        def program():
            for _ in range(10):
                yield from pe.compute(1)  # 0.4 cycles each

        pe.run(program())
        machine.sim.run()
        assert pe.stats.compute_cycles == 4  # 10 x 0.4

    def test_negative_instructions_rejected(self):
        machine, pe = fresh_pe()

        def program():
            yield from pe.compute(-1)

        process = pe.run(program())
        machine.sim.run()
        with pytest.raises(ValueError):
            process.value


class TestInstructionFetchTraffic:
    def test_cold_code_misses_then_warm_hits(self):
        machine, pe = fresh_pe()

        def program():
            # Two passes over the whole code footprint.
            yield from pe.compute(pe.code_footprint_words)
            yield from pe.compute(pe.code_footprint_words)

        pe.run(program())
        machine.sim.run()
        lines = pe.code_footprint_words // pe.icache.line_words
        assert pe.stats.icache_misses == lines  # cold pass only
        assert pe.stats.icache_hits == lines  # warm pass

    def test_miss_traffic_reaches_program_memory(self):
        machine, pe = fresh_pe()
        before = machine.memory(pe.program_device).reads

        def program():
            yield from pe.compute(pe.code_footprint_words)

        pe.run(program())
        machine.sim.run()
        refilled = machine.memory(pe.program_device).reads - before
        assert refilled == pe.code_footprint_words

    def test_ggba_fetches_hit_the_shared_bus(self):
        machine, pe = fresh_pe("GGBA")

        def program():
            yield from pe.compute(4096)

        pe.run(program())
        machine.sim.run()
        shared = machine.segments["GLOBAL_BUS_SUB1"]
        assert shared.stats.transactions > 0


class TestDataStreamTraffic:
    def test_small_buffer_cached_after_first_pass(self):
        machine, pe = fresh_pe()
        touch = DataTouch("SRAM_A", 4096, 512, write=False)

        def program():
            yield from pe.compute(100, [touch])
            yield from pe.compute(100, [touch])

        pe.run(program())
        machine.sim.run()
        lines = 512 // pe.dcache.line_words
        assert pe.stats.dcache_misses == lines
        assert pe.stats.dcache_hits == lines

    def test_writeback_traffic_on_eviction(self):
        machine, pe = fresh_pe()
        capacity_words = pe.dcache.size_bytes // 4
        big = DataTouch("SRAM_A", 0, 2 * capacity_words, write=True)

        def program():
            yield from pe.compute(100, [big])
            yield from pe.compute(100, [big])  # second pass evicts dirty lines

        pe.run(program())
        machine.sim.run()
        memory = machine.memory("SRAM_A")
        assert memory.writes > 0  # write-backs happened
        assert pe.stats.dcache_misses > pe.stats.dcache_hits

    def test_miss_groups_bound_bus_tenures(self):
        machine, pe = fresh_pe()
        lines = 10 * MISS_GROUP
        touch = DataTouch("SRAM_A", 0, lines * pe.dcache.line_words, write=False)

        def program():
            yield from pe.compute(1, [touch])

        pe.run(program())
        machine.sim.run()
        segment = machine.home_segment[pe.name]
        # One tenure per MISS_GROUP misses (plus possible fetch tenures).
        assert segment.stats.transactions <= lines // MISS_GROUP + 5


class TestBusAccessors:
    def test_bus_rw_accounting(self):
        machine, pe = fresh_pe()

        def program():
            yield from pe.bus_write("SRAM_A", 100, [1, 2, 3])
            values = yield from pe.bus_read("SRAM_A", 100, 3)
            return values

        process = pe.run(program())
        machine.sim.run()
        assert process.value == [1, 2, 3]
        assert pe.stats.words_written == 3
        assert pe.stats.words_read == 3
        assert pe.stats.bus_cycles > 0

    def test_stall_counts(self):
        machine, pe = fresh_pe()

        def program():
            yield from pe.stall(123)

        pe.run(program())
        machine.sim.run()
        assert pe.stats.stall_cycles == 123
        assert machine.sim.now == 123

    def test_finished_at_recorded(self):
        machine, pe = fresh_pe()

        def program():
            yield from pe.stall(10)

        pe.run(program())
        machine.sim.run()
        assert pe.finished_at == 10


class _MissSink:
    """Stands in for the machine: records I-fetch miss traffic."""

    def __init__(self):
        self.misses = 0

    def miss_traffic(self, pe, device, misses, line_words, write):
        self.misses += misses
        return
        yield  # pragma: no cover - makes this a generator


def _per_line_fetch(pe, sink, instructions):
    """Reference I-fetch: the warm shortcut, else one ``Cache.access`` per
    fetched line for the whole walk (no bulk credit)."""
    icache = pe.icache
    line_words = icache.line_words
    fetches = int(instructions) // line_words
    if fetches <= 0:
        return
    stats = pe.stats
    if pe._fetch_warm and icache.stats.evictions == 0 and icache.flushes == 0:
        stats.icache_hits += fetches
        icache.stats.hits += fetches
        pe._fetch_cursor = (
            pe._fetch_cursor + fetches * line_words
        ) % pe.code_footprint_words
        return
    cursor = pe._fetch_cursor
    hits = misses = 0
    for _ in range(fetches):
        if icache.access(pe.program_base + cursor, False)[0]:
            hits += 1
        else:
            misses += 1
        cursor = (cursor + line_words) % pe.code_footprint_words
    pe._fetch_cursor = cursor
    stats.icache_hits += hits
    stats.icache_misses += misses
    cache_stats = icache.stats
    if (
        pe._footprint_lines is not None
        and cache_stats.evictions == 0
        and icache.flushes == 0
        and cache_stats.misses == pe._footprint_lines
        and cache_stats.misses == stats.icache_misses
        and cache_stats.hits == stats.icache_hits
    ):
        pe._fetch_warm = True
    sink.misses += misses


def _fetch_state(pe, sink):
    cache = pe.icache
    return (
        cache.stats.hits,
        cache.stats.misses,
        cache.stats.evictions,
        cache.flushes,
        pe.stats.icache_hits,
        pe.stats.icache_misses,
        pe._fetch_cursor,
        pe._fetch_warm,
        sink.misses,
    )


_FETCH_OPS = st.one_of(
    st.tuples(st.just("fetch"), st.integers(min_value=0, max_value=12_000)),
    st.tuples(st.just("flush"), st.just(0)),
    st.tuples(st.just("restart"), st.just(0)),
)


class TestBulkFetchCredit:
    """The cold walk's bulk hit credit against a per-line walk."""

    @given(
        footprint=st.sampled_from([8, 12, 64, 1000, 2048, 2050, 2052, 8192, 9000, 20_000]),
        base=st.integers(min_value=0, max_value=4096),
        ops=st.lists(_FETCH_OPS, min_size=1, max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_line_walk(self, footprint, base, ops):
        pes = []
        for _ in range(2):
            sink = _MissSink()
            pe = ProcessingElement(
                Simulator(),
                "pe",
                sink,
                program_device="mem",
                program_base=base,
                code_footprint_words=footprint,
            )
            pes.append((pe, sink))
        (bulk, bulk_sink), (ref, ref_sink) = pes
        for op, instructions in ops:
            if op == "fetch":
                list(bulk._fetch_traffic(instructions))
                _per_line_fetch(ref, ref_sink, instructions)
            else:
                for pe, _sink in pes:
                    pe.icache.flush()
                    if op == "restart":  # as a fault-injected cold restart
                        pe._fetch_warm = False
                        pe._fetch_cursor = 0
            assert _fetch_state(bulk, bulk_sink) == _fetch_state(ref, ref_sink)

    def test_cold_walk_credits_after_first_wrap(self):
        pe = ProcessingElement(
            Simulator(), "pe", _MissSink(), program_device="mem"
        )
        calls = []
        access = pe.icache.access
        pe.icache.access = lambda *a: calls.append(a) or access(*a)
        lines = pe.code_footprint_words // pe.icache.line_words
        list(pe._fetch_traffic(pe.code_footprint_words * 5))
        # One pass of the footprint is walked; four are credited.
        assert len(calls) == lines
        assert pe.stats.icache_misses == lines
        assert pe.stats.icache_hits == 4 * lines
        assert pe._fetch_warm and pe._fetch_cursor == 0
