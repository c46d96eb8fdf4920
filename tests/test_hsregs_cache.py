"""Tests for handshake registers, shared variables, and the L1 cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cache import Cache, mpc755_dcache, mpc755_icache
from repro.sim.hsregs import HandshakeRegisters, RegisterWaiter, SharedVariables
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.memory import Sram


@pytest.fixture
def sim():
    return Simulator()


class TestHandshakeRegisters:
    def test_initial_values(self, sim):
        block = HandshakeRegisters(sim, "hs", done_op=1, done_rv=0)
        assert block.done_op == 1 and block.done_rv == 0

    def test_write_read(self, sim):
        block = HandshakeRegisters(sim, "hs")
        block.write("DONE_OP", 1)
        assert block.read("DONE_OP") == 1

    def test_one_bit_masking(self, sim):
        block = HandshakeRegisters(sim, "hs")
        block.write("DONE_RV", 3)
        assert block.read("DONE_RV") == 1

    def test_unknown_register(self, sim):
        block = HandshakeRegisters(sim, "hs")
        with pytest.raises(KeyError):
            block.read("REQ")

    def test_waiter_wakes_on_value_change(self, sim):
        block = HandshakeRegisters(sim, "hs")
        waiter = RegisterWaiter(block, "DONE_OP")
        woken = []
        wake = waiter.arm(1, timeout=100)
        wake.add_callback(lambda _e: woken.append(sim.now))  # the poller
        assert waiter.busy
        sim._post_callback(lambda _e: block.write("DONE_OP", 1), 5)
        sim.run(until=6)
        assert woken == [5] and not waiter.busy
        assert block._watchers["DONE_OP"] == []

    def test_waiter_already_satisfied(self, sim):
        block = HandshakeRegisters(sim, "hs", done_op=1)
        waiter = RegisterWaiter(block, "DONE_OP")
        assert waiter.arm(1, timeout=100) is None
        assert not waiter.busy and sim.peek() is None

    def test_waiter_wrong_register_stays_pending(self, sim):
        block = HandshakeRegisters(sim, "hs")
        waiter = RegisterWaiter(block, "DONE_OP")
        wake = waiter.arm(1, timeout=100)
        block.write("DONE_RV", 1)  # other register
        sim.run(until=50)
        assert not wake.fired and waiter.busy

    def test_waiter_rearm_before_wake_rejected(self, sim):
        block = HandshakeRegisters(sim, "hs")
        waiter = RegisterWaiter(block, "DONE_OP")
        waiter.arm(1, timeout=10)
        with pytest.raises(SimulationError):
            waiter.arm(1, timeout=10)

    def test_waiter_timeout_leaves_no_watcher(self, sim):
        block = HandshakeRegisters(sim, "hs")
        waiter = RegisterWaiter(block, "DONE_OP")
        woken = []
        for _ in range(3):
            wake = waiter.arm(1, timeout=10)
            wake.add_callback(lambda _e: woken.append(sim.now))  # the poller
            sim.run()
            assert not waiter.busy
        assert woken == [10, 20, 30]
        # Timed-out arms drop off the watcher list instead of piling up.
        assert block._watchers["DONE_OP"] == []

    def test_waiter_first_arrival_wins(self, sim):
        """A change and the timer in the same cycle wake the waiter once;
        the timer's entry still fires, as a composite's Timeout would."""
        block = HandshakeRegisters(sim, "hs")
        waiter = RegisterWaiter(block, "DONE_OP")
        woken = []
        wake = waiter.arm(1, timeout=10)
        wake.add_callback(lambda e: woken.append(sim.now))
        sim._post_callback(lambda _e: block.write("DONE_OP", 1), 4)
        sim.run()
        assert woken == [4]
        # hop + wake at cycle 4, then the stale timer at 10.
        assert sim.now == 10

    def test_trace_records_changes(self, sim):
        block = HandshakeRegisters(sim, "hs", trace=True)
        block.write("DONE_OP", 1)
        block.write("DONE_OP", 1)  # no change: not traced
        block.write("DONE_OP", 0)
        assert [(reg, val) for _t, reg, val in block.trace] == [
            ("DONE_OP", 1),
            ("DONE_OP", 0),
        ]


class TestSharedVariables:
    def test_slots_are_stable_and_distinct(self):
        memory = Sram("m", 128)
        shared = SharedVariables(memory, 100)
        a = shared.slot("A")
        b = shared.slot("B")
        assert a != b
        assert shared.slot("A") == a

    def test_peek_poke(self):
        memory = Sram("m", 128)
        shared = SharedVariables(memory, 64)
        shared.poke("FLAG", 1)
        assert shared.peek("FLAG") == 1
        assert memory.read_word(shared.slot("FLAG")) == 1


class TestCache:
    def test_cold_miss_then_hit(self):
        cache = Cache("c", size_bytes=1024, line_bytes=32, ways=2)
        hit, fill, writeback = cache.access(0)
        assert (hit, fill, writeback) == (False, 8, 0)
        hit, fill, writeback = cache.access(4)  # same line
        assert (hit, fill, writeback) == (True, 0, 0)

    def test_lru_eviction(self):
        cache = Cache("c", size_bytes=128, line_bytes=32, ways=2)  # 2 sets
        line = cache.line_words
        sets = cache.sets
        # Three lines mapping to set 0: indices 0, sets, 2*sets.
        cache.access(0)
        cache.access(sets * line)
        cache.access(0)  # refresh line 0
        cache.access(2 * sets * line)  # evicts line 'sets' (LRU)
        assert cache.access(0)[0] is True
        assert cache.access(sets * line)[0] is False

    def test_dirty_writeback(self):
        cache = Cache("c", size_bytes=128, line_bytes=32, ways=1)
        line = cache.line_words
        cache.access(0, write=True)
        _hit, _fill, writeback = cache.access(cache.sets * line)  # evicts dirty
        assert writeback == cache.line_words
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = Cache("c", size_bytes=128, line_bytes=32, ways=1)
        cache.access(0, write=False)
        _hit, _fill, writeback = cache.access(cache.sets * cache.line_words)
        assert writeback == 0

    def test_flush_returns_dirty_words(self):
        cache = Cache("c", size_bytes=256, line_bytes=32, ways=2)
        cache.access(0, write=True)
        cache.access(64, write=False)
        assert cache.flush() == cache.line_words
        assert cache.access(0)[0] is False  # invalidated

    def test_hit_rate(self):
        cache = Cache("c", size_bytes=1024, line_bytes=32, ways=2)
        for _ in range(10):
            cache.access(0)
        assert cache.stats.hit_rate == pytest.approx(0.9)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache("c", size_bytes=1000, line_bytes=32, ways=3)

    def test_mpc755_shapes(self):
        icache = mpc755_icache()
        dcache = mpc755_dcache()
        for cache in (icache, dcache):
            assert cache.size_bytes == 32 * 1024
            assert cache.ways == 8
            assert cache.line_words == 8

    def test_sequential_streaming_miss_rate(self):
        """A stream longer than the cache misses once per line, every pass."""
        cache = Cache("c", size_bytes=1024, line_bytes=32, ways=2)
        span_words = 2 * 1024 // 4  # twice the capacity
        for _pass in range(3):
            for address in range(0, span_words, cache.line_words):
                cache.access(address)
        lines = span_words // cache.line_words
        assert cache.stats.misses == 3 * lines  # no reuse survives

    @given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_determinism_property(self, addresses):
        def run():
            cache = Cache("c", size_bytes=512, line_bytes=32, ways=2)
            return [cache.access(a, write=(a % 3 == 0)) for a in addresses]

        assert run() == run()

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=100))
    @settings(max_examples=25, deadline=None)
    def test_small_working_set_always_fits(self, addresses):
        """Addresses within one cache-capacity window never conflict-miss
        more than the number of distinct lines."""
        cache = Cache("c", size_bytes=2048, line_bytes=32, ways=4)
        for address in addresses:
            cache.access(address)
        distinct_lines = len({a // cache.line_words for a in addresses})
        assert cache.stats.misses == distinct_lines

    @given(
        st.sampled_from([(256, 2), (512, 4), (1024, 2)]),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2047),
                st.integers(min_value=1, max_value=40),
                st.booleans(),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_access_lines_matches_per_line_walk(self, geometry, passes):
        """The bulk line walk leaves a small (evicting) cache exactly as the
        per-line access() loop does: counts, LRU order and dirty bits."""
        size_bytes, ways = geometry
        bulk = Cache("bulk", size_bytes=size_bytes, line_bytes=32, ways=ways)
        loop = Cache("loop", size_bytes=size_bytes, line_bytes=32, ways=ways)
        for address, lines, write in passes:
            got = bulk.access_lines(address, lines, write)
            first = address // loop.line_words
            hits = misses = writebacks = 0
            for line in range(first, first + lines):
                hit, _fill, writeback = loop.access(line * loop.line_words, write)
                hits += hit
                misses += not hit
                writebacks += bool(writeback)
            assert got == (hits, misses, writebacks)
        for field in ("hits", "misses", "evictions", "writebacks"):
            assert getattr(bulk.stats, field) == getattr(loop.stats, field)
        assert [list(s.items()) for s in bulk._sets] == [
            list(s.items()) for s in loop._sets
        ]
