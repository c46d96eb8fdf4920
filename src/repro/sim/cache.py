"""Set-associative cache model.

Each MPC755 in the paper's experiments carries 32 KB of L1 instruction cache
and 32 KB of L1 data cache (section VI.C).  The caches matter to the result
shape: in GGBA program code lives in the single *shared* memory, so every
instruction-cache miss becomes an arbitrated global-bus transaction, whereas
GBAVIII keeps program and local data in per-BAN local memories (observation
B under Table II).

The model is a classic set-associative cache with true LRU replacement and a
write-back/write-allocate policy, operating on word addresses.  PEs feed it
deterministic address streams derived from their workload phases, so cache
behaviour -- and therefore bus traffic -- is exactly reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["CacheStats", "Cache", "mpc755_icache", "mpc755_dcache"]


class CacheStats:
    __slots__ = ("hits", "misses", "evictions", "writebacks")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class Cache:
    """Set-associative, LRU, write-back/write-allocate cache.

    ``access`` returns ``(hit, fill_words, writeback_words)`` so the PE model
    can translate misses into bus traffic: a miss fetches ``line_words`` from
    the backing memory, and an eviction of a dirty line writes
    ``line_words`` back first.

    Each set is a ``{tag: dirty}`` dict in LRU order (least recent first):
    a hit re-inserts its tag at the end, an eviction pops the first key.
    Insertion-ordered dicts give the same true-LRU behaviour as the previous
    list-of-lines scan with O(1) C-level operations -- this is the hottest
    function of the whole simulator (millions of calls per table case).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int = 32 * 1024,
        line_bytes: int = 32,
        ways: int = 8,
    ):
        if size_bytes % (line_bytes * ways) != 0:
            raise ValueError("%s: size must be divisible by line*ways" % name)
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.sets = size_bytes // (line_bytes * ways)
        self.line_words = line_bytes // 4
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self.sets)]
        self.stats = CacheStats()
        # Bumped by flush(); lets callers (the PE warm-fetch fast path)
        # detect that a previously observed steady state was invalidated.
        self.flushes = 0

    def _locate(self, word_address: int) -> Tuple[int, int]:
        line_index = word_address // self.line_words
        set_index = line_index % self.sets
        tag = line_index // self.sets
        return set_index, tag

    def access(self, word_address: int, write: bool = False) -> Tuple[bool, int, int]:
        """Touch one word; returns (hit, fill_words, writeback_words)."""
        line_index = word_address // self.line_words
        lines = self._sets[line_index % self.sets]
        tag = line_index // self.sets
        stats = self.stats
        dirty = lines.pop(tag, None)
        if dirty is not None:
            lines[tag] = dirty or write  # re-insert at MRU position
            stats.hits += 1
            return True, 0, 0
        # Miss: allocate, possibly evicting the LRU line.
        stats.misses += 1
        writeback_words = 0
        if len(lines) >= self.ways:
            victim_dirty = lines.pop(next(iter(lines)))
            stats.evictions += 1
            if victim_dirty:
                stats.writebacks += 1
                writeback_words = self.line_words
        lines[tag] = write
        return False, self.line_words, writeback_words

    def access_lines(
        self, word_address: int, lines: int, write: bool = False
    ) -> Tuple[int, int, int]:
        """Touch ``lines`` consecutive lines, starting with the one holding
        ``word_address``; returns ``(hits, misses, writebacks)``.

        The per-line :meth:`access` loop in one call: the same dict
        operations in the same order, so hits, misses, evictions,
        writebacks, LRU order and dirty bits all end up identical.
        """
        line_index = word_address // self.line_words
        sets = self._sets
        set_count = self.sets
        ways = self.ways
        hits = misses = evictions = writebacks = 0
        for index in range(line_index, line_index + lines):
            resident = sets[index % set_count]
            tag = index // set_count
            dirty = resident.pop(tag, None)
            if dirty is not None:
                resident[tag] = dirty or write
                hits += 1
                continue
            misses += 1
            if len(resident) >= ways:
                evictions += 1
                if resident.pop(next(iter(resident))):
                    writebacks += 1
            resident[tag] = write
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        return hits, misses, writebacks

    def flush(self) -> int:
        """Invalidate everything; returns dirty words that would write back."""
        writeback_words = 0
        for lines in self._sets:
            for dirty in lines.values():
                if dirty:
                    writeback_words += self.line_words
            lines.clear()
        self.flushes += 1
        return writeback_words


def mpc755_icache(name: str = "icache") -> Cache:
    """32 KB, 8-way, 32-byte-line instruction cache (MPC755 L1)."""
    return Cache(name, size_bytes=32 * 1024, line_bytes=32, ways=8)


def mpc755_dcache(name: str = "dcache") -> Cache:
    """32 KB, 8-way, 32-byte-line data cache (MPC755 L1)."""
    return Cache(name, size_bytes=32 * 1024, line_bytes=32, ways=8)
