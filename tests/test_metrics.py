"""Unit tests for QueryStats (repro.core.metrics) and how
:meth:`BufferPool.get` charges it."""

import pytest

from repro.core.metrics import QueryStats
from repro.exceptions import ConfigurationError
from repro.storage.buffer import BufferPool
from repro.storage.page import PageKind
from repro.storage.pager import Pager


class TestQueryStats:
    def test_merge_accumulates(self):
        a = QueryStats(candidates=3, heap_pops=10, wall_time_s=1.0)
        b = QueryStats(candidates=2, heap_pops=5, wall_time_s=0.5)
        a.merge(b)
        assert a.candidates == 5
        assert a.heap_pops == 15
        assert a.wall_time_s == 1.5

    def test_scaled_divides(self):
        stats = QueryStats(candidates=10, page_accesses=4)
        averaged = stats.scaled(2)
        assert averaged.candidates == 5
        assert averaged.page_accesses == 2

    def test_scaled_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            QueryStats().scaled(0)

    def test_as_dict_round_trips_all_counters(self):
        stats = QueryStats(candidates=1, bloom_calls=7)
        payload = stats.as_dict()
        assert payload["candidates"] == 1
        assert payload["bloom_calls"] == 7
        assert set(payload) >= {
            "candidates",
            "page_accesses",
            "sequential_page_accesses",
            "random_page_accesses",
            "wall_time_s",
            "heap_pops",
        }


class TestBufferPoolCharging:
    def test_charges_only_its_own_requests(self):
        pager = Pager(page_size=512)
        pages = [pager.allocate(PageKind.DATA, i) for i in range(6)]
        buffer = BufferPool(pager, capacity_pages=2)
        buffer.get(pages[0])  # another caller's traffic
        stats = QueryStats()
        buffer.get(pages[1], stats)
        buffer.get(pages[1], stats)  # hit
        buffer.get(pages[2])  # another caller's miss
        buffer.get(pages[5], stats)
        assert stats.page_accesses == 2  # its own two misses
        assert stats.logical_reads == 3
        assert pager.stats.physical_reads == 4

    def test_sequential_random_split(self):
        pager = Pager(page_size=512)
        pages = [pager.allocate(PageKind.DATA, i) for i in range(80)]
        buffer = BufferPool(pager, capacity_pages=2)
        stats = QueryStats()
        buffer.get(pages[0], stats)
        buffer.get(pages[1], stats)  # sequential
        buffer.get(pages[70], stats)  # random (beyond readahead window)
        assert stats.sequential_page_accesses == 1
        assert stats.random_page_accesses == 2
        assert stats.sequential_page_accesses == pager.stats.sequential_reads
