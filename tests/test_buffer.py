"""Unit tests for the LRU buffer pool (repro.storage.buffer)."""

import pytest

from repro.core.metrics import QueryStats
from repro.exceptions import BufferPoolError
from repro.storage.buffer import BufferPool
from repro.storage.page import PageKind
from repro.storage.pager import Pager


@pytest.fixture()
def setup():
    pager = Pager(page_size=512)
    pages = [pager.allocate(PageKind.DATA, f"p{i}") for i in range(8)]
    return pager, BufferPool(pager, capacity_pages=3), pages


class TestBasics:
    def test_miss_then_hit(self, setup):
        pager, pool, pages = setup
        assert pool.get(pages[0]) == "p0"
        assert pool.get(pages[0]) == "p0"
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert pager.stats.physical_reads == 1

    def test_capacity_enforced(self, setup):
        _pager, pool, pages = setup
        for page in pages[:5]:
            pool.get(page)
        assert pool.num_resident == 3
        assert pool.stats.evictions == 2

    def test_lru_eviction_order(self, setup):
        _pager, pool, pages = setup
        pool.get(pages[0])
        pool.get(pages[1])
        pool.get(pages[2])
        pool.get(pages[0])  # refresh page 0
        pool.get(pages[3])  # must evict page 1 (least recently used)
        misses = pool.stats.misses
        for page in (pages[0], pages[2], pages[3]):
            pool.get(page)  # still buffered: hits, which evict nothing
        assert pool.stats.misses == misses
        pool.get(pages[1])
        assert pool.stats.misses == misses + 1

    def test_zero_capacity_rejected(self, setup):
        pager, _pool, _pages = setup
        with pytest.raises(BufferPoolError):
            BufferPool(pager, capacity_pages=0)

    def test_hit_ratio(self, setup):
        _pager, pool, pages = setup
        pool.get(pages[0])
        pool.get(pages[0])
        pool.get(pages[0])
        assert pool.stats.hit_ratio == pytest.approx(2 / 3)


class TestBitmap:
    """A query's image of the pool: RU-COST's residence bitmap."""

    def test_resident_probe_does_not_touch_lru(self, setup):
        _pager, pool, pages = setup
        stats = QueryStats()
        for page in pages[:3]:
            pool.get(page, stats)
        # Probing page 0 in the image must NOT make it recently used...
        assert pages[0] in stats.pages_seen
        pool.get(pages[3], stats)  # ...so it is the one evicted.
        misses = pool.stats.misses
        pool.get(pages[0], stats)
        assert pool.stats.misses == misses + 1

    def test_probe_does_not_count_io(self, setup):
        pager, pool, pages = setup
        stats = QueryStats()
        assert pages[0] not in stats.pages_seen
        assert pager.stats.physical_reads == 0
        assert pool.stats.misses == 0
        assert stats.logical_reads == 0

    def test_image_of_a_query_alone_is_the_pool(self, setup):
        _pager, pool, pages = setup
        stats = QueryStats()
        for page in (0, 1, 2, 0, 3, 4, 3):
            pool.get(pages[page], stats)
        # Least recent first: the pool's LRU order and capacity.
        assert list(stats.pages_seen) == [pages[0], pages[4], pages[3]]
        misses = pool.stats.misses
        for page in stats.pages_seen:
            pool.get(page)
        assert pool.stats.misses == misses

    def test_other_reads_stay_out_of_the_image(self, setup):
        _pager, pool, pages = setup
        mine, other = QueryStats(), QueryStats()
        pool.get(pages[0], mine)
        for page in pages[1:4]:
            pool.get(page, other)  # evicts page 0 from the pool
        pool.get(pages[5])
        assert list(mine.pages_seen) == [pages[0]]
        assert list(other.pages_seen) == pages[1:4]
        # The image is no counter: it never reaches the wire or a sum.
        assert "pages_seen" not in mine.as_dict()


class TestMaintenance:
    def test_put_is_write_through(self, setup):
        pager, pool, pages = setup
        pool.put(pages[0], "fresh")
        assert pager.peek(pages[0]) == "fresh"
        assert pool.get(pages[0]) == "fresh"
        assert pool.stats.misses == 0  # already resident

    def test_invalidate(self, setup):
        _pager, pool, pages = setup
        pool.get(pages[0])
        pool.invalidate(pages[0])
        pool.invalidate(pages[0])  # idempotent
        pool.get(pages[0])
        assert pool.stats.misses == 2

    def test_clear(self, setup):
        _pager, pool, pages = setup
        pool.get(pages[0])
        pool.clear()
        assert pool.num_resident == 0

    def test_resize_shrink_evicts(self, setup):
        _pager, pool, pages = setup
        for page in pages[:3]:
            pool.get(page)
        pool.resize(1)
        assert pool.num_resident == 1
        assert pool.capacity == 1
        with pytest.raises(BufferPoolError):
            pool.resize(0)
