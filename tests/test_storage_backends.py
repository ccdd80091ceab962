"""Backend-parity differential matrix: file versus mmap storage.

``backend="mmap"`` substitutes the pager's in-memory page payloads with
read-only views of a memory-mapped scratch file.  It is *only* a cache
substitution: every deterministic observable — matches, full-precision
distances, every golden counter including NUM_IO — must be byte
identical to the file backend.  This module pins that claim across the
full golden engine matrix, persistence round-trips, sharded roots, and
WAL recovery, plus the checksum on every read that a mapped page needs
(the file under the map can be rewritten).

ResourceWarnings are promoted to errors module-wide so an unclosed
NpzFile or mmap handle anywhere on these paths fails the suite.
"""

import tempfile
import warnings

import numpy as np
import pytest

from repro import SubsequenceDatabase
from repro.exceptions import ConfigurationError, CorruptPageError
from repro.ingest import create_durable, recover_database
from repro.shard import ShardedDatabase
from repro.storage.faults import FaultInjector
from repro.storage.page import PageKind
from repro.storage.pager import Pager
from repro.storage.persistence import load_database, save_database
from tests.conftest import make_walk, query_from, run_engine
from tests.test_engines_stats import (
    GOLDEN_DISTANCES,
    GOLDEN_MATCHES,
    GOLDEN_PSM_DISTANCES,
    GOLDEN_PSM_MATCHES,
    GOLDEN_STAT_KEYS,
    assert_golden,
)

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

BACKENDS = ("file", "mmap")

#: Every ranked engine label of the golden matrix (method, deferred).
GOLDEN_LABELS = (
    "seqscan", "hlmj", "hlmj-d", "hlmj-wg", "hlmj-wg-d",
    "ru", "ru-d", "ru-cost", "ru-cost-d",
)


def build_backend_db(backend):
    """The golden workload rebuilt from scratch under one backend."""
    db = SubsequenceDatabase(
        omega=16, features=4, buffer_fraction=0.1, backend=backend
    )
    db.insert(0, make_walk(3000, seed=11))
    db.insert(1, make_walk(2200, seed=12))
    db.build()
    return db


def fingerprint(db, query, k=5, rho=2, method="ru-cost", normalize=False):
    """Exact digest from a cold cache: matches, distances, NUM_IO and
    every golden counter."""
    db.reset_cache()
    result = db.search(query, k=k, rho=rho, method=method, normalize=normalize)
    return (
        [(m.sid, m.start, repr(m.distance)) for m in result.matches],
        result.stats.page_accesses,
        {key: getattr(result.stats, key) for key in GOLDEN_STAT_KEYS},
    )


@pytest.fixture(scope="module", params=BACKENDS)
def backend_db(request):
    db = build_backend_db(request.param)
    yield db
    db.close()


class TestResolveBackend:
    def test_unknown_name_rejected(self):
        for backend in ("ramdisk", 42):
            with pytest.raises(ConfigurationError):
                SubsequenceDatabase(backend=backend)


class TestGoldenBackendParity:
    """Both backends must reproduce the golden matrix byte for byte."""

    @pytest.mark.parametrize("label", GOLDEN_LABELS)
    def test_ranked_engines_match_goldens(self, backend_db, label):
        deferred = label.endswith("-d")
        method = label[:-2] if deferred else label
        query = query_from(backend_db, 640, 48)
        backend_db.reset_cache()
        result = backend_db.search(
            query, k=5, rho=2, method=method, deferred=deferred
        )
        assert_golden(result, label, GOLDEN_DISTANCES, GOLDEN_MATCHES)

    def test_range_search_matches_goldens(self, backend_db):
        from repro.engines.base import QuerySpec
        from repro.engines.range_search import RangeSearchEngine

        query = query_from(backend_db, 640, 48)
        backend_db.reset_cache()
        result = run_engine(
            RangeSearchEngine(backend_db.index),
            query,
            QuerySpec(kind="range", epsilon=2.5, rho=2),
        )
        assert_golden(result, "range", GOLDEN_DISTANCES, GOLDEN_MATCHES)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_psm_matches_goldens(self, backend):
        db = SubsequenceDatabase(
            omega=8, features=4, buffer_fraction=0.1, backend=backend
        )
        db.insert(0, make_walk(900, seed=21))
        db.insert(1, make_walk(700, seed=22))
        db.build(psm=True)
        try:
            query = query_from(db, 200, 32)
            db.reset_cache()
            result = db.search(query, k=3, rho=1, method="psm")
            assert_golden(
                result, "psm", GOLDEN_PSM_DISTANCES, GOLDEN_PSM_MATCHES
            )
        finally:
            db.close()

    def test_normalized_parity_file_vs_mmap(self):
        file_db = build_backend_db("file")
        mmap_db = build_backend_db("mmap")
        try:
            query = query_from(file_db, 640, 48)
            for method in ("seqscan", "hlmj-wg", "ru", "ru-cost"):
                assert fingerprint(
                    file_db, query, method=method, normalize=True
                ) == fingerprint(
                    mmap_db, query, method=method, normalize=True
                )
            # The one pinned z-norm cost: ru-cost's NUM_IO on the golden
            # workload (its raw twin is GOLDEN_COUNTERS["ru-cost"]).
            assert fingerprint(file_db, query, normalize=True)[1] == 1044
        finally:
            mmap_db.close()
            file_db.close()


class TestMmapZeroCopy:
    def test_data_payloads_are_mmap_views(self, backend_db):
        if backend_db.backend != "mmap":
            pytest.skip("zero-copy claim is mmap-specific")
        pager = backend_db.pager
        data_pages = [
            pid
            for pid in range(pager.num_pages)
            if pager.kind_of(pid) == PageKind.DATA
        ]
        assert data_pages
        for pid in data_pages:
            payload = pager._payloads[pid]  # noqa: SLF001 — white-box
            assert isinstance(payload, np.ndarray)
            assert payload.base is not None  # a view, not an owning copy
            assert not payload.flags.writeable

    def test_store_arrays_are_views(self, backend_db):
        if backend_db.backend != "mmap":
            pytest.skip("zero-copy claim is mmap-specific")
        store = backend_db.store
        for sid in store.sequence_ids():
            arr = store._arrays[sid]  # noqa: SLF001 — white-box
            assert arr.base is not None
            assert not arr.flags.writeable

    def test_scrub_passes_under_mmap(self, backend_db):
        report = backend_db.verify_integrity()
        assert report["ok"], report


def test_a_rewritten_map_is_caught_on_every_read(tmp_path, monkeypatch):
    # The map is read-only, but the file it maps can still be written:
    # a page that read clean once must be checked again on the next read.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    db = SubsequenceDatabase(
        omega=16, features=4, buffer_fraction=0.1, backend="mmap"
    )
    db.insert(0, make_walk(1200, seed=31))
    db.build()
    try:
        (values_bin,) = tmp_path.glob("repro-mmap-*/values.bin")
        vpp = db.store.values_per_page
        page_id = db.store.meta(0).pages[1]
        np.testing.assert_array_equal(
            db.pager.read(page_id), db.store.peek_subsequence(0, vpp, vpp)
        )
        with open(values_bin, "r+b") as handle:
            handle.seek(vpp * 8)
            handle.write(np.float64(12345.0).tobytes())
        assert page_id in db.pager.verify_all()
        with pytest.raises(CorruptPageError):
            db.pager.read(page_id)
    finally:
        db.close()


class TestVerifyModes:
    """Every sealed read is checksum-verified, mapped or not."""

    def test_always_mode_reverifies_every_read(self):
        pager = Pager()
        values = np.arange(64, dtype=np.float64)
        page_id = pager.allocate(PageKind.DATA, values)
        pager.seal()
        np.testing.assert_array_equal(pager.read(page_id), values)
        # Tamper behind the pager's back: every read re-verifies.
        tampered = values.copy()
        tampered[0] += 1.0
        pager._payloads[page_id] = tampered  # noqa: SLF001 — white-box
        with pytest.raises(CorruptPageError):
            pager.read(page_id)

    def test_first_touch_still_verifies_first_read(self):
        pager = Pager()
        values = np.arange(64, dtype=np.float64)
        page_id = pager.allocate(PageKind.DATA, values)
        pager.seal()
        tampered = values.copy()
        tampered[0] += 1.0
        pager._payloads[page_id] = tampered  # noqa: SLF001 — white-box
        with pytest.raises(CorruptPageError):
            pager.read(page_id)

    def test_write_resets_first_touch_state(self):
        pager = Pager()
        values = np.arange(64, dtype=np.float64)
        page_id = pager.allocate(PageKind.DATA, values)
        pager.seal()
        pager.read(page_id)
        replacement = values + 2.0
        pager.write(page_id, replacement)
        tampered = replacement.copy()
        tampered[0] += 1.0
        pager._payloads[page_id] = tampered  # noqa: SLF001 — white-box
        # The read after a write verifies against the fresh checksum.
        with pytest.raises(CorruptPageError):
            pager.read(page_id)

    def test_mmap_with_injector_forces_always(self):
        # A fault injector changes nothing about verification: a mapped
        # page that read clean once is still checked on the next read.
        db = SubsequenceDatabase(
            omega=16,
            features=4,
            buffer_fraction=0.1,
            backend="mmap",
            fault_injector=FaultInjector(seed=0),
        )
        db.insert(0, make_walk(600, seed=31))
        db.build()
        try:
            page_id = db.store.meta(0).pages[0]
            values = db.pager.read(page_id).copy()
            tampered = values.copy()
            tampered[0] += 1.0
            db.pager._payloads[page_id] = tampered  # noqa: SLF001
            with pytest.raises(CorruptPageError):
                db.pager.read(page_id)
        finally:
            db.close()

    def test_mmap_corruption_detected(self):
        injector = FaultInjector.corrupt_pages([0])
        db = SubsequenceDatabase(
            omega=16,
            features=4,
            buffer_fraction=0.1,
            backend="mmap",
            fault_injector=injector,
        )
        db.insert(0, make_walk(600, seed=31))
        db.build()
        try:
            with pytest.raises(CorruptPageError):
                db.pager.read(0)
            assert 0 in db.pager.verify_all()
        finally:
            db.close()


class TestPersistenceParity:
    def test_round_trip_across_backends(self, tmp_path):
        source = build_backend_db("mmap")
        try:
            query = query_from(source, 640, 48)
            save_database(source, tmp_path / "db")
            want = fingerprint(source, query)
        finally:
            source.close()
        for backend in BACKENDS:
            reloaded = load_database(tmp_path / "db", backend=backend)
            try:
                assert fingerprint(reloaded, query) == want
                assert reloaded.verify_integrity()["ok"]
            finally:
                reloaded.close()

    def test_api_load_accepts_backend(self, tmp_path):
        source = build_backend_db("file")
        try:
            query = query_from(source, 640, 48)
            source.save(tmp_path / "db")
            want = fingerprint(source, query)
        finally:
            source.close()
        reloaded = SubsequenceDatabase.load(tmp_path / "db", backend="mmap")
        try:
            assert reloaded.backend == "mmap"
            assert fingerprint(reloaded, query) == want
        finally:
            reloaded.close()


class TestShardedParity:
    def _sharded(self, backend):
        db = ShardedDatabase(
            num_shards=2,
            policy="hash",
            omega=16,
            features=4,
            buffer_fraction=0.1,
            backend=backend,
        )
        for sid in range(4):
            db.insert(sid, make_walk(1100, seed=41 + sid))
        db.build()
        return db

    def test_sharded_file_vs_mmap_identical(self):
        file_db = self._sharded("file")
        mmap_db = self._sharded("mmap")
        try:
            query = file_db.shards[0].store.peek_subsequence(
                0, 300, 48
            ).copy()
            for normalize in (False, True):
                gold = file_db.search(
                    query, k=5, rho=2, method="ru-cost", normalize=normalize
                )
                got = mmap_db.search(
                    query, k=5, rho=2, method="ru-cost", normalize=normalize
                )
                assert [
                    (m.sid, m.start, repr(m.distance)) for m in gold.matches
                ] == [
                    (m.sid, m.start, repr(m.distance)) for m in got.matches
                ]
                assert (
                    gold.stats.page_accesses == got.stats.page_accesses
                )
        finally:
            mmap_db.close()
            file_db.close()

    def test_sharded_backend_must_be_a_name(self):
        for backend in ("ramdisk", 42, object()):
            with pytest.raises(ConfigurationError):
                ShardedDatabase(num_shards=2, backend=backend)


class TestRecoveryParity:
    def test_recover_under_mmap_matches_file(self, tmp_path):
        db = SubsequenceDatabase(omega=16, features=4, buffer_fraction=0.15)
        db.insert(0, make_walk(1200, seed=61))
        db.insert(1, make_walk(800, seed=62))
        db.build()
        root = tmp_path / "root"
        wal = create_durable(db, root, sync=False)
        db.append_sequence(9, make_walk(260, seed=76))
        with db.ingest() as session:
            session.extend(0, make_walk(90, seed=77))
            session.delete(1)
        query = db.store.peek_subsequence(9, 50, 48).copy()
        wal.close()

        file_rec, file_report = recover_database(root, sync=False)
        mmap_rec, mmap_report = recover_database(
            root, sync=False, backend="mmap"
        )
        try:
            assert file_report == mmap_report
            for method in ("seqscan", "ru", "ru-cost"):
                assert fingerprint(
                    file_rec, query, method=method
                ) == fingerprint(mmap_rec, query, method=method)
            assert mmap_rec.verify_integrity()["ok"]
        finally:
            mmap_rec.wal.close()
            file_rec.wal.close()
            mmap_rec.close()
            file_rec.close()


class TestCloseMigration:
    def test_close_migrates_to_heap_and_stays_usable(self):
        db = build_backend_db("mmap")
        query = query_from(db, 640, 48)
        before = fingerprint(db, query)
        db.close()
        after = fingerprint(db, query)
        assert before == after
        for sid in db.store.sequence_ids():
            arr = db.store._arrays[sid]  # noqa: SLF001 — white-box
            assert arr.base is None  # owns its data now
            assert not arr.flags.writeable

    def test_close_is_idempotent(self):
        db = build_backend_db("mmap")
        db.close()
        db.close()

    def test_context_manager_closes(self):
        with SubsequenceDatabase(
            omega=16, features=4, buffer_fraction=0.1, backend="mmap"
        ) as db:
            db.insert(0, make_walk(600, seed=91))
            db.build()
            query = query_from(db, 100, 32)
            db.search(query, k=3, rho=1, method="ru")
        # Exiting migrated pages to heap; the db keeps working.
        db.search(query, k=3, rho=1, method="ru")

    def test_extend_after_build_migrates_sequence(self):
        db = build_backend_db("mmap")
        try:
            old_length = db.store.length(1)
            db.extend_sequence(1, make_walk(100, seed=75))
            got = db.store.get_subsequence(1, old_length - 40, 140)
            expected = db.store.peek_full_sequence(1)[
                old_length - 40 : old_length + 100
            ]
            np.testing.assert_array_equal(np.asarray(got), expected)
            assert db.verify_integrity()["ok"]
        finally:
            db.close()

    def test_no_resource_warning_on_lifecycle(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            db = build_backend_db("mmap")
            save_database(db, tmp_path / "db")
            db.close()
            reloaded = load_database(tmp_path / "db", backend="mmap")
            reloaded.close()
