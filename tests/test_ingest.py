"""Tests for crash-safe online ingest (repro.ingest).

Covers the session lifecycle (append/extend/delete, group commit,
abort), durable-root creation, checkpointing, recovery, and the two
regressions the tentpole is most exposed to: stale buffer-pool pages
after an in-place extend, and NUM_IO drift on databases that merely
*attach* the ingest machinery without mutating anything.
"""

import numpy as np
import pytest

from repro import SubsequenceDatabase
from repro.exceptions import (
    ConfigurationError,
    IndexNotBuiltError,
    PageError,
    SequenceNotFoundError,
    UsageError,
)
from repro.ingest import (
    CHECKPOINT_NAME,
    WAL_NAME,
    checkpoint_database,
    create_durable,
    recover_database,
)
from tests.conftest import make_walk


@pytest.fixture()
def built_db():
    db = SubsequenceDatabase(omega=16, features=4, buffer_fraction=0.15)
    db.insert(0, make_walk(1200, seed=61))
    db.insert(1, make_walk(800, seed=62))
    db.build()
    return db


@pytest.fixture()
def durable(built_db, tmp_path):
    root = tmp_path / "root"
    wal = create_durable(built_db, root, sync=False)
    yield built_db, root
    wal.close()


def fingerprint(db, query, k=5, rho=2, method="ru"):
    """Exact digest: matches, distances, and NUM_IO for one query."""
    db.reset_cache()
    result = db.search(query, k=k, rho=rho, method=method)
    return (
        [(m.sid, m.start, repr(m.distance)) for m in result.matches],
        result.stats.page_accesses,
    )


def seqscan_matches(db, query, k=5, rho=2):
    db.reset_cache()
    result = db.search(query, k=k, rho=rho, method="seqscan")
    return [(m.sid, m.start, repr(m.distance)) for m in result.matches]


class TestSessionLifecycle:
    def test_append_is_searchable(self, durable):
        db, _ = durable
        new = make_walk(200, seed=63)
        lsn = db.append_sequence(9, new)
        assert lsn is not None and lsn == db.wal.last_lsn
        query = new[40:88].copy()
        matches, _ = fingerprint(db, query)
        assert matches[0][0] == 9
        assert matches == seqscan_matches(db, query)

    def test_extend_makes_new_windows_searchable(self, durable):
        db, _ = durable
        tail = make_walk(150, seed=64) + float(
            db.store.peek_full_sequence(1)[-1]
        )
        old_length = db.store.length(1)
        db.extend_sequence(1, tail)
        assert db.store.length(1) == old_length + 150
        # A query inside the appended region must be found exactly.
        query = db.store.peek_subsequence(1, old_length + 30, 48).copy()
        matches, _ = fingerprint(db, query)
        assert matches[0] == (1, old_length + 30, repr(0.0))

    def test_delete_removes_all_trace(self, durable):
        db, _ = durable
        victim = db.store.peek_subsequence(1, 100, 48).copy()
        db.delete_sequence(1)
        assert not db.store.has_sequence(1)
        matches, _ = fingerprint(db, victim)
        assert all(sid != 1 for sid, _, _ in matches)
        assert matches == seqscan_matches(db, victim)
        assert db.verify_integrity()["ok"]

    def test_grouped_session_commits_once(self, durable):
        db, _ = durable
        with db.ingest() as session:
            session.append(7, make_walk(120, seed=65))
            session.extend(7, make_walk(40, seed=66))
            session.delete(1)
            assert session.operations == 3
        # 3 intent records + 1 commit marker, one commit LSN.
        assert session.commit_lsn == 4
        assert db.wal.record_count == 4

    def test_session_abort_rolls_the_wal_back(self, durable):
        db, _ = durable
        with pytest.raises(PageError):
            with db.ingest() as session:
                session.append(7, make_walk(60, seed=67))
                session.append(0, make_walk(60, seed=68))  # duplicate sid
        assert session.commit_lsn is None
        assert db.wal.record_count == 0  # intent records rolled back
        assert db.wal.last_lsn == 0

    def test_closed_session_refuses_further_use(self, durable):
        db, _ = durable
        session = db.ingest()
        session.commit()
        with pytest.raises(UsageError):
            session.append(7, make_walk(60, seed=69))
        with pytest.raises(UsageError):
            session.commit()
        session.abort()  # no-op after close

    def test_validation_happens_before_logging(self, durable):
        db, _ = durable
        with pytest.raises(PageError):
            db.append_sequence(0, make_walk(60, seed=70))  # sid taken
        with pytest.raises(SequenceNotFoundError):
            db.extend_sequence(99, make_walk(60, seed=71))
        with pytest.raises(SequenceNotFoundError):
            db.delete_sequence(99)
        with pytest.raises(PageError):
            db.append_sequence(8, [float("nan")] * 32)
        assert db.wal.record_count == 0  # nothing leaked into the log

    def test_ingest_requires_build(self):
        db = SubsequenceDatabase(omega=16, features=4)
        db.insert(0, make_walk(300, seed=72))
        with pytest.raises(IndexNotBuiltError):
            db.ingest()

    def test_walless_session_works_in_memory(self, built_db):
        built_db.append_sequence(5, make_walk(100, seed=73))
        assert built_db.store.has_sequence(5)
        assert built_db.wal is None


class TestDurableRoot:
    def test_create_durable_lays_out_checkpoint_and_wal(self, durable):
        db, root = durable
        assert (root / CHECKPOINT_NAME / "meta.json").exists()
        assert (root / WAL_NAME).exists()
        assert db.durable_root == root

    def test_create_durable_requires_build(self, tmp_path):
        db = SubsequenceDatabase(omega=16, features=4)
        db.insert(0, make_walk(300, seed=74))
        with pytest.raises(ConfigurationError):
            create_durable(db, tmp_path / "root")

    def test_checkpoint_requires_durable_root(self, built_db):
        with pytest.raises(UsageError):
            built_db.checkpoint()

    def test_attaching_wal_does_not_change_num_io(self, built_db, tmp_path):
        """Regression: ingest plumbing must be invisible until used.

        The golden NUM_IO pins elsewhere in the suite guard the
        unmutated engines; this guards the attach step itself.
        """
        query = built_db.store.peek_subsequence(0, 321, 48).copy()
        before = {
            method: fingerprint(built_db, query, method=method)
            for method in ("seqscan", "hlmj", "hlmj-wg", "ru", "ru-cost")
        }
        wal = create_durable(built_db, tmp_path / "root", sync=False)
        after = {
            method: fingerprint(built_db, query, method=method)
            for method in before
        }
        wal.close()
        assert before == after


class TestBufferStaleness:
    def test_extend_invalidates_cached_pages(self, durable):
        """Regression: an in-place page rewrite must evict stale copies.

        ``extend`` rewrites the sequence's partially filled last page.
        If the buffer pool kept serving the old cached copy, reads
        through the pool would silently diverge from the pager truth.
        """
        db, _ = durable
        old_length = db.store.length(1)
        # Fault the tail pages into the pool.
        db.store.get_subsequence(1, old_length - 40, 40)
        db.extend_sequence(1, make_walk(100, seed=75))
        got = db.store.get_subsequence(1, old_length - 40, 140)
        expected = db.store.peek_full_sequence(1)[
            old_length - 40 : old_length + 100
        ]
        np.testing.assert_array_equal(np.asarray(got), expected)

    def test_delete_evicts_freed_pages(self, durable):
        db, _ = durable
        db.store.get_subsequence(1, 0, 200)  # warm the pool
        db.delete_sequence(1)
        assert db.verify_integrity()["ok"]
        with pytest.raises(SequenceNotFoundError):
            db.store.get_subsequence(1, 0, 10)


class TestRecovery:
    def run_some_sessions(self, db):
        db.append_sequence(9, make_walk(260, seed=76))
        with db.ingest() as session:
            session.extend(0, make_walk(90, seed=77))
            session.delete(1)

    def test_recovered_db_is_byte_identical(self, durable):
        db, root = durable
        self.run_some_sessions(db)
        query = db.store.peek_subsequence(9, 50, 48).copy()
        db.wal.close()
        recovered, report = recover_database(root, sync=False)
        assert report.checkpoint_lsn == 0
        assert report.replayed_batches == 2
        assert report.replayed_records == 3
        assert report.effective_lsn == db.wal.last_lsn
        for method in ("seqscan", "hlmj", "hlmj-wg", "ru", "ru-cost"):
            assert fingerprint(recovered, query, method=method) == fingerprint(
                db, query, method=method
            )
        assert recovered.verify_integrity()["ok"]
        recovered.wal.close()

    def test_each_one_op_append_replays_as_one_batch(self, durable):
        db, root = durable
        for i in range(8):
            db.append_sequence(100 + i, make_walk(96, seed=80 + i))
        db.wal.close()
        recovered, report = recover_database(root, sync=False)
        assert report.replayed_records == 8
        assert report.replayed_batches == 8
        recovered.wal.close()

    def test_recovery_is_idempotent(self, durable):
        db, root = durable
        self.run_some_sessions(db)
        db.wal.close()
        first, report_a = recover_database(root, sync=False)
        first.wal.close()
        second, report_b = recover_database(root, sync=False)
        assert report_a == report_b
        query = first.store.peek_subsequence(9, 50, 48).copy()
        assert fingerprint(first, query) == fingerprint(second, query)
        second.wal.close()

    def test_checkpoint_truncates_and_recovery_replays_nothing(self, durable):
        db, root = durable
        self.run_some_sessions(db)
        watermark = db.checkpoint()
        assert watermark == db.wal.last_lsn
        assert db.wal.record_count == 0
        assert db.wal.base_lsn == watermark
        query = db.store.peek_subsequence(9, 50, 48).copy()
        live = fingerprint(db, query)
        db.wal.close()
        recovered, report = recover_database(root, sync=False)
        assert report.checkpoint_lsn == watermark
        assert report.replayed_records == 0
        assert report.effective_lsn == watermark
        assert fingerprint(recovered, query) == live
        recovered.wal.close()

    def test_ingest_resumes_after_recovery(self, durable):
        db, root = durable
        self.run_some_sessions(db)
        db.wal.close()
        recovered, _ = recover_database(root, sync=False)
        lsn = recovered.append_sequence(11, make_walk(120, seed=78))
        assert lsn == recovered.wal.last_lsn
        query = recovered.store.peek_subsequence(11, 10, 48).copy()
        matches, _ = fingerprint(recovered, query)
        assert matches[0][0] == 11
        recovered.wal.close()

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            recover_database(tmp_path / "nope", sync=False)


class TestPsmIngest:
    @pytest.fixture()
    def psm_durable(self, tmp_path):
        db = SubsequenceDatabase(omega=8, features=4, buffer_fraction=0.2)
        db.insert(0, make_walk(500, seed=81))
        db.insert(1, make_walk(400, seed=82))
        db.build(psm=True)
        root = tmp_path / "root"
        wal = create_durable(db, root, sync=False)
        yield db, root
        wal.close()

    def psm_fingerprint(self, db, query):
        db.reset_cache()
        result = db.search(query, k=3, rho=1, method="psm")
        return (
            [(m.sid, m.start, repr(m.distance)) for m in result.matches],
            result.stats.page_accesses,
        )

    def test_sliding_index_is_maintained_and_recovered(self, psm_durable):
        db, root = psm_durable
        db.append_sequence(5, make_walk(160, seed=83))
        with db.ingest() as session:
            session.extend(0, make_walk(60, seed=84))
            session.delete(1)
        query = db.store.peek_subsequence(5, 30, 24).copy()
        live = self.psm_fingerprint(db, query)
        assert live[0][0][0] == 5
        db.wal.close()
        recovered, _ = recover_database(root, psm=True, sync=False)
        assert self.psm_fingerprint(recovered, query) == live
        assert recovered.verify_integrity()["ok"]
        recovered.wal.close()
