"""Tests for the write-ahead log (repro.storage.wal).

The WAL's one contract is the committed-prefix guarantee: after any
crash (torn frame, lost tail, interrupted truncate) reopening the log
yields exactly the records covered by the last intact commit marker —
never a partial session, never a spliced one.  These tests exercise the
framing, the open-time tail discard, rollback, truncation, and the
fault/crash plumbing directly; end-to-end recovery is covered by
``test_ingest.py`` and the chaos suite.
"""

import os
import struct

import pytest

from repro.core.clock import FakeClock
from repro.exceptions import TransientIOError, WalCorruptError, WalError
from repro.storage.buffer import RetryPolicy
from repro.storage.wal import (
    WAL_MAGIC,
    SimulatedCrash,
    WriteAheadLog,
    _scan_bytes,
)


@pytest.fixture()
def wal_path(tmp_path):
    return tmp_path / "wal.log"


def committed_ops(wal):
    return [
        record.op
        for batch in wal.replay()
        for record in batch.records
    ]


class TestFraming:
    def test_fresh_log_has_magic_and_header(self, wal_path):
        with WriteAheadLog(wal_path, sync=False) as wal:
            assert wal.base_lsn == 0
            assert wal.last_lsn == 0
            assert wal.record_count == 0
        raw = wal_path.read_bytes()
        assert raw.startswith(WAL_MAGIC)
        assert _scan_bytes(raw).records == []

    def test_lsns_are_monotonic_from_base(self, wal_path):
        with WriteAheadLog(wal_path, sync=False) as wal:
            assert wal.append("append", {"sid": 1, "values": [1.0]}) == 1
            assert wal.append("extend", {"sid": 1, "values": [2.0]}) == 2
            assert wal.commit() == 3
            assert wal.last_lsn == 3
            assert wal.record_count == 3

    def test_unknown_op_is_rejected(self, wal_path):
        with WriteAheadLog(wal_path, sync=False) as wal:
            with pytest.raises(WalError, match="unknown WAL op"):
                wal.append("compact", {})

    def test_closed_log_refuses_appends(self, wal_path):
        wal = WriteAheadLog(wal_path, sync=False)
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(WalError, match="closed"):
            wal.append("append", {"sid": 1, "values": [1.0]})

    def test_float_values_round_trip_exactly(self, wal_path):
        values = [0.1, -1e-17, 2.0**53 + 0.0, 1.7976931348623157e308]
        with WriteAheadLog(wal_path, sync=False) as wal:
            wal.append("append", {"sid": 7, "values": values})
            wal.commit()
            (batch,) = list(wal.replay())
        assert batch.records[0].fields["values"] == values


class TestTailDiscard:
    def make_log(self, path):
        wal = WriteAheadLog(path, sync=False)
        wal.append("append", {"sid": 1, "values": [1.0, 2.0]})
        wal.append("extend", {"sid": 1, "values": [3.0]})
        wal.commit()
        return wal

    def test_garbage_tail_is_discarded_on_open(self, wal_path):
        self.make_log(wal_path).close()
        with open(wal_path, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef" * 3)
        wal = WriteAheadLog(wal_path, sync=False)
        assert wal.torn_bytes_discarded == 12
        assert committed_ops(wal) == ["append", "extend"]
        wal.close()

    def test_torn_frame_is_discarded_on_open(self, wal_path):
        wal = self.make_log(wal_path)
        wal.append("delete", {"sid": 1})
        wal.commit()
        wal.close()
        raw = wal_path.read_bytes()
        wal_path.write_bytes(raw[:-5])  # tear the final commit frame
        reopened = WriteAheadLog(wal_path, sync=False)
        # The torn commit takes its delete record with it.
        assert committed_ops(reopened) == ["append", "extend"]
        reopened.close()

    def test_intact_uncommitted_records_are_dropped_too(self, wal_path):
        wal = self.make_log(wal_path)
        wal.append("delete", {"sid": 1})  # never committed
        wal.close()
        reopened = WriteAheadLog(wal_path, sync=False)
        assert reopened.last_lsn == 3
        assert committed_ops(reopened) == ["append", "extend"]
        # The next session must not inherit the dropped record's LSN gap.
        assert reopened.append("append", {"sid": 2, "values": [1.0]}) == 4
        reopened.close()

    def test_corrupt_record_crc_ends_the_valid_prefix(self, wal_path):
        wal = self.make_log(wal_path)
        wal.close()
        raw = bytearray(wal_path.read_bytes())
        raw[-3] ^= 0xFF  # flip a payload byte inside the commit frame
        wal_path.write_bytes(bytes(raw))
        reopened = WriteAheadLog(wal_path, sync=False)
        assert reopened.torn_bytes_discarded > 0
        assert committed_ops(reopened) == []
        reopened.close()

    def test_corrupt_magic_raises(self, wal_path):
        wal_path.write_bytes(b"NOTAWAL!!\n" + b"\x00" * 32)
        with pytest.raises(WalCorruptError, match="magic"):
            WriteAheadLog(wal_path, sync=False)

    def test_corrupt_header_raises(self, wal_path):
        wal_path.write_bytes(WAL_MAGIC + struct.pack("<II", 4, 0) + b"junk")
        with pytest.raises(WalCorruptError, match="header"):
            WriteAheadLog(wal_path, sync=False)

    def test_non_monotonic_lsn_ends_the_prefix(self, wal_path):
        wal = self.make_log(wal_path)
        wal.close()
        first = WriteAheadLog(wal_path, sync=False)
        raw_before = wal_path.read_bytes()
        first.close()
        # Duplicate the whole committed segment: the second copy's LSNs
        # restart at 1, which is non-monotonic after LSN 3.
        header_end = raw_before.index(b'{"lsn"')
        wal_path.write_bytes(raw_before + raw_before[header_end - 8 :])
        reopened = WriteAheadLog(wal_path, sync=False)
        assert committed_ops(reopened) == ["append", "extend"]
        reopened.close()


class TestRollbackAndTruncate:
    def test_rollback_drops_only_the_uncommitted_tail(self, wal_path):
        wal = WriteAheadLog(wal_path, sync=False)
        wal.append("append", {"sid": 1, "values": [1.0]})
        wal.commit()
        wal.append("delete", {"sid": 1})
        wal.append("append", {"sid": 2, "values": [2.0]})
        assert wal.rollback() == 2
        assert wal.last_lsn == 2
        assert committed_ops(wal) == ["append"]
        assert wal.rollback() == 0  # nothing left to drop
        wal.close()

    def test_truncate_advances_base_lsn(self, wal_path):
        wal = WriteAheadLog(wal_path, sync=False)
        wal.append("append", {"sid": 1, "values": [1.0]})
        watermark = wal.commit()
        wal.truncate(watermark)
        assert wal.base_lsn == watermark
        assert wal.record_count == 0
        assert list(wal.replay()) == []
        # LSNs continue above the new base.
        assert wal.append("append", {"sid": 2, "values": [1.0]}) == watermark + 1
        wal.close()

    def test_truncate_survives_reopen(self, wal_path):
        wal = WriteAheadLog(wal_path, sync=False)
        wal.append("append", {"sid": 1, "values": [1.0]})
        wal.truncate(wal.commit())
        wal.close()
        reopened = WriteAheadLog(wal_path, sync=False)
        assert reopened.base_lsn == 2
        assert reopened.last_lsn == 2
        reopened.close()

    def test_truncate_ahead_of_tail_is_rejected(self, wal_path):
        with WriteAheadLog(wal_path, sync=False) as wal:
            with pytest.raises(WalError, match="ahead of the log tail"):
                wal.truncate(5)


class TestFaultPlumbing:
    def test_transient_failures_are_retried(self, wal_path):
        attempts = {"n": 0}

        def hook(point):
            if point == "wal.append":
                attempts["n"] += 1
                if attempts["n"] < 3:
                    raise TransientIOError("flaky disk")

        wal = WriteAheadLog(
            wal_path,
            sync=False,
            retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.01),
            clock=FakeClock(),
        )
        wal.crash_hook = hook
        wal.append("append", {"sid": 1, "values": [1.0]})
        assert attempts["n"] == 3
        wal.close()

    def test_exhausted_retries_raise(self, wal_path):
        def hook(point):
            if point == "wal.append":
                raise TransientIOError("dead disk")

        wal = WriteAheadLog(
            wal_path,
            sync=False,
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.0),
        )
        wal.crash_hook = hook
        with pytest.raises(TransientIOError):
            wal.append("append", {"sid": 1, "values": [1.0]})
        wal.close()

    def test_append_after_a_failed_one_goes_through(self, wal_path):
        wal = WriteAheadLog(
            wal_path, sync=False, retry_policy=RetryPolicy(max_attempts=1)
        )
        boom = {"on": True}

        def hook(point):
            if boom["on"] and point == "wal.append":
                raise TransientIOError("flaky disk")

        wal.crash_hook = hook
        with pytest.raises(TransientIOError):
            wal.append("append", {"sid": 1, "values": [1.0]})
        # Nothing remembers the failure: once the disk recovers, the
        # next append is written.
        boom["on"] = False
        wal.append("append", {"sid": 2, "values": [2.0]})
        wal.commit()
        wal.close()
        reopened = WriteAheadLog(wal_path, sync=False)
        assert committed_ops(reopened) == ["append"]
        reopened.close()

    def test_torn_crash_writes_a_partial_frame(self, wal_path):
        wal = WriteAheadLog(wal_path, sync=False)
        wal.append("append", {"sid": 1, "values": [1.0]})
        wal.commit()
        clean_size = os.path.getsize(wal_path)

        def hook(point):
            if point == "wal.append.write":
                raise SimulatedCrash(point, torn_fraction=0.5)

        wal.crash_hook = hook
        with pytest.raises(SimulatedCrash):
            wal.append("append", {"sid": 2, "values": [2.0, 3.0]})
        wal.close()
        torn_size = os.path.getsize(wal_path)
        assert torn_size > clean_size  # some bytes of the frame landed
        reopened = WriteAheadLog(wal_path, sync=False)
        assert reopened.torn_bytes_discarded == torn_size - clean_size
        assert committed_ops(reopened) == ["append"]
        assert os.path.getsize(wal_path) == clean_size
        reopened.close()

    def test_crash_during_truncate_leaves_old_or_new_log(self, wal_path):
        wal = WriteAheadLog(wal_path, sync=False)
        wal.append("append", {"sid": 1, "values": [1.0]})
        watermark = wal.commit()

        def hook(point):
            if point == "wal.truncate":
                raise SimulatedCrash(point)

        wal.crash_hook = hook
        with pytest.raises(SimulatedCrash):
            wal.truncate(watermark)
        wal.close()
        assert not wal_path.with_name("wal.log.tmp").exists()
        # The replace never happened: the old log is intact.
        reopened = WriteAheadLog(wal_path, sync=False)
        assert reopened.base_lsn == 0
        assert committed_ops(reopened) == ["append"]
        reopened.close()
