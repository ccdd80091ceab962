"""Tests for database save/load (repro.storage.persistence)."""

import functools
import hashlib
import json
import zipfile

import numpy as np
import pytest

from repro import SubsequenceDatabase, api
from repro.exceptions import (
    ConfigurationError,
    IntegrityError,
    PartialSaveError,
    SequenceNotFoundError,
)
from repro.index.builder import build_index
from repro.storage import persistence
from repro.storage.integrity import bytes_checksum, file_checksum
from repro.storage.persistence import MANIFEST_NAME
from tests.conftest import build_golden_db, make_walk


@pytest.fixture()
def built_db():
    db = SubsequenceDatabase(omega=16, features=4, buffer_fraction=0.1)
    db.insert(0, make_walk(1500, seed=31))
    db.insert(5, make_walk(900, seed=32))
    db.build()
    return db


class TestRoundTrip:
    def test_identical_results_and_io(self, built_db, tmp_path):
        query = built_db.store.peek_subsequence(0, 321, 48).copy()
        built_db.reset_cache()
        original = built_db.search(query, k=5, rho=2, method="ru-cost")

        built_db.save(tmp_path / "db")
        loaded = SubsequenceDatabase.load(tmp_path / "db")
        loaded.reset_cache()
        reloaded = loaded.search(query, k=5, rho=2, method="ru-cost")

        assert [m.key() for m in reloaded.matches] == [
            m.key() for m in original.matches
        ]
        assert [m.distance for m in reloaded.matches] == pytest.approx(
            [m.distance for m in original.matches]
        )
        # Page-for-page reconstruction: identical I/O accounting.
        assert reloaded.stats.page_accesses == original.stats.page_accesses
        assert reloaded.stats.heap_pops == original.stats.heap_pops

    def test_tree_invariants_after_load(self, built_db, tmp_path):
        built_db.save(tmp_path / "db")
        loaded = SubsequenceDatabase.load(tmp_path / "db")
        loaded.index.tree.check_invariants()
        assert len(loaded.index.tree) == len(built_db.index.tree)

    def test_values_round_trip(self, built_db, tmp_path):
        built_db.save(tmp_path / "db")
        loaded = SubsequenceDatabase.load(tmp_path / "db")
        for sid in (0, 5):
            np.testing.assert_array_equal(
                loaded.store.peek_full_sequence(sid),
                built_db.store.peek_full_sequence(sid),
            )

    def test_configuration_round_trip(self, built_db, tmp_path):
        built_db.save(tmp_path / "db")
        loaded = SubsequenceDatabase.load(tmp_path / "db")
        assert loaded.omega == built_db.omega
        assert loaded.features == built_db.features
        assert loaded.p == built_db.p
        assert loaded.describe() == built_db.describe()

    def test_load_inflates_each_stored_array_once(
        self, built_db, tmp_path, monkeypatch
    ):
        # NpzFile.__getitem__ re-reads and decompresses the whole member
        # on every call; indexing the archive inside the per-entry loop
        # made load quadratic (12 663 calls on a 40k-point save).
        built_db.save(tmp_path / "db")
        stored = 0
        for name in ("values.npz", "index.npz"):
            with np.load(tmp_path / "db" / name) as data:
                stored += len(data.files)
                npz_type = type(data)
        calls = []
        inflate = npz_type.__getitem__

        def counting(archive, key):
            calls.append(key)
            return inflate(archive, key)

        monkeypatch.setattr(npz_type, "__getitem__", counting)
        SubsequenceDatabase.load(tmp_path / "db")
        assert 0 < len(calls) <= stored

    def test_load_with_psm_rebuilds_sliding_index(self, tmp_path):
        db = SubsequenceDatabase(omega=8, features=4)
        db.insert(0, make_walk(400, seed=33))
        db.build()
        db.save(tmp_path / "db")
        loaded = SubsequenceDatabase.load(tmp_path / "db", psm=True)
        query = loaded.store.peek_subsequence(0, 50, 17).copy()
        reference = loaded.search(query, k=3, rho=1, method="ru")
        psm = loaded.search(query, k=3, rho=1, method="psm")
        assert [m.distance for m in psm.matches] == pytest.approx(
            [m.distance for m in reference.matches]
        )


def _index_digest(db, directory) -> str:
    """sha256 over every ``index.npz`` array: name, dtype, shape, bytes.

    Arrays, not file bytes: ``np.savez_compressed`` stamps zip times.
    """
    db.save(directory)
    digest = hashlib.sha256()
    with np.load(directory / "index.npz") as data:
        for name in sorted(data.files):
            array = data[name]
            digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TestTreeShapeGolden:
    """The golden database's saved tree, pinned array for array.

    Every R* decision (choose-subtree, split, forced reinsert, condense,
    root growth and shrink, STR packing) and its tie-breaks shows up in
    which rows land on which pages, so any drift changes a digest.
    """

    def test_bulk_build(self, tmp_path):
        assert _index_digest(build_golden_db(), tmp_path / "db") == (
            "1a0396821bc30c551c3c9d4b11bc83877ffc07f2a92aa49e7a1001612dbbd754"
        )

    def test_insert_build(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            api, "build_index", functools.partial(build_index, bulk=False)
        )
        assert _index_digest(build_golden_db(), tmp_path / "db") == (
            "ff0e35dc6416a4925fa255cff7f287e279e417d954dcf3f2e2ce8b78223c1b04"
        )

    def test_after_append_extend_delete(self, tmp_path):
        db = build_golden_db()
        db.append_sequence(2, make_walk(700, seed=13))
        db.extend_sequence(0, make_walk(300, seed=14))
        db.delete_sequence(1)
        db.index.tree.check_invariants()
        assert _index_digest(db, tmp_path / "db") == (
            "94133b38b10e160835e35a2aa1c8e89b9a8c5b4c9192ff083b28abe9194bef5f"
        )

    def test_small_pages_insert_build_and_ingest(self, tmp_path, monkeypatch):
        # Six entries per node: a four-level tree whose inserts split and
        # reinsert at every level, and whose delete condenses.
        monkeypatch.setattr(
            api, "build_index", functools.partial(build_index, bulk=False)
        )
        db = SubsequenceDatabase(omega=16, features=4, page_size=512)
        db.insert(0, make_walk(3000, seed=11))
        db.insert(1, make_walk(2200, seed=12))
        db.build()
        db.append_sequence(2, make_walk(700, seed=13))
        db.delete_sequence(1)
        db.index.tree.check_invariants()
        assert db.index.tree.height >= 4
        assert _index_digest(db, tmp_path / "db") == (
            "656eedc40ce5a2d2fcc95f6d98f4457f9d935db45c60c76ced7ea8410a00454a"
        )


class TestErrors:
    def test_save_before_build_rejected(self, tmp_path):
        db = SubsequenceDatabase(omega=16, features=4)
        db.insert(0, make_walk(200, seed=1))
        with pytest.raises(ConfigurationError):
            db.save(tmp_path / "db")

    def test_unknown_format_version_rejected(self, built_db, tmp_path):
        built_db.save(tmp_path / "db")
        meta_path = tmp_path / "db" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError):
            SubsequenceDatabase.load(tmp_path / "db")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SubsequenceDatabase.load(tmp_path / "nonexistent")

    def test_directory_without_manifest_or_meta(self, tmp_path):
        (tmp_path / "db").mkdir()
        (tmp_path / "db" / "readme.txt").write_text("not a database")
        with pytest.raises(FileNotFoundError):
            SubsequenceDatabase.load(tmp_path / "db")


def _rewrite_meta(directory, meta):
    """Rewrite meta.json and keep the MANIFEST checksum consistent,
    simulating damage that a naive length/CRC check would miss."""
    meta_bytes = json.dumps(meta).encode()
    (directory / "meta.json").write_bytes(meta_bytes)
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    manifest["meta_crc32"] = bytes_checksum(meta_bytes)
    manifest["meta_bytes"] = len(meta_bytes)
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest))


class TestCorruptionDetection:
    """Round-trip tests against deliberately damaged save directories."""

    @pytest.fixture()
    def saved(self, built_db, tmp_path):
        built_db.save(tmp_path / "db")
        return tmp_path / "db"

    def test_truncated_values_file(self, saved):
        values = saved / "values.npz"
        data = values.read_bytes()
        values.write_bytes(data[: len(data) // 2])
        with pytest.raises(PartialSaveError, match="truncated"):
            SubsequenceDatabase.load(saved)

    def test_bit_flip_in_index_file(self, saved):
        index = saved / "index.npz"
        data = bytearray(index.read_bytes())
        data[len(data) // 2] ^= 0x10
        index.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match="checksum"):
            SubsequenceDatabase.load(saved)

    def test_missing_values_file(self, saved):
        (saved / "values.npz").unlink()
        with pytest.raises(PartialSaveError, match="missing"):
            SubsequenceDatabase.load(saved)

    def test_missing_manifest_is_partial_save(self, saved):
        (saved / MANIFEST_NAME).unlink()
        with pytest.raises(PartialSaveError, match="MANIFEST"):
            SubsequenceDatabase.load(saved)

    def test_edited_meta_fails_manifest_checksum(self, saved):
        meta_path = saved / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["files"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(IntegrityError, match="meta.json"):
            SubsequenceDatabase.load(saved)

    def test_meta_without_file_checksums(self, saved):
        meta = json.loads((saved / "meta.json").read_text())
        del meta["files"]
        _rewrite_meta(saved, meta)
        with pytest.raises(IntegrityError, match="no checksum"):
            SubsequenceDatabase.load(saved)

    def test_missing_sequence_array(self, saved):
        # Drop one sequence's array from values.npz, keeping every
        # checksum consistent: a structural hole, not file damage.
        with np.load(saved / "values.npz") as data:
            arrays = {name: data[name] for name in data.files}
        del arrays["sid_5"]
        np.savez_compressed(saved / "values.npz", **arrays)
        meta = json.loads((saved / "meta.json").read_text())
        del meta["array_shapes"]["values.npz"]["sid_5"]
        meta["files"]["values.npz"] = {
            "crc32": file_checksum(saved / "values.npz"),
            "bytes": (saved / "values.npz").stat().st_size,
        }
        _rewrite_meta(saved, meta)
        with pytest.raises(SequenceNotFoundError, match="sid_5"):
            SubsequenceDatabase.load(saved)

    def test_array_missing_from_shape_manifest(self, saved):
        # Same hole, but the shape manifest still records the array:
        # caught earlier, as a manifest violation.
        with np.load(saved / "values.npz") as data:
            arrays = {name: data[name] for name in data.files}
        del arrays["sid_5"]
        np.savez_compressed(saved / "values.npz", **arrays)
        meta = json.loads((saved / "meta.json").read_text())
        meta["files"]["values.npz"] = {
            "crc32": file_checksum(saved / "values.npz"),
            "bytes": (saved / "values.npz").stat().st_size,
        }
        _rewrite_meta(saved, meta)
        with pytest.raises(IntegrityError, match="sid_5"):
            SubsequenceDatabase.load(saved)

    def test_wrong_array_shape_detected(self, saved):
        with np.load(saved / "values.npz") as data:
            arrays = {name: data[name] for name in data.files}
        arrays["sid_5"] = arrays["sid_5"][:-7]
        np.savez_compressed(saved / "values.npz", **arrays)
        meta = json.loads((saved / "meta.json").read_text())
        meta["files"]["values.npz"] = {
            "crc32": file_checksum(saved / "values.npz"),
            "bytes": (saved / "values.npz").stat().st_size,
        }
        _rewrite_meta(saved, meta)
        with pytest.raises(IntegrityError, match="shape"):
            SubsequenceDatabase.load(saved)

    def test_unreadable_zip_member(self, saved):
        # Valid length and headers are not trusted: the whole-file CRC
        # runs before zipfile ever opens the archive.
        with zipfile.ZipFile(saved / "values.npz") as archive:
            names = archive.namelist()
        assert names  # sanity
        data = bytearray((saved / "values.npz").read_bytes())
        data[-10] ^= 0xFF
        (saved / "values.npz").write_bytes(bytes(data))
        with pytest.raises(IntegrityError):
            SubsequenceDatabase.load(saved)


class TestInconsistentColumns:
    """``index.npz`` arrays that pass every file checksum but that no
    save could have written: load refuses them by name."""

    @pytest.fixture()
    def load_doctored(self, built_db, tmp_path):
        path = tmp_path / "db"
        built_db.save(path)

        def load(doctor):
            meta = persistence._verify_on_disk(path)
            values = persistence._load_npz(path, meta, "values.npz")
            index = {
                name: array.copy()
                for name, array in persistence._load_npz(
                    path, meta, "index.npz"
                ).items()
            }
            doctor(index)
            return persistence._reconstruct(
                path, meta, values, index, psm=False, backend="file"
            )

        return load

    def test_undoctored_columns_load(self, load_doctored):
        db = load_doctored(lambda index: None)
        db.index.tree.check_invariants()

    @pytest.mark.parametrize(
        "column",
        ["lows", "highs", "children", "record_sids", "record_windows"],
    )
    def test_column_rows_differ_from_node_counts(self, load_doctored, column):
        def doctor(index):
            index[column] = index[column][:-1]

        with pytest.raises(IntegrityError, match=f"{column} has"):
            load_doctored(doctor)

    def test_node_counts_differ_from_column_rows(self, load_doctored):
        def doctor(index):
            index["node_counts"][-1] += 1

        with pytest.raises(IntegrityError, match="node_counts sums to"):
            load_doctored(doctor)

    def test_node_arrays_differ_in_length(self, load_doctored):
        def doctor(index):
            index["node_levels"] = index["node_levels"][:-1]

        with pytest.raises(IntegrityError, match="disagree"):
            load_doctored(doctor)

    def test_leaf_row_with_a_child_page(self, load_doctored):
        def doctor(index):
            index["children"][np.flatnonzero(index["children"] < 0)[0]] = 0

        with pytest.raises(IntegrityError, match="leaf row with a child"):
            load_doctored(doctor)

    def test_internal_row_without_a_child_page(self, load_doctored):
        def doctor(index):
            index["children"][np.flatnonzero(index["children"] >= 0)[0]] = -1

        with pytest.raises(IntegrityError, match="internal row without"):
            load_doctored(doctor)

    def test_leaf_row_highs_differ_from_lows(self, load_doctored):
        def doctor(index):
            index["highs"][np.flatnonzero(index["children"] < 0)[0]] += 1.0

        with pytest.raises(IntegrityError, match="highs differ"):
            load_doctored(doctor)


class TestAtomicSave:
    def test_refuses_to_clobber_foreign_directory(self, built_db, tmp_path):
        target = tmp_path / "precious"
        target.mkdir()
        (target / "thesis.tex").write_text("years of work")
        with pytest.raises(ConfigurationError, match="refusing"):
            built_db.save(target)
        assert (target / "thesis.tex").read_text() == "years of work"

    def test_refuses_file_target(self, built_db, tmp_path):
        target = tmp_path / "db"
        target.write_text("a file, not a directory")
        with pytest.raises(ConfigurationError):
            built_db.save(target)

    def test_overwrites_existing_database(self, built_db, tmp_path):
        target = tmp_path / "db"
        built_db.save(target)
        built_db.save(target)  # second save replaces the first
        loaded = SubsequenceDatabase.load(target)
        assert loaded.store.sequence_ids() == built_db.store.sequence_ids()

    def test_save_into_empty_directory(self, built_db, tmp_path):
        target = tmp_path / "db"
        target.mkdir()
        built_db.save(target)
        SubsequenceDatabase.load(target)

    def test_failed_save_cleans_temp_and_keeps_old(
        self, built_db, tmp_path, monkeypatch
    ):
        target = tmp_path / "db"
        built_db.save(target)
        before = sorted(p.name for p in tmp_path.iterdir())

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", explode)
        with pytest.raises(OSError):
            built_db.save(target)
        # No temp litter, and the original database still loads.
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        SubsequenceDatabase.load(target)

    def test_loaded_database_is_sealed(self, built_db, tmp_path):
        built_db.save(tmp_path / "db")
        loaded = SubsequenceDatabase.load(tmp_path / "db")
        assert loaded.pager.sealed
        assert loaded.pager.verify_all() == []
