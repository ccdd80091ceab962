"""Save and load a built database, crash-safely.

A :class:`~repro.api.SubsequenceDatabase` persists to a directory of
four files:

* ``meta.json`` — configuration, sequence placement, page kinds, tree
  shape, plus the whole-file checksums and array-shape manifest of the
  two ``.npz`` archives;
* ``values.npz`` — the raw sequence values;
* ``index.npz`` — every R*-tree node flattened into columnar arrays;
* ``MANIFEST`` — the commit sentinel, written last: format marker and
  the CRC32 of ``meta.json``.  A directory without it is either not a
  repro database or an interrupted save.

Durability protocol: everything is written into a temporary sibling
directory, each file is fsynced, and the directory is atomically
renamed into place (any previous database is swapped out and removed
only after the new one is in place).  A crash at any point leaves
either the old database or the new one — never a torn mix — and the
temp directory is cleaned up on failure.  The load path verifies, in
order: the MANIFEST sentinel, the format version, ``meta.json``'s
checksum, the sizes and checksums of both ``.npz`` files (truncation
raises :class:`~repro.exceptions.PartialSaveError`, corruption raises
:class:`~repro.exceptions.IntegrityError`), the recorded array shapes,
and — during reconstruction — that every referenced array actually
exists (:class:`~repro.exceptions.SequenceNotFoundError` /
``IntegrityError`` instead of a bare ``KeyError``).

The load path reconstructs the pager **page-for-page** (same page ids,
same node contents), so a reloaded database produces identical query
results *and identical I/O counts* — benchmarks are reproducible across
save/load.  The reconstructed pager is sealed, re-enabling per-page
checksum verification.  PSM's auxiliary sliding index is not
serialized; it is rebuilt deterministically on demand
(``load(..., psm=True)``).

This module reaches into the private state of the storage and index
classes; it lives inside the package precisely so that no other code
has to.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import tempfile
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Union

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    IntegrityError,
    PartialSaveError,
    SequenceNotFoundError,
)
from repro.index.rstar import LeafRecord, RStarNode, RStarTree
from repro.storage.integrity import bytes_checksum, file_checksum
from repro.storage.page import PageKind
from repro.storage.pager import Pager
from repro.storage.sequences import SequenceMeta

FORMAT_VERSION = 2

MANIFEST_NAME = "MANIFEST"
MANIFEST_MAGIC = "repro-database"

_CHECKSUMMED_FILES = ("values.npz", "index.npz")

PathLike = Union[str, pathlib.Path]

if TYPE_CHECKING:
    from repro.api import SubsequenceDatabase


def _fsync_file(path: pathlib.Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: pathlib.Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover — platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _check_save_target(path: pathlib.Path, sentinel: str) -> None:
    """Refuse to clobber anything that is not a previous save."""
    if not path.exists():
        return
    if not path.is_dir():
        raise ConfigurationError(
            f"save target {path} exists and is not a directory"
        )
    if any(path.iterdir()) and not (path / sentinel).exists():
        raise ConfigurationError(
            f"refusing to overwrite {path}: directory is not empty and "
            f"has no {sentinel} sentinel (not a repro database)"
        )


def save_database(
    db: "SubsequenceDatabase",
    directory: PathLike,
    extra_meta: Dict[str, Any] = None,
) -> None:
    """Serialize a built database into ``directory``, atomically.

    The write lands in a temporary sibling directory first and is
    renamed into place only once every file (including the ``MANIFEST``
    commit sentinel) is on disk; on any failure the temp directory is
    removed and an existing database at ``directory`` is untouched
    (:func:`save_directory_atomically`).

    ``extra_meta`` keys are merged into ``meta.json`` — the ingest
    checkpoint records its ``wal_lsn`` watermark this way, so recovery
    knows which WAL records the checkpoint already contains.
    """
    if db.index is None:
        raise ConfigurationError("cannot save before build()")
    save_directory_atomically(
        directory,
        MANIFEST_NAME,
        lambda temp: _write_database(db, temp, extra_meta),
    )


def save_directory_atomically(
    directory: PathLike,
    sentinel: str,
    write: Callable[[pathlib.Path], None],
) -> None:
    """Commit whatever ``write`` produces as ``directory``, atomically.

    ``write`` fills a temporary sibling directory (and fsyncs its own
    files, ending with the ``sentinel`` commit file); the sibling is
    then renamed into place.  An existing target is replaced only when
    it is empty or carries ``sentinel``, and is swapped out and removed
    only after the new directory is in place; on any failure the temp
    directory is removed and the existing target is left (or put back)
    untouched.
    """
    path = pathlib.Path(directory)
    _check_save_target(path, sentinel)
    path.parent.mkdir(parents=True, exist_ok=True)

    temp = pathlib.Path(
        tempfile.mkdtemp(prefix=f".{path.name}.tmp-", dir=path.parent)
    )
    try:
        write(temp)
        _fsync_dir(temp)
        _commit(temp, path)
    except BaseException:
        shutil.rmtree(temp, ignore_errors=True)
        raise
    _fsync_dir(path.parent)


def _commit(temp: pathlib.Path, path: pathlib.Path) -> None:
    """Swap the fully-written temp directory into place."""
    if path.exists():
        graveyard = pathlib.Path(
            tempfile.mkdtemp(prefix=f".{path.name}.old-", dir=path.parent)
        )
        old = graveyard / path.name
        path.rename(old)
        try:
            temp.rename(path)
        except BaseException:  # roll the old one back
            old.rename(path)
            shutil.rmtree(graveyard, ignore_errors=True)
            raise
        shutil.rmtree(graveyard, ignore_errors=True)
    else:
        temp.rename(path)


def _write_database(
    db: "SubsequenceDatabase",
    path: pathlib.Path,
    extra_meta: Dict[str, Any] = None,
) -> None:
    """Write all four files into ``path`` (already existing and empty)."""
    tree = db.index.tree

    values_arrays = {
        f"sid_{sid}": db.store.peek_full_sequence(sid)
        for sid in db.store.sequence_ids()
    }
    np.savez_compressed(path / "values.npz", **values_arrays)
    _fsync_file(path / "values.npz")

    nodes: List[RStarNode] = []
    node_pages: List[int] = []
    for page_id in range(db.pager.num_pages):
        kind = db.pager.kind_of(page_id)
        if kind in (PageKind.INDEX_LEAF, PageKind.INDEX_INTERNAL):
            node_pages.append(page_id)
            nodes.append(db.pager.peek(page_id))
    children, record_sids, record_windows = (
        np.concatenate(column)
        for column in zip(*(node.ref_columns() for node in nodes))
    )
    index_arrays = {
        "node_pages": np.asarray(node_pages, dtype=np.int64),
        "node_levels": np.asarray(
            [node.level for node in nodes], dtype=np.int64
        ),
        "node_counts": np.asarray(
            [len(node.refs) for node in nodes], dtype=np.int64
        ),
        "lows": np.concatenate([node.lows for node in nodes]),
        "highs": np.concatenate([node.highs for node in nodes]),
        "children": children,
        "record_sids": record_sids,
        "record_windows": record_windows,
    }
    np.savez_compressed(path / "index.npz", **index_arrays)
    _fsync_file(path / "index.npz")

    meta = {
        "format_version": FORMAT_VERSION,
        "omega": db.omega,
        "features": db.features,
        "data_stride": db.index.data_stride,
        "p": db.p,
        "buffer_fraction": db.buffer_fraction,
        "page_size": db.pager.page_size,
        "root_page": tree.root_page,
        "max_entries": tree.max_entries,
        "tree_size": len(tree),
        "page_kinds": [
            db.pager.kind_of(i).value for i in range(db.pager.num_pages)
        ],
        "sequences": [
            {
                "sid": m.sid,
                "length": m.length,
                "pages": list(m.pages),
            }
            for m in (db.store.meta(sid) for sid in db.store.sequence_ids())
        ],
        "files": {
            name: {
                "crc32": file_checksum(path / name),
                "bytes": (path / name).stat().st_size,
            }
            for name in _CHECKSUMMED_FILES
        },
        "array_shapes": {
            "values.npz": {
                name: list(array.shape)
                for name, array in values_arrays.items()
            },
            "index.npz": {
                name: list(array.shape)
                for name, array in index_arrays.items()
            },
        },
    }
    sliding = db._sliding_index  # noqa: SLF001
    if sliding is not None:
        # PSM's sliding-tree nodes already live in the shared pager (so
        # they are in index.npz with every other index page); recording
        # its root/size/bloom here lets load reattach it page-for-page
        # instead of rebuilding — which online ingest requires, since an
        # incrementally maintained tree differs from a fresh bulk load.
        meta["sliding"] = {
            "root_page": sliding.tree.root_page,
            "max_entries": sliding.tree.max_entries,
            "tree_size": len(sliding.tree),
            "stride": sliding.data_stride,
            "bloom": sliding.bloom.to_state(),
        }
    if extra_meta:
        meta.update(extra_meta)
    meta_bytes = json.dumps(meta).encode()
    (path / "meta.json").write_bytes(meta_bytes)
    _fsync_file(path / "meta.json")

    # The commit sentinel goes last: its presence asserts every other
    # file above reached the disk intact.
    manifest = {
        "magic": MANIFEST_MAGIC,
        "format_version": FORMAT_VERSION,
        "files": ["meta.json", *_CHECKSUMMED_FILES],
        "meta_crc32": bytes_checksum(meta_bytes),
        "meta_bytes": len(meta_bytes),
    }
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))
    _fsync_file(path / MANIFEST_NAME)


def _verify_on_disk(path: pathlib.Path) -> Dict[str, Any]:
    """Run the MANIFEST / checksum / size checks; return parsed meta."""
    if not path.exists():
        raise FileNotFoundError(f"no database directory at {path}")
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        if (path / "meta.json").exists():
            raise PartialSaveError(
                f"{path} has no {MANIFEST_NAME} sentinel: interrupted "
                f"save_database() or a pre-version-{FORMAT_VERSION} "
                f"format"
            )
        raise FileNotFoundError(f"{path} is not a repro database")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (ValueError, OSError) as error:
        raise IntegrityError(f"unreadable {MANIFEST_NAME}: {error}") from None
    if manifest.get("magic") != MANIFEST_MAGIC:
        raise IntegrityError(
            f"{MANIFEST_NAME} magic is {manifest.get('magic')!r}, "
            f"expected {MANIFEST_MAGIC!r}"
        )

    meta_path = path / "meta.json"
    if not meta_path.exists():
        raise PartialSaveError(f"{path} is missing meta.json")
    meta_bytes = meta_path.read_bytes()
    try:
        meta = json.loads(meta_bytes)
    except ValueError as error:
        raise IntegrityError(f"meta.json is not valid JSON: {error}") from None
    # Version check precedes the checksum so a deliberately edited
    # format_version reports "unsupported version", not "corrupt".
    if meta.get("format_version") != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported database format version "
            f"{meta.get('format_version')!r}"
        )
    if bytes_checksum(meta_bytes) != manifest.get("meta_crc32"):
        raise IntegrityError(
            "meta.json failed checksum verification against MANIFEST"
        )

    for name in _CHECKSUMMED_FILES:
        recorded = meta.get("files", {}).get(name)
        if recorded is None:
            raise IntegrityError(f"meta.json records no checksum for {name}")
        file_path = path / name
        if not file_path.exists():
            raise PartialSaveError(f"{path} is missing {name}")
        actual_bytes = file_path.stat().st_size
        if actual_bytes < recorded["bytes"]:
            raise PartialSaveError(
                f"{name} is truncated: {actual_bytes} bytes on disk, "
                f"{recorded['bytes']} recorded at save time"
            )
        if actual_bytes > recorded["bytes"]:
            raise IntegrityError(
                f"{name} grew after save: {actual_bytes} bytes on disk, "
                f"{recorded['bytes']} recorded"
            )
        if file_checksum(file_path) != recorded["crc32"]:
            raise IntegrityError(
                f"{name} failed whole-file checksum verification"
            )
    return meta


def _load_npz(
    path: pathlib.Path, meta: Dict[str, Any], name: str
) -> Dict[str, np.ndarray]:
    """Read one ``.npz`` archive and verify its array-shape manifest.

    Every stored array is inflated exactly once, here:
    ``NpzFile.__getitem__`` re-reads and decompresses the whole member
    on each call, so callers index the returned dict, never the archive.
    """
    try:
        with np.load(path / name) as data:
            arrays = {key: data[key] for key in data.files}
    except Exception as error:  # zipfile/zlib errors are not one class
        raise IntegrityError(f"cannot open {name}: {error}") from None
    recorded_shapes = meta.get("array_shapes", {}).get(name)
    if recorded_shapes is not None:
        for array_name, shape in recorded_shapes.items():
            if array_name not in arrays:
                raise IntegrityError(
                    f"{name} is missing array {array_name!r} recorded in "
                    f"the meta.json shape manifest"
                )
            actual = list(arrays[array_name].shape)
            if actual != shape:
                raise IntegrityError(
                    f"{name}:{array_name} has shape {actual}, manifest "
                    f"records {shape}"
                )
    return arrays


def _sequence_pages(seq: Dict[str, Any]) -> List[int]:
    """Page-id list of one meta.json sequence entry.

    Newer saves record the explicit (possibly non-contiguous, after
    online extends) ``pages`` list; older version-2 saves recorded only
    ``first_page``/``num_pages`` for the contiguous layout.
    """
    pages = seq.get("pages")
    if pages is not None:
        return [int(page_id) for page_id in pages]
    return list(
        range(seq["first_page"], seq["first_page"] + seq["num_pages"])
    )


def load_database(
    directory: PathLike,
    psm: bool = False,
    backend: str = "file",
) -> "SubsequenceDatabase":
    """Reconstruct a database saved by :func:`save_database`.

    Verifies the MANIFEST sentinel, whole-file checksums, sizes, and
    array shapes before touching any data; structural dangling
    references surface as :class:`SequenceNotFoundError` or
    :class:`IntegrityError` rather than raw ``KeyError``.

    ``backend`` is ``"file"`` or ``"mmap"`` (see
    :class:`~repro.api.SubsequenceDatabase`); a save loads under either.
    """
    path = pathlib.Path(directory)
    meta = _verify_on_disk(path)
    values = _load_npz(path, meta, "values.npz")
    index_data = _load_npz(path, meta, "index.npz")
    return _reconstruct(path, meta, values, index_data, psm, backend)


def _attach_tree(
    db: "SubsequenceDatabase", tree_meta: Dict[str, Any], block: str = ""
) -> RStarTree:
    """An R*-tree handle over node pages already replayed into the pager.

    ``tree_meta`` carries ``root_page`` / ``max_entries`` / ``tree_size``:
    ``meta.json`` itself for the DualMatch tree, its ``block`` (named in
    the error message) for PSM's.
    """
    root_page = tree_meta["root_page"]
    if not 0 <= root_page < db.pager.num_pages:
        raise IntegrityError(
            f"meta.json {block}root_page {root_page} is outside the "
            f"page file [0, {db.pager.num_pages})"
        )
    tree = RStarTree.__new__(RStarTree)
    tree._pager = db.pager  # noqa: SLF001
    tree._buffer = db.buffer  # noqa: SLF001
    tree.dimensions = db.features
    tree.max_entries = tree_meta["max_entries"]
    tree.min_entries = max(2, int(tree_meta["max_entries"] * 0.4))
    tree._size = tree_meta["tree_size"]  # noqa: SLF001
    tree.root_page = root_page
    return tree


def _rebuild_nodes(index_data: Dict[str, np.ndarray]) -> Dict[int, RStarNode]:
    """Node objects keyed by page id, each a row slice of the columns.

    The columns must agree before any node is built: ``node_counts``
    sums to the row count of every per-row column, and leaf rows carry
    no child page (and repeat their ``lows`` as ``highs``) while internal
    rows carry one.  An archive that breaks this passed the file
    checksums but cannot be a save, so it raises :class:`IntegrityError`.
    """
    pages, levels = index_data["node_pages"], index_data["node_levels"]
    counts, children = index_data["node_counts"], index_data["children"]
    lows, highs = index_data["lows"], index_data["highs"]
    if not len(pages) == len(levels) == len(counts) or np.any(counts < 0):
        raise IntegrityError(
            "index.npz node_pages / node_levels / node_counts disagree"
        )
    rows = int(counts.sum())
    for name in ("lows", "highs", "children", "record_sids", "record_windows"):
        if len(index_data[name]) != rows:
            raise IntegrityError(
                f"index.npz:{name} has {len(index_data[name])} rows, "
                f"node_counts sums to {rows}"
            )
    leaf = np.repeat(levels == 0, counts)
    if np.any(leaf & (children >= 0)):
        raise IntegrityError("index.npz holds a leaf row with a child page")
    if np.any(~leaf & (children < 0)):
        raise IntegrityError(
            "index.npz holds an internal row without a child page"
        )
    if not np.array_equal(highs[leaf], lows[leaf]):
        raise IntegrityError(
            "index.npz holds a leaf row whose highs differ from its lows"
        )
    refs = [
        LeafRecord(sid, window) if child < 0 else child
        for child, sid, window in zip(
            children.tolist(),
            index_data["record_sids"].tolist(),
            index_data["record_windows"].tolist(),
        )
    ]
    nodes: Dict[int, RStarNode] = {}
    end = 0
    for page_id, level, count in zip(
        pages.tolist(), levels.tolist(), counts.tolist()
    ):
        start, end = end, end + count
        node_lows = lows[start:end]
        node_highs = node_lows if level == 0 else highs[start:end]
        nodes[page_id] = RStarNode(
            level, node_lows, node_highs, refs[start:end]
        )
    return nodes


def _reconstruct(
    path: pathlib.Path,
    meta: Dict[str, Any],
    values: Dict[str, np.ndarray],
    index_data: Dict[str, np.ndarray],
    psm: bool,
    backend: str,
) -> "SubsequenceDatabase":
    """Rebuild the database object from verified, fully read archives."""
    from repro.api import SubsequenceDatabase
    from repro.index.builder import DualMatchIndex
    from repro.storage.sequences import SequenceStore

    required_columns = (
        "node_pages",
        "node_levels",
        "node_counts",
        "lows",
        "highs",
        "children",
        "record_sids",
        "record_windows",
    )
    for column in required_columns:
        if column not in index_data:
            raise IntegrityError(
                f"index.npz is missing required array {column!r}"
            )

    db = SubsequenceDatabase(
        omega=meta["omega"],
        features=meta["features"],
        page_size=meta["page_size"],
        buffer_fraction=meta["buffer_fraction"],
        p=meta["p"],
        data_stride=meta.get("data_stride"),
        backend=backend,
    )
    pager: Pager = db.pager
    kinds = [PageKind(value) for value in meta["page_kinds"]]

    nodes = _rebuild_nodes(index_data)

    # Replay page allocation in original order: data pages are slices
    # of the sequence arrays; index pages are the rebuilt nodes.
    arrays: Dict[int, np.ndarray] = {}
    for seq in meta["sequences"]:
        key = f"sid_{seq['sid']}"
        if key not in values:
            raise SequenceNotFoundError(
                f"meta.json lists sequence {seq['sid']} but values.npz "
                f"has no array {key!r}"
            )
        arrays[seq["sid"]] = np.ascontiguousarray(
            values[key], dtype=np.float64
        )
    for seq in meta["sequences"]:
        if arrays[seq["sid"]].size != seq["length"]:
            raise IntegrityError(
                f"sequence {seq['sid']}: values.npz holds "
                f"{arrays[seq['sid']].size} values, meta.json records "
                f"{seq['length']}"
            )
    for array in arrays.values():
        array.setflags(write=False)
    page_owner: Dict[int, tuple] = {}
    from repro.storage.page import values_per_page

    per_page = values_per_page(meta["page_size"])
    for seq in meta["sequences"]:
        for index, page_id in enumerate(_sequence_pages(seq)):
            page_owner[page_id] = (seq["sid"], index * per_page)
    for page_id, kind in enumerate(kinds):
        if kind == PageKind.DATA:
            if page_id not in page_owner:
                raise IntegrityError(
                    f"data page {page_id} is owned by no sequence in "
                    f"meta.json"
                )
            sid, offset = page_owner[page_id]
            payload = arrays[sid][offset : offset + per_page]
        elif kind == PageKind.FREE:
            # A retired page (deleted sequence / condensed index node):
            # its slot is preserved so every surviving page id is stable.
            payload = None
        else:
            if page_id not in nodes:
                raise IntegrityError(
                    f"meta.json marks page {page_id} as {kind.value} but "
                    f"index.npz holds no node for it"
                )
            payload = nodes[page_id]
        allocated = pager.allocate(kind, payload)
        assert allocated == page_id

    store: SequenceStore = db.store
    for seq in meta["sequences"]:
        store._meta[seq["sid"]] = SequenceMeta(  # noqa: SLF001
            sid=seq["sid"],
            length=seq["length"],
            pages=tuple(_sequence_pages(seq)),
        )
        store._arrays[seq["sid"]] = arrays[seq["sid"]]  # noqa: SLF001

    db.index = DualMatchIndex(
        tree=_attach_tree(db, meta),
        store=store,
        omega=meta["omega"],
        features=meta["features"],
        p=meta["p"],
        data_stride=meta.get("data_stride"),
    )
    if psm:
        sliding_meta = meta.get("sliding")
        if sliding_meta is not None:
            from repro.index.bloom import BloomFilter

            db._sliding_index = DualMatchIndex(  # noqa: SLF001
                tree=_attach_tree(db, sliding_meta, "sliding "),
                store=store,
                omega=meta["omega"],
                features=meta["features"],
                p=meta["p"],
                data_stride=sliding_meta["stride"],
                bloom=BloomFilter.from_state(sliding_meta["bloom"]),
            )
        else:
            # Pre-ingest saves recorded no sliding metadata: rebuild
            # deterministically, as older loads always did.
            from repro.engines.psm import build_sliding_index

            db._sliding_index = build_sliding_index(  # noqa: SLF001
                store,
                omega=meta["omega"],
                features=meta["features"],
                p=meta["p"],
            )
    db._seal()  # noqa: SLF001 — as build() does
    db.resize_buffer(meta["buffer_fraction"])
    db.reset_cache()
    return db
