"""Checksum helpers shared by the pager and the persistence layer.

Pages are Python objects (numpy slices, R*-tree nodes), not byte
buffers, so integrity protection works on a *canonical byte encoding*
of each payload: the CRC32 of that encoding is stored beside the page
and re-derived on every verified fetch.  The same CRC32 primitive
covers whole files in the on-disk format (``meta.json`` and the two
``.npz`` archives are checksummed into the ``MANIFEST`` sentinel and
``meta.json`` respectively).

CRC32 is deliberate: the threat model is bit rot, torn writes, and
truncation — not adversaries — and the checksum runs on the physical
read path, so it must cost microseconds per 4 KB page.
"""

from __future__ import annotations

import pathlib
import struct
import zlib
from typing import Union

import numpy as np

_NONE_SENTINEL = b"\x00repro:none"
_FILE_CHUNK = 1 << 20


def payload_checksum(payload: object) -> int:
    """CRC32 of a page payload's canonical byte encoding.

    Supports the three payload shapes the pager actually stores —
    ``None`` (freshly allocated), 1-D float64 numpy slices (data pages),
    and R*-tree nodes (duck-typed on ``ref_columns``: level, row count,
    then the ``lows``, ``highs``, child page, sid and window columns) —
    plus a ``repr`` fallback for anything tests stuff into pages.
    """
    if payload is None:
        return zlib.crc32(_NONE_SENTINEL)
    if isinstance(payload, np.ndarray):
        array = np.ascontiguousarray(payload)
        header = f"{array.dtype.str}:{array.shape}".encode()
        return zlib.crc32(array.tobytes(), zlib.crc32(header))
    ref_columns = getattr(payload, "ref_columns", None)
    if ref_columns is not None:
        header = struct.pack("<qq", int(payload.level), len(payload.refs))
        crc = zlib.crc32(header)
        for column in (payload.lows, payload.highs, *ref_columns()):
            crc = zlib.crc32(np.ascontiguousarray(column).tobytes(), crc)
        return crc
    return zlib.crc32(repr(payload).encode())


def file_checksum(path: Union[str, pathlib.Path]) -> int:
    """CRC32 of a whole file, streamed in 1 MB chunks."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_FILE_CHUNK)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


def bytes_checksum(data: bytes) -> int:
    """CRC32 of an in-memory byte string (``meta.json`` verification)."""
    return zlib.crc32(data)
