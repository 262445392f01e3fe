"""Aligned binary container for named numpy arrays.

This is the one low-level format of the zero-copy graph plane: the
binary graph codec (``repro.graphs.io``) and the content-addressed
graph store (``repro.graphs.store``) serialize through :func:`pack` /
:func:`unpack`.

Layout (all integers little-endian)::

    offset 0   magic       8 bytes   b"REPROBLB"
    offset 8   version     u32       currently 1
    offset 12  header_len  u32       byte length of the JSON header
    offset 16  header      JSON      {"meta": {...}, "arrays": [...]}
    ...        padding     zeros     up to the first 64-byte boundary
    ...        array data  raw       each array starts 64-byte aligned

Each ``arrays`` entry records ``{"name", "dtype", "shape", "offset",
"nbytes"}`` with ``offset`` absolute from the start of the buffer.
Arrays are stored as C-contiguous little-endian raw bytes, so
:func:`unpack` can hand back zero-copy ``np.frombuffer`` views into
*any* buffer-protocol object, such as ``bytes`` or ``mmap.mmap``.
Views over writable buffers are marked read-only: every consumer of the
graph plane treats the arrays as immutable, and a mapping that other
readers share must never be scribbled on.

The 64-byte alignment matches cache lines (and exceeds every numpy
dtype alignment requirement), so attached views are as fast to scan as
freshly allocated arrays.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["pack", "unpack", "BlobFormatError", "MAGIC", "VERSION"]

MAGIC = b"REPROBLB"
VERSION = 1
_ALIGN = 64


class BlobFormatError(ValueError):
    """Raised when a buffer is not a valid blob container (torn, truncated,
    foreign magic, or an unsupported version)."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def pack(meta: Mapping[str, Any],
         arrays: Sequence[Tuple[str, np.ndarray]]) -> bytes:
    """Serialize ``meta`` (JSON-compatible) plus named arrays into one blob.

    Array order is preserved; names must be unique.  Arrays are converted
    to C-contiguous little-endian before writing, so the on-disk bytes are
    platform-independent.
    """
    prepared = []
    seen = set()
    for name, arr in arrays:
        if name in seen:
            raise ValueError(f"duplicate array name {name!r}")
        seen.add(name)
        a = np.ascontiguousarray(arr)
        le = a.dtype.newbyteorder("<")
        if a.dtype != le:
            a = a.astype(le)
        prepared.append((name, a))

    # Two-pass header: entry offsets depend on the header length, which
    # depends on the digits in the offsets.  Fixed-width offset fields
    # would also work, but recomputing converges immediately because the
    # second pass only shrinks/grows by a few digits and is re-padded.
    def build_header(entries):
        doc = {"meta": dict(meta), "arrays": entries}
        return json.dumps(doc, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    entries = [
        {"name": name, "dtype": a.dtype.str, "shape": list(a.shape),
         "offset": 0, "nbytes": int(a.nbytes)}
        for name, a in prepared
    ]
    header = build_header(entries)
    while True:
        data_start = _align(16 + len(header))
        offset = data_start
        for entry, (_, a) in zip(entries, prepared):
            entry["offset"] = offset
            offset = _align(offset + a.nbytes)
        new_header = build_header(entries)
        if len(new_header) == len(header):
            header = new_header
            break
        header = new_header

    total = offset if prepared else data_start
    out = bytearray(total)
    out[0:8] = MAGIC
    out[8:12] = VERSION.to_bytes(4, "little")
    out[12:16] = len(header).to_bytes(4, "little")
    out[16:16 + len(header)] = header
    for entry, (_, a) in zip(entries, prepared):
        start = entry["offset"]
        out[start:start + a.nbytes] = a.tobytes()
    return bytes(out)


def unpack(buf) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Parse a blob, returning ``(meta, {name: array})``.

    The arrays are zero-copy, read-only views into ``buf`` (which may be
    ``bytes`` or an ``mmap``) — the caller must keep the underlying
    buffer alive as long as the views are in use.
    Raises :class:`BlobFormatError` on anything malformed.
    """
    view = memoryview(buf)
    try:
        if len(view) < 16 or bytes(view[0:8]) != MAGIC:
            raise BlobFormatError("bad magic: not a repro blob")
        version = int.from_bytes(view[8:12], "little")
        if version != VERSION:
            raise BlobFormatError(f"unsupported blob version {version}")
        header_len = int.from_bytes(view[12:16], "little")
        if 16 + header_len > len(view):
            raise BlobFormatError("truncated blob header")
        try:
            doc = json.loads(bytes(view[16:16 + header_len]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BlobFormatError(f"corrupt blob header: {exc}") from exc
        if not isinstance(doc, dict) or "arrays" not in doc:
            raise BlobFormatError("blob header missing arrays")
        out: Dict[str, np.ndarray] = {}
        for entry in doc["arrays"]:
            try:
                name = entry["name"]
                dtype = np.dtype(entry["dtype"])
                shape = tuple(int(s) for s in entry["shape"])
                offset = int(entry["offset"])
                nbytes = int(entry["nbytes"])
            except (KeyError, TypeError, ValueError) as exc:
                raise BlobFormatError(f"corrupt array entry: {exc}") from exc
            if offset < 0 or offset + nbytes > len(view):
                raise BlobFormatError(
                    f"array {name!r} extends past end of blob")
            arr = np.frombuffer(view, dtype=dtype, count=nbytes // dtype.itemsize,
                                offset=offset).reshape(shape)
            arr.flags.writeable = False
            out[name] = arr
        return dict(doc.get("meta", {})), out
    finally:
        # memoryview goes out of scope naturally; numpy views keep their
        # own references to the underlying buffer.
        del view
