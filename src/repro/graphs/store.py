"""Content-addressed graph store: the zero-copy graph plane.

A :class:`GraphStore` persists the canonical CSR arrays of a
:class:`~repro.graphs.weighted_graph.WeightedGraph` as binary blobs
(:mod:`repro.blob` via :func:`repro.graphs.io.to_bytes`) keyed by
``WeightedGraph.fingerprint()``.  Readers *attach* instead of parsing,
and a process keeps one mapped copy of each graph:

* the store's in-process memo — one graph instance per fingerprint;
* else an ``mmap`` of the blob file ``<fingerprint>.rwg``, with the CSR
  arrays as read-only zero-copy views into the mapping.  Co-located
  processes share the file's pages through the page cache.

Because the key *is* the graph fingerprint, a :class:`GraphRef` can
stand in for the graph everywhere only the fingerprint matters — cache
keys, request coalescing keys, solve reports — which is what makes
solve-by-reference byte-identical to solve-with-body for free.

One store per root in a process: a store registers itself as *the* open
store over its root when the root has none, and :meth:`GraphStore.close`
removes it.  :meth:`GraphRef.resolve` attaches through that store — in a
server, the engine's own — so an in-process job reads the engine's memo
and an eviction reaches every reader in the process.  Where no store is
open over a ref's root (a fleet worker process, a spawned pool worker),
:func:`get_store` opens an attach-only one, so a long-lived worker
attaches each graph once and reuses it across jobs.
"""

from __future__ import annotations

import contextlib
import json
import mmap
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.exceptions import GraphFormatError, ReproError
from repro.graphs import io as graph_io
from repro.graphs.weighted_graph import WeightedGraph

__all__ = ["GraphRef", "GraphStore", "UnknownGraphRef", "atomic_write",
           "get_store", "resolve"]

_BLOB_SUFFIX = ".rwg"

# The open store over each resolved root.  A pool worker forked from a
# server inherits this map, the engine's store included, and attaches
# through its copy.  That is safe only while workers just attach: a
# worker must never evict (the blob file is shared) nor close (an
# ephemeral store's close removes the server's directory).
_STORES: Dict[str, "GraphStore"] = {}

# One lock guards _STORES and every store's memo and mapping dicts.  In a
# server, the event-loop thread registers, evicts and closes while the
# dispatch thread attaches for in-process jobs; without it, two threads
# missing the memo at once would each map and parse the blob.  Reentrant
# because get_store constructs a store, which registers itself.
_LOCK = threading.RLock()


def _reset_lock_in_child() -> None:
    # A pool worker forked while another server thread held the lock
    # would otherwise inherit it held, with no thread left to release it.
    global _LOCK
    _LOCK = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock_in_child)


class UnknownGraphRef(ReproError, KeyError):
    """A ``graph_ref`` names a fingerprint the store has never seen."""

    def __init__(self, ref: str):
        self.ref = ref
        super().__init__(f"unknown graph_ref {ref!r}")

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return f"unknown graph_ref {self.ref!r}"


@dataclass(frozen=True)
class GraphRef:
    """A fingerprint-addressed handle to a stored graph.

    Duck-types as a graph wherever only identity and size matter:
    ``fingerprint()`` returns the content hash (so batch cache keys,
    coalescing keys, and solve reports come out byte-identical to the
    materialized-graph path), and ``n``/``m`` carry the stored counts
    for admission control.  ``root`` names the store directory, so a
    pickled ref is self-describing — a pool worker can resolve it with
    no ambient configuration.
    """

    ref: str
    root: str
    n: int
    m: int

    def fingerprint(self) -> str:
        return self.ref

    def resolve(self) -> WeightedGraph:
        """Attach the referenced graph through the open store over
        ``root`` (see :func:`get_store`)."""
        return resolve(self)


class GraphStore:
    """Content-addressed store of binary graph blobs under one directory.

    Safe to share between threads: the memo and the mappings change
    only under the module lock, so a server's dispatch thread attaches
    while its event loop registers and evicts.  Pool workers only
    attach.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._graphs: Dict[str, WeightedGraph] = {}
        self._mmaps: Dict[str, mmap.mmap] = {}    # fingerprint -> mapping
        self._closed = False
        self._key = _root_key(self.root)
        with _LOCK:
            _STORES.setdefault(self._key, self)

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #

    def put(self, graph: WeightedGraph) -> GraphRef:
        """Register ``graph``, returning its ref.  Idempotent: a second
        ``put`` of the same content is a no-op that returns the same ref."""
        fp = graph.fingerprint()
        path = self._path(fp)
        if not path.exists():
            atomic_write(path, graph_io.to_bytes(graph))
        with _LOCK:
            self._graphs.setdefault(fp, graph)
        return GraphRef(ref=fp, root=str(self.root), n=graph.n, m=graph.m)

    def put_bytes(self, data: bytes) -> GraphRef:
        """Register a graph posted as a binary blob.

        The blob is re-validated: the graph is rebuilt from the arrays
        and its fingerprint recomputed, so a client cannot poison the
        content-addressed namespace with a mislabelled blob.
        """
        graph = graph_io.from_bytes(data)
        claimed = _blob_meta(data).get("fingerprint")
        graph._fingerprint = None  # force a real recomputation
        actual = graph.fingerprint()
        if claimed is not None and claimed != actual:
            raise GraphFormatError(
                f"blob fingerprint mismatch: header says {claimed[:12]}…, "
                f"content hashes to {actual[:12]}…")
        return self.put(graph)

    def put_delta(self, parent: str, delta) -> GraphRef:
        """Register the child of a stored graph under an edit script.

        Applies ``delta`` (a :class:`~repro.graphs.delta.GraphDelta`) to
        the graph stored as ``parent`` — copy-on-write, untouched rows
        shared with the parent's in-memory instance — and registers the
        child under its own content fingerprint, byte-identical to
        registering the from-scratch edited graph.  Raises
        :class:`UnknownGraphRef` for an unknown parent and
        :class:`~repro.graphs.delta.DeltaConflictError` for
        contradictory edits.
        """
        from repro.graphs.delta import apply_delta_info

        return self.put(apply_delta_info(self.attach(parent), delta).graph)

    # ------------------------------------------------------------------ #
    # attach / inspect
    # ------------------------------------------------------------------ #

    def attach(self, fingerprint: str) -> WeightedGraph:
        """Materialize the graph for ``fingerprint`` (memoized).

        Resolution order: in-process memo → mmap of the blob file.
        Raises :class:`UnknownGraphRef` when the fingerprint is nowhere
        to be found.
        """
        g = self._graphs.get(fingerprint)
        if g is not None:
            return g
        with _LOCK:
            g = self._graphs.get(fingerprint)
            if g is not None:
                return g
            g = self._attach_mmap(fingerprint)
            if g is None:
                raise UnknownGraphRef(fingerprint)
            if g.fingerprint() != fingerprint:
                raise GraphFormatError(
                    f"stored blob for {fingerprint[:12]}… carries a "
                    f"different fingerprint — store corrupted?")
            self._graphs[fingerprint] = g
        return g

    def describe(self, fingerprint: str) -> Dict[str, Any]:
        """Header-only metadata (``fingerprint``/``n``/``m``/``nbytes``)
        without materializing the graph — the 413 admission check reads
        node counts through this."""
        g = self._graphs.get(fingerprint)
        path = self._path(fingerprint)
        if g is not None:
            return {"fingerprint": fingerprint, "n": g.n, "m": g.m,
                    "nbytes": path.stat().st_size if path.exists() else None}
        if not path.exists():
            raise UnknownGraphRef(fingerprint)
        meta = _read_meta(path)
        return {"fingerprint": fingerprint, "n": int(meta["n"]),
                "m": int(meta["m"]), "nbytes": path.stat().st_size}

    def ref(self, fingerprint: str) -> GraphRef:
        """The :class:`GraphRef` for a stored fingerprint (404-checking
        variant of construction)."""
        info = self.describe(fingerprint)
        return GraphRef(ref=fingerprint, root=str(self.root),
                        n=info["n"], m=info["m"])

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._graphs or self._path(fingerprint).exists()

    def refs(self) -> List[str]:
        """All stored fingerprints (sorted)."""
        on_disk = {p.stem for p in self.root.glob(f"*{_BLOB_SUFFIX}")}
        return sorted(on_disk | set(self._graphs))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def evict(self, fingerprint: str) -> bool:
        """Drop a graph from the store (memo, mapping and blob file).
        Returns whether anything was removed.  Another store that has
        already attached the graph keeps its copy: its mapping outlives
        the unlinked file."""
        found = fingerprint in self
        with _LOCK:
            self._graphs.pop(fingerprint, None)
            self._release_mapping(fingerprint)
        with contextlib.suppress(FileNotFoundError):
            self._path(fingerprint).unlink()
        return found

    def close(self) -> None:
        """Release every mapping and leave the map of open stores.

        Safe to call twice.  Attached numpy views may outlive the store
        (a caller can hold a graph after ``close``); their mapping then
        stays valid until the last view drops.
        """
        with _LOCK:
            if self._closed:
                return
            self._closed = True
            if _STORES.get(self._key) is self:
                del _STORES[self._key]
            for fp in list(self._mmaps):
                self._release_mapping(fp)
            self._graphs.clear()

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _path(self, fingerprint: str) -> Path:
        if not fingerprint or any(c in fingerprint for c in "/\\."):
            raise GraphFormatError(f"malformed graph_ref {fingerprint!r}")
        return self.root / f"{fingerprint}{_BLOB_SUFFIX}"

    def _attach_mmap(self, fingerprint: str) -> Optional[WeightedGraph]:
        path = self._path(fingerprint)
        try:
            with open(path, "rb") as fh:
                mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (FileNotFoundError, ValueError, OSError):
            return None
        try:
            g = graph_io.from_buffer(mapping)
        except GraphFormatError:
            mapping.close()
            raise
        self._mmaps[fingerprint] = mapping
        return g

    def _release_mapping(self, fingerprint: str) -> None:
        mapping = self._mmaps.pop(fingerprint, None)
        if mapping is not None:
            try:
                mapping.close()
            except BufferError:
                pass  # live views; freed when the last view drops


# ---------------------------------------------------------------------- #
# process-wide resolution
# ---------------------------------------------------------------------- #

def _root_key(root: Union[str, Path]) -> str:
    return str(Path(root).resolve())


def get_store(root: Union[str, Path]) -> GraphStore:
    """The open :class:`GraphStore` over ``root`` in this process.

    In a server that is the engine's store.  Where none is open — a fleet
    worker process, a spawned pool worker — this opens an attach-only
    one and keeps it open for the process's lifetime, so a long-lived
    worker attaches each graph once and serves later jobs from the memo.
    """
    with _LOCK:
        store = _STORES.get(_root_key(root))
        return store if store is not None else GraphStore(root)


def resolve(ref: GraphRef) -> WeightedGraph:
    """Materialize a :class:`GraphRef` through :func:`get_store`."""
    return get_store(ref.root).attach(ref.ref)


def ephemeral_store(prefix: str = "repro-graphs-") -> GraphStore:
    """A store over a fresh temp directory (engine default when no cache
    dir is configured); the directory is removed on :meth:`close`."""
    tmpdir = tempfile.mkdtemp(prefix=prefix)
    store = GraphStore(tmpdir)
    original_close = store.close

    def close_and_remove() -> None:
        original_close()
        import shutil

        shutil.rmtree(tmpdir, ignore_errors=True)

    store.close = close_and_remove  # type: ignore[method-assign]
    return store


# ---------------------------------------------------------------------- #
# blob-header helpers
# ---------------------------------------------------------------------- #

def _blob_meta(data: bytes) -> Dict[str, Any]:
    from repro import blob

    if len(data) < 16 or data[:8] != blob.MAGIC:
        raise GraphFormatError("bad binary graph blob: bad magic")
    header_len = int.from_bytes(data[12:16], "little")
    try:
        doc = json.loads(data[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GraphFormatError(f"bad binary graph blob header: {exc}") from exc
    return doc.get("meta", {})


def _read_meta(path: Path) -> Dict[str, Any]:
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise GraphFormatError(f"truncated graph blob {path.name}")
        header_len = int.from_bytes(head[12:16], "little")
        return _blob_meta(head + fh.read(header_len))


def atomic_write(path: Union[str, Path], data: bytes) -> None:
    """Write through a temp file of this call's own, then ``os.replace``:
    readers never see a torn file, and concurrent writers — threads of
    one process too — never share a temp file.  Failures leave none."""
    directory, name = os.path.split(os.fspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory or ".", prefix=f"{name}.tmp.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
