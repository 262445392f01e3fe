"""Content-addressed graph store: the zero-copy arena of the graph plane.

A :class:`GraphStore` persists the canonical CSR arrays of a
:class:`~repro.graphs.weighted_graph.WeightedGraph` as binary blobs
(:mod:`repro.blob` via :func:`repro.graphs.io.to_bytes`) keyed by
``WeightedGraph.fingerprint()``.  Readers *attach* instead of parsing:

* same process — a memoized graph instance per fingerprint;
* co-located processes — a ``multiprocessing.shared_memory`` segment
  (named after the fingerprint) or an ``mmap`` of the blob file, with
  the CSR arrays as read-only zero-copy views into the mapping.

Because the key *is* the graph fingerprint, a :class:`GraphRef` can
stand in for the graph everywhere only the fingerprint matters — cache
keys, request coalescing keys, solve reports — which is what makes
solve-by-reference byte-identical to solve-with-body for free.

Batch workers resolve refs through the process-global :func:`get_store`
memo, so a pool process attaches each graph once and reuses it across
jobs instead of unpickling the graph per job.

Lifecycle: the store that *created* a shared-memory segment owns it and
unlinks it in :meth:`close` (and, on crash, via the stdlib resource
tracker).  Attach-side stores deliberately unregister their segments
from the resource tracker — on Python ≤3.12 an attaching process would
otherwise unlink the creator's segment when it exits.
"""

from __future__ import annotations

import contextlib
import json
import mmap
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.exceptions import GraphFormatError, ReproError
from repro.graphs import io as graph_io
from repro.graphs.weighted_graph import WeightedGraph

__all__ = ["GraphRef", "GraphStore", "UnknownGraphRef", "atomic_write",
           "get_store", "resolve", "shm_segment_name"]

_BLOB_SUFFIX = ".rwg"
_SHM_PREFIX = "repro_g_"


class UnknownGraphRef(ReproError, KeyError):
    """A ``graph_ref`` names a fingerprint the store has never seen."""

    def __init__(self, ref: str):
        self.ref = ref
        super().__init__(f"unknown graph_ref {ref!r}")

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return f"unknown graph_ref {self.ref!r}"


def shm_segment_name(fingerprint: str) -> str:
    """Shared-memory segment name for a fingerprint (64-bit prefix —
    collision-free in practice, and short enough for every platform's
    segment-name limit)."""
    return _SHM_PREFIX + fingerprint[:16]


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
        """Attach the referenced graph via the process-global store memo."""
        return resolve(self)


class GraphStore:
    """Content-addressed store of binary graph blobs under one directory.

    Thread-compatible for the service's use (all mutation happens on the
    event loop; pool workers only attach).  ``use_shm`` defaults to
    enabled when the platform supports POSIX shared memory; pass
    ``False`` to force the mmap path (still zero-copy across co-located
    processes via the page cache).
    """

    def __init__(self, root: Union[str, Path], *,
                 use_shm: Optional[bool] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if use_shm is None:
            use_shm = _shm_supported()
        self.use_shm = bool(use_shm)
        self._graphs: Dict[str, WeightedGraph] = {}
        self._chains: Dict[str, Any] = {}         # child fp -> (parent, delta)
        self._owned_shm: Dict[str, Any] = {}      # fingerprint -> SharedMemory
        self._attached_shm: Dict[str, Any] = {}   # fingerprint -> SharedMemory
        self._mmaps: Dict[str, mmap.mmap] = {}    # fingerprint -> mapping
        self._closed = False

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
        self._graphs.setdefault(fp, graph)
        if self.use_shm and fp not in self._owned_shm:
            self._export_shm(fp, path)
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

    def put_doc(self, doc: Dict[str, Any]) -> GraphRef:
        """Register a graph posted as a JSON graph document."""
        return self.put(graph_io.from_doc(doc))

    def put_delta(self, parent: str, delta) -> GraphRef:
        """Register the child of a stored graph under an edit script.

        Applies ``delta`` (a :class:`~repro.graphs.delta.GraphDelta`) to
        the graph stored as ``parent`` — copy-on-write, untouched rows
        shared with the parent's in-memory instance — and registers the
        child under its own content fingerprint, byte-identical to
        registering the from-scratch edited graph.  The lineage
        (parent fingerprint + canonical ops) is persisted in a
        ``<child>.delta.json`` sidecar so any process attached to this
        store — including the incremental re-solve path — can recover
        the chain.  Raises :class:`UnknownGraphRef` for an unknown
        parent and :class:`~repro.graphs.delta.DeltaConflictError` for
        contradictory edits.
        """
        from repro.graphs.delta import apply_delta_info, chain_doc

        parent_graph = self.attach(parent)
        info = apply_delta_info(parent_graph, delta)
        ref = self.put(info.graph)
        doc = chain_doc(parent, delta, ref.ref)
        doc["touched"] = sorted(info.touched)
        sidecar = self._chain_path(ref.ref)
        if not sidecar.exists():
            atomic_write(sidecar, json.dumps(
                doc, sort_keys=True, separators=(",", ":")).encode())
        self._chains[ref.ref] = (parent, delta)
        return ref

    def delta_chain(self, fingerprint: str):
        """``(parent_fingerprint, GraphDelta)`` if ``fingerprint`` was
        registered through :meth:`put_delta` (here or by any process
        sharing this store directory), else ``None``."""
        chain = self._chains.get(fingerprint)
        if chain is not None:
            return chain
        path = self._chain_path(fingerprint)
        try:
            doc = json.loads(path.read_text())
        except (FileNotFoundError, ValueError, OSError):
            return None
        from repro.graphs.delta import chain_from_doc

        chain = chain_from_doc(doc)
        if chain is not None:
            self._chains[fingerprint] = chain
        return chain

    # ------------------------------------------------------------------ #
    # attach / inspect
    # ------------------------------------------------------------------ #

    def attach(self, fingerprint: str) -> WeightedGraph:
        """Materialize the graph for ``fingerprint`` (memoized).

        Resolution order: in-process memo → shared-memory segment →
        mmap of the blob file.  Raises :class:`UnknownGraphRef` when the
        fingerprint is nowhere to be found.
        """
        g = self._graphs.get(fingerprint)
        if g is not None:
            return g
        if self.use_shm:
            g = self._attach_shm(fingerprint)
        if g is None:
            g = self._attach_mmap(fingerprint)
        if g is None:
            raise UnknownGraphRef(fingerprint)
        if g.fingerprint() != fingerprint:
            raise GraphFormatError(
                f"stored blob for {fingerprint[:12]}… carries a different "
                f"fingerprint — store corrupted?")
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
        """Drop a graph from the store (memo, blob file, and any shm
        segment this store owns).  Returns whether anything was removed."""
        found = fingerprint in self
        self._graphs.pop(fingerprint, None)
        self._chains.pop(fingerprint, None)
        self._release_mapping(fingerprint, unlink_owned=True)
        for path in (self._path(fingerprint), self._chain_path(fingerprint)):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        return found

    def close(self) -> None:
        """Release every mapping; unlink owned shared-memory segments.

        Safe to call twice.  Attached numpy views may outlive the store
        (a caller can hold a graph after ``close``); releasing the OS
        handles is best-effort in that case — the memory itself stays
        valid until the last view drops.
        """
        if self._closed:
            return
        self._closed = True
        for fp in list(self._owned_shm) + list(self._attached_shm) + list(self._mmaps):
            self._release_mapping(fp, unlink_owned=True)
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

    def _chain_path(self, fingerprint: str) -> Path:
        self._path(fingerprint)  # same ref validation
        return self.root / f"{fingerprint}.delta.json"

    def _export_shm(self, fingerprint: str, path: Path) -> None:
        from multiprocessing import shared_memory

        name = shm_segment_name(fingerprint)
        data = path.read_bytes()
        try:
            shm = shared_memory.SharedMemory(name=name, create=True,
                                             size=len(data))
        except FileExistsError:
            return  # another worker already exported it
        except OSError:
            self.use_shm = False  # e.g. /dev/shm missing or full
            return
        shm.buf[:len(data)] = data
        self._owned_shm[fingerprint] = shm

    def _attach_shm(self, fingerprint: str) -> Optional[WeightedGraph]:
        from multiprocessing import shared_memory

        name = shm_segment_name(fingerprint)
        try:
            shm = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            return None
        # Note on the resource tracker: attaching registers the segment in
        # this process tree's tracker (Python ≤3.12).  Within the creator's
        # tree that is an idempotent no-op; from a *different* tree it can
        # unlink the name early when this tree exits — which is safe
        # (existing mappings stay valid; later attaches fall back to the
        # mmap path) and is exactly the crash-cleanup guarantee that keeps
        # /dev/shm leak-free.  Unregistering here would instead cancel the
        # creator's cleanup entry whenever trees share a tracker.
        try:
            g = graph_io.from_buffer(shm.buf)
        except GraphFormatError:
            shm.close()
            return None
        self._attached_shm[fingerprint] = shm
        return g

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

    def _release_mapping(self, fingerprint: str, *, unlink_owned: bool) -> None:
        shm = self._owned_shm.pop(fingerprint, None)
        if shm is not None:
            if unlink_owned:
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass  # an attacher's tracker already reclaimed it
            _close_shm(shm)
        shm = self._attached_shm.pop(fingerprint, None)
        if shm is not None:
            _close_shm(shm)
        mapping = self._mmaps.pop(fingerprint, None)
        if mapping is not None:
            try:
                mapping.close()
            except BufferError:
                pass  # live views; freed when the last view drops


# ---------------------------------------------------------------------- #
# process-global resolution (the pool-worker fast path)
# ---------------------------------------------------------------------- #

_STORES: Dict[str, GraphStore] = {}


def _close_global_stores() -> None:
    # atexit: release OS handles before interpreter teardown so that
    # SharedMemory.__del__ never races live numpy views at shutdown.
    for store in _STORES.values():
        store.close()
    _STORES.clear()


import atexit as _atexit  # noqa: E402 — registration belongs next to the memo

_atexit.register(_close_global_stores)


def get_store(root: Union[str, Path]) -> GraphStore:
    """Per-process memoized :class:`GraphStore` for ``root``.

    Pool workers funnel every :class:`GraphRef` through this, so a
    long-lived worker attaches each graph once and serves all subsequent
    jobs from the memo — the zero-copy replacement for per-job graph
    unpickling.  Attach-only by construction: stores obtained here never
    own shm segments (they only ever attach), so worker exit cannot tear
    down the creator's arena.
    """
    key = str(Path(root).resolve())
    store = _STORES.get(key)
    if store is None:
        store = _STORES[key] = GraphStore(key)
    return store


def resolve(ref: GraphRef) -> WeightedGraph:
    """Materialize a :class:`GraphRef` via the process-global memo."""
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


def _close_shm(shm) -> None:
    """Close a ``SharedMemory`` handle even when live numpy views pin the
    buffer.  In that case the mapping is deliberately handed over to the
    views (the OS reclaims it when the last one drops); the handle's
    internals are detached so its ``__del__`` does not retry — and fail —
    at garbage-collection time."""
    try:
        shm.close()
    except BufferError:
        shm._buf = None
        shm._mmap = None


def _shm_supported() -> bool:
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:
        return False
    return os.path.isdir("/dev/shm") or os.name == "nt"
