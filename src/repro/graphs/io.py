"""Serialization of weighted graphs.

Three formats:

* a human-readable text format (``.wg``): header line ``n m``, then ``n``
  lines ``node weight``, then ``m`` lines ``u v``;
* JSON, for embedding instances in experiment manifests;
* a binary CSR blob (``.rwg``) built on :mod:`repro.blob` — the
  zero-copy wire/storage format of the graph plane.  Round-trip equal to
  the JSON codec (same graph, same fingerprint), but :func:`from_bytes`
  rebuilds through :meth:`WeightedGraph._from_csr_arrays` instead of
  re-sorting an edge list, and the stored fingerprint makes re-hashing
  on load unnecessary.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.exceptions import GraphFormatError
from repro.graphs.weighted_graph import WeightedGraph

__all__ = ["dumps", "loads", "save", "load", "to_doc", "from_doc",
           "to_json", "from_json", "to_bytes", "from_bytes", "from_buffer",
           "save_binary", "load_binary"]


def dumps(g: WeightedGraph) -> str:
    """Serialize ``g`` to the text format."""
    lines = [f"{g.n} {g.m}"]
    for v in g.nodes:
        lines.append(f"{v} {g.weight(v)!r}")
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> WeightedGraph:
    """Parse the text format produced by :func:`dumps`."""
    raw = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not raw:
        raise GraphFormatError("empty graph document")
    try:
        n, m = (int(x) for x in raw[0].split())
    except ValueError as exc:
        raise GraphFormatError(f"bad header line: {raw[0]!r}") from exc
    if len(raw) != 1 + n + m:
        raise GraphFormatError(
            f"expected {1 + n + m} lines for n={n}, m={m}; got {len(raw)}"
        )
    weights = {}
    nodes = []
    for ln in raw[1:1 + n]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad node line: {ln!r}")
        v = int(parts[0])
        nodes.append(v)
        weights[v] = float(parts[1])
    edges = []
    for ln in raw[1 + n:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return WeightedGraph.from_edges(nodes, edges, weights)


def save(g: WeightedGraph, path: Union[str, Path]) -> None:
    """Write ``g`` to ``path`` in the text format."""
    Path(path).write_text(dumps(g))


def load(path: Union[str, Path]) -> WeightedGraph:
    """Read a graph from ``path`` (text format)."""
    return loads(Path(path).read_text())


def to_doc(g: WeightedGraph) -> Dict[str, Any]:
    """``g`` as a JSON-compatible dict (the wire form of a graph).

    This is the inline graph encoding of the solver service's
    request/response schema; :func:`from_doc` is its inverse.
    """
    return {
        "nodes": [[v, g.weight(v)] for v in g.nodes],
        "edges": [[u, v] for u, v in g.edges()],
    }


def from_doc(doc: Dict[str, Any]) -> WeightedGraph:
    """Parse the dict produced by :func:`to_doc`."""
    try:
        nodes = [int(v) for v, _ in doc["nodes"]]
        weights = {int(v): float(w) for v, w in doc["nodes"]}
        edges = [(int(u), int(v)) for u, v in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad JSON graph document: {exc}") from exc
    return WeightedGraph.from_edges(nodes, edges, weights)


def to_bytes(g: WeightedGraph) -> bytes:
    """Serialize ``g`` to the binary CSR blob format.

    The blob stores the canonical CSR arrays (``ids``/``indptr``/
    ``indices``/``weights``) plus the graph fingerprint and counts in the
    header, so loading is a bulk array attach rather than an edge-list
    parse, and the fingerprint never has to be recomputed.
    """
    from repro import blob

    csr = g.csr
    meta = {
        "kind": "weighted_graph",
        "fingerprint": g.fingerprint(),
        "n": g.n,
        "m": g.m,
    }
    return blob.pack(meta, [
        ("ids", csr.ids),
        ("indptr", csr.indptr),
        ("indices", csr.indices),
        ("weights", csr.weights),
    ])


def from_buffer(buf) -> WeightedGraph:
    """Rebuild a graph from a binary blob *without copying the arrays*.

    ``buf`` may be ``bytes`` or an ``mmap``; the returned graph's CSR
    index holds read-only views into it, so the caller must keep
    ``buf`` alive for the graph's lifetime (the graph store does this
    by owning the mapping).  Use :func:`from_bytes` when
    the buffer's lifetime is not managed.
    """
    from repro import blob

    try:
        meta, arrays = blob.unpack(buf)
    except blob.BlobFormatError as exc:
        raise GraphFormatError(f"bad binary graph blob: {exc}") from exc
    if meta.get("kind") != "weighted_graph":
        raise GraphFormatError(
            f"bad binary graph blob: kind={meta.get('kind')!r}")
    try:
        ids = arrays["ids"]
        indptr = arrays["indptr"]
        indices = arrays["indices"]
        weights = arrays["weights"]
    except KeyError as exc:
        raise GraphFormatError(
            f"bad binary graph blob: missing array {exc}") from exc
    if len(indptr) != len(ids) + 1:
        raise GraphFormatError("bad binary graph blob: indptr/ids mismatch")
    return WeightedGraph._from_csr_arrays(
        ids, indptr, indices, weights,
        fingerprint=meta.get("fingerprint"),
    )


def from_bytes(buf) -> WeightedGraph:
    """Parse the binary blob produced by :func:`to_bytes`.

    The arrays are copied out of ``buf``, so the result is self-contained
    (safe to use after the buffer is freed or the file is replaced).
    """
    g = from_buffer(buf)
    csr = g._csr
    if csr is not None:
        import numpy as np

        csr.ids = np.array(csr.ids)
        csr.indptr = np.array(csr.indptr)
        csr.indices = np.array(csr.indices)
        csr.degrees = np.array(csr.degrees)
        csr.weights = np.array(csr.weights)
    return g


def save_binary(g: WeightedGraph, path: Union[str, Path]) -> None:
    """Write ``g`` to ``path`` in the binary blob format."""
    Path(path).write_bytes(to_bytes(g))


def load_binary(path: Union[str, Path]) -> WeightedGraph:
    """Read a graph from ``path`` (binary blob format)."""
    return from_bytes(Path(path).read_bytes())


def to_json(g: WeightedGraph) -> str:
    """Serialize ``g`` as a JSON object."""
    return json.dumps(to_doc(g))


def from_json(text: str) -> WeightedGraph:
    """Parse the JSON produced by :func:`to_json`."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise GraphFormatError(f"bad JSON graph document: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError(
            f"bad JSON graph document: expected an object, "
            f"got {type(doc).__name__}"
        )
    return from_doc(doc)
