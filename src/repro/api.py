"""The stable public surface of the library: one call, one contract.

Every way of running a solver — a Python call, a CLI invocation, an HTTP
request against ``repro serve`` — goes through the same two versioned
dataclasses defined here:

* :class:`SolveRequest` — what to solve: a weighted graph, a registry
  algorithm name, a seed, and algorithm parameters.
* :class:`SolveReport` — what came back: the chosen independent set, its
  weight, the CONGEST cost accounting, and the guarantee metadata needed
  to re-certify the result.

Requests speak ``schema "v2"``: the graph travels as one tagged union —
``{"inline": <graph doc>}``, ``{"ref": "<fingerprint>"}``, or
``{"delta": {"parent": "<fingerprint>", "ops": [...]}}``.  A body with
no ``schema`` or ``"schema": "v1"`` is refused with a
:class:`SchemaError` that points at the v2 union (docs/service.md,
"Migrating from v1").

A request's identity — :meth:`SolveRequest.key`, the coalescing, cache
and shard key — is its graph fingerprint, algorithm, seed and params,
and nothing else: the execution backend chooses how a request runs, not
what it computes.

Reports carry ``schema "v1"`` — the canonical report document is
versioned independently of the request schema.  Report serialization is
*canonical* (sorted keys, compact separators, wall-clock stripped),
which is what makes fixed-seed responses byte-identical across the
in-process and HTTP paths and across execution backends — properties
the service test-suite pins.

Quickstart::

    from repro import gnp, uniform_weights, solve

    graph = uniform_weights(gnp(200, 0.05, seed=1), 1, 100, seed=2)
    report = solve(graph, "thm2", seed=7, eps=0.5)
    print(report.weight, report.rounds, len(report.independent_set))
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import GraphError, GraphFormatError, ReproError
from repro.graphs.delta import DeltaConflictError, GraphDelta, apply_delta_info
from repro.graphs.io import from_doc as _graph_from_inline_doc
from repro.graphs.io import to_doc as _graph_to_inline_doc
from repro.graphs.specs import graph_from_spec, weights_from_spec
from repro.graphs.store import GraphRef, GraphStore
from repro.graphs.weighted_graph import WeightedGraph
from repro.registry import algorithm_registry

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "SCHEMA_VERSION",
    "DeltaForm",
    "SchemaError",
    "SolveError",
    "SolveRequest",
    "SolveReport",
    "solve",
    "sweep",
    "describe_algorithms",
    "graph_to_doc",
    "graph_from_doc",
    "request_key_from_doc",
    "delta_route_key_from_doc",
    "algorithm_registry",
]

# The request/envelope schema this build speaks.
SCHEMA_VERSION = "v2"
# The canonical report document is versioned independently of the
# request schema and did NOT change in v2: fixed-seed reports stay
# byte-identical across the redesign (cache entries, goldens, and the
# backend-equivalence suite all pin these bytes).
REPORT_SCHEMA_VERSION = "v1"

_V2_ONLY = (
    f"this build speaks schema {SCHEMA_VERSION!r} only: send "
    f'"schema": "{SCHEMA_VERSION}" with the graph as one of '
    '{"inline": <graph doc>} | {"ref": "<fingerprint>"} | '
    '{"delta": {"parent": "<fingerprint>", "ops": [...]}} '
    "(docs/service.md, Migrating from v1)"
)


class SchemaError(ReproError, ValueError):
    """A request/report document does not match the supported schema."""


class SolveError(ReproError):
    """An algorithm run submitted through :func:`solve` failed.

    Carries the failed :class:`SolveReport` as ``report`` so callers can
    still inspect the captured error and cost accounting.
    """

    def __init__(self, message: str, report: "SolveReport") -> None:
        super().__init__(message)
        self.report = report


# --------------------------------------------------------------------- #
# request-side graph codec
# --------------------------------------------------------------------- #

def graph_to_doc(graph) -> Dict[str, Any]:
    """The wire encoding of a graph: the schema-v2 tagged union.

    A :class:`~repro.graphs.store.GraphRef` becomes ``{"ref":
    "<fingerprint>"}`` and a materialized graph ``{"inline": <doc>}``
    (the :func:`repro.graphs.io.to_doc` format).
    """
    if isinstance(graph, GraphRef):
        return {"ref": graph.ref}
    return {"inline": _graph_to_inline_doc(graph)}


def graph_from_doc(doc: Any, *, store: Optional[GraphStore] = None):
    """Decode a graph document: the v2 union or a bare inline document.

    The schema-v2 tagged union is accepted (``{"inline": <doc>}``,
    ``{"ref": "<fp>"}``, ``{"delta": {"parent", "ops"}}`` — a ref
    resolves against ``store`` to a :class:`GraphRef`, a delta form is
    materialized to the child graph), as is the bare inline document
    that ``POST /v1/graphs`` takes:

    * ``{"nodes": [[id, weight], ...], "edges": [[u, v], ...]}`` (the
      :func:`repro.graphs.io.to_doc` format);
    * by spec — ``{"spec": "gnp:100,0.05", "weights": "uniform:1,20",
      "seed": 7}``, materialized server-side through the generator zoo
      (``weights`` defaults to ``keep``, ``seed`` to 0).

    Raises :class:`SchemaError` on anything else.
    """
    if isinstance(doc, dict) and any(k in doc for k in _V2_GRAPH_TAGS):
        graph, _ = _decode_graph_v2(doc, store=store)
        return graph
    return _inline_graph(doc)


def _inline_graph(doc: Any) -> WeightedGraph:
    """Decode an inline graph document (nodes/edges or a spec).

    Every way the document can fail to describe a graph — a spec that
    does not parse or names out-of-range values, a negative or NaN
    weight, a self-loop, an edge to an unknown node — is a
    :class:`SchemaError`, and so is a ``file:`` spec: a request must not
    read files on the host that decodes it.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"graph must be an object, got {type(doc).__name__}")
    if "spec" in doc:
        spec = str(doc["spec"])
        if spec.partition(":")[0] == "file":
            raise SchemaError("graph spec kind 'file' is not accepted in a "
                              "request; send the graph inline or register "
                              "it with POST /v1/graphs")
        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SchemaError(f"graph spec seed must be an int, got {seed!r}")
        try:
            graph = graph_from_spec(spec, seed)
            weights = doc.get("weights")
            if weights is not None:
                graph = weights_from_spec(str(weights), graph, seed + 1)
        except (ValueError, GraphError) as exc:
            raise SchemaError(str(exc)) from exc
        return graph
    if "nodes" in doc and "edges" in doc:
        try:
            return _graph_from_inline_doc(doc)
        except GraphError as exc:
            raise SchemaError(str(exc)) from exc
    raise SchemaError(
        "graph must carry either nodes/edges (inline) or a spec"
    )


@dataclass(frozen=True)
class DeltaForm:
    """How a delta-form request arrived: parent fingerprint plus ops.

    Recorded on the parsed :class:`SolveRequest` (whose ``graph`` field
    is already the materialized child) so the serving layer can plan an
    incremental re-solve from the parent's cached report.  Never part of
    :meth:`SolveRequest.key`: the child graph's own fingerprint is the
    request identity, exactly as if the edited graph had been sent
    whole — which is what keeps delta-form, ref-form, and inline solves
    of the same content coalescing together.
    """

    parent: str
    delta: GraphDelta
    touched: Tuple[int, ...] = ()
    weight_only: bool = False

    def to_doc(self) -> Dict[str, Any]:
        return {"parent": self.parent, "ops": self.delta.to_doc()}


_V2_GRAPH_TAGS = ("inline", "ref", "delta")


def _decode_graph_v2(doc: Any, *, store: Optional[GraphStore] = None,
                     ) -> Tuple[Any, Optional[DeltaForm]]:
    """Decode the schema-v2 tagged graph union.

    Returns ``(graph, delta_form)`` where ``graph`` is a
    :class:`WeightedGraph` or :class:`GraphRef` and ``delta_form`` is the
    delta provenance (``None`` unless the ``delta`` tag was used).
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"graph must be an object, got {type(doc).__name__}")
    tags = [k for k in _V2_GRAPH_TAGS if k in doc]
    if len(tags) != 1:
        raise SchemaError(
            "schema-v2 graph must carry exactly one of "
            f"{'/'.join(_V2_GRAPH_TAGS)}, got {sorted(doc) or 'nothing'}"
        )
    tag = tags[0]
    if tag == "inline":
        return _inline_graph(doc["inline"]), None
    if tag == "delta":
        return _decode_delta_form(doc["delta"], store=store)
    # A ref resolves without materializing; an unknown one raises
    # UnknownGraphRef (HTTP 404).
    ref = doc["ref"]
    if not isinstance(ref, str) or not ref:
        raise SchemaError(f"ref must be a hex string, got {ref!r}")
    if store is None:
        raise SchemaError(
            "ref requires a graph store (this entry point has none "
            "configured)")
    try:
        return store.ref(ref), None
    except GraphFormatError as exc:
        raise SchemaError(str(exc)) from exc


def _decode_delta_form(value: Any, *, store: Optional[GraphStore] = None,
                       ) -> Tuple[WeightedGraph, DeltaForm]:
    """Materialize ``{"parent": fp, "ops": [...]}`` into the child graph.

    Malformed documents raise :class:`SchemaError` (HTTP 400); edits
    that contradict the parent's actual state raise
    :class:`~repro.graphs.delta.DeltaConflictError` (HTTP 409); an
    unknown parent raises
    :class:`~repro.graphs.store.UnknownGraphRef` (HTTP 404).
    """
    if not isinstance(value, dict):
        raise SchemaError(
            f"delta must be an object, got {type(value).__name__}")
    parent = value.get("parent")
    if not isinstance(parent, str) or not parent:
        raise SchemaError(
            f"delta.parent must be a graph fingerprint, got {parent!r}")
    if store is None:
        raise SchemaError(
            "delta-form graphs require a graph store (this entry point "
            "has none configured)")
    try:
        delta = GraphDelta.from_doc(value)
    except DeltaConflictError as exc:
        # Shape problems in the ops list are a bad request, not a
        # conflict with graph state.
        raise SchemaError(str(exc)) from exc
    try:
        parent_graph = store.attach(parent)
    except GraphFormatError as exc:
        raise SchemaError(str(exc)) from exc
    info = apply_delta_info(parent_graph, delta)
    form = DeltaForm(parent=parent, delta=delta,
                     touched=tuple(sorted(info.touched)),
                     weight_only=info.weight_only)
    return info.graph, form


def _canonical_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    out = dict(params)
    try:
        json.dumps(out, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"params must be JSON-serializable: {exc}") from exc
    return out


def _request_key(fingerprint: str, algorithm: str, seed: int,
                 params: Mapping[str, Any]) -> str:
    """The request identity: sha256 of ``{fingerprint, algorithm, seed,
    params}`` as sorted-key JSON.  The one place a request key is
    hashed — :meth:`SolveRequest.key` and the doc-only router keys all
    call it."""
    doc = {"fingerprint": fingerprint, "algorithm": algorithm,
           "seed": seed, "params": params}
    blob = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _identity_fields(doc: Mapping[str, Any],
                     ) -> Tuple[str, int, Dict[str, Any]]:
    """The validated ``(algorithm, seed, params)`` of a request doc."""
    algorithm = doc.get("algorithm")
    if not isinstance(algorithm, str) or not algorithm:
        raise SchemaError("request is missing the algorithm name")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SchemaError(f"seed must be an int, got {seed!r}")
    if seed < 0:
        raise SchemaError(f"seed must be non-negative, got {seed}")
    params = doc.get("params") or {}
    if not isinstance(params, dict):
        raise SchemaError(
            f"params must be an object, got {type(params).__name__}"
        )
    return algorithm, seed, params


# --------------------------------------------------------------------- #
# the request/report contract
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class SolveRequest:
    """One solve: ``algorithm(graph, seed=seed, **params)``.

    :meth:`key` — the request's identity — covers the graph content,
    algorithm, seed and params, and nothing else.  The other fields
    choose how the request is served, not what it computes:

    * ``timeout_s`` is the deadline the service enforces, and ``label``
      an opaque tag echoed into observability records;
    * ``backend`` selects the execution backend (``"per-node"`` or
      ``"columnar"``; the empty default leaves the choice to the
      caller's default).  Backends give byte-identical reports, so
      per-node and columnar twins coalesce, share cache entries and
      land on one fleet shard;
    * ``delta`` records the provenance when the graph arrived as
      ``{"delta": {parent, ops}}``, so a delta-form solve keys
      identically to a from-scratch solve of the edited graph.

    ``graph`` may be a materialized :class:`WeightedGraph` or a
    :class:`~repro.graphs.store.GraphRef`.  Because a ref's
    ``fingerprint()`` *is* the stored graph's content hash, :meth:`key`
    is identical either way — ref-based and body-based requests for the
    same computation coalesce together and share cache entries, which is
    what makes their reports byte-identical.
    """

    graph: Any  # WeightedGraph | GraphRef
    algorithm: str
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    timeout_s: Optional[float] = None
    label: str = ""
    backend: str = ""
    delta: Optional[DeltaForm] = None

    def key(self) -> str:
        """Coalescing identity: requests with equal keys are the same
        computation (graph content, algorithm, seed, params) and may be
        served by one execution."""
        return self.key_for_fingerprint(self.graph.fingerprint())

    def key_for_fingerprint(self, fingerprint: str) -> str:
        """:meth:`key` recomputed against another graph fingerprint.

        The incremental re-solve path uses this to derive the *parent's*
        cache/coalescing key from a delta-form request — same algorithm,
        seed and params, different graph content.
        """
        return _request_key(fingerprint, self.algorithm, self.seed,
                            self.params)

    def to_doc(self) -> Dict[str, Any]:
        """The request as a schema-v2 document; a delta-form request
        re-emits its delta union member rather than the materialized
        child."""
        if self.delta is not None:
            graph_doc = {"delta": self.delta.to_doc()}
        else:
            graph_doc = graph_to_doc(self.graph)
        doc: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "graph": graph_doc,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "params": dict(self.params),
        }
        if self.timeout_s is not None:
            doc["timeout_s"] = self.timeout_s
        if self.label:
            doc["label"] = self.label
        if self.backend:
            doc["backend"] = self.backend
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_doc(cls, doc: Any, *,
                 store: Optional[GraphStore] = None) -> "SolveRequest":
        if not isinstance(doc, dict):
            raise SchemaError(
                f"request must be an object, got {type(doc).__name__}"
            )
        schema = doc.get("schema")
        if schema != SCHEMA_VERSION:
            got = ("the request has no schema" if schema is None
                   else f"unsupported schema {schema!r}")
            raise SchemaError(f"{got}; {_V2_ONLY}")
        if "graph" not in doc:
            raise SchemaError("request is missing the graph field")
        algorithm, seed, params = _identity_fields(doc)
        timeout_s = doc.get("timeout_s")
        if timeout_s is not None:
            try:
                timeout_s = float(timeout_s)
            except (TypeError, ValueError) as exc:
                raise SchemaError(
                    f"timeout_s must be a number, got {doc['timeout_s']!r}"
                ) from exc
            if timeout_s <= 0:
                raise SchemaError(f"timeout_s must be positive, got {timeout_s}")
        backend = doc.get("backend", "")
        if backend:
            from repro.simulator.backends import normalize_backend_name

            try:
                backend = normalize_backend_name(backend)
            except ValueError as exc:
                raise SchemaError(str(exc)) from exc
        graph, delta_form = _decode_graph_v2(doc["graph"], store=store)
        return cls(
            graph=graph,
            algorithm=algorithm,
            seed=seed,
            params=_canonical_params(params),
            timeout_s=timeout_s,
            label=str(doc.get("label", "")),
            backend=str(backend or ""),
            delta=delta_form,
        )

    @classmethod
    def from_json(cls, text: str, *,
                  store: Optional[GraphStore] = None) -> "SolveRequest":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise SchemaError(f"request is not valid JSON: {exc}") from exc
        return cls.from_doc(doc, store=store)


def _key_from_doc(doc: Any, *path: str) -> Optional[str]:
    """:func:`_request_key` of a schema-v2 request ``doc`` against the
    fingerprint at ``doc["graph"][path[0]][path[1]]...``, or ``None``
    when the doc is not well-formed enough to say."""
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        return None
    fingerprint = doc.get("graph")
    for step in path:
        fingerprint = (fingerprint.get(step)
                       if isinstance(fingerprint, dict) else None)
    if not isinstance(fingerprint, str) or not fingerprint:
        return None
    try:
        return _request_key(fingerprint, *_identity_fields(doc))
    except SchemaError:
        return None


def request_key_from_doc(doc: Any) -> Optional[str]:
    """Compute :meth:`SolveRequest.key` for a reference-form request doc
    without materializing anything.

    The fleet router shards by request key; for a reference-form request
    (``{"ref": fp}``) the graph fingerprint is right there in the doc,
    so the key — and hence the shard — is computable with no graph
    store, no body reparse, and no size-dependent work.  Returns
    ``None`` whenever the doc is not a well-formed reference request
    (the caller falls back to the full parse path, which produces the
    proper schema error or inline-graph key).
    """
    return _key_from_doc(doc, "ref")


def delta_route_key_from_doc(doc: Any) -> Optional[str]:
    """A *placement hint* for a delta-form request: the key the same
    (algorithm, seed, params) solve would have against the **parent**
    graph.

    Not the request's identity — the true key uses the child's
    fingerprint, which only exists after the delta is applied.  But
    sharding by this hint lands the solve on the shard whose memory
    cache holds the parent's report, which is exactly where the
    incremental re-solve path wants to run.  Returns ``None`` for
    non-delta docs.
    """
    return _key_from_doc(doc, "delta", "parent")


def _strip_wall(obj: Any) -> Any:
    """Drop ``wall_seconds`` entries (span-tree timings) recursively.

    Everything else in a metrics document is a deterministic function of
    (graph, algorithm, seed, params); wall-clock is the one field that
    would break canonical report identity.
    """
    if isinstance(obj, dict):
        return {k: _strip_wall(v) for k, v in obj.items()
                if k != "wall_seconds"}
    if isinstance(obj, list):
        return [_strip_wall(x) for x in obj]
    return obj


@dataclass(frozen=True)
class SolveReport:
    """The canonical, deterministic record of one solve.

    Contains only fields that are a pure function of the request: no
    wall-clock, no cache provenance, no serving metadata.  Serializing a
    report (``to_json``) therefore yields byte-identical output for the
    in-process and HTTP paths of the same fixed-seed request.
    """

    algorithm: str
    seed: int
    graph_fingerprint: str
    ok: bool
    independent_set: Tuple[int, ...]
    weight: float
    rounds: int
    messages: int
    total_bits: int
    metrics: Optional[Dict[str, Any]]
    metadata: Dict[str, Any] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)
    error: str = ""
    label: str = ""

    @classmethod
    def from_outcome(cls, outcome, *, graph: WeightedGraph,
                     algorithm: str, params: Mapping[str, Any]) -> "SolveReport":
        """Build a report from a batch-engine ``JobOutcome``."""
        metrics = outcome.metrics
        return cls(
            algorithm=algorithm,
            seed=outcome.seed,
            graph_fingerprint=graph.fingerprint(),
            ok=outcome.ok,
            independent_set=tuple(outcome.independent_set),
            weight=outcome.weight,
            rounds=metrics.rounds if metrics is not None else 0,
            messages=metrics.messages if metrics is not None else 0,
            total_bits=metrics.total_bits if metrics is not None else 0,
            metrics=(None if metrics is None
                     else _strip_wall(metrics.to_dict())),
            metadata=dict(outcome.metadata),
            params=dict(params),
            error=outcome.error,
            label=outcome.label,
        )

    def to_doc(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "graph_fingerprint": self.graph_fingerprint,
            "ok": self.ok,
            "independent_set": list(self.independent_set),
            "weight": self.weight,
            "rounds": self.rounds,
            "messages": self.messages,
            "total_bits": self.total_bits,
            "metrics": self.metrics,
            "metadata": dict(self.metadata),
            "params": dict(self.params),
            "error": self.error,
            "label": self.label,
        }

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, compact separators."""
        return json.dumps(self.to_doc(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_doc(cls, doc: Any) -> "SolveReport":
        if not isinstance(doc, dict):
            raise SchemaError(
                f"report must be an object, got {type(doc).__name__}"
            )
        schema = doc.get("schema", REPORT_SCHEMA_VERSION)
        if schema != REPORT_SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported report schema {schema!r}; this build "
                f"speaks {REPORT_SCHEMA_VERSION!r}"
            )
        try:
            return cls(
                algorithm=str(doc["algorithm"]),
                seed=int(doc["seed"]),
                graph_fingerprint=str(doc.get("graph_fingerprint", "")),
                ok=bool(doc["ok"]),
                independent_set=tuple(int(v) for v in
                                      doc.get("independent_set", [])),
                weight=float(doc.get("weight", 0.0)),
                rounds=int(doc.get("rounds", 0)),
                messages=int(doc.get("messages", 0)),
                total_bits=int(doc.get("total_bits", 0)),
                metrics=doc.get("metrics"),
                metadata=dict(doc.get("metadata") or {}),
                params=dict(doc.get("params") or {}),
                error=str(doc.get("error", "")),
                label=str(doc.get("label", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad report document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "SolveReport":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise SchemaError(f"report is not valid JSON: {exc}") from exc
        return cls.from_doc(doc)

    @property
    def size(self) -> int:
        return len(self.independent_set)


# --------------------------------------------------------------------- #
# the facade calls
# --------------------------------------------------------------------- #

def _check_algorithm(algorithm: str) -> None:
    names = algorithm_registry()
    if algorithm not in names:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; known: {sorted(names)}"
        )


def solve(
    graph,
    algorithm: str,
    *,
    seed: int = 0,
    policy: Optional[Any] = None,
    cache_dir: Optional[str] = None,
    raise_on_error: bool = True,
    backend: Optional[str] = None,
    **params: Any,
) -> SolveReport:
    """Run one registry algorithm on one instance; the blessed entry point.

    Exactly the computation the solver service performs for the same
    request — same seed semantics, same disk-cache keys (when
    ``cache_dir`` is shared), byte-identical canonical report.

    Args:
        graph: the weighted instance — a :class:`WeightedGraph`, or a
            :class:`~repro.graphs.store.GraphRef` from a
            :class:`~repro.graphs.store.GraphStore` (resolved zero-copy
            where the job executes; the report is byte-identical to
            passing the materialized graph).
        algorithm: a :func:`repro.registry.algorithm_registry` name.
        seed: root of the run's randomness (fixed seed ⇒ fixed output).
        policy: optional bandwidth policy forwarded to the algorithm.
        cache_dir: optional JSON disk cache shared with the batch engine
            and the service.
        raise_on_error: raise :class:`SolveError` if the run fails
            (default); pass ``False`` to get the failed report back
            instead — the service's behaviour.
        backend: execution backend name (``"per-node"``/``"columnar"``);
            ``None`` keeps the per-node default.  Fixed-seed reports are
            byte-identical across backends, so both read and write the
            same ``cache_dir`` entry.
        **params: algorithm parameters (e.g. ``eps=0.5``).

    Returns:
        The canonical :class:`SolveReport`.
    """
    from repro.simulator.batch import BatchJob, run_job

    _check_algorithm(algorithm)
    job = BatchJob(graph, algorithm, seed=seed,
                   params=_canonical_params(params),
                   backend=backend or None)
    outcome = run_job(job, policy=policy, cache_dir=cache_dir)
    report = SolveReport.from_outcome(outcome, graph=graph,
                                      algorithm=algorithm, params=params)
    if raise_on_error and not report.ok:
        raise SolveError(
            f"{algorithm} failed on seed {seed}: {report.error}", report
        )
    return report


def sweep(
    graph,
    algorithm: str,
    *,
    seeds: int = 10,
    master_seed: int = 0,
    n_jobs: int = 1,
    policy: Optional[Any] = None,
    cache_dir: Optional[str] = None,
    backend: Optional[str] = None,
    **params: Any,
) -> List[SolveReport]:
    """Run ``seeds`` independent solves with derived per-trial seeds.

    A facade over the batch engine: per-trial seeds come from
    ``SeedSequence(master_seed)`` in spawn order (so report ``i`` is the
    same no matter how many workers ran the sweep), failures are captured
    as ``ok=False`` reports rather than raised, and ``cache_dir`` memoizes
    completed trials across invocations.
    """
    from repro.simulator.batch import BatchJob, batch_run

    _check_algorithm(algorithm)
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    canonical = _canonical_params(params)
    jobs = [BatchJob(graph, algorithm, params=dict(canonical),
                     backend=backend or None)
            for _ in range(seeds)]
    result = batch_run(jobs, master_seed=master_seed, n_jobs=n_jobs,
                       cache_dir=cache_dir, policy=policy)
    return [SolveReport.from_outcome(o, graph=graph, algorithm=algorithm,
                                     params=canonical)
            for o in result.outcomes]


def describe_algorithms() -> List[Dict[str, Any]]:
    """Name + call signature of every registry algorithm.

    The payload of ``GET /v1/algorithms`` and ``repro algorithms``: one
    entry per registry name with the keyword parameters (and defaults)
    its wrapper accepts beyond the uniform ``(graph, seed, policy)``.
    """
    import inspect

    out = []
    for name, fn in sorted(algorithm_registry().items()):
        params: List[Dict[str, Any]] = []
        accepts_extra = False
        for pname, p in inspect.signature(fn).parameters.items():
            if p.kind is inspect.Parameter.VAR_KEYWORD:
                accepts_extra = True
                continue
            if pname in ("g", "graph") or p.kind is inspect.Parameter.VAR_POSITIONAL:
                continue
            entry: Dict[str, Any] = {"name": pname}
            if p.default is not inspect.Parameter.empty:
                entry["default"] = p.default
            params.append(entry)
        out.append({
            "name": name,
            "params": params,
            "accepts_extra_params": accepts_extra,
        })
    return out
