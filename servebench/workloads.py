"""The four workloads: inputs from a seed, preparation, operations, checks.

Each workload is built so that one group of layers does nearly all the
work and every operation costs about the same.  Inputs are a pure
function of the seed; the server only ever sees the generated request
bytes.  Output checks run after the timed phase, on what the client
recorded, so the client stays light while it measures.

Graphs are built with the program's own seeded generators
(``repro.graphs.specs``) and travel as JSON graph documents or binary
blobs, exactly as any client would send them.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from client import Connection, Operation, Outcome, Record

SOLVE = "/v1/solve"
GRAPHS = "/v1/graphs"


def dumps(doc: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, compact separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def make_graph(spec: str, weights: str, seed: int):
    from repro.graphs.specs import graph_from_spec, weights_from_spec

    return weights_from_spec(weights, graph_from_spec(spec, seed=seed),
                             seed=seed + 1)


def graph_doc(graph) -> Dict[str, Any]:
    from repro.graphs.io import to_doc

    return to_doc(graph)


def solve_body(graph: Dict[str, Any], algorithm: str, seed: int, *,
               params: Dict[str, Any], backend: str = "") -> bytes:
    doc = {"schema": "v2", "graph": graph, "algorithm": algorithm,
           "seed": seed, "params": params}
    if backend:
        doc["backend"] = backend
    return dumps(doc)


def post(conn: Connection, path: str, body: bytes) -> bytes:
    """An untimed set-up request; anything but 200 aborts the run."""
    status, payload = conn.request("POST", path, body)
    if status != 200:
        raise RuntimeError(f"set-up POST {path} answered {status}: "
                           f"{payload[:300]!r}")
    return payload


def report_of(payload: bytes) -> Dict[str, Any]:
    return json.loads(payload)["report"]


def report_bytes(report: Dict[str, Any]) -> bytes:
    """The canonical serialization ``SolveReport.to_json`` produces."""
    return dumps(report)


class EdgeIndex:
    """A graph's edges as two numpy columns over node slots, for one
    vectorized independence/maximality pass per reported set."""

    def __init__(self, graph) -> None:
        self.ids = np.asarray(sorted(graph.nodes), dtype=np.int64)
        edges = np.asarray(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
        self.u = np.searchsorted(self.ids, edges[:, 0])
        self.v = np.searchsorted(self.ids, edges[:, 1])

    def mask(self, chosen: Sequence[int]) -> np.ndarray:
        slots = np.searchsorted(self.ids, np.asarray(chosen, dtype=np.int64))
        if len(slots) and (slots.max() >= len(self.ids)
                           or np.any(self.ids[slots] != chosen)):
            raise ValueError("set names a node the graph does not have")
        out = np.zeros(len(self.ids), dtype=bool)
        out[slots] = True
        return out

    def independent(self, mask: np.ndarray) -> bool:
        return not np.any(mask[self.u] & mask[self.v])

    def maximal(self, mask: np.ndarray) -> bool:
        covered = mask.copy()
        covered[self.u[mask[self.v]]] = True
        covered[self.v[mask[self.u]]] = True
        return bool(covered.all())


def set_problems(report: Dict[str, Any], index: EdgeIndex, *,
                 maximal: bool = False) -> List[str]:
    """Structural problems of one reported set (empty when it is fine)."""
    if not report.get("ok"):
        return [f"report not ok: {report.get('error')}"]
    try:
        mask = index.mask(report["independent_set"])
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if not index.independent(mask):
        problems.append("set is not independent")
    if maximal and not index.maximal(mask):
        problems.append("set is not maximal")
    return problems


class Workload:
    """Base class: a named traffic mix with a fixed number of operations.

    ``rate`` is the number of operations per second of ``--seconds``: a
    run performs ``round(rate * seconds)`` operations however fast the
    server is, so peak memory and sample counts never depend on speed.
    ``tail_pct`` is the one fixed percentile ``tail_ms`` reports.
    """

    name = ""
    why = ""
    rate = 1.0
    tail_pct = 50.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        # In-process answers the checks compare with.  Every round sends
        # the same operations, so each is computed once per run.
        self._expected: Dict[Any, Any] = {}

    def expected(self, key: Any, compute: Callable[[], Any]) -> Any:
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    def op_count(self, seconds: float) -> int:
        return max(1, round(self.rate * seconds))

    def prepare(self, conn: Connection) -> None:
        """Untimed set-up against a freshly started server."""

    def stream(self, total: int) -> Iterator[Operation]:
        """The ``total`` timed operations, in the order they are sent."""
        raise NotImplementedError

    def check(self, records: List[Record]) -> Dict[int, str]:
        """Failed output checks, as ``{record position: reason}``."""
        raise NotImplementedError

    def reports(self, records: List[Record]) -> List[Dict[str, Any]]:
        """The solve reports of the successful operations, for
        per-operation counts such as simulated rounds."""
        return [report_of(r.outcome.keep) for r in records if r.ok]


def _solve_op(body: bytes) -> Operation:
    def op(conn: Connection) -> Outcome:
        status, payload = conn.request("POST", SOLVE, body)
        return Outcome((status,), len(payload), payload)
    return op


# --------------------------------------------------------------------- #
# paper-fresh
# --------------------------------------------------------------------- #

class PaperFresh(Workload):
    """The paper's pipelines on their intended inputs, fresh seeds.

    One operation is one pass over the rotation below: six solves, one
    after the other, each with a seed of its own.  The six cost from
    about one to about three units, so single solves would make a
    six-peaked latency distribution whose median falls between two
    peaks; a pass costs about the same every time.
    """

    name = "paper-fresh"
    why = ("each op one pass of thm1/2/8/9 on gnp and thm3 on a tree and "
           "a grid, inline graphs, fresh seeds: per-node runner, algorithms "
           "and graph decoding do the work")
    rate = 1.5
    tail_pct = 66.0
    # (algorithm, graph) in the fixed rotation of one operation; thm3
    # stays on its low-arboricity inputs (it is ~100x slower on gnp).
    KINDS = (("thm1", "gnp"), ("thm2", "gnp"), ("thm8", "gnp"),
             ("thm9", "gnp"), ("thm3", "tree"), ("thm3", "grid"))
    SPECS = {"gnp": "gnp:600,0.0167", "tree": "tree:600", "grid": "grid:25,24"}
    WEIGHTS = "integers:1000"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        graph_seeds = self.rng.integers(0, 2**31, size=len(self.SPECS))
        self.graphs = {kind: make_graph(spec, self.WEIGHTS, int(s))
                       for (kind, spec), s in zip(self.SPECS.items(),
                                                  graph_seeds)}
        self.docs = {kind: {"inline": graph_doc(g)}
                     for kind, g in self.graphs.items()}
        self.base_seed = int(self.rng.integers(16, 2**30))

    def body(self, kind: int, seed: int) -> bytes:
        algorithm, graph = self.KINDS[kind]
        return solve_body(self.docs[graph], algorithm, seed, params={})

    def op_seed(self, index: int, kind: int) -> int:
        return self.base_seed + index * len(self.KINDS) + kind

    def prepare(self, conn: Connection) -> None:
        # One warm-up solve per kind, with seeds no timed operation uses.
        for kind in range(len(self.KINDS)):
            post(conn, SOLVE, self.body(kind, self.base_seed - 1 - kind))

    def stream(self, total: int) -> Iterator[Operation]:
        for i in range(total):
            bodies = [self.body(kind, self.op_seed(i, kind))
                      for kind in range(len(self.KINDS))]

            def op(conn: Connection, bodies=bodies) -> Outcome:
                replies = [conn.request("POST", SOLVE, body)
                           for body in bodies]
                return Outcome(tuple(status for status, _ in replies),
                               sum(len(payload) for _, payload in replies),
                               [payload for _, payload in replies])
            yield op

    def check(self, records: List[Record]) -> Dict[int, str]:
        from repro.api import solve

        indexes = {kind: EdgeIndex(g) for kind, g in self.graphs.items()}
        weights = {kind: g.weights for kind, g in self.graphs.items()}
        failures: Dict[int, str] = {}
        sampled = False
        for pos, rec in enumerate(records):
            if not rec.ok:
                continue
            problems = []
            for kind, payload in enumerate(rec.outcome.keep):
                algorithm, graph = self.KINDS[kind]
                report = report_of(payload)
                found = set_problems(report, indexes[graph])
                if not found:
                    w = weights[graph]
                    total = sum(w[v] for v in report["independent_set"])
                    if not math.isclose(total, report["weight"],
                                        rel_tol=1e-12):
                        found.append(
                            f"weight {report['weight']} != sum {total}")
                if not sampled and not found:
                    # Every report of the first operation must equal the
                    # library's own in-process answer, byte for byte.
                    seed = self.op_seed(rec.index, kind)
                    expected = self.expected((kind, seed), lambda: solve(
                        self.graphs[graph], algorithm,
                        seed=seed).to_json().encode())
                    if expected != report_bytes(report):
                        found.append("differs from in-process repro.api.solve")
                problems += [f"{algorithm}/{graph}: {p}" for p in found]
            sampled = True
            if problems:
                failures[pos] = "; ".join(problems)
        return failures

    def reports(self, records: List[Record]) -> List[Dict[str, Any]]:
        return [report_of(p) for r in records if r.ok for p in r.outcome.keep]


# --------------------------------------------------------------------- #
# hot-skew
# --------------------------------------------------------------------- #

def report_slice(payload: bytes) -> bytes:
    """The report's bytes inside a solve reply, without parsing it.

    The server writes the envelope with sorted keys, so it reads
    ``{"report":<report>,"schema":...,"served":{...}}``; the report has
    its own ``schema`` key, so the envelope's is the last one.
    ``check`` confirms this layout on every set-up reply before it
    relies on it.
    """
    head = b'{"report":'
    if not payload.startswith(head):
        return b""
    return payload[len(head):payload.rfind(b',"schema":')]


class HotSkew(Workload):
    """Zipf repeats over small certifiable requests: the cache path."""

    name = "hot-skew"
    why = ("Zipf(1.0) repeats over ~500 small requests solved during "
           "set-up: HTTP, parse cache, request key, admission and both "
           "cache tiers do the work, no solver runs")
    rate = 1200.0
    tail_pct = 99.0
    ALGORITHMS = ("thm1", "thm2", "thm3")
    SEEDS_PER_PAIR = 24

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.graphs.specs import graph_from_spec, weights_from_spec
        from repro.service.loadgen import DEFAULT_SPECS

        # The zoo's fixed instances, built as `repro loadgen` builds them:
        # the seed picks the solver seeds and the Zipf draws, not the
        # graphs, so request and reply sizes do not change with it.
        self.graphs = [weights_from_spec(weights, graph_from_spec(spec, seed=i),
                                         seed=1000 + i)
                       for i, (spec, weights) in enumerate(DEFAULT_SPECS)]
        docs = [{"inline": graph_doc(g)} for g in self.graphs]
        seeds = self.rng.choice(2**20, size=self.SEEDS_PER_PAIR * len(docs)
                                * len(self.ALGORITHMS), replace=False)
        # Keys in popularity order, (graph, algorithm) pairs taking turns,
        # so every seed gives the same mix of requests at each popularity.
        pairs = [(gi, algorithm) for gi in range(len(docs))
                 for algorithm in self.ALGORITHMS]
        self.keys: List[Tuple[int, str, int]] = [
            (*pairs[i % len(pairs)], int(seed)) for i, seed in enumerate(seeds)]
        self.bodies = [solve_body(docs[gi], algorithm, seed,
                                  params={"eps": 0.5})
                       for gi, algorithm, seed in self.keys]
        # Zipf(1.0): the key at popularity rank r is drawn with
        # probability proportional to 1/r.
        weights = 1.0 / np.arange(1, len(self.keys) + 1)
        self.popularity = weights / weights.sum()
        self.prepared: List[bytes] = []

    def key_sequence(self, count: int) -> np.ndarray:
        """The seeded Zipf sequence of key indexes the client sends."""
        rng = np.random.default_rng([self.seed, 7919])
        return rng.choice(len(self.keys), size=count, p=self.popularity)

    def prepare(self, conn: Connection) -> None:
        # Solve every key once, least popular first, so the memory tier
        # starts the timed phase holding the popular keys and no timed
        # request runs a solver.
        replies = [post(conn, SOLVE, body) for body in reversed(self.bodies)]
        self.prepared = replies[::-1]

    def stream(self, total: int) -> Iterator[Operation]:
        def op_for(key: int) -> Operation:
            body = self.bodies[key]

            def op(conn: Connection) -> Outcome:
                status, payload = conn.request("POST", SOLVE, body)
                digest = hashlib.blake2b(report_slice(payload),
                                         digest_size=16).digest()
                return Outcome((status,), len(payload), (key, digest))
            return op

        for key in self.key_sequence(total):
            yield op_for(int(key))

    def check(self, records: List[Record]) -> Dict[int, str]:
        from repro.api import SolveReport
        from repro.core.exact import exact_max_weight_is
        from repro.core.verify import certify_result
        from repro.exceptions import VerificationError

        opt = self.expected("opt", lambda: [exact_max_weight_is(g)[1]
                                            for g in self.graphs])
        first: List[bytes] = []
        bad_keys: Dict[int, str] = {}
        for key, payload in enumerate(self.prepared):
            report = report_of(payload)
            gi, algorithm, _seed = self.keys[key]
            first.append(hashlib.blake2b(report_slice(payload),
                                         digest_size=16).digest())
            if report_slice(payload) != report_bytes(report):
                bad_keys[key] = "reply envelope layout changed"
                continue
            try:
                cert = certify_result(self.graphs[gi],
                                      SolveReport.from_doc(report),
                                      opt=opt[gi])
            except VerificationError as exc:
                bad_keys[key] = f"{algorithm}: {exc}"
                continue
            if not report["ok"] or not cert.holds:
                bad_keys[key] = f"{algorithm}: not certified ({cert})"
        failures: Dict[int, str] = {}
        for pos, rec in enumerate(records):
            if not rec.ok:
                continue
            key, digest = rec.outcome.keep
            if key in bad_keys:
                failures[pos] = bad_keys[key]
            elif digest != first[key]:
                failures[pos] = "repeat differs from the key's first report"
        return failures

    def reports(self, records: List[Record]) -> List[Dict[str, Any]]:
        by_key = [report_of(p) for p in self.prepared]
        return [by_key[r.outcome.keep[0]] for r in records if r.ok]


# --------------------------------------------------------------------- #
# scale-fresh and delta-chain: one 2*10^4-node graph registered by ref
# --------------------------------------------------------------------- #

class _RegisteredGraph(Workload):
    SPEC = "gnp:20000,0.0002"
    WEIGHTS = "integers:1000"
    ALGORITHM = "mis-luby"
    BACKEND = "columnar"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.graph = make_graph(self.SPEC, self.WEIGHTS,
                                int(self.rng.integers(0, 2**31)))
        from repro.graphs.io import to_bytes

        self.blob = to_bytes(self.graph)
        self.ref = ""

    def register(self, conn: Connection) -> None:
        self.ref = json.loads(post(conn, GRAPHS, self.blob))["graph_ref"]

    def solve(self, graph: Dict[str, Any], seed: int) -> bytes:
        return solve_body(graph, self.ALGORITHM, seed, params={},
                          backend=self.BACKEND)

    def in_process(self, graph, seed: int) -> bytes:
        from repro.api import solve

        return solve(graph, self.ALGORITHM, seed=seed,
                     backend=self.BACKEND).to_json().encode()


class ScaleFresh(_RegisteredGraph):
    """Fresh-seed columnar mis-luby solves by ref on a 2*10^4-node graph."""

    name = "scale-fresh"
    why = ("fresh-seed mis-luby by ref on a 2e4-node gnp, columnar: "
           "per-node PCG64 streams in the kernels dominate; runner and "
           "cache reads idle")
    rate = 1.8
    tail_pct = 72.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.base_seed = int(self.rng.integers(16, 2**30))

    def op_seed(self, index: int) -> int:
        return self.base_seed + index

    def prepare(self, conn: Connection) -> None:
        self.register(conn)
        post(conn, SOLVE, self.solve({"ref": self.ref}, self.base_seed - 1))

    def stream(self, total: int) -> Iterator[Operation]:
        for i in range(total):
            yield _solve_op(self.solve({"ref": self.ref}, self.op_seed(i)))

    def check(self, records: List[Record]) -> Dict[int, str]:
        index = EdgeIndex(self.graph)
        failures: Dict[int, str] = {}
        sampled = False
        for pos, rec in enumerate(records):
            if not rec.ok:
                continue
            report = report_of(rec.outcome.keep)
            problems = set_problems(report, index, maximal=True)
            if not sampled and not problems:
                # One report per round must equal the library's own
                # in-process answer, byte for byte.
                sampled = True
                seed = self.op_seed(rec.index)
                expected = self.expected(
                    seed, lambda: self.in_process(self.graph, seed))
                if expected != report_bytes(report):
                    problems.append("differs from in-process repro.api.solve")
            if problems:
                failures[pos] = "; ".join(problems)
        return failures


class DeltaChain(_RegisteredGraph):
    """Weight-only delta epochs, always served incrementally."""

    name = "delta-chain"
    why = ("weight-only delta epochs on the same graph, served "
           "incrementally then registered: delta apply, certification, "
           "report derivation and store writes work; no solver runs")
    # Epochs per second of --seconds.  Server memory grows with every
    # epoch (see README.md), so this sets the chain's length, not a speed.
    rate = 7.5
    tail_pct = 93.0
    EDITS = 200          # 1% of the nodes reweighted per epoch

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.chain_seed = int(self.rng.integers(0, 2**30))

    def prepare(self, conn: Connection) -> None:
        self.register(conn)
        # Warm the root's report: every epoch derives from its parent's.
        post(conn, SOLVE, self.solve({"ref": self.ref}, self.chain_seed))

    def delta_ops(self, count: int) -> Iterator[List[list]]:
        """The seeded edit scripts of the chain's epochs."""
        rng = np.random.default_rng([self.seed, 104729])
        n = self.graph.n
        for _ in range(count):
            nodes = rng.choice(n, size=self.EDITS, replace=False)
            weights = rng.integers(1, 1001, size=self.EDITS)
            yield [["set_weight", int(v), float(w)]
                   for v, w in zip(nodes, weights)]

    def stream(self, total: int) -> Iterator[Operation]:
        # One chain, rooted at the registered graph.
        parent = [self.ref]
        for ops in self.delta_ops(total):
            def op(conn: Connection, ops=ops) -> Outcome:
                status, payload = conn.request("POST", SOLVE, self.solve(
                    {"delta": {"parent": parent[0], "ops": ops}},
                    self.chain_seed))
                if status != 200:
                    return Outcome((status,), len(payload))
                status2, reply = conn.request(
                    "POST", f"{GRAPHS}/{parent[0]}/deltas",
                    dumps({"ops": ops}))
                if status2 == 200:
                    parent[0] = json.loads(reply)["graph_ref"]
                return Outcome((status, status2),
                               len(payload) + len(reply), payload)
            yield op

    def check(self, records: List[Record]) -> Dict[int, str]:
        from repro.graphs.weighted_graph import WeightedGraph

        index = EdgeIndex(self.graph)
        failures: Dict[int, str] = {}
        # The last epoch is compared with a from-scratch solve of its
        # child (every edit applied).
        last = len(records) - 1
        weights = self.graph.weights
        edits = self.delta_ops(len(records))
        for i, (rec, ops) in enumerate(zip(records, edits)):
            for _kind, v, w in ops:
                weights[v] = w
            if not rec.ok:
                continue
            envelope = json.loads(rec.outcome.keep)
            report = envelope["report"]
            problems = set_problems(report, index, maximal=True)
            mode = envelope["served"].get("solve_mode")
            if mode != "incremental":
                problems.append(f"solve_mode {mode!r}, not incremental")
            if i == last and not problems:
                def from_scratch(weights=weights) -> bytes:
                    child = WeightedGraph.from_edges(
                        self.graph.nodes, self.graph.edges(), weights)
                    return self.in_process(child, self.chain_seed)
                if self.expected(i, from_scratch) != report_bytes(report):
                    problems.append("differs from a from-scratch solve "
                                    "of the child")
            if problems:
                failures[i] = f"epoch {i}: " + "; ".join(problems)
        return failures


WORKLOADS = {w.name: w for w in (PaperFresh, HotSkew, ScaleFresh, DeltaChain)}
