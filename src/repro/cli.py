"""Command-line interface.

Subcommands::

    python -m repro run --algorithm thm2 --graph gnp:300,0.04 \\
        --weights uniform:1,100 --eps 0.5 --seed 7
    python -m repro sweep --algorithm ranking --graph gnp:100,0.05 \\
        --seeds 32 --jobs 4 --cache .sweep-cache --json
    python -m repro experiments E1 E5 E9 --jobs 4
    python -m repro run --algorithm thm1 --record trace.jsonl --phases
    python -m repro inspect trace.jsonl --format chrome-trace
    python -m repro bench --baseline BENCH_runner.json --tolerance 1.5
    python -m repro info --graph grid:10,20 --weights integers:1000
    python -m repro algorithms
    python -m repro serve --port 8008 --workers 4 --cache .serve-cache
    python -m repro fleet --port 8009 --workers 4 --cache .fleet-cache
    python -m repro loadgen --port 8008 --rate 50 --duration 5
    python -m repro loadgen --arrival bursty --rate 100 --arrival-seed 7
    python -m repro loadgen --graph-ref --arrival uniform --rate 20

Graph specs: ``gnp:n,p`` | ``regular:n,d`` | ``tree:n`` | ``grid:r,c`` |
``cycle:n`` | ``path:n`` | ``geometric:n,radius`` | ``caterpillar:spine,legs``
| ``file:PATH`` (the text format of :mod:`repro.graphs.io`).

Weight specs: ``unit`` | ``uniform:lo,hi`` | ``integers:W`` |
``skewed:fraction,heavy`` | ``degree``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.graphs import WeightedGraph, summarize
from repro.graphs.specs import graph_from_spec, weights_from_spec
from repro.registry import algorithm_registry

__all__ = ["main", "parse_graph_spec", "parse_weight_spec"]


def parse_graph_spec(spec: str, seed: Optional[int]) -> WeightedGraph:
    """Materialize a graph from a ``kind:args`` spec string (CLI flavour:
    parse errors exit instead of raising)."""
    try:
        return graph_from_spec(spec, seed)
    except ValueError as exc:
        raise SystemExit(str(exc))


def parse_weight_spec(spec: str, graph: WeightedGraph, seed: Optional[int]) -> WeightedGraph:
    """Apply a weight scheme spec to ``graph`` (CLI flavour: parse errors
    exit instead of raising)."""
    try:
        return weights_from_spec(spec, graph, seed)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _eps_params(name: str, eps: float) -> Dict[str, float]:
    """``{"eps": eps}`` for a registry entry that declares ``eps`` (as
    ``repro algorithms`` lists it), else ``{}``."""
    from repro.api import describe_algorithms

    entry = next(e for e in describe_algorithms() if e["name"] == name)
    return ({"eps": eps} if any(p["name"] == "eps" for p in entry["params"])
            else {})


def _run_algorithm(name: str, graph: WeightedGraph, eps: float,
                   seed: Optional[int]):
    """Run the registry entry ``name`` the way ``repro.api.solve`` does."""
    return algorithm_registry()[name](graph, seed=seed,
                                      **_eps_params(name, eps))


def _fault_plan(args: argparse.Namespace):
    """Build the composite fault plan from ``--loss/--delay/--dup/--crash``
    flags (``None`` when no fault flag was given)."""
    loss = getattr(args, "loss", None)
    delay = getattr(args, "delay", None)
    dup = getattr(args, "dup", None)
    crash = getattr(args, "crash", None)
    if not (loss or delay or dup or crash):
        return None
    from repro.faults import (MessageDelay, MessageDuplication, MessageLoss,
                              composite, parse_crash_spec)

    plans = []
    try:
        if loss:
            plans.append(MessageLoss(loss))
        if delay:
            plans.append(MessageDelay(delay))
        if dup:
            plans.append(MessageDuplication(dup))
        if crash:
            plans.append(parse_crash_spec(crash))
    except ValueError as exc:
        raise SystemExit(f"bad fault flag: {exc}")
    return composite(*plans)


@contextmanager
def _report_fault_failure(plan, args: argparse.Namespace):
    """Turn an algorithm crash under injected faults into a clean report."""
    from repro.exceptions import ReproError

    try:
        yield
    except (ReproError, ArithmeticError, LookupError, TypeError,
            ValueError) as exc:
        doc = {"algorithm": args.algorithm, "faults": plan.describe(),
               "failed": True, "error": f"{type(exc).__name__}: {exc}"}
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            print(f"algorithm {args.algorithm} failed under "
                  f"{plan.describe()}: {doc['error']}")
        raise SystemExit(1)


def _cmd_run(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    graph = parse_graph_spec(args.graph, args.seed)
    graph = parse_weight_spec(args.weights, graph, None if args.seed is None
                              else args.seed + 1)
    plan = _fault_plan(args)

    with ExitStack() as stack:
        if args.backend and args.backend != "per-node":
            from repro.simulator.instrument import install_backend

            stack.enter_context(install_backend(args.backend))
        if plan is not None:
            from repro.simulator.instrument import install_faults

            stack.enter_context(install_faults(plan))
            # Under faults an algorithm may fail outright (e.g. a delayed
            # message from an earlier phase reaching a later-phase handler).
            # That is a legitimate measurement — report it, don't traceback.
            stack.enter_context(_report_fault_failure(plan, args))
        if args.record is not None:
            from repro.obs import JsonlStreamSink
            from repro.simulator.instrument import install_sink

            sink = stack.enter_context(JsonlStreamSink(args.record))
            sink.write({
                "type": "meta",
                "algorithm": args.algorithm,
                "graph_spec": args.graph,
                "weights_spec": args.weights,
                "eps": args.eps,
                "seed": args.seed,
                "n": graph.n,
                "m": graph.m,
                **({"faults": plan.describe()} if plan is not None else {}),
            })
            with install_sink(sink):
                result = _run_algorithm(args.algorithm, graph, args.eps,
                                        args.seed)
            sink.write({
                "type": "result",
                "algorithm": args.algorithm,
                "independent_set_size": result.size,
                "independent_set_weight": result.weight(graph),
                "metrics": result.metrics.to_dict(),
            })
        else:
            result = _run_algorithm(args.algorithm, graph, args.eps,
                                    args.seed)

    payload = {
        "algorithm": args.algorithm,
        "graph": {"n": graph.n, "m": graph.m, "max_degree": graph.max_degree,
                  "total_weight": graph.total_weight()},
        "independent_set_size": result.size,
        "independent_set_weight": result.weight(graph),
        "rounds": result.rounds,
        "messages": result.messages,
        "max_message_bits": result.metrics.max_message_bits,
    }
    if plan is None:
        from repro.core import assert_independent

        assert_independent(graph, result.independent_set)
    else:
        # Under faults independence is a measurement, not an invariant:
        # report it instead of crashing the command.
        from repro.core import is_independent

        m = result.metrics
        payload["faults"] = plan.describe()
        payload["independent"] = is_independent(graph, result.independent_set)
        payload["fault_dropped_messages"] = m.fault_dropped_messages
        payload["fault_delayed_messages"] = m.fault_delayed_messages
        payload["fault_duplicated_messages"] = m.fault_duplicated_messages
        payload["crashed_nodes"] = m.crashed_nodes
    if args.show_set:
        payload["independent_set"] = sorted(result.independent_set)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    if args.phases:
        from repro.obs import render_phase_table

        if result.metrics.span is None:
            print("(no span tree recorded: algorithm is not instrumented)")
        else:
            print()
            print(render_phase_table(result.metrics.span))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    import inspect
    from pathlib import Path

    from repro.bench import ALL_EXPERIMENTS

    names = args.names or sorted(ALL_EXPERIMENTS, key=lambda s: int(s[1:]))
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown experiments {unknown}; known: {sorted(ALL_EXPERIMENTS)}"
        )
    from contextlib import ExitStack

    from repro.bench.deep import deep_kwargs

    with ExitStack() as stack:
        if args.emit_metrics is not None:
            from repro.obs import JsonlStreamSink
            from repro.simulator.instrument import install_outcome_emitter

            sink = stack.enter_context(JsonlStreamSink(args.emit_metrics))
            stack.enter_context(install_outcome_emitter(sink.write))
        for name in names:
            kwargs = deep_kwargs(name) if args.deep else {}
            fn = ALL_EXPERIMENTS[name]
            # Seed-sweep experiments accept batch-engine knobs; the rest don't.
            accepted = inspect.signature(fn).parameters
            if "n_jobs" in accepted:
                kwargs.setdefault("n_jobs", args.jobs)
            if "cache_dir" in accepted and args.cache is not None:
                kwargs.setdefault("cache_dir", args.cache)
            report = fn(**kwargs)
            print(report.render())
            print()
            if args.json_dir:
                out = Path(args.json_dir)
                out.mkdir(parents=True, exist_ok=True)
                (out / f"{name}.json").write_text(report.to_json())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Seed sweep of one algorithm on one instance via the batch engine."""
    from repro.simulator.batch import BatchJob, batch_run

    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    graph = parse_graph_spec(args.graph, args.seed)
    graph = parse_weight_spec(args.weights, graph, None if args.seed is None
                              else args.seed + 1)
    params = _eps_params(args.algorithm, args.eps)
    backend = args.backend if args.backend != "per-node" else None
    jobs = [BatchJob(graph, args.algorithm, params=dict(params),
                     backend=backend)
            for _ in range(args.seeds)]
    try:
        if args.emit_metrics is not None:
            from repro.obs import JsonlStreamSink
            from repro.simulator.instrument import install_outcome_emitter

            with JsonlStreamSink(args.emit_metrics) as sink:
                with install_outcome_emitter(sink.write):
                    result = batch_run(jobs, master_seed=args.seed,
                                       n_jobs=args.jobs, cache_dir=args.cache)
        else:
            result = batch_run(jobs, master_seed=args.seed, n_jobs=args.jobs,
                               cache_dir=args.cache)
    except ValueError as exc:
        raise SystemExit(str(exc))
    payload = result.summary()
    payload["algorithm"] = args.algorithm
    payload["graph"] = {"n": graph.n, "m": graph.m,
                        "max_degree": graph.max_degree}
    payload["master_seed"] = args.seed
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 1 if result.failures else 0


def _find_span(records: List[dict]) -> Optional[dict]:
    """Latest span tree in a recording: a final ``result`` record wins,
    otherwise the last per-job record that carried one."""
    span = None
    for doc in records:
        if doc.get("type") in ("result", "job"):
            candidate = (doc.get("metrics") or {}).get("span")
            if candidate is not None:
                span = candidate
    return span


def _cmd_inspect(args: argparse.Namespace) -> int:
    """Render a recorded JSONL trace (``run --record`` / ``--emit-metrics``)."""
    from repro.obs import (
        aggregate_jobs,
        chrome_trace,
        read_jsonl,
        render_cells,
        render_phase_table,
        render_round_timeline,
        render_telemetry,
        rows_from_events,
        telemetry_summary,
    )
    from repro.simulator.metrics import SpanNode

    try:
        records = read_jsonl(args.path)
    except ValueError as exc:
        # Truncated or corrupt recording: fail with the offending line,
        # not a bare JSON traceback.
        raise SystemExit(str(exc))
    if not records:
        raise SystemExit(f"{args.path}: no records")

    if args.format == "timeline":
        rows = rows_from_events(records)
        if not rows:
            raise SystemExit(
                f"{args.path}: no per-round events (recorded without a sink?)"
            )
        print(render_round_timeline(rows, max_rounds=args.max_rounds))
        return 0

    if args.format in ("phases", "chrome-trace"):
        span_doc = _find_span(records)
        if span_doc is None:
            raise SystemExit(
                f"{args.path}: no span tree recorded "
                "(algorithm not instrumented, or metrics record missing)"
            )
        span = SpanNode.from_dict(span_doc)
        if args.format == "phases":
            print(render_phase_table(span))
        else:
            print(json.dumps(chrome_trace(span), indent=2))
        return 0

    if args.format == "telemetry":
        if args.json:
            print(json.dumps(telemetry_summary(records), indent=2))
        else:
            print(render_telemetry(records))
        return 0

    # format == "sweep": aggregate per-job records into p50/p95 cells.
    job_docs = [doc for doc in records if doc.get("type") == "job"]
    if not job_docs:
        raise SystemExit(f"{args.path}: no per-job records to aggregate")
    cells = aggregate_jobs(job_docs)
    if args.json:
        print(json.dumps([cells[key] for key in sorted(cells)], indent=2))
    else:
        print(render_cells(cells))
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    """Degradation sweep: algorithms × fault plans, validity re-checked."""
    from contextlib import ExitStack

    from repro.faults import (MessageDelay, MessageDuplication, MessageLoss,
                              composite, parse_crash_spec, resilience_sweep)

    if args.trials < 1:
        raise SystemExit(f"--trials must be >= 1, got {args.trials}")
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    graph = parse_graph_spec(args.graph, args.seed)
    graph = parse_weight_spec(args.weights, graph, None if args.seed is None
                              else args.seed + 1)

    try:
        loss_rates = [float(x) for x in args.loss.split(",") if x]
    except ValueError as exc:
        raise SystemExit(f"bad --loss list {args.loss!r}: {exc}")
    plans = []
    try:
        extra = []
        if args.delay:
            extra.append(MessageDelay(args.delay))
        if args.dup:
            extra.append(MessageDuplication(args.dup))
        if args.crash:
            extra.append(parse_crash_spec(args.crash))
        for p in loss_rates:
            stack_plans = ([MessageLoss(p)] if p > 0 else []) + extra
            plans.append(composite(*stack_plans) if stack_plans else None)
    except ValueError as exc:
        raise SystemExit(f"bad fault flag: {exc}")

    algorithms = args.algorithm or ["thm8"]
    known = sorted(algorithm_registry())
    unknown = [a for a in algorithms if a not in known]
    if unknown:
        raise SystemExit(f"unknown algorithms {unknown}; known: {known}")
    params = {a: _eps_params(a, args.eps) for a in algorithms}

    with ExitStack() as stack:
        sink = None
        if args.emit_metrics is not None:
            from repro.obs import JsonlStreamSink
            from repro.simulator.instrument import install_outcome_emitter

            sink = stack.enter_context(JsonlStreamSink(args.emit_metrics))
            stack.enter_context(install_outcome_emitter(sink.write))
        try:
            report = resilience_sweep(
                graph, algorithms, plans,
                trials=args.trials, master_seed=args.seed, n_jobs=args.jobs,
                cache_dir=args.cache, params=params,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        if sink is not None:
            for doc in report.to_docs():
                sink.write(doc)

    if args.json:
        print(json.dumps([c.to_doc() for c in report.cells], indent=2))
    else:
        print(report.render())
    return 1 if report.batch.failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Perf-gate benchmark: time the hot-path cell matrix, optionally
    gate against a committed baseline (see docs/performance.md)."""
    from repro.bench.perf_gate import resolve_matrix, run_gate

    try:
        return run_gate(matrix=resolve_matrix(args),
                        repeats=args.repeats, out=args.out,
                        baseline=args.baseline, tolerance=args.tolerance,
                        as_json=args.json)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _cmd_verify(args: argparse.Namespace) -> int:
    """Run an algorithm and certify its guarantee against exact OPT (small
    instances) or the fraction-of-total bound (any size)."""
    graph = parse_graph_spec(args.graph, args.seed)
    graph = parse_weight_spec(args.weights, graph, None if args.seed is None
                              else args.seed + 1)
    result = _run_algorithm(args.algorithm, graph, args.eps, args.seed)

    from repro.core import certify_fraction_bound, certify_ratio, exact_max_weight_is
    from repro.exceptions import SolverLimitError

    delta = max(1, graph.max_degree)
    factor = (1 + args.eps) * delta
    lines = [
        f"algorithm: {args.algorithm}",
        f"w(I) = {result.weight(graph):.3f} over {result.size} nodes "
        f"in {result.rounds} rounds",
    ]
    try:
        _, opt = exact_max_weight_is(graph, limit_nodes=args.exact_limit)
        cert = certify_ratio(graph, result.independent_set, factor, opt=opt)
        lines.append(f"exact OPT = {opt:.3f}; measured ratio = "
                     f"{opt / max(result.weight(graph), 1e-12):.3f}")
        lines.append(f"(1+eps)*Delta = {factor:.2f} certificate: "
                     f"{'HOLDS' if cert.holds else 'VIOLATED'}")
        failed = not cert.holds
    except SolverLimitError:
        cert = certify_fraction_bound(
            graph, result.independent_set, (1 + args.eps) * (delta + 1)
        )
        lines.append(
            f"instance too large for exact OPT; checked w(I) >= "
            f"w(V)/((1+eps)(Delta+1)) = {cert.required:.3f}: "
            f"{'HOLDS' if cert.holds else 'VIOLATED'}"
        )
        from repro.core import opt_upper_bound

        ub = opt_upper_bound(graph)
        lines.append(
            f"certified OPT upper bound (clique cover) = {ub:.3f}; "
            f"ratio is therefore at most {ub / max(result.weight(graph), 1e-12):.3f}"
        )
        failed = not cert.holds
    print("\n".join(lines))
    return 1 if failed else 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    """List the registry: every blessed algorithm name + its parameters."""
    from repro.api import describe_algorithms

    entries = describe_algorithms()
    if args.json:
        print(json.dumps(entries, indent=2, default=repr))
        return 0
    for entry in entries:
        parts = []
        for p in entry["params"]:
            if "default" in p:
                parts.append(f"{p['name']}={p['default']!r}")
            else:
                parts.append(p["name"])
        if entry["accepts_extra_params"]:
            parts.append("**params")
        print(f"{entry['name']}({', '.join(parts)})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the solver service until SIGTERM/SIGINT, then drain."""
    from repro.service import serve

    try:
        return serve(
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_dir=args.cache,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            memory_cache=args.memory_cache,
            worker_id=args.worker_id,
            backend=args.backend,
            graph_store=args.graph_store,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    except OSError as exc:
        raise SystemExit(f"cannot bind {args.host}:{args.port}: {exc}")


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Run the sharded multi-worker fleet until SIGTERM/SIGINT."""
    from repro.service.fleet import run_fleet

    try:
        return run_fleet(
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_dir=args.cache,
            memory_cache=args.memory_cache,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            backend=args.backend,
            scratch_dir=args.scratch,
            graph_store=args.graph_store,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    except OSError as exc:
        raise SystemExit(f"cannot bind {args.host}:{args.port}: {exc}")


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Open-loop benchmark at a fixed offered rate; certifies every
    unique report it receives."""
    from repro.bench.loadgen import run_open_loop

    try:
        doc = run_open_loop(
            host=args.host,
            port=args.port,
            rate=args.rate,
            duration_s=args.duration,
            arrival=args.arrival,
            arrival_seed=args.arrival_seed,
            burst_size=args.burst_size,
            out_path=args.out,
            graph_ref=args.graph_ref,
        )
    except (ValueError, TypeError) as exc:
        raise SystemExit(str(exc))
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"cannot reach service at {args.host}:{args.port}: {exc}"
        )
    lat = doc["latency"]
    print(f"offered: {doc['offered']} arrivals "
          f"({doc['offered_rps']:.1f} req/s, {args.arrival}, "
          f"seed {args.arrival_seed})")
    print(f"achieved: {doc['completed']} completed "
          f"({doc['achieved_rps']:.1f} req/s; goodput "
          f"{doc['goodput_ratio'] * 100:.1f}%); "
          f"{doc['rejected']} rejected, {doc['gave_up']} gave up")
    print(f"latency (from scheduled arrival): "
          f"p50 {lat['p50_s'] * 1e3:.1f} ms, "
          f"p95 {lat['p95_s'] * 1e3:.1f} ms, "
          f"p99 {lat['p99_s'] * 1e3:.1f} ms")
    print(f"served: {doc['served']['cached']} cached, "
          f"{doc['served']['coalesced']} coalesced, "
          f"{doc['served']['with_trace_id']} traced; "
          f"status mix {doc['status_counts']}")
    v = doc["verification"]
    print(f"verified: {v['verified']}/{doc['unique_reports']} unique "
          f"reports certified")
    for failure in v["failures"]:
        print(f"  FAIL {failure}")
    if doc["divergent_reports"]:
        print(f"  FAIL {doc['divergent_reports']} keys returned "
              f"non-identical report bytes")
    if args.out:
        print(f"wrote {args.out}")
    failed = (doc["completed"] == 0 or doc["divergent_reports"] > 0
              or v["failures"])
    return 1 if failed else 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph, args.seed)
    graph = parse_weight_spec(args.weights, graph, None if args.seed is None
                              else args.seed + 1)
    s = summarize(graph)
    from repro.graphs import arboricity, degeneracy

    print(f"n: {s.n}\nm: {s.m}\nmax_degree: {s.max_degree}")
    print(f"avg_degree: {s.avg_degree:.2f}")
    print(f"total_weight: {s.total_weight:.2f}\nmax_weight: {s.max_weight:.2f}")
    print(f"components: {s.components}")
    print(f"degeneracy: {degeneracy(graph)}")
    if graph.n <= args.arboricity_limit:
        print(f"arboricity: {arboricity(graph)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed MaxIS approximation (PODC 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm on one instance")
    p_run.add_argument("--algorithm", choices=sorted(algorithm_registry()), default="thm2")
    p_run.add_argument("--graph", default="gnp:200,0.05", help="graph spec")
    p_run.add_argument("--weights", default="uniform:1,100", help="weight spec")
    p_run.add_argument("--eps", type=float, default=0.5)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--backend", choices=["per-node", "columnar"],
                       default="per-node",
                       help="execution backend (columnar = vectorized "
                            "rounds, byte-identical results)")
    p_run.add_argument("--json", action="store_true", help="JSON output")
    p_run.add_argument("--show-set", action="store_true",
                       help="include the chosen node ids")
    p_run.add_argument("--record", default=None, metavar="PATH",
                       help="stream simulator events + metrics to a JSONL "
                            "file (inspect with `repro inspect`)")
    p_run.add_argument("--phases", action="store_true",
                       help="print the per-phase span table after the run")
    p_run.add_argument("--loss", type=float, default=None, metavar="P",
                       help="drop each message with probability P")
    p_run.add_argument("--delay", type=int, default=None, metavar="R",
                       help="defer each message 0..R extra rounds")
    p_run.add_argument("--dup", type=float, default=None, metavar="P",
                       help="duplicate each message with probability P")
    p_run.add_argument("--crash", default=None, metavar="SPEC",
                       help="fail-stop schedule, e.g. 3@5,7@10/r20 "
                            "(node@round, optional /rROUND restart)")
    p_run.set_defaults(func=_cmd_run)

    p_exp = sub.add_parser("experiments", help="run E1–E13 experiment reports")
    p_exp.add_argument("names", nargs="*", help="experiment ids (default: all)")
    p_exp.add_argument("--json-dir", default=None,
                       help="also write each report as <dir>/<id>.json")
    p_exp.add_argument("--deep", action="store_true",
                       help="use the deep-sweep presets (slower, wider)")
    p_exp.add_argument("--jobs", type=int, default=1,
                       help="worker processes for seed-sweep experiments")
    p_exp.add_argument("--cache", default=None, metavar="DIR",
                       help="on-disk result cache for sweep jobs")
    p_exp.add_argument("--emit-metrics", default=None, metavar="PATH",
                       help="append one JSONL record per sweep job")
    p_exp.set_defaults(func=_cmd_experiments)

    p_sweep = sub.add_parser(
        "sweep", help="run one algorithm over many derived seeds in parallel"
    )
    p_sweep.add_argument("--algorithm", choices=sorted(algorithm_registry()),
                         default="ranking")
    p_sweep.add_argument("--graph", default="gnp:100,0.05", help="graph spec")
    p_sweep.add_argument("--weights", default="uniform:1,20", help="weight spec")
    p_sweep.add_argument("--eps", type=float, default=0.5)
    p_sweep.add_argument("--seed", type=int, default=0,
                         help="master seed; per-job seeds are derived from it")
    p_sweep.add_argument("--backend", choices=["per-node", "columnar"],
                         default="per-node",
                         help="execution backend for every trial")
    p_sweep.add_argument("--seeds", type=int, default=10, metavar="N",
                         help="number of derived-seed jobs")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1 = in-process)")
    p_sweep.add_argument("--cache", default=None, metavar="DIR",
                         help="on-disk result cache")
    p_sweep.add_argument("--json", action="store_true", help="JSON output")
    p_sweep.add_argument("--emit-metrics", default=None, metavar="PATH",
                         help="write one JSONL record per job (aggregate "
                              "with `repro inspect --format sweep`)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_inspect = sub.add_parser(
        "inspect", help="render a recorded JSONL trace or metrics stream"
    )
    p_inspect.add_argument("path", help="JSONL file from `run --record` or "
                                        "`sweep --emit-metrics`")
    p_inspect.add_argument("--format",
                           choices=["timeline", "phases", "chrome-trace",
                                    "sweep", "telemetry"],
                           default="phases",
                           help="timeline: per-round traffic; phases: span "
                                "table; chrome-trace: chrome://tracing JSON; "
                                "sweep: p50/p95 cells from per-job records; "
                                "telemetry: backend/kernel/fallback summary "
                                "from per-job records")
    p_inspect.add_argument("--max-rounds", type=int, default=100,
                           help="timeline row cap")
    p_inspect.add_argument("--json", action="store_true",
                           help="JSON output (sweep/telemetry formats only)")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_res = sub.add_parser(
        "resilience",
        help="degradation sweep over message-loss rates (and optional "
             "delay/dup/crash faults), validity re-checked per run",
    )
    p_res.add_argument("--algorithm", action="append", default=None,
                       metavar="NAME",
                       help="algorithm to sweep (repeatable; default thm8)")
    p_res.add_argument("--graph", default="gnp:60,0.08", help="graph spec")
    p_res.add_argument("--weights", default="uniform:1,20", help="weight spec")
    p_res.add_argument("--eps", type=float, default=0.5)
    p_res.add_argument("--loss", default="0,0.05,0.1,0.2", metavar="P,P,...",
                       help="comma-separated loss rates (0 = the fault-free "
                            "baseline)")
    p_res.add_argument("--delay", type=int, default=None, metavar="R",
                       help="also defer messages 0..R rounds (non-baseline "
                            "cells)")
    p_res.add_argument("--dup", type=float, default=None, metavar="P",
                       help="also duplicate messages with probability P")
    p_res.add_argument("--crash", default=None, metavar="SPEC",
                       help="also fail-stop nodes, e.g. 3@5,7@10/r20")
    p_res.add_argument("--trials", type=int, default=5,
                       help="independent seeds per (algorithm, plan) cell")
    p_res.add_argument("--seed", type=int, default=0,
                       help="master seed; per-trial seeds are derived from it")
    p_res.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process)")
    p_res.add_argument("--cache", default=None, metavar="DIR",
                       help="on-disk result cache")
    p_res.add_argument("--emit-metrics", default=None, metavar="PATH",
                       help="write per-job + per-cell JSONL records "
                            "(aggregate with `repro inspect --format sweep`)")
    p_res.add_argument("--json", action="store_true", help="JSON output")
    p_res.set_defaults(func=_cmd_resilience)

    p_bench = sub.add_parser(
        "bench",
        help="time the simulator hot path over a fixed cell matrix and "
             "gate against a committed baseline (BENCH_runner.json)",
    )
    from repro.bench.perf_gate import add_bench_arguments

    add_bench_arguments(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_verify = sub.add_parser(
        "verify", help="run an algorithm and certify its guarantee"
    )
    p_verify.add_argument("--algorithm", choices=sorted(algorithm_registry()), default="thm2")
    p_verify.add_argument("--graph", default="gnp:40,0.12")
    p_verify.add_argument("--weights", default="uniform:1,20")
    p_verify.add_argument("--eps", type=float, default=0.5)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--exact-limit", type=int, default=60,
                          help="max n for the exact-OPT certification")
    p_verify.set_defaults(func=_cmd_verify)

    p_algos = sub.add_parser(
        "algorithms", help="list registry algorithms and their parameters"
    )
    p_algos.add_argument("--json", action="store_true", help="JSON output")
    p_algos.set_defaults(func=_cmd_algorithms)

    p_serve = sub.add_parser(
        "serve",
        help="run the solver service (POST /v1/solve with coalescing, "
             "admission control, and the shared result cache)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8008,
                         help="0 binds an ephemeral port (printed at startup)")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="worker processes for micro-batch execution")
    p_serve.add_argument("--cache", default=None, metavar="DIR",
                         help="on-disk result cache shared with sweeps")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="admission queue bound (full queue => 429)")
    p_serve.add_argument("--max-batch", type=int, default=8,
                         help="max requests dispatched per micro-batch")
    p_serve.add_argument("--memory-cache", type=int, default=0, metavar="N",
                         help="in-memory LRU report cache entries in front "
                              "of the disk cache (0 = disabled)")
    p_serve.add_argument("--worker-id", default="", metavar="ID",
                         help="tag for health payloads and served envelopes "
                              "when running as a fleet worker")
    p_serve.add_argument("--backend", choices=["per-node", "columnar"],
                         default="per-node",
                         help="default execution backend for requests that "
                              "do not select one")
    p_serve.add_argument("--graph-store", default=None, metavar="DIR",
                         help="content-addressed graph store directory for "
                              "POST /v1/graphs + graph_ref solves (default: "
                              "<cache>/graphs, or an ephemeral store)")
    p_serve.set_defaults(func=_cmd_serve)

    p_fleet = sub.add_parser(
        "fleet",
        help="run a sharded multi-worker fleet: a router in front of N "
             "`repro serve` worker processes, sharded by sha256 request "
             "fingerprint so coalescing and cache locality survive",
    )
    p_fleet.add_argument("--host", default="127.0.0.1")
    p_fleet.add_argument("--port", type=int, default=8009,
                         help="router port (0 binds an ephemeral port)")
    p_fleet.add_argument("--workers", type=int, default=2,
                         help="solver worker processes to spawn")
    p_fleet.add_argument("--cache", default=None, metavar="DIR",
                         help="shared on-disk result cache (tier 2)")
    p_fleet.add_argument("--memory-cache", type=int, default=256, metavar="N",
                         help="per-worker in-memory LRU entries (tier 1)")
    p_fleet.add_argument("--max-queue", type=int, default=64,
                         help="per-worker admission queue bound")
    p_fleet.add_argument("--max-batch", type=int, default=8,
                         help="per-worker micro-batch size")
    p_fleet.add_argument("--backend", choices=["per-node", "columnar"],
                         default="per-node",
                         help="default execution backend on every worker")
    p_fleet.add_argument("--scratch", default=".fleet", metavar="DIR",
                         help="worker log directory")
    p_fleet.add_argument("--graph-store", default=None, metavar="DIR",
                         help="shared content-addressed graph store for all "
                              "workers (default: <scratch>/graphs)")
    p_fleet.set_defaults(func=_cmd_fleet)

    p_load = sub.add_parser(
        "loadgen",
        help="open-loop benchmark against a running `repro serve` or "
             "`repro fleet`; certifies every unique report",
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=8008)
    p_load.add_argument("--duration", type=float, default=5.0, metavar="S",
                        help="seconds of offered load")
    p_load.add_argument("--out", default=None,
                        help="write the run document to this path")
    p_load.add_argument("--arrival", choices=["poisson", "bursty", "uniform"],
                        default="poisson",
                        help="arrival process, fired on a deterministic "
                             "schedule at --rate req/s")
    p_load.add_argument("--rate", type=float, default=50.0, metavar="RPS",
                        help="offered load")
    p_load.add_argument("--arrival-seed", type=int, default=0, metavar="S",
                        help="seed of the arrival schedule (same seed => "
                             "bit-identical offered load)")
    p_load.add_argument("--burst-size", type=int, default=8, metavar="K",
                        help="arrivals per burst for --arrival bursty")
    p_load.add_argument("--graph-ref", action="store_true",
                        help="register every unique pool graph once via "
                             "POST /v1/graphs, then solve by graph_ref "
                             "(tiny bodies, zero-copy attach on the server)")
    p_load.set_defaults(func=_cmd_loadgen)

    p_info = sub.add_parser("info", help="describe an instance")
    p_info.add_argument("--graph", default="gnp:200,0.05")
    p_info.add_argument("--weights", default="unit")
    p_info.add_argument("--seed", type=int, default=0)
    p_info.add_argument("--arboricity-limit", type=int, default=2000,
                        help="skip the exact arboricity above this size")
    p_info.set_defaults(func=_cmd_info)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro-maxis`` script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
