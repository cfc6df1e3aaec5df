"""Command-line interface: ``repro-mqce`` / ``python -m repro``.

Sub-commands
------------
``query``      Answer one query on a local graph: build a
               :class:`repro.api.QuerySpec` from flags or a JSON file
               (``--spec``; flags override it, dataset defaults fill the
               rest) and run it through the persistent engine.  Enumerates
               every maximal quasi-clique by default; ``--top K`` keeps the
               K largest, ``--containing V...`` those containing the given
               vertices and ``--count`` only their number.  Budgets
               (``--limit``, ``--time-limit``), incremental delivery
               (``--stream``) and the plan alone (``--explain``) ride along.
``stats``      Print graph statistics (the input columns of Table 1).
``ingest``     Stream an edge-list file into the CSR large-graph backend
               (O(V+E) memory, no per-vertex dict/bitmask), report size,
               density and peak RSS, and optionally answer one budgeted
               enumerate query on the ingested graph.
``datasets``   List the registered dataset analogues and their defaults.
``table1``     Regenerate the Table 1 rows on the dataset analogues.
``figure``     Regenerate one of the paper's figures (7, 8, 9, 10, 11, 12).
``engine``     The persistent query engine: ``engine batch`` (a gamma x theta
               grid through one engine) and ``engine stats`` (prepared-graph
               artifacts and timings, or the metrics registry).
``dynamic``    Dynamic graph updates with incremental engine maintenance:
               ``dynamic apply`` (run an update script against a graph and
               write/report the result) and ``dynamic stats`` (prepared
               artifacts and sync statistics after the updates).
``serve``      Boot the long-lived query service: named graphs behind the
               line-delimited JSON protocol with single-flight coalescing,
               admission control, in-band mutations and a single-port HTTP
               shim for ``GET /metrics`` scrapes (see :mod:`repro.serve`).
``client``     Talk to a running server: run a query (``--query``/``--spec``),
               apply a mutation script (``--mutate``), or hit the control
               operations (``--stats``, ``--graphs``, ``--ping``, ``--flush``,
               ``--shutdown``).

Errors derived from :class:`repro.errors.ReproError` (bad parameters, invalid
specs, unsatisfiable queries) and OS errors on the files and sockets a command
names (a missing input file, a refused connection) exit with code 2 and a
one-line ``error: ...`` message instead of a traceback.  An unknown
``--dataset`` name is rejected by the parser, also with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .api import QuerySpec
from .api.spec import SPEC_PARALLEL_MODES
from .core.dcfastqc import DC_FRAMEWORKS
from .datasets.registry import REGISTRY, get_spec, load_prepared
from .dynamic import apply_updates, read_update_script
from .engine import MQCEEngine, prepare_graph
from .errors import ReproError, SpecError
from .experiments import figures as figure_module
from .experiments.harness import format_table
from .experiments.tables import table1_rows
from .graph.io import (ingest_edge_list, read_edge_list, write_edge_list,
                       write_quasi_cliques)
from .graph.statistics import graph_statistics
from .pipeline.mqce import ALGORITHMS, run_enumeration


def _load_graph(args: argparse.Namespace):
    """The graph named by ``--dataset`` or ``--input``, as a PreparedGraph.

    Datasets keep their registry name, files their path.  Preparation is
    lazy, so commands that only need ``.graph`` pay nothing for it.
    """
    if args.dataset:
        return load_prepared(args.dataset)
    if args.input:
        return prepare_graph(read_edge_list(args.input), name=args.input)
    raise SystemExit("either --input FILE or --dataset NAME is required")


def _parameters(args: argparse.Namespace, fields: dict | None = None) -> dict:
    """Fill ``gamma`` / ``theta`` into ``fields`` (a ``--spec`` file's, if any).

    Precedence: explicit flags > ``--spec`` file > dataset defaults.
    """
    fields = {} if fields is None else fields
    if args.gamma is not None:
        fields["gamma"] = args.gamma
    if args.theta is not None:
        fields["theta"] = args.theta
    if args.dataset:
        dataset = get_spec(args.dataset)
        fields.setdefault("gamma", dataset.default_gamma)
        fields.setdefault("theta", dataset.default_theta)
    return fields


def _add_dataset_argument(parser: argparse.ArgumentParser, description: str,
                          **kwargs) -> None:
    # Checked against the registry at parse time (names are case-insensitive,
    # as in get_spec), so a typo exits 2 with argparse's "invalid choice".
    parser.add_argument("--dataset", "-d", type=str.lower, choices=tuple(REGISTRY),
                        metavar="NAME", help=f"{description} (see `repro datasets`)",
                        **kwargs)


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", "-i", help="edge-list file to read")
    _add_dataset_argument(parser, "registered dataset analogue to build")


def _add_parameter_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma", "-g", type=float, help="degree fraction in [0.5, 1]")
    parser.add_argument("--theta", "-t", type=int, help="minimum quasi-clique size")


def _command_stats(args: argparse.Namespace) -> int:
    stats = graph_statistics(_load_graph(args).graph)
    print(json.dumps(stats.as_dict(), indent=2))
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    from .obs.process import current_rss_bytes, peak_rss_bytes

    # The baseline is taken after imports so the RSS deltas reported by the
    # large-graph benchmark isolate the graph representation + query, not the
    # interpreter start-up cost.
    baseline_rss = current_rss_bytes()
    start = time.perf_counter()
    if args.backend == "dict":
        graph = read_edge_list(args.input, as_int=not args.string_labels,
                               directed_duplicates_ok=not args.reject_duplicates)
    else:
        graph = ingest_edge_list(args.input, as_int=not args.string_labels,
                                 directed_duplicates_ok=not args.reject_duplicates)
    ingest_seconds = time.perf_counter() - start
    report = {
        "input": args.input,
        "backend": args.backend,
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "density": round(graph.density(), 4),
        "max_degree": graph.max_degree(),
        "ingest_seconds": round(ingest_seconds, 4),
        "baseline_rss_bytes": baseline_rss,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    if args.gamma is not None or args.theta is not None:
        if args.gamma is None or args.theta is None:
            raise SystemExit("--gamma and --theta must be given together")
        result = run_enumeration(graph, QuerySpec(
            gamma=args.gamma, theta=args.theta, time_limit=args.time_limit,
            max_results=args.limit))
        report.update({
            "gamma": args.gamma,
            "theta": args.theta,
            "maximal": result.maximal_count,
            "truncated": result.truncated,
            "enumeration_seconds": round(result.total_seconds, 4),
        })
        report["peak_rss_bytes"] = peak_rss_bytes()
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"# ingested {report['vertices']} vertices / {report['edges']} edges "
              f"({report['backend']}, {report['ingest_seconds']}s, "
              f"peak RSS {report['peak_rss_bytes'] / 1e6:.1f} MB)")
        if "maximal" in report:
            budget = " (truncated)" if report["truncated"] else ""
            print(f"# {report['maximal']} maximal {args.gamma}-quasi-cliques "
                  f"with >= {args.theta} vertices in "
                  f"{report['enumeration_seconds']}s{budget}")
    return 0


def _command_datasets(_: argparse.Namespace) -> int:
    rows = []
    for spec in REGISTRY.values():
        rows.append({
            "name": spec.name,
            "description": spec.description,
            "vertices": spec.vertices,
            "gamma_default": spec.default_gamma,
            "theta_default": spec.default_theta,
            "paper_vertices": spec.paper.vertices,
        })
    print(format_table(rows))
    return 0


def _command_table1(args: argparse.Namespace) -> int:
    names = args.names or None
    rows = table1_rows(names=names, include_quickplus=not args.skip_quickplus)
    print(format_table(rows))
    return 0


_FIGURE_DISPATCH = {
    "7": lambda: figure_module.figure7_rows(),
    "8": lambda: figure_module.figure8_rows(),
    "9": lambda: figure_module.figure9_rows(),
    "10a": lambda: figure_module.figure10a_rows(),
    "10b": lambda: figure_module.figure10b_rows(),
    "11": lambda: figure_module.figure11_rows(),
    "12": lambda: figure_module.figure12_rows(),
}


def _command_figure(args: argparse.Namespace) -> int:
    rows = _FIGURE_DISPATCH[args.figure]()
    print(format_table(rows))
    return 0


# ----------------------------------------------------------------------
# The `query` command (QuerySpec API)
# ----------------------------------------------------------------------
def _int_if_possible(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _build_query_spec(args: argparse.Namespace) -> QuerySpec:
    """Assemble a QuerySpec from ``--spec FILE``, flags and dataset defaults."""
    fields: dict = {}
    if args.spec:
        try:
            text = Path(args.spec).read_text(encoding="utf-8")
        except OSError as exc:
            raise SpecError(f"cannot read spec file {args.spec}: {exc}") from exc
        try:
            fields = QuerySpec.fields_from_json(text)
        except SpecError as exc:
            raise SpecError(f"spec file {args.spec}: {exc}") from exc
    fields = _parameters(args, fields)
    if args.algorithm is not None:
        fields["algorithm"] = args.algorithm
    if args.branching is not None:
        fields["branching"] = args.branching
    if args.framework is not None:
        fields["framework"] = args.framework
    if args.max_rounds is not None:
        fields["max_rounds"] = args.max_rounds
    if args.parallel is not None:
        fields["parallel"] = args.parallel
    if args.containing:
        fields["contains"] = tuple(_int_if_possible(token) for token in args.containing)
    if args.top is not None:
        fields["k"] = args.top
    if args.count:
        fields["count_only"] = True
    if args.limit is not None:
        fields["max_results"] = args.limit
    if args.time_limit is not None:
        fields["time_limit"] = args.time_limit
    if args.no_candidates:
        fields["include_candidates"] = False
    if "gamma" not in fields:
        raise SystemExit("--gamma (or a --spec file with gamma, or a dataset "
                         "with defaults) is required")
    return QuerySpec.from_dict(fields)


def _print_answers(args: argparse.Namespace, spec: QuerySpec,
                   answers) -> list[frozenset]:
    """Print each answer as it arrives and return them all.

    One line per answer (one JSON object per line under ``--json``).  A
    count-only query prints none of them: its output is the count alone.
    """
    delivered = []
    for clique in answers:
        delivered.append(clique)
        if spec.count_only:
            continue
        if args.json:
            print(json.dumps({"clique": sorted(map(str, clique))}), flush=True)
        else:
            print(" ".join(str(v) for v in sorted(clique, key=str)), flush=True)
    return delivered


def _print_summary(args: argparse.Namespace, spec: QuerySpec, payload: dict,
                   text: str, count: int, indent: int | None = None) -> None:
    """Print a query's summary: the JSON payload (plus ``count`` for a
    count-only query), the bare count, or the text line."""
    if args.json:
        if spec.count_only:
            payload["count"] = count
        print(json.dumps(payload, indent=indent))
    elif spec.count_only:
        print(count)
    else:
        print(text)


def _observability(args: argparse.Namespace):
    """Build the (tracer, progress) pair requested by --trace / --progress-every."""
    tracer = None
    if args.trace:
        from .obs import Tracer
        tracer = Tracer()
    progress = None
    if args.progress_every:
        from .obs import heartbeat
        progress = heartbeat(every=args.progress_every)
    return tracer, progress


def _write_trace(tracer, args: argparse.Namespace) -> None:
    if tracer is None:
        return
    tracer.write(args.trace, format="chrome")
    print(f"# trace written to {args.trace} "
          f"({tracer.coverage():.0%} of {tracer.window_seconds():.3f}s traced)",
          file=sys.stderr)


def _command_query(args: argparse.Namespace) -> int:
    prepared = _load_graph(args)
    spec = _build_query_spec(args)
    engine = MQCEEngine(workers=args.workers)
    plan = engine.explain(prepared, spec)
    if args.explain:
        if args.json:
            print(json.dumps({"spec": spec.to_dict(), "plan": plan.as_dict()}, indent=2))
        else:
            print(plan.describe())
        return 0
    tracer, progress = _observability(args)
    if args.stream:
        stream = engine.stream(prepared, spec, trace=tracer, progress=progress)
        answers = _print_answers(args, spec, stream)
        state = ("complete" if stream.finished
                 else "truncated by budget" if stream.truncated else "stopped")
        _print_summary(
            args, spec,
            {"spec": spec.to_dict(), "delivered": len(answers), "state": state,
             "from_cache": stream.from_cache},
            f"# {len(answers)} maximal quasi-cliques streamed "
            f"({spec.describe()}; {state}"
            f"{'; served from cache' if stream.from_cache else ''})",
            len(answers))
    else:
        result = engine.query(prepared, spec, trace=tracer, progress=progress)
        answers = result.maximal_quasi_cliques
        truncated = " (truncated by time limit)" if result.truncated else ""
        _print_summary(
            args, spec,
            {"spec": spec.to_dict(), "result": result.summary(),
             "plan": plan.as_dict(), "engine": engine.stats()},
            f"# {result.maximal_count} answers for {spec.describe()} "
            f"[{result.algorithm}]{truncated}",
            result.maximal_count, indent=2)
        if not args.json:
            _print_answers(args, spec, answers)
    if args.output:
        write_quasi_cliques(answers, args.output)
    _write_trace(tracer, args)
    return 0


# ----------------------------------------------------------------------
# The `engine` sub-command group
# ----------------------------------------------------------------------
def _parse_float_list(text: str) -> list[float]:
    return [float(token) for token in text.split(",") if token.strip()]


def _parse_int_list(text: str) -> list[int]:
    return [int(token) for token in text.split(",") if token.strip()]


def _command_engine_batch(args: argparse.Namespace) -> int:
    prepared = _load_graph(args)
    defaults = _parameters(args)
    if "gamma" not in defaults or "theta" not in defaults:
        raise SystemExit("--gamma and --theta are required for --input graphs")
    gammas = _parse_float_list(args.gammas) if args.gammas else [defaults["gamma"]]
    thetas = _parse_int_list(args.thetas) if args.thetas else [defaults["theta"]]
    specs = [QuerySpec(gamma=gamma, theta=theta, algorithm=args.algorithm)
             for gamma in gammas for theta in thetas]
    engine = MQCEEngine()
    start = time.perf_counter()
    results = [engine.query(prepared, spec)
               for spec in specs * max(1, args.repeat)]
    elapsed = time.perf_counter() - start
    rows = []
    for spec, result in zip(specs, results):
        rows.append({
            "gamma": spec.gamma, "theta": spec.theta,
            "algorithm": result.algorithm, "maximal": result.maximal_count,
            "seconds": round(result.total_seconds, 4),
        })
    stats = engine.stats()
    if args.json:
        print(json.dumps({"rows": rows, "engine": stats,
                          "wall_seconds": elapsed,
                          "queries_per_second": len(results) / elapsed if elapsed else 0.0},
                         indent=2))
    else:
        print(format_table(rows))
        cache = stats["cache"]
        print(f"# {len(results)} queries in {elapsed:.3f}s "
              f"({len(results) / elapsed:.1f} q/s), {cache['hits']} served from cache")
    return 0


def _command_engine_stats(args: argparse.Namespace) -> int:
    prepared = _load_graph(args).prepare()
    if args.prometheus:
        # Touch the serving stack once so the page reflects this process's
        # query path (planner + cache + engine counters), then render the
        # whole registry in Prometheus text exposition format.
        parameters = _parameters(args)
        if "gamma" in parameters and "theta" in parameters:
            MQCEEngine().query(prepared, QuerySpec(gamma=parameters["gamma"],
                                                   theta=parameters["theta"]))
        from .obs import render_prometheus
        sys.stdout.write(render_prometheus())
        return 0
    summary = prepared.summary()
    summary["preparation_seconds"] = {
        artifact: round(seconds, 6)
        for artifact, seconds in prepared.preparation_seconds.items()}
    print(json.dumps(summary, indent=2))
    return 0


# ----------------------------------------------------------------------
# The `dynamic` sub-command group (graph updates + incremental maintenance)
# ----------------------------------------------------------------------
def _sync_updates(args: argparse.Namespace, updates) -> tuple:
    """Load the graph into an engine, apply ``updates`` and sync once."""
    engine = MQCEEngine()
    prepared = engine.prepare(_load_graph(args))
    apply_updates(prepared.graph, updates)
    return engine, prepared, engine.sync(prepared)


def _command_dynamic_apply(args: argparse.Namespace) -> int:
    _, prepared, report = _sync_updates(args, read_update_script(args.updates))
    graph = prepared.graph
    if args.output:
        write_edge_list(graph, args.output)
    if args.json:
        payload = {"report": report.as_dict(),
                   "graph": {"vertices": graph.vertex_count,
                             "edges": graph.edge_count,
                             "version": graph.version}}
        print(json.dumps(payload, indent=2))
    else:
        rebuilt = " (full rebuild: delta history exhausted)" if report.full_rebuild else ""
        print(f"# {report.mutations} mutations applied{rebuilt}: "
              f"+{report.added_edges}/-{report.removed_edges} edges, "
              f"+{report.added_vertices}/-{report.removed_vertices} vertices; "
              f"cache: {report.invalidated} invalidated, {report.retained} retained "
              f"({report.rekeyed} re-addressed), "
              f"fingerprint {report.old_fingerprint} -> {report.new_fingerprint}")
        print(f"# graph now |V|={graph.vertex_count}, |E|={graph.edge_count}, "
              f"version {graph.version}")
    return 0


def _command_dynamic_stats(args: argparse.Namespace) -> int:
    updates = read_update_script(args.updates) if args.updates else []
    engine, prepared, _ = _sync_updates(args, updates)
    payload = {"prepared": prepared.summary(), "dynamic": engine.stats()["dynamic"]}
    print(json.dumps(payload, indent=2))
    return 0


# ----------------------------------------------------------------------
# The `serve` / `client` commands (repro.serve)
# ----------------------------------------------------------------------
#: Default TCP port of `repro serve` / `repro client` (0 = ephemeral).
DEFAULT_SERVE_PORT = 7411


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .resilience import install_plan
    from .serve import ReproService

    if args.faults:
        install_plan(args.faults)
    service = ReproService(
        host=args.host, port=args.port,
        max_concurrent=args.max_concurrent, max_queue=args.max_queue,
        default_time_limit=args.default_time_limit,
        max_time_limit=args.max_time_limit, max_results=args.max_results,
        batch_size=args.batch_size, single_flight=not args.no_coalesce,
        allow_shutdown=args.allow_shutdown, trace_dir=args.trace_dir,
        circuit_threshold=args.circuit_threshold,
        circuit_reset=args.circuit_reset)
    for name in args.dataset or []:
        service.add_dataset(name)
    if args.input:
        service.add_graph(args.name or args.input, read_edge_list(args.input))
    if not service.hosts:
        raise SystemExit("nothing to serve: give --dataset NAME (repeatable) "
                         "and/or --input FILE")

    async def _run() -> None:
        await service.start()
        print(f"# serving {', '.join(sorted(service.hosts))} on "
              f"{service.host}:{service.port} "
              f"(max {service.admission.max_concurrent} concurrent, "
              f"queue {service.admission.max_queue}"
              f"{', coalescing' if service.single_flight else ''})",
              flush=True)
        await service.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    return 0


def _command_client(args: argparse.Namespace) -> int:
    from .resilience import RetryPolicy
    from .serve import ServeClient
    from .serve.protocol import clique_to_wire

    retry = (RetryPolicy(max_attempts=args.retries + 1)
             if args.retries > 0 else None)
    with ServeClient(host=args.host, port=args.port,
                     timeout=args.timeout, retry=retry) as client:
        if args.query or args.spec:
            if args.spec:
                spec_fields = QuerySpec.fields_from_json(
                    Path(args.spec).read_text(encoding="utf-8"))
            else:
                spec_fields = QuerySpec.fields_from_json(args.query)
            done: dict = {}
            count = 0
            if retry is not None or args.deadline is not None:
                # The resilient path: retries with backoff, stream resume
                # and deadline propagation (batches print on completion).
                cliques, done = client.query(spec_fields, graph=args.graph,
                                             batch=args.batch,
                                             deadline=args.deadline)
                for clique in sorted(map(clique_to_wire, cliques)):
                    count += 1
                    if args.json:
                        print(json.dumps({"clique": clique}), flush=True)
                    else:
                        print(" ".join(str(v) for v in clique), flush=True)
            else:
                for frame in client.query_stream(spec_fields, graph=args.graph,
                                                 batch=args.batch):
                    if frame["type"] == "batch":
                        for clique in frame["cliques"]:
                            count += 1
                            if args.json:
                                print(json.dumps({"clique": clique}), flush=True)
                            else:
                                print(" ".join(str(v) for v in clique),
                                      flush=True)
                    else:
                        done = frame
            if args.json:
                print(json.dumps(done))
            else:
                print(f"# {done.get('delivered', count)} answers "
                      f"({'cache' if done.get('from_cache') else 'executed'}"
                      f"{'; coalesced' if done.get('coalesced') else ''}; "
                      f"{done.get('seconds', 0):.3f}s server-side)")
        elif args.mutate:
            script = Path(args.mutate).read_text(encoding="utf-8")
            report = client.mutate(script=script, graph=args.graph)
            print(json.dumps(report, indent=2) if args.json
                  else f"# {report.get('mutations', '?')} mutations applied; "
                       f"cache: {report.get('invalidated', '?')} invalidated, "
                       f"{report.get('retained', '?')} retained")
        elif args.stats:
            print(json.dumps(client.stats(), indent=2))
        elif args.graphs:
            print(json.dumps(client.graphs(), indent=2))
        elif args.flush:
            print(f"# {client.flush(args.graph)} cached results flushed")
        elif args.shutdown:
            client.shutdown()
            print("# server shut down")
        else:
            client.ping()
            print("# pong")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mqce",
        description="Maximal quasi-clique enumeration (FastQC / DCFastQC / Quick+)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    query_parser = subparsers.add_parser(
        "query", help="answer one query on a local graph: enumerate (default), "
        "top-k, containment or count, with budgets, streaming and explain")
    _add_graph_arguments(query_parser)
    query_parser.add_argument("--spec", help="JSON file with QuerySpec fields "
                              "(explicit flags override it)")
    _add_parameter_arguments(query_parser)
    query_parser.add_argument("--algorithm", "-a", choices=("auto",) + ALGORITHMS,
                              help="force the MQCE-S1 algorithm (default: planner)")
    query_parser.add_argument("--branching", choices=("hybrid", "sym-se", "se"),
                              help="force the branching rule")
    query_parser.add_argument("--framework", choices=DC_FRAMEWORKS,
                              help="force the divide-and-conquer framework")
    query_parser.add_argument("--max-rounds", type=int, help="subproblem shrinking rounds")
    query_parser.add_argument("--parallel", choices=SPEC_PARALLEL_MODES,
                              help="parallel execution mode: auto fans a DC "
                              "run out to work-stealing workers once it has "
                              "done enough work, branch from the start")
    query_parser.add_argument("--workers", type=int, metavar="N",
                              help="worker processes a DC run may fan out to")
    query_parser.add_argument("--containing", nargs="+", metavar="VERTEX",
                              help="only quasi-cliques containing these vertices")
    query_parser.add_argument("--top", type=int, metavar="K",
                              help="only the K largest answers")
    query_parser.add_argument("--count", action="store_true",
                              help="print only the number of answers")
    query_parser.add_argument("--limit", type=int, metavar="N",
                              help="deliver at most N answers")
    query_parser.add_argument("--time-limit", type=float, metavar="SECONDS",
                              help="soft wall-clock budget (best-effort results)")
    query_parser.add_argument("--no-candidates", action="store_true",
                              help="drop the candidate list from JSON/summary output")
    query_parser.add_argument("--stream", action="store_true",
                              help="print each maximal quasi-clique as soon as it "
                              "is confirmed (incremental enumeration)")
    query_parser.add_argument("--explain", action="store_true",
                              help="print the query plan without enumerating")
    query_parser.add_argument("--json", action="store_true", help="print JSON only")
    query_parser.add_argument("--output", "-o", help="write the answers to this file")
    query_parser.add_argument("--trace", metavar="FILE",
                              help="write a Chrome trace (chrome://tracing / "
                              "Perfetto) of the query's phase spans to FILE")
    query_parser.add_argument("--progress-every", type=int, metavar="N",
                              help="print a heartbeat to stderr every N "
                              "enumeration branches")
    query_parser.set_defaults(handler=_command_query)

    stats_parser = subparsers.add_parser("stats", help="print graph statistics")
    _add_graph_arguments(stats_parser)
    stats_parser.set_defaults(handler=_command_stats)

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="stream an edge-list file into the CSR large-graph backend")
    ingest_parser.add_argument("input", help="edge-list file to ingest")
    ingest_parser.add_argument("--backend", choices=("csr", "dict"),
                               default="csr",
                               help="graph representation to build (dict exists "
                               "for memory comparisons; default csr)")
    ingest_parser.add_argument("--string-labels", action="store_true",
                               help="keep all labels as strings (skip canonical "
                                    "integer conversion)")
    ingest_parser.add_argument("--reject-duplicates", action="store_true",
                               help="fail on a repeated edge pair instead of "
                                    "deduplicating silently")
    ingest_parser.add_argument("--gamma", "-g", type=float,
                               help="also run one enumerate query: degree fraction")
    ingest_parser.add_argument("--theta", "-t", type=int,
                               help="also run one enumerate query: minimum size")
    ingest_parser.add_argument("--time-limit", type=float,
                               help="query budget in seconds (best-effort subset)")
    ingest_parser.add_argument("--limit", type=int,
                               help="stop the query after this many answers")
    ingest_parser.add_argument("--json", action="store_true",
                               help="print a JSON report instead of text")
    ingest_parser.set_defaults(handler=_command_ingest)

    datasets_parser = subparsers.add_parser("datasets", help="list dataset analogues")
    datasets_parser.set_defaults(handler=_command_datasets)

    table1_parser = subparsers.add_parser("table1", help="regenerate Table 1")
    table1_parser.add_argument("names", nargs="*", help="dataset names (default: all)")
    table1_parser.add_argument("--skip-quickplus", action="store_true")
    table1_parser.set_defaults(handler=_command_table1)

    figure_parser = subparsers.add_parser("figure", help="regenerate a figure")
    figure_parser.add_argument("figure", choices=sorted(_FIGURE_DISPATCH))
    figure_parser.set_defaults(handler=_command_figure)

    engine_parser = subparsers.add_parser(
        "engine", help="persistent query engine (parameter grids, prepared-graph stats)")
    engine_subparsers = engine_parser.add_subparsers(dest="engine_command", required=True)

    batch_sub = engine_subparsers.add_parser(
        "batch", help="run a gamma x theta parameter grid through one engine")
    _add_graph_arguments(batch_sub)
    _add_parameter_arguments(batch_sub)
    batch_sub.add_argument("--algorithm", "-a", choices=("auto",) + ALGORITHMS,
                           default="auto", help="force the MQCE-S1 algorithm "
                           "(default: let the planner decide)")
    batch_sub.add_argument("--gammas", help="comma-separated gamma values "
                           "(default: the single --gamma / dataset default)")
    batch_sub.add_argument("--thetas", help="comma-separated theta values "
                           "(default: the single --theta / dataset default)")
    batch_sub.add_argument("--repeat", type=int, default=1,
                           help="repeat the whole grid N times (cache demo)")
    batch_sub.add_argument("--json", action="store_true", help="print JSON only")
    batch_sub.set_defaults(handler=_command_engine_batch)

    stats_sub = engine_subparsers.add_parser(
        "stats", help="prepare the graph and print its artifacts and timings")
    _add_graph_arguments(stats_sub)
    _add_parameter_arguments(stats_sub)
    stats_sub.add_argument("--prometheus", action="store_true",
                           help="print the process metrics registry in "
                           "Prometheus text exposition format (runs one query "
                           "first when gamma/theta are available)")
    stats_sub.set_defaults(handler=_command_engine_stats)

    dynamic_parser = subparsers.add_parser(
        "dynamic", help="dynamic graph updates with incremental engine maintenance")
    dynamic_subparsers = dynamic_parser.add_subparsers(dest="dynamic_command",
                                                       required=True)

    apply_sub = dynamic_subparsers.add_parser(
        "apply", help="apply an update script to a graph and report the sync")
    _add_graph_arguments(apply_sub)
    apply_sub.add_argument("--updates", "-u", required=True,
                           help="update script: 'add U V' / 'remove U V' / "
                           "'add-vertex U' / 'remove-vertex U' per line")
    apply_sub.add_argument("--output", "-o", help="write the updated edge list here")
    apply_sub.add_argument("--json", action="store_true", help="print JSON only")
    apply_sub.set_defaults(handler=_command_dynamic_apply)

    dstats_sub = dynamic_subparsers.add_parser(
        "stats", help="print incremental-maintenance statistics (prepared "
        "artifacts, syncs, invalidations)")
    _add_graph_arguments(dstats_sub)
    dstats_sub.add_argument("--updates", "-u", help="update script applied first")
    dstats_sub.set_defaults(handler=_command_dynamic_stats)

    serve_parser = subparsers.add_parser(
        "serve", help="boot the long-lived query service (repro.serve)")
    _add_dataset_argument(serve_parser, "registered dataset analogue to serve "
                          "(repeatable)", action="append")
    serve_parser.add_argument("--input", "-i", help="edge-list file to serve")
    serve_parser.add_argument("--name", help="graph name for --input "
                              "(default: the file path)")
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=int, default=DEFAULT_SERVE_PORT,
                              help=f"TCP port (default {DEFAULT_SERVE_PORT}; "
                              "0 = ephemeral, printed on startup)")
    serve_parser.add_argument("--max-concurrent", type=int, default=4,
                              help="enumeration slots (default 4)")
    serve_parser.add_argument("--max-queue", type=int, default=16,
                              help="slot wait-queue bound before load shedding "
                              "(default 16)")
    serve_parser.add_argument("--batch-size", type=int, default=64,
                              help="cliques per batch frame (default 64)")
    serve_parser.add_argument("--default-time-limit", type=float, metavar="SECONDS",
                              help="time budget applied to requests that carry none")
    serve_parser.add_argument("--max-time-limit", type=float, metavar="SECONDS",
                              help="hard cap on per-request time budgets")
    serve_parser.add_argument("--max-results", type=int, metavar="N",
                              help="hard cap on per-request result budgets")
    serve_parser.add_argument("--no-coalesce", action="store_true",
                              help="disable single-flight coalescing of "
                              "identical in-flight queries (A/B testing)")
    serve_parser.add_argument("--allow-shutdown", action="store_true",
                              help="honour the 'shutdown' wire operation")
    serve_parser.add_argument("--trace-dir", metavar="DIR",
                              help="write a Chrome trace per query request here")
    serve_parser.add_argument("--circuit-threshold", type=int, default=5,
                              metavar="N", help="consecutive failures per "
                              "(graph, spec) before its circuit opens "
                              "(default 5)")
    serve_parser.add_argument("--circuit-reset", type=float, default=30.0,
                              metavar="SECONDS", help="seconds an open circuit "
                              "waits before a half-open probe (default 30)")
    serve_parser.add_argument("--faults", metavar="PLAN",
                              help="deterministic fault-injection plan "
                              "(REPRO_FAULTS syntax, e.g. "
                              "'serve.write_frame:drop:times=2'); chaos "
                              "testing only")
    serve_parser.set_defaults(handler=_command_serve)

    client_parser = subparsers.add_parser(
        "client", help="talk to a running repro serve instance")
    client_parser.add_argument("--host", default="127.0.0.1", help="server address")
    client_parser.add_argument("--port", type=int, default=DEFAULT_SERVE_PORT,
                               help=f"server port (default {DEFAULT_SERVE_PORT})")
    client_parser.add_argument("--graph", help="target graph name (needed only "
                               "when the server hosts several)")
    client_parser.add_argument("--timeout", type=float, default=60.0,
                               help="socket timeout in seconds (default 60)")
    client_parser.add_argument("--retries", type=int, default=0, metavar="N",
                               help="retry transient failures up to N times "
                               "with decorrelated-jitter backoff, resuming "
                               "interrupted query streams (default 0)")
    client_parser.add_argument("--deadline", type=float, metavar="SECONDS",
                               help="overall wall-clock budget; bounds the "
                               "retry loop and clamps the server-side "
                               "enumeration budget")
    client_action = client_parser.add_mutually_exclusive_group()
    client_action.add_argument("--query", metavar="JSON",
                               help="QuerySpec fields as an inline JSON object")
    client_action.add_argument("--spec", metavar="FILE",
                               help="JSON file with QuerySpec fields")
    client_action.add_argument("--mutate", metavar="FILE",
                               help="update script to apply server-side")
    client_action.add_argument("--stats", action="store_true",
                               help="print server statistics")
    client_action.add_argument("--graphs", action="store_true",
                               help="list the served graphs")
    client_action.add_argument("--flush", action="store_true",
                               help="drop the server's cached results")
    client_action.add_argument("--shutdown", action="store_true",
                               help="stop the server (needs --allow-shutdown "
                               "server-side)")
    client_parser.add_argument("--batch", type=int, metavar="N",
                               help="cliques per batch frame")
    client_parser.add_argument("--json", action="store_true", help="print JSON only")
    client_parser.set_defaults(handler=_command_client)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as exc:
        # Unified error surface: invalid parameters, specs, queries and graph
        # inputs, and OS errors on the files and sockets a command names (a
        # missing input, a refused connection), exit with code 2 and one line
        # on stderr, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
