"""Command-line entry point: ``python -m repro.serve <verb> [...]``.

Verbs::

    save     train a predictor at the current scale and publish it
    list     show every (name, version) in a registry
    predict  answer one C-source request, or serve a JSON-lines loop
    bench    measure single/batched/cached serving throughput
    stress   chaos-stress the concurrent serving tier (repro.faults)

Examples::

    python -m repro.serve save --name rgcn-hier --approach hierarchical
    python -m repro.serve list
    python -m repro.serve predict --name rgcn-hier --source kernel.c
    echo '{"id": 1, "source": "..."}' | python -m repro.serve predict \\
        --name rgcn-hier --jsonl
    python -m repro.serve bench --name rgcn-hier --requests 64
    python -m repro.serve stress --inject faults.json --obs \\
        --bench-out BENCH_serve.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.dataset.features import TARGET_NAMES
from repro.serve.registry import ModelRegistry
from repro.serve.service import PredictionService, ServiceConfig

DEFAULT_REGISTRY = "model-registry"


def _prediction_json(values: np.ndarray) -> dict:
    return {name: round(float(v), 4) for name, v in zip(TARGET_NAMES, values)}


def _service(args: argparse.Namespace) -> PredictionService:
    config = ServiceConfig(
        max_batch_size=args.batch_size, cache_size=args.cache_size
    )
    return PredictionService.from_registry(
        args.registry, args.name, args.version, config=config
    )


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------
def cmd_save(args: argparse.Namespace) -> int:
    from repro.experiments.common import get_scale
    from repro.experiments.publish import train_predictor

    scale = get_scale(args.scale)
    print(
        f"training {args.approach} ({args.model}) on the synthetic "
        f"{args.mode} set at scale '{scale.name}'",
        file=sys.stderr,
    )
    predictor, metrics = train_predictor(
        args.approach, scale, args.model, mode=args.mode, seed=args.seed
    )
    record = ModelRegistry(args.registry).register(
        args.name, predictor, extras=metrics
    )
    print(
        json.dumps(
            {
                "name": record.name,
                "version": record.version,
                "path": str(record.path),
                "kind": record.kind,
                "metrics": record.extras,
            }
        )
    )
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    records = ModelRegistry(args.registry).list_models()
    if not records:
        print(f"(no models in {args.registry})")
        return 0
    latest = {}
    for record in records:
        latest[record.name] = max(latest.get(record.name, 0), record.version)
    for record in records:
        tag = "  <- latest" if record.version == latest[record.name] else ""
        extras = f"  {json.dumps(record.extras)}" if record.extras else ""
        print(
            f"{record.name:24s} v{record.version:<3d} {record.kind:14s} "
            f"{record.model_name:8s}{extras}{tag}"
        )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    service = _service(args)
    if args.jsonl:
        return _jsonl_loop(service, args)
    if args.source == "-":
        source = sys.stdin.read()
    else:
        with open(args.source) as handle:
            source = handle.read()
    values = service.predict_source(source, kind=args.kind)
    print(
        json.dumps(
            {
                "model": f"{args.name}@{args.version}",
                "prediction": _prediction_json(values),
            }
        )
    )
    return 0


def _jsonl_loop(service: PredictionService, args: argparse.Namespace) -> int:
    """Serve newline-delimited JSON requests from stdin until EOF.

    Each request is ``{"id": ..., "source": "..."}`` or
    ``{"id": ..., "graph": {...}}`` (see
    :func:`repro.serve.encoding.graph_from_payload`); each response line
    echoes the id with a ``prediction`` or a structured ``error``
    (``{"type": ..., "message": ...}``). A malformed line — bad JSON, a
    parse error, an invalid graph, even a model failure — poisons only
    its own response; the loop keeps serving.
    """
    from repro.serve.encoding import encode_source, graph_from_payload

    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        response: dict = {}
        try:
            request = json.loads(line)
            response["id"] = request.get("id")
            if "source" in request:
                graph = encode_source(
                    request["source"],
                    kind=request.get("kind"),
                    with_hls_resources=service.predictor.requires_hls,
                )
            elif "graph" in request:
                graph = graph_from_payload(request["graph"])
            else:
                raise ValueError("request needs a 'source' or 'graph' key")
            hits_before = service.stats.cache_hits
            values = service.predict_one(graph)
            response["prediction"] = _prediction_json(values)
            response["cached"] = service.stats.cache_hits > hits_before
        except Exception as exc:  # noqa: BLE001 — the loop must not die
            response["error"] = {
                "type": type(exc).__name__,
                "message": str(exc),
            }
        print(json.dumps(response), flush=True)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.ldrgen.config import GeneratorConfig
    from repro.ldrgen.generator import ProgramGenerator
    from repro.obs import RunLedger, throughput_summary
    from repro.serve.encoding import encode_program

    service = _service(args)
    mode = args.mode
    generator = ProgramGenerator(GeneratorConfig(mode=mode), seed=args.seed)
    graphs = [
        encode_program(
            generator.generate(),
            kind=mode,
            with_hls_resources=service.predictor.requires_hls,
        )
        for _ in range(args.requests)
    ]

    start = time.perf_counter()
    for graph in graphs:
        service.predictor.predict([graph])
    naive_s = time.perf_counter() - start

    start = time.perf_counter()
    service.predict(graphs)
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    service.predict(graphs)
    cached_s = time.perf_counter() - start

    n = len(graphs)
    # Same flattening as BENCH_serve.json (see repro.obs.timing), same
    # stats serialization as the ledger (ServiceStats.as_dict).
    summary = throughput_summary(
        {"naive": naive_s, "batched": batched_s, "cached": cached_s}, n
    )
    summary.update(
        {
            "batch_size": args.batch_size,
            "batched_speedup": round(naive_s / batched_s, 2),
            "stats": service.stats.as_dict(),
        }
    )
    if args.obs:
        with RunLedger(
            "serve-bench",
            meta={"model": f"{args.name}@{args.version}", "mode": mode},
        ) as ledger:
            ledger.record("serve_bench", summary)
            ledger.attach_registry(service.metrics)
    print(json.dumps(summary))
    return 0


def cmd_stress(args: argparse.Namespace) -> int:
    """Chaos-stress the serving tier; non-zero exit on any hung request."""
    import contextlib

    from repro.faults import load_fault_plan, use_faults
    from repro.serve.server import PredictionServer, ServerConfig
    from repro.serve.stress import ephemeral_predictor, run_stress

    plan = load_fault_plan(args.inject) if args.inject else None
    config = ServerConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_batch_size=args.batch_size,
        max_wait_ms=args.max_wait_ms,
        default_deadline_ms=args.deadline_ms,
        max_retries=args.max_retries,
        retry_seed=args.seed,
        cache_size=args.cache_size,
    )
    if args.name:
        server = PredictionServer(
            args.registry, args.name, args.version, config=config
        )
    else:
        # Registry-less smoke (CI): train a tiny throwaway model.
        print("no --name given; training an ephemeral predictor", file=sys.stderr)
        server = PredictionServer.from_predictor(
            ephemeral_predictor(args.seed), config=config
        )
    faults_scope = use_faults(plan) if plan is not None else contextlib.nullcontext()
    with server, faults_scope:
        summary = run_stress(
            server,
            requests=args.requests,
            seed=args.seed,
            deadline_ms=args.deadline_ms,
            mode=args.mode,
        )

    if args.bench_out:
        # Merge as the "stress" section of the serve bench artifact so
        # check_regression gates rps/p99 alongside the throughput gates.
        from pathlib import Path

        path = Path(args.bench_out)
        payload = json.loads(path.read_text()) if path.exists() else {}
        payload["stress"] = summary
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    if args.obs:
        from repro.obs import RunLedger

        model = f"{args.name}@{args.version}" if args.name else "ephemeral"
        with RunLedger(
            "serve-stress",
            meta={"model": model, "inject": args.inject or "none"},
            config={"requests": args.requests, "seed": args.seed},
        ) as ledger:
            ledger.record("serve_stress", summary)
            ledger.attach_registry(server.metrics)
    print(json.dumps(summary))
    if summary["hung"]:
        print(f"error: {summary['hung']} requests hung", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------
def _add_registry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--registry",
        default=DEFAULT_REGISTRY,
        help=f"registry root directory (default: ./{DEFAULT_REGISTRY})",
    )


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    _add_registry_args(parser)
    parser.add_argument("--name", required=True, help="registered model name")
    parser.add_argument("--version", default="latest", help="vN or 'latest'")
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--cache-size", type=int, default=1024)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Save, list, query and benchmark prediction services.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    save = sub.add_parser("save", help="train and publish a predictor")
    _add_registry_args(save)
    save.add_argument("--name", required=True)
    save.add_argument(
        "--approach",
        default="off_the_shelf",
        choices=["off_the_shelf", "knowledge_rich", "hierarchical"],
    )
    save.add_argument("--model", default="rgcn", help="zoo architecture name")
    save.add_argument("--mode", default="dfg", choices=["dfg", "cdfg"])
    save.add_argument("--scale", default=None, choices=["ci", "small", "paper"])
    save.add_argument("--seed", type=int, default=0)
    save.set_defaults(func=cmd_save)

    list_ = sub.add_parser("list", help="list registered models")
    _add_registry_args(list_)
    list_.set_defaults(func=cmd_list)

    predict = sub.add_parser("predict", help="answer C-source requests")
    _add_service_args(predict)
    predict.add_argument(
        "--source", default="-", help="C source file ('-' = stdin; default)"
    )
    predict.add_argument("--kind", default=None, choices=["dfg", "cdfg"])
    predict.add_argument(
        "--jsonl",
        action="store_true",
        help="serve newline-delimited JSON requests from stdin",
    )
    predict.set_defaults(func=cmd_predict)

    bench = sub.add_parser("bench", help="measure serving throughput")
    _add_service_args(bench)
    bench.add_argument("--requests", type=int, default=64)
    bench.add_argument("--mode", default="dfg", choices=["dfg", "cdfg"])
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--obs",
        action="store_true",
        help="record the run (summary + latency histograms) under REPRO_OBS_DIR",
    )
    bench.set_defaults(func=cmd_bench)

    stress = sub.add_parser(
        "stress", help="chaos-stress the concurrent serving tier"
    )
    _add_registry_args(stress)
    stress.add_argument(
        "--name", default=None,
        help="registered model name (omit to train an ephemeral tiny model)",
    )
    stress.add_argument("--version", default="latest", help="vN or 'latest'")
    stress.add_argument("--requests", type=int, default=96)
    stress.add_argument("--mode", default="dfg", choices=["dfg", "cdfg"])
    stress.add_argument("--seed", type=int, default=0)
    stress.add_argument("--workers", type=int, default=2)
    stress.add_argument("--queue-depth", type=int, default=16)
    stress.add_argument("--batch-size", type=int, default=16)
    stress.add_argument("--cache-size", type=int, default=1024)
    stress.add_argument("--max-wait-ms", type=float, default=2.0)
    stress.add_argument("--deadline-ms", type=float, default=500.0)
    stress.add_argument("--max-retries", type=int, default=2)
    stress.add_argument(
        "--inject", default=None, metavar="FAULTS_JSON",
        help="fault plan (repro.faults JSON) injected under the traffic",
    )
    stress.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="merge the summary into PATH as its 'stress' section",
    )
    stress.add_argument(
        "--obs",
        action="store_true",
        help="record the run (summary + serve.* metrics) under REPRO_OBS_DIR",
    )
    stress.set_defaults(func=cmd_stress)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # Operational errors (unknown model, bad version, unreadable or
        # malformed source, invalid graph) are user input problems, not
        # crashes: RegistryError/ArtifactError/ParseError/
        # GraphValidationError are all ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
