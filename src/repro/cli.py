"""Command-line interface: the source-to-source compiler and the
experiment harness as a tool.

Usage::

    python -m repro transform FILE [--style stripmined|direct|spmd]
    python -m repro analyze FILE
    python -m repro simulate KERNEL [--machine ksr2|convex] [--procs ...]
    python -m repro exec KERNEL [--backend interp|vector|jit|mpjit|cjit]
                         [--n N] [--autotune]
    python -m repro serve [--port P | --socket PATH] [--max-queue Q]
    python -m repro loadgen [--concurrency N] [--duration S]
    python -m repro experiment NAME        # table1, table2, fig18..fig26
    python -m repro list

``transform`` reads a DSL loop program and writes the fused source;
``analyze`` prints the dependence summary, the derived shift/peel plan and
a legality/profitability report; ``simulate`` runs a kernel on a simulated
machine; ``exec`` really executes a kernel through one of the runtime
backends and reports wall-clock time plus a checksum; ``serve`` runs
the long-lived compile-and-execute daemon (one shared plan cache and
worker pool for all clients); ``loadgen`` drives a running daemon and
reports service latency telemetry; ``experiment`` regenerates one
table/figure.  The repo's benchmark is ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .core import (
    evaluate_profitability,
    fuse_sequence,
    max_processors,
)
from .dependence import analyze_sequence
from .experiments import (
    fig15_16,
    fig18,
    fig20,
    fig21,
    fig22,
    fig23,
    fig24,
    fig25,
    fig26,
    setup_kernel,
    table1,
    table2,
)
from .kernels import all_kernels
from .lang import parse_program, transform_source
from .machine import convex_spp1000, ksr2
from .runtime import available_backends

EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "fig15": fig15_16,
    "fig18": fig18,
    "fig20": fig20,
    "fig21": fig21,
    "fig22": fig22,
    "fig23": fig23,
    "fig24": fig24,
    "fig25": fig25,
    "fig26": fig26,
}

MACHINES = {"ksr2": ksr2, "convex": convex_spp1000}


def cmd_transform(args: argparse.Namespace) -> int:
    """``repro transform``: DSL file in, fused source out."""
    source = _read(args.file)
    print(transform_source(source, name=args.file, style=args.style))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """``repro analyze``: dependences, derived plan, legality, advice."""
    source = _read(args.file)
    program = parse_program(source, name=args.file)
    seq = program.sequences[0]
    summary = analyze_sequence(seq, program.params)
    print(f"{len(seq)} nests, {summary.edge_count()} uniform dependences "
          f"({summary.pairs_tested} reference pairs tested, "
          f"{summary.independent_pairs} proved independent)")
    for dep in summary.deps:
        print(f"  {dep}")
    result = fuse_sequence(seq, program.params)
    print()
    print(result.plan.describe())
    params = {p: args.n for p in program.params}
    ceiling = max_processors(result.plan, params)
    print(f"\nwith {'/'.join(f'{p}={args.n}' for p in program.params)}: "
          f"legal up to {ceiling[0]} processors (Theorem 1)")
    machine = MACHINES[args.machine]()
    advice = evaluate_profitability(
        program, result.plan, params, args.procs, machine.cache.capacity_bytes
    )
    print(f"profitability at P={args.procs} on {machine.name}: {advice}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """``repro simulate``: speedup sweep of a kernel on a machine model."""
    machine = MACHINES[args.machine]()
    exp = setup_kernel(args.kernel, machine, dims_div=args.scale)
    counts = [int(p) for p in args.procs.split(",")]
    print(f"{args.kernel} on {exp.machine.name} "
          f"(cache {exp.machine.cache.capacity_bytes // 1024} KB, "
          f"params {exp.params}, strip {exp.strip})")
    print(f"{'P':>3} {'unfused':>9} {'fused':>9} {'improvement':>12}")
    for point in exp.curves(counts):
        print(f"{point.num_procs:3d} {point.speedup_unfused:9.2f} "
              f"{point.speedup_fused:9.2f} "
              f"{100 * (point.improvement - 1):+11.1f}%")
    return 0


def cmd_exec(args: argparse.Namespace) -> int:
    """``repro exec``: really run a kernel through a runtime backend.

    ``--json PATH`` also writes the record as JSON; ``--json -`` writes
    it to **stdout** (the human-readable report moves to stderr), so
    pipelines and external clients consume records without temp files.
    """
    import builtins
    import functools
    import json

    from .core import FusionLegalityError, StripError
    from .runtime.benchmarking import measure_kernel

    json_to_stdout = args.json == "-"
    print = functools.partial(  # noqa: A001 - deliberate local rebind
        builtins.print, file=sys.stderr if json_to_stdout else sys.stdout)
    try:
        record = measure_kernel(
            args.kernel,
            args.backend,
            n=args.n,
            procs=args.procs,
            strip=args.strip,
            repeat=args.repeat,
            verify=args.verify,
            use_cache=args.use_cache,
            max_workers=args.max_workers,
            autotune=args.autotune,
            retries=args.retries,
        )
    except (FusionLegalityError, StripError) as exc:
        print(f"repro exec: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"{record['kernel']} [{record['shape']}] on backend "
          f"{record['backend']} with {record['procs']} processors:")
    if "autotune" in record:
        tune = record["autotune"]
        stats = tune.get("stats", {})
        winner = tune.get("winner", {}).get("config", {})
        what = ", ".join(f"{k}={v}" for k, v in sorted(winner.items()))
        if tune.get("hit"):
            print(f"  auto-tuner: hit (persisted winner reused, "
                  f"0 candidates timed) -> {what}")
        else:
            print(f"  auto-tuner: miss ({tune.get('candidates_timed', 0)} "
                  f"candidates timed in {tune.get('tune_seconds', 0.0):.3f} s)"
                  f" -> {what}")
        print(f"  auto-tuner stats: {stats.get('hits', 0)} hits, "
              f"{stats.get('misses', 0)} misses, "
              f"{stats.get('stores', 0)} stores, "
              f"{stats.get('invalid', 0)} invalid")
    print(f"  {record['seconds']:.6f} s for {record['iterations']} iterations"
          f"{' (verified against interp)' if args.verify else ''}")
    print(f"  cold {record['cold_seconds']:.6f} s "
          f"(plan {record['plan_seconds']:.6f} s, "
          f"compile {record['compile_seconds']:.6f} s), "
          f"warm {record['warm_seconds']:.6f} s")
    if "cache" in record:
        cache = record["cache"]
        print(f"  plan cache: {cache.get('memory_hits', 0)} memory hits, "
              f"{cache.get('disk_hits', 0)} disk hits, "
              f"{cache.get('misses', 0)} misses, "
              f"{cache.get('alias_hits', 0)} alias hits")
    if "cjit" in record:
        cjit = record["cjit"]
        if cjit.get("native"):
            print(f"  native tier: live "
                  f"(compiler {cjit.get('compiler_fingerprint', '?')})")
        else:
            print(f"  native tier: fell back to jit — "
                  f"{cjit.get('fallback_reason', 'unknown reason')}")
    if "pool_workers" in record:
        if record["engine"] == "threads":
            print(f"  thread team: {record['pool_workers']} native threads "
                  f"per run ({record['pool_runs']} runs), "
                  f"steady-state {record['steady_seconds']:.6f} s")
        elif record["pool_workers"]:
            print(f"  worker pool: {record['pool_workers']} workers "
                  f"(spawned in {record['pool_spawn_seconds']:.6f} s, "
                  f"{record['pool_runs']} runs), "
                  f"steady-state {record['steady_seconds']:.6f} s")
        else:
            print("  worker pool: bypassed (one worker resolved; "
                  "ran the compiled module serially)")
    if "recovery" in record:
        recovery = record["recovery"]
        print(f"  recovery: {recovery['retries']} retries, "
              f"{recovery['degraded_runs']} degraded runs "
              f"(budget {recovery['budget']})")
    print(f"  checksum {record['checksum']}")
    if json_to_stdout:
        json.dump(record, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  wrote {args.json}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the long-lived compile-and-execute daemon."""
    import asyncio

    from .serve.server import FusionServer, ServerConfig

    weights: dict[str, float] = {}
    for spec in args.tenant_weight or ():
        name, _, raw = spec.partition("=")
        try:
            weight = float(raw)
        except ValueError:
            weight = 0.0
        if not name or weight <= 0 or not math.isfinite(weight):
            print(f"bad --tenant-weight {spec!r} (want NAME=WEIGHT with "
                  f"a positive, finite weight)", file=sys.stderr)
            return 2
        weights[name] = weight
    if args.chaos:
        from .runtime.faults import FaultPlan, FaultSpecError

        try:
            FaultPlan.parse(args.chaos, source="--chaos")
        except FaultSpecError as exc:
            print(f"bad --chaos spec: {exc}", file=sys.stderr)
            return 2
    config = ServerConfig(
        host=args.host, port=args.port, socket_path=args.socket,
        max_queue=args.max_queue, max_batch=args.max_batch,
        tenant_weights=weights, retries=args.retries, chaos=args.chaos,
    )

    def announce(address: str) -> None:
        print(f"repro-serve listening on {address} "
              f"(max queue {config.max_queue}, max batch "
              f"{config.max_batch})", flush=True)

    server = FusionServer(config, on_listening=announce)
    try:
        asyncio.run(server.serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive ^C race
        pass
    print(f"repro-serve drained: {server.stats['completed']} completed, "
          f"{server.admission.stats['batched_requests']} batched, "
          f"{server.admission.stats['shed_queue_full'] + server.admission.stats['shed_deadline']} shed",
          flush=True)
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """``repro loadgen``: drive a daemon, record service telemetry."""
    import json
    from pathlib import Path

    from .serve.loadgen import run_loadgen

    say = print if args.json != "-" else (
        lambda message: print(message, file=sys.stderr))
    try:
        payload = run_loadgen(
            kernel=args.kernel, n=args.n, procs=args.procs,
            backend=args.backend, strip=args.strip,
            max_workers=args.max_workers,
            host=args.host, port=args.port, socket_path=args.socket,
            concurrency=args.concurrency, duration=args.duration,
            deadline_ms=args.deadline_ms, tenants=args.tenants,
            chaos=args.chaos, progress=say,
        )
    except (OSError, RuntimeError) as exc:
        print(f"loadgen failed: {exc}", file=sys.stderr)
        return 2
    if args.json == "-":
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    elif args.json:
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        say(f"  wrote {args.json}")
    entry = payload["entries"][0]
    if entry["checksum_mismatches"]:
        print(f"loadgen: {entry['checksum_mismatches']} responses "
              f"disagreed with the direct-exec checksum", file=sys.stderr)
        return 3
    if entry["client_failures"]:
        print(f"loadgen: worker failures: {entry['client_failures']}",
              file=sys.stderr)
        return 2
    if not entry["requests"]["ok"]:
        print("loadgen: no successful responses", file=sys.stderr)
        return 2
    if args.require_batching:
        server = payload.get("server") or {}
        batched = server.get("admission", {}).get("batched_requests", 0)
        if not batched:
            print("loadgen: --require-batching set but the server "
                  "coalesced nothing", file=sys.stderr)
            return 4
    if args.min_availability is not None:
        floor = args.min_availability / 100.0
        availability = entry.get("availability", 0.0)
        if availability < floor:
            print(f"loadgen: availability {availability * 100:.2f}% is "
                  f"below the --min-availability floor "
                  f"{args.min_availability:.2f}%", file=sys.stderr)
            return 5
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """``repro experiment``: regenerate one named table/figure."""
    fn = EXPERIMENTS.get(args.name)
    if fn is None:
        print(f"unknown experiment {args.name!r}; choose from "
              f"{', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    print(fn().format())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .experiments import generate_report

    report = generate_report(quick=not args.full)
    print(report.format())
    return 0 if report.all_ok else 1


def cmd_list(args: argparse.Namespace) -> int:
    """``repro list``: enumerate kernels and experiments."""
    print("kernels/applications:")
    for info in sorted(all_kernels(), key=lambda k: k.name):
        kind = "application" if info.is_application else "kernel"
        print(f"  {info.name:8s} ({kind}): {info.description}")
    print("\nexperiments:", ", ".join(sorted(EXPERIMENTS)))
    print("plus: report (all of the above with claim checks)")
    return 0


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _strip_width(text: str) -> int:
    """``--strip`` values: Fig. 12's tiles need a width of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree (kept separate for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="shift-and-peel loop fusion (ICPP 1995 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="fuse a DSL loop program")
    p.add_argument("file", help="DSL source file ('-' for stdin)")
    p.add_argument("--style", default="stripmined",
                   choices=("stripmined", "direct", "spmd"))
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("analyze", help="dependences, plan, profitability")
    p.add_argument("file")
    p.add_argument("--n", type=int, default=512, help="size parameter value")
    p.add_argument("--procs", type=int, default=8)
    p.add_argument("--machine", default="convex", choices=tuple(MACHINES))
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("simulate", help="run a kernel on a simulated machine")
    p.add_argument("kernel", choices=sorted(k.name for k in all_kernels()))
    p.add_argument("--machine", default="convex", choices=tuple(MACHINES))
    p.add_argument("--procs", default="1,2,4,8,16")
    p.add_argument("--scale", type=int, default=4,
                   help="linear scale divisor for arrays and caches")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("exec", help="execute a kernel through a backend")
    p.add_argument("kernel", choices=sorted(k.name for k in all_kernels()))
    p.add_argument("--backend", default="vector",
                   choices=available_backends())
    p.add_argument("--n", type=int, default=None,
                   help="size parameter value (default: kernel default)")
    p.add_argument("--procs", type=int, default=4)
    p.add_argument("--strip", type=_strip_width, default=None,
                   help="strip-mine the fused phase at run time "
                        "(cjit, the mpjit team, vector, interp; the numpy "
                        "modules run whole boxes, with the same bits)")
    p.add_argument("--repeat", type=int, default=3,
                   help="timing repeats (best is reported)")
    p.add_argument("--verify", action="store_true",
                   help="cross-check bit-identical against the interpreter "
                        "(the reported time then includes that check)")
    p.add_argument("--no-cache", dest="use_cache", action="store_false",
                   help="compile the jit/cjit/mpjit modules once into a "
                        "fresh in-memory plan cache (a cold compile, "
                        "reported; touches no cache files); no effect on "
                        "other backends")
    p.add_argument("--max-workers", type=int, default=None,
                   help="cap the mpjit worker count (default: the "
                        "CPUs this process may run on)")
    p.add_argument("--autotune", action="store_true", dest="autotune",
                   help="pick backend/strip/workers by measured cost "
                        "(winner persisted next to the plan cache; warm "
                        "runs reuse it without re-timing)")
    p.add_argument("--no-autotune", action="store_false", dest="autotune",
                   help="disable the auto-tuner (the default)")
    p.add_argument("--retries", type=int, default=0,
                   help="retry a failed run up to this many times, "
                        "degrading mpjit -> jit -> vector (bit-identical "
                        "results either way); 0 fails fast")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the record as JSON")
    p.set_defaults(fn=cmd_exec, autotune=False)

    p = sub.add_parser("serve",
                       help="run the compile-and-execute service daemon "
                            "(newline-delimited JSON over TCP or a unix "
                            "socket; one shared plan cache and worker "
                            "pool for all clients)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7455,
                   help="TCP port (0 picks a free one; the bound address "
                        "is printed on startup)")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="serve on a unix domain socket instead of TCP")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission bound: requests queued beyond this "
                        "are shed with an 'overloaded' response")
    p.add_argument("--max-batch", type=int, default=16,
                   help="most identical-signature requests coalesced "
                        "into one compile-once run-back-to-back batch")
    p.add_argument("--tenant-weight", action="append", metavar="NAME=W",
                   help="weighted fair share for a tenant (repeatable; "
                        "unlisted tenants weigh 1)")
    p.add_argument("--retries", type=int, default=2,
                   help="server-side retry budget per exec request; "
                        "retries degrade mpjit -> jit -> vector "
                        "(bit-identical results)")
    p.add_argument("--chaos", default=None, metavar="SPEC",
                   help="install a deterministic fault plan at boot "
                        "(e.g. 'crash@run=3,9;cache_corrupt@exec=5'; "
                        "grammar in repro.runtime.faults)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("loadgen",
                       help="drive a running daemon with closed-loop "
                            "clients and record sustained req/s + "
                            "p50/p95/p99 + deadline-miss telemetry")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7455)
    p.add_argument("--socket", default=None, metavar="PATH")
    p.add_argument("--kernel", default="jacobi",
                   choices=sorted(k.name for k in all_kernels()))
    p.add_argument("--n", type=int, default=65)
    p.add_argument("--procs", type=int, default=4)
    p.add_argument("--backend", default="jit",
                   choices=available_backends())
    p.add_argument("--strip", type=_strip_width, default=None)
    p.add_argument("--max-workers", type=int, default=None,
                   help="worker-pool size for mpjit requests (forces "
                        "a real pool on few-core hosts so chaos worker "
                        "faults can actually fire)")
    p.add_argument("--concurrency", type=int, default=8,
                   help="closed-loop worker connections")
    p.add_argument("--duration", type=float, default=10.0,
                   help="measured seconds (a warm-up request runs first)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request deadline: the daemon sheds "
                        "hopeless requests, the report counts misses")
    p.add_argument("--tenants", type=int, default=1,
                   help="spread workers across this many tenant names")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the telemetry payload ('-' for "
                        "stdout; progress then goes to stderr)")
    p.add_argument("--require-batching", action="store_true",
                   help="exit 4 unless the server reports "
                        "batched_requests > 0 (CI asserts coalescing)")
    p.add_argument("--chaos", default=None, metavar="SPEC",
                   help="install this fault plan on the daemon for the "
                        "measured window (cleared afterwards)")
    p.add_argument("--min-availability", type=float, default=None,
                   metavar="PCT",
                   help="exit 5 if ok/(ok+errors) lands below this "
                        "percentage (the chaos-soak gate)")
    p.set_defaults(fn=cmd_loadgen)

    p = sub.add_parser("experiment", help="regenerate one table/figure")
    p.add_argument("name")
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("report", help="regenerate the whole evaluation")
    p.add_argument("--full", action="store_true",
                   help="full sweeps (minutes) instead of quick ones")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("list", help="list kernels and experiments")
    p.set_defaults(fn=cmd_list)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
